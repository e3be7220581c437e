"""Benchmark of iterant-lab, driven through its CLI entry point in-process.

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the program is imported from
``src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import workloads
from reference import reference_slice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SPAWNS = 5
SETUP_CODE = "import iterant_lab.cli as cli; cli.build_parser()"
SLICE_PERIOD_S = 0.5
REF_WINDOW_S = 1.5


class RefSampler:
    """Reference slices, taken before and after the passes and every
    SLICE_PERIOD_S of wall time in between, from a SIGALRM handler in this
    same thread.  Time spent in the handler is kept apart, so operations
    can subtract it from their own durations."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.results: set = set()
        self.spent = 0.0

    def take(self, *_signal_args) -> None:
        # A collection started inside the slice would charge it for the
        # program's heap, so collections wait until the slice is done.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.results.add(reference_slice())
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> RefSampler:
        self.take()
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()
        if len(self.results) != 1:
            raise RuntimeError("reference slices disagree; the interpreter is broken")

    def local(self, start: float, end: float) -> float:
        """Mean slice time within REF_WINDOW_S of the interval [start, end].

        The machine's speed steps up and down over seconds, so each operation
        is divided by the slices taken around it rather than by the run's mean."""
        near = [d for t, d in zip(self.starts, self.samples)
                if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        return statistics.fmean(near or self.samples)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)

    def note(self, argv, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{' '.join(argv)[:120]}: {message}")


@dataclass(frozen=True)
class Outcome:
    code: int | None
    out: str
    err: str
    error: Exception | None
    seconds: float  # the call's own duration, reference slices taken out
    start: float
    end: float


def call(main, argv, sampler: RefSampler | None = None) -> Outcome:
    """One in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        spent = sampler.spent if sampler else 0.0
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an error escaping the entry point is a failed operation
            code, error = None, exc
        end = time.perf_counter()
        seconds = end - start - ((sampler.spent - spent) if sampler else 0.0)
    return Outcome(code, out.getvalue(), err.getvalue(), error, seconds, start, end)


def judge(op: workloads.Op, o: Outcome, tally: Tally) -> None:
    tally.attempted += 1
    if op.fault:
        if o.error is not None or not oracles.handled_cleanly(o.code, o.out, o.err):
            tally.failed += 1
        return
    if o.error is not None or o.code not in (0, 1):
        tally.failed += 1
        tally.note(op.argv, f"exit {o.code}, {o.error!r}, stderr {o.err.strip()[-200:]!r}")
        return
    try:
        op.check(o.code, o.out)
    except (oracles.Mismatch, KeyError, TypeError, ValueError) as exc:
        tally.correct = False
        tally.note(op.argv, f"wrong output: {exc!r}")


def run_pass(main, ops, tally: Tally, sampler: RefSampler | None = None):
    """Every operation once; returns (seconds, start, end) of each."""
    timings = []
    for op in ops:
        outcome = call(main, op.argv, sampler)
        timings.append((outcome.seconds, outcome.start, outcome.end))
        judge(op, outcome, tally)
    return timings


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI and building
    its parser.  The first spawn, which writes the byte-code caches, is not counted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"the program does not import: {proc.stderr.strip()[-400:]}")
        if spawn:
            times.append(elapsed)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measured_run(main, ops, seconds: float, tally: Tally) -> dict:
    passes = []
    with RefSampler() as sampler:
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(main, ops, tally, sampler))
    normed = [[s / sampler.local(start, end) for s, start, end in timings] for timings in passes]
    durations = [d for pass_durations in normed for d in pass_durations]
    print(f"undivided: pass_s={statistics.median(sum(t[0] for t in p) for p in passes):.4f} "
          f"ref_s={statistics.fmean(sampler.samples):.5f} passes={len(passes)} "
          f"slices={len(sampler.samples)}", file=sys.stderr)
    return {
        "pass_norm": (statistics.median(sum(p) for p in normed), "ref"),
        "op_p50_norm": (statistics.median(durations), "ref"),
        "op_p95_norm": (percentile(durations, 95), "ref"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iterant_lab" / "cli.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from iterant_lab.cli import main as cli_main

    ops = workloads.build(args.workload, args.seed, WORK / "inputs")
    tally = Tally()
    if args.trace:
        import tracing

        metrics = tracing.traced_run(cli_main, ops, args, tally, WORK)
    else:
        metrics = measured_run(cli_main, ops, args.seconds, tally)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    for problem in tally.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
