"""The traced run: where a pass spends its time, layer by layer.

One untraced pass gives the undivided wall times (``wall.*``) and, for
verify_pass, the time of each criterion C01..C17.  One pass under the
standard-library profiler gives each layer's self time and calls, summed by
source file, and wrappers placed here around a few public functions count
the work.  The profiler is on only inside CLI calls, so the benchmark's own
checks are not counted.  Last come the single operations of the north star,
each timed as the median of many calls on inputs made from the seed.
Nothing here edits the program: every wrapper is removed when it is done.
"""

from __future__ import annotations

import cProfile
import fractions
import random
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import run

LAYERS = ("cli", "verify", "scalars", "matrix", "iterants", "matrep", "groups",
          "clifford", "dirac", "discrete", "lof", "schrodinger", "fractions")
COUNTS = ("matrix.products", "matrix.determinants", "iterants.products", "lof.rewrite_steps")
CRITERIA = tuple(f"C{k:02d}" for k in range(1, 18))
REF_SLICES = 10  # before and after the untraced pass


def traced_run(main, ops, args, tally: run.Tally, work_dir: Path) -> dict:
    metrics: dict[str, tuple[float, str]] = {}

    sampler = run.RefSampler()
    criteria: dict[str, float] = {}
    for _ in range(REF_SLICES):
        sampler.take()
    with _criterion_timer(criteria):
        wall_pass = sum(s for s, _, _ in run.run_pass(main, ops, tally))
    for _ in range(REF_SLICES):
        sampler.take()
    metrics["wall.pass_s"] = (wall_pass, "s")
    metrics["wall.ref_s"] = (statistics.median(sampler.samples), "s")
    for key in CRITERIA:
        metrics[f"verify.{key}_s"] = (criteria.get(key, 0.0), "s")

    profiler = cProfile.Profile(builtins=False)

    def profiled_main(argv):
        profiler.enable()
        try:
            return main(argv)
        finally:
            profiler.disable()

    counts: Counter = Counter()
    with _work_counters(counts):
        traced_pass = sum(s for s, _, _ in run.run_pass(profiled_main, ops, tally))
    metrics["trace.overhead_s"] = (traced_pass - wall_pass, "s")

    work_dir.mkdir(parents=True, exist_ok=True)
    profiler.dump_stats(str(work_dir / f"trace-{args.workload}-{args.seed}.prof"))
    self_s, calls = _by_layer(profiler)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for name in COUNTS:
        metrics[name] = (counts[name], "count")

    metrics.update(micro_benchmarks(args.seed))
    return metrics


def _layer_of(filename: str, package_dir: Path) -> str | None:
    path = Path(filename)
    if path.parent == package_dir and path.stem in LAYERS:
        return path.stem
    if filename == fractions.__file__:
        return "fractions"
    return None


def _by_layer(profiler: cProfile.Profile) -> tuple[Counter, Counter]:
    """Self time and calls per layer.  With builtins off, time in C functions
    falls to the Python function that called them, and so to its layer."""
    import iterant_lab

    package_dir = Path(iterant_lab.__file__).parent
    profiler.create_stats()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in profiler.stats.items():
        layer = _layer_of(filename, package_dir)
        if layer:
            self_s[layer] += tt
            calls[layer] += nc
    return self_s, calls


@contextmanager
def _criterion_timer(times: dict[str, float]):
    """Time each verify-all criterion by wrapping the functions run_verify calls."""
    from iterant_lab import verify

    original = list(verify.ALL_CHECKS)

    def timed(check):
        def wrapper(seed):
            start = time.perf_counter()
            entries = check(seed)
            key = entries[0].check_id.split(".", 1)[0]
            times[key] = times.get(key, 0.0) + time.perf_counter() - start
            return entries

        return wrapper

    verify.ALL_CHECKS[:] = [timed(check) for check in original]
    try:
        yield
    finally:
        verify.ALL_CHECKS[:] = original


@contextmanager
def _work_counters(counts: Counter):
    """Count matrix and iterant products, exact eliminations and lof rewrite steps.

    An elimination is a ``SquareMatrix.determinant`` call or a call of the rank
    routine ``matrep._matrix_rank``, the two elimination loops of the program.
    """
    from iterant_lab import lof, matrep
    from iterant_lab.iterants import IterantElement
    from iterant_lab.matrix import SquareMatrix

    matrix_mul, determinant = SquareMatrix.__mul__, SquareMatrix.determinant
    iterant_mul, reduce_expression = IterantElement.__mul__, lof.reduce_expression
    matrix_rank = getattr(matrep, "_matrix_rank", None)

    def counted_matrix_mul(self, other):
        if isinstance(other, SquareMatrix):
            counts["matrix.products"] += 1
        return matrix_mul(self, other)

    def counted_determinant(self):
        counts["matrix.determinants"] += 1
        return determinant(self)

    def counted_iterant_mul(self, other):
        if isinstance(other, IterantElement):
            counts["iterants.products"] += 1
        return iterant_mul(self, other)

    def counted_rank(vectors):
        counts["matrix.determinants"] += 1
        return matrix_rank(vectors)

    def counted_reduce(expr):
        result = reduce_expression(expr)
        counts["lof.rewrite_steps"] += len(result.trace)
        return result

    SquareMatrix.__mul__, SquareMatrix.determinant = counted_matrix_mul, counted_determinant
    IterantElement.__mul__, lof.reduce_expression = counted_iterant_mul, counted_reduce
    if matrix_rank is not None:
        matrep._matrix_rank = counted_rank
    try:
        yield
    finally:
        SquareMatrix.__mul__, SquareMatrix.determinant = matrix_mul, determinant
        IterantElement.__mul__, lof.reduce_expression = iterant_mul, reduce_expression
        if matrix_rank is not None:
            matrep._matrix_rank = matrix_rank


def _per_call(fn, inner: int, repeats: int = 7) -> float:
    """Median over repeats of the mean time of one call, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def micro_benchmarks(seed: int) -> dict[str, tuple[float, str]]:
    from iterant_lab import lof, schrodinger
    from iterant_lab.groups import symmetric
    from iterant_lab.iterants import natural_sn_algebra, regular_algebra
    from iterant_lab.matrix import SquareMatrix
    from iterant_lab.scalars import GaussianRational

    import workloads

    rng = random.Random(f"micro:{seed}")

    def scalar():
        return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    def matrix(n):
        return SquareMatrix(tuple(tuple(scalar() for _ in range(n)) for _ in range(n)))

    def element(algebra, terms=3):
        total = algebra.zero()
        for _ in range(terms):
            vec = [scalar() for _ in range(algebra.degree)]
            total = total + algebra.term(vec, rng.randrange(algebra.group.order))
        return total

    a, b = scalar(), scalar()
    m2, n2, m4, n4, m16, n16 = (matrix(n) for n in (2, 2, 4, 4, 16, 16))
    s3 = regular_algebra(symmetric(3))
    x3, y3 = element(s3), element(s3)
    s4 = natural_sn_algebra(4)
    x4, y4 = element(s4), element(s4)
    tree = lof.parse(workloads.random_forest(rng, 100))
    cfg = schrodinger.LatticeConfig(cells=256, dx=1.0, dt=0.05, kappa=1.0, steps=2000)
    even, odd = schrodinger.plane_wave_fields(cfg, rng.randint(1, 8))

    return {
        "scalars.mul_us": (_per_call(lambda: a * b, 2000) * 1e6, "us"),
        "matrix.mul2_us": (_per_call(lambda: m2 * n2, 200) * 1e6, "us"),
        "matrix.mul4_us": (_per_call(lambda: m4 * n4, 30) * 1e6, "us"),
        "matrix.mul16_ms": (_per_call(lambda: m16 * n16, 1) * 1e3, "ms"),
        "iterants.mul_s3reg_us": (_per_call(lambda: x3 * y3, 50) * 1e6, "us"),
        "iterants.mul_s4nat_us": (_per_call(lambda: x4 * y4, 100) * 1e6, "us"),
        "lof.reduce100_ms": (_per_call(lambda: lof.reduce_expression(tree), 3) * 1e3, "ms"),
        "schrodinger.tick_us": (
            _per_call(lambda: schrodinger.run(cfg, even, odd), 1) / cfg.steps * 1e6, "us"),
    }
