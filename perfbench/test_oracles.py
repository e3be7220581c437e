"""The benchmark's output checks accept the program's real output and reject
a corrupted copy of it.

    python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import workloads

sys.path.insert(0, str(run.SRC))
from iterant_lab.cli import main  # noqa: E402


def _bump(text: str) -> str:
    return str(Fraction(text) + 1)


def _corrupt_decompose(d):
    d["terms"][-1]["diag"][0]["re"][0] += 1


def _corrupt_fusion(d):
    d["powers"][-1]["p"] += 1


def _corrupt_majorana(d):
    d["matrices"]["ax"][0][0] = _bump(d["matrices"]["ax"][0][0])


def _corrupt_table(d):
    row = d["table"][0]
    row[0], row[1] = row[1], row[0]


def _corrupt_trace(d):
    del d["steps"][len(d["steps"]) // 2]


CORRUPTIONS = {
    "iterant eval": lambda d: d["product_matrix"][0].__setitem__(0, _bump(d["product_matrix"][0][0])),
    "matrep decompose": _corrupt_decompose,
    "matrep isocheck": lambda d: d.__setitem__("image_rank", d["image_rank"] - 1),
    "clifford quaternions": lambda d: d.__setitem__("I", d["J"]),
    "clifford braid": lambda d: d.__setitem__("equal", not d["equal"]),
    "clifford fusion": _corrupt_fusion,
    "dirac verify": lambda d: d["checks"][1].__setitem__("pass", False),
    "dirac majorana-generators": _corrupt_majorana,
    "discrete commutator": lambda d: d.__setitem__("equal", False),
    "group table": _corrupt_table,
    "schrodinger run": lambda d: d.__setitem__("rel_error", float("nan")),
    "lof reduce": lambda d: d.__setitem__(
        "value", "unmarked" if d["value"] == "marked" else "marked"),
    "lof reduce trace": _corrupt_trace,
    "lof reduce random": lambda d: d.__setitem__("disagreements", 1),
}


def _kind(op: workloads.Op) -> str:
    kind = " ".join(op.argv[:2])
    if op.argv[:2] == ("lof", "reduce"):
        kind += " trace" if "--trace" in op.argv else " random" if "--random" in op.argv else ""
    if op.argv[:2] == ("dirac", "majorana-generators") and "--emit-matrices" not in op.argv:
        kind += " bare"
    return kind


def _sample_ops():
    """The first operation of each kind in two workloads."""
    picked = {}
    for workload in ("cli_session", "mark_calculus"):
        for op in workloads.build(workload, 3, run.WORK / "test-inputs"):
            picked.setdefault(_kind(op), op)
    return picked


SAMPLES = _sample_ops()


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_check_accepts_real_output_and_rejects_a_corrupted_one(kind):
    op = SAMPLES[kind]
    outcome = run.call(main, op.argv)
    assert outcome.error is None, outcome.err
    op.check(outcome.code, outcome.out)
    data = json.loads(outcome.out)
    CORRUPTIONS[kind](data)
    with pytest.raises(oracles.Mismatch):
        op.check(outcome.code, json.dumps(data))


def _verify_output(ids):
    entries = [{"check_id": i, "pass": True, "area": "x", "lhs": "a", "rhs": "a"} for i in ids]
    return json.dumps({"entries": entries, "all_passed": True})


def test_verify_check_rejects_failing_duplicate_or_missing_rows():
    ids = [f"C{k:02d}.row" for k in range(1, 18)]
    oracles.check_verify_all(0, _verify_output(ids))
    failing = json.loads(_verify_output(ids))
    failing["entries"][4]["pass"] = False
    for bad in (json.dumps(failing), _verify_output(ids + ids[:1]), _verify_output(ids[1:])):
        with pytest.raises(oracles.Mismatch):
            oracles.check_verify_all(0, bad)


@pytest.mark.parametrize("code, out, err, clean", [
    (2, "", "error: dt must be positive\n", True),
    (1, '{"rel_error": 1.5}', "", True),
    (0, '{"powers": []}', "", False),
    (0, '{"rel_error": NaN}', "", False),
    (1, '{"rel_error": NaN}', "", False),
    (2, "", "Traceback (most recent call last):\nerror: x\n", False),
    (None, "", "", False),
])
def test_a_faulty_input_counts_as_handled_only_when_it_fails_cleanly(code, out, err, clean):
    assert oracles.handled_cleanly(code, out, err) is clean


def test_mark_value_follows_the_calculus():
    assert oracles.mark_value("()") and not oracles.mark_value("")
    assert not oracles.mark_value("(())") and oracles.mark_value("()()")
    assert oracles.mark_value("((((()())())())())()")
    assert not oracles.mark_value("(" + "()" * 5 + ")")


def test_random_forest_has_the_requested_size():
    import random

    rng = random.Random(0)
    for size in (1, 7, 100, 400):
        assert workloads.random_forest(rng, size).count("(") == size


def test_inputs_repeat_for_a_seed(tmp_path: Path):
    first = [op.argv for op in workloads.build("cli_session", 5, tmp_path)]
    second = [op.argv for op in workloads.build("cli_session", 5, tmp_path)]
    assert first == second
    assert first != [op.argv for op in workloads.build("cli_session", 6, tmp_path)]
