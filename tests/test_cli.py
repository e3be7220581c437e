import argparse
import ast
import hashlib
import json
import math
import random
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iterant_lab import groups, lof, matrep, verify
from iterant_lab.cli import _json_pieces, build_parser, main
from iterant_lab.iterants import (element_from_json, parse_period2, period_two_algebra,
                                  regular_algebra)
from iterant_lab.scalars import MAX_LITERAL_DIGITS, GaussianRational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_group_table_json(capsys):
    code, out = run_cli(capsys, "group", "table", "--group", "s3", "--gtable",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == groups.g_table_names(groups.symmetric(3))


def test_group_table_text_aligned(capsys):
    code, out = run_cli(capsys, "group", "table", "--group", "c3")
    assert code == 0
    assert "S^2" in out


def test_group_table_deterministic(capsys):
    _, first = run_cli(capsys, "group", "table", "--group", "c6", "--format", "json")
    _, second = run_cli(capsys, "group", "table", "--group", "c6", "--format", "json")
    assert first == second


def test_lof_reduce_exit_codes(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "(())")
    assert code == 1
    assert out.strip().endswith("unmarked")
    code, out = run_cli(capsys, "lof", "reduce", "()()")
    assert code == 0
    assert out.strip().endswith("marked")


def test_lof_reduce_trace(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "((()())())()", "--trace")
    assert code == 0
    assert "calling" in out or "crossing" in out


def test_lof_reduce_untraced_builds_no_step_text(capsys, monkeypatch):
    rewrite = lof._rewrite

    def no_text(work, pick, record=None):
        assert record is None, "an untraced reduction recorded its steps"
        return rewrite(work, pick)

    monkeypatch.setattr(lof, "_rewrite", no_text)
    code, out = run_cli(capsys, "lof", "reduce", "((()())())()", "--format", "json")
    assert (code, json.loads(out)) == (0, {"value": "marked", "steps": 3})


def test_lof_random_fuzz(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "--random", "50", "5", "11")
    assert code == 0
    assert "disagreements: 0" in out


def test_matrep_decompose(tmp_path, capsys):
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(json.dumps({"matrix": [[1, 2], [3, 4]]}))
    code, out = run_cli(capsys, "matrep", "decompose", "--matrix", str(matrix_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["reassembly_exact"] is True
    perms = {t["perm"] for t in payload["terms"]}
    assert perms == {"()", "(12)"}


def test_matrep_isocheck(capsys):
    code, out = run_cli(capsys, "matrep", "isocheck", "--group", "c3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphism"] is True


def test_matrep_isocheck_natural(capsys):
    code, out = run_cli(capsys, "matrep", "isocheck", "--group", "s3", "--natural",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra_dim"] == 18
    assert payload["isomorphism"] is False


@pytest.mark.parametrize("group", [["c8"], ["s3"], ["s4", "--natural"]])
def test_matrep_isocheck_ignores_seed_and_samples(capsys, group):
    outputs = {run_cli(capsys, "matrep", "isocheck", "--group", *group, "--format", "json", *extra)
               for extra in (["--seed", "0"], ["--seed", "7"], ["--seed", "999"], [])}
    assert len(outputs) == 1


def test_iterant_eval(capsys):
    code, out = run_cli(capsys, "iterant", "eval", "[-1,1]e", "[-1,1]e",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["product"] == "[-1,-1]"


def test_clifford_quaternions(capsys):
    code, out = run_cli(capsys, "clifford", "quaternions", "--variant", "klein4",
                        "--verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["table_holds"] is True
    assert payload["dim"] == 4


def test_clifford_braid_compare(capsys):
    code, out = run_cli(capsys, "clifford", "braid", "--n", "4", "--word", "1 2 1",
                        "--compare", "2 1 2", "--format", "json")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_clifford_braid_unequal_words(capsys):
    code, out = run_cli(capsys, "clifford", "braid", "--n", "3", "--word", "1",
                        "--compare", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["equal"] is False


@pytest.mark.parametrize("word, equal, code", [("1 1 1 1", True, 0), ("1", False, 1)])
def test_an_empty_compare_word_is_the_identity_braid(capsys, word, equal, code):
    argv = ("clifford", "braid", "--n", "3", "--word", word, "--compare", "")
    got, out = run_cli(capsys, *argv, "--format", "json")
    assert (got, json.loads(out)["compare"], json.loads(out)["equal"]) == (code, [], equal)
    got, out = run_cli(capsys, *argv)
    assert (got, out.splitlines()[-1]) == (code, f"equal to word []: {equal}")


@pytest.mark.parametrize("flag", ["--word", "--compare"])
def test_a_braid_word_token_that_is_not_an_integer_is_named(capsys, flag):
    argv = ["clifford", "braid", "--n", "3", "--word", "1", flag, "2 1,2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: braid word token '1,2' is not an integer; separate the indices with spaces\n")


def test_clifford_fusion(capsys):
    code, out = run_cli(capsys, "clifford", "fusion", "--power", "10",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["powers"][10] == {"n": 10, "unit": 34, "p": 55}


def test_dirac_verify(capsys):
    code, out = run_cli(capsys, "dirac", "verify", "--E", "5", "--p", "3", "--m", "4",
                        "--version", "time_reversed", "--dim", "1d")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    names = {c["check"] for c in payload["checks"]}
    assert {"time_reversed-u-squared", "time_reversed-anticommutator", "plane-wave"} <= names


def test_dirac_verify_3d(capsys):
    code, out = run_cli(capsys, "dirac", "verify", "--E", "5", "--p", "1,2,2",
                        "--m", "4", "--version", "conjugate", "--dim", "3d")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_dirac_verify_prints_every_parameter_in_lowest_terms(capsys):
    _, out = run_cli(capsys, "dirac", "verify", "--E", "10/2", "--p", "6/2", "--m", "08")
    payload = json.loads(out)
    assert (payload["E"], payload["p"], payload["m"]) == ("5", "3", "8")
    _, out = run_cli(capsys, "dirac", "verify", "--E", "6/2", "--p", "2/2,4/2,-04/2", "--m", "0",
                     "--dim", "3d")
    assert json.loads(out)["p"] == "1,2,-2"


def test_dirac_majorana_generators(capsys):
    code, out = run_cli(capsys, "dirac", "majorana-generators", "--emit-matrices")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_real"] is True
    assert "ax" in payload["matrices"]


def test_discrete_commutator(capsys):
    for seq, dt in (("0,1,0,1,0", "1"), ("0.5,1,2.25", "0.5")):  # decimals read too
        code, out = run_cli(capsys, "discrete", "commutator", "--seq", seq, "--dt", dt)
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True


def test_schrodinger_run_csv(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code, _ = run_cli(capsys, "schrodinger", "run", "--n", "16", "--dt", "0.05",
                      "--steps", "20", "--init", "gaussian:mu=8,sigma=2",
                      "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t_index,cell,psi_e,psi_o,re,im,abs2"
    assert len(lines) == 1 + 11 * 16  # initial sample + 10 pairs, 16 cells each


def test_schrodinger_dispersion_json(capsys):
    code, out = run_cli(capsys, "schrodinger", "run", "--n", "64", "--dt", "0.05",
                        "--steps", "400", "--dispersion", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rel_error"] < 0.02


@pytest.mark.parametrize("dx", ["1", "0.5"])
def test_default_start_is_centred_on_the_ring(capsys, dx):
    base = ("schrodinger", "run", "--n", "16", "--dx", dx, "--steps", "0")
    ring = 16 * float(dx)
    code, default = run_cli(capsys, *base)
    assert code == 0
    assert default == run_cli(capsys, *base, "--init", f"gaussian:mu={ring / 2},sigma=10")[1]
    abs2 = [float(line.split(",")[-1]) for line in default.splitlines()[1:]]
    assert abs2.index(max(abs2)) == 8 and sum(abs2) > 1
    # a bare gaussian: takes both defaults
    code, bare = run_cli(capsys, *base, "--init", "gaussian:")
    assert code == 0
    assert bare == run_cli(capsys, *base, "--init",
                           f"gaussian:mu={ring / 2},sigma={ring / 16}")[1]


@pytest.mark.parametrize("flag", [("--init", "bogus"), ("--init", "gaussian:mu=128,sigma=10"),
                                  ("--sample-every", "1")])
def test_schrodinger_dispersion_refuses_csv_flags(capsys, flag):
    code = main(["schrodinger", "run", "--n", "64", "--steps", "40", "--dispersion", "3", *flag])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: --dispersion runs its own plane wave and writes no CSV; "
                            "give no --init and no --sample-every\n")


# Stand-in checks for verify-all, built like the real ones from verify's tally,
# so each real check still runs once per session (in the acceptance suite).
# Their random pairs are drawn as the C03 rows drew theirs before those became
# proofs, so the verify-all digests in PINNED keep their meaning.
def random_scalar(rng: random.Random) -> GaussianRational:
    """a/b + (c/d)i with a, c drawn from -9..9 and b, d from 1..5, in the
    order a, b, c, d."""
    a, b = rng.randint(-9, 9), rng.randint(1, 5)
    c, d = rng.randint(-9, 9), rng.randint(1, 5)
    return GaussianRational(Fraction(a, b), Fraction(c, d))


def random_element(algebra, rng: random.Random, max_terms: int = 3):
    """A sum of 1..max_terms terms, each a random group element with a vector
    of random_scalar coefficients."""
    total = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        gid = rng.randrange(algebra.group.order)
        total = total + algebra.term([random_scalar(rng) for _ in range(algebra.degree)], gid)
    return total


def random_pairs(algebra, rng: random.Random, count: int, max_terms: int = 3):
    """count pairs of random elements, drawn lazily, the first of each pair first."""
    for _ in range(count):
        x = random_element(algebra, rng, max_terms)
        yield x, random_element(algebra, rng, max_terms)


@verify._criterion("test")
def _product_rows(seed):
    yield ("X01.product-match", "M(xy) = M(x) M(y) on 20 pairs",
           random_pairs(period_two_algebra(), random.Random(seed), 20),
           matrep.product_relation, verify._period2_inputs)


@verify._criterion("test")
def _commuting_rows(seed):
    """Wrong on purpose: period-two products do not commute."""
    yield ("X02.commutes", "xy = yx on 20 pairs",
           random_pairs(period_two_algebra(), random.Random(seed), 20),
           lambda xy: (xy[0] * xy[1], xy[1] * xy[0]), verify._period2_inputs)


def test_verify_all_seeded_subprocess_free(capsys, monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [_product_rows, _commuting_rows])
    code, out = run_cli(capsys, "verify-all", "--seed", "3", "--format", "json")
    assert code == 1
    rows = {e["check_id"]: e for e in json.loads(out)["entries"]}
    assert rows["X01.product-match"]["pass"] and "witness" not in rows["X01.product-match"]
    failed = rows["X02.commutes"]
    assert not failed["pass"] and failed["lhs"] != failed["rhs"]
    witness = failed["witness"]
    # the inputs read back with the package's parser fail the same way again
    x, y = (parse_period2(text) for text in witness["inputs"])
    assert (str(x * y), str(y * x)) == (witness["lhs"], witness["rhs"])
    assert witness["lhs"] != witness["rhs"]
    # and the seed and index alone draw the same inputs
    drawn = random_pairs(period_two_algebra(), random.Random(witness["seed"]),
                         witness["index"] + 1)
    assert list(drawn)[-1] == (x, y)

    code, out = run_cli(capsys, "verify-all", "--seed", "3")
    assert code == 1
    status = {line.split()[0]: line.split()[2] for line in out.splitlines()[1:-1]}
    assert status == {"X01.product-match": "PASS", "X02.commutes": "FAIL"}


@verify._criterion("test")
def _regular_commuting_rows(seed):
    """Wrong on purpose: s3 is not abelian, so neither is its regular algebra."""
    yield ("X03.regular-commutes", "xy = yx on 20 s3 pairs",
           random_pairs(regular_algebra(groups.symmetric(3)), random.Random(seed), 20),
           lambda xy: (xy[0] * xy[1], xy[1] * xy[0]), lambda xy: [x.to_json() for x in xy])


def test_verify_all_json_witness_reads_back_with_element_from_json(capsys, monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [_regular_commuting_rows])
    code, out = run_cli(capsys, "verify-all", "--seed", "3", "--format", "json")
    assert code == 1
    witness = json.loads(out)["entries"][0]["witness"]
    algebra = regular_algebra(groups.symmetric(3))
    x, y = (element_from_json(algebra, obj) for obj in witness["inputs"])
    assert (str(x * y), str(y * x)) == (witness["lhs"], witness["rhs"])
    assert witness["lhs"] != witness["rhs"]


def test_verify_all_passing_rows_carry_no_witness(capsys, monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [_product_rows])
    code, out = run_cli(capsys, "verify-all", "--seed", "3", "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries and all(e["pass"] and "witness" not in e for e in entries)


def test_usage_error_exit_code(capsys):
    for argv in (["group", "table"],  # missing --group
                 ["no-such-command"],
                 # a flag or a value that the command does not read
                 ["group", "table", "--group", "c3", "--seed", "3"],
                 ["lof", "reduce", "--random", "5", "4", "1", "--seed", "3"],
                 ["iterant", "eval", "[1,2]", "[3,4]", "--format", "csv"],
                 ["schrodinger", "run", "--n", "8", "--steps", "4", "--format", "json"],
                 # isocheck took --samples before it proved the homomorphism
                 ["matrep", "isocheck", "--group", "c3", "--samples", "9" * 60]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_isocheck_samples_below_one_is_a_usage_error(capsys, samples):
    # isocheck proves the homomorphism over generators and reads no --samples
    with pytest.raises(SystemExit) as err:
        main(["matrep", "isocheck", "--group", "s3", "--samples", samples])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"error: unrecognized arguments: --samples {samples}")


def test_bad_inputs_exit_two(capsys):
    assert main(["group", "table", "--group", "nosuch"]) == 2
    assert main(["lof", "reduce", "(()"]) == 2
    assert main(["matrep", "isocheck", "--group", "c3", "--natural"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: --natural requires a symmetric group (s<n>)")
    for dim in ("1d", "3d"):
        assert main(["dirac", "verify", "--E", "5", "--p", "1,2", "--m", "0",
                     "--dim", dim]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: momentum must have 1 or 3 components, got 2"]
    assert main(["dirac", "verify", "--E", "5", "--p", "1,2,2", "--m", "4"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: frame is 1-dimensional but momentum is 3-dimensional"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _ = run_cli(capsys, "group", "table", "--group", "c3", "--format", "json",
                      "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["group"] == "c3"


def one_error_line(err: str) -> bool:
    return len([line for line in err.splitlines() if "error" in line.lower()]) == 1


def test_discrete_commutator_zero_dt(capsys):
    code = main(["discrete", "commutator", "--seq", "0,1,0,1,0", "--dt", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert one_error_line(captured.err)


def test_clifford_fusion_negative_power(capsys):
    code = main(["clifford", "fusion", "--power", "-1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert one_error_line(captured.err)


def test_schrodinger_dispersion_overflow_fails_without_nan(capsys):
    code = main(["schrodinger", "run", "--dt", "1", "--dispersion", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "nan" not in captured.out.lower()
    # refused before the run: one mode stays bounded where the lattice does not
    assert (captured.out, captured.err) == (
        "", "schrodinger run failed: --dispersion needs r < 1/2, got r = 1.0000\n")


def test_a_narrow_gaussian_start_gives_no_traceback(capsys):
    # (x - mu)/sigma reaches 4e300, whose square overflows a float
    code = main(["schrodinger", "run", "--n", "8", "--steps", "4",
                 "--init", "gaussian:mu=4,sigma=1e-300"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) <= 1


@pytest.mark.parametrize("argv", [
    ["group", "table", "--group", "s9"],
    ["matrep", "isocheck", "--group", "s7", "--natural"],
])
def test_symmetric_degree_cap_exits_two_at_once(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert one_error_line(capsys.readouterr().err)
    assert elapsed < 1.0


# After on_shell, one check per relation of dirac.relations under its C14
# name: the chosen version's, then the split (left out at E = 0) and the
# plane wave.
SPLIT = ("split-a-squared", "split-b-squared", "split-anticommute", "split-rebuild")
TIME_REVERSED = ("time_reversed-u-squared", "time_reversed-dagger-squared",
                 "time_reversed-anticommutator", "time_reversed-diff-squared")
CONJUGATE = ("conjugate-u-squared", "conjugate-dagger-squared", "conjugate-anticommutator",
             "conjugate-sum-squared", "conjugate-diff-squared")


def _passing(*names):
    return [(name, True) for name in names]


@pytest.mark.parametrize("argv, code, rows", [
    # off shell each nilpotency fails, and with it the plane wave;
    # time_reversed-diff-squared and conjugate-sum-squared hold at every (E, p, m)
    (["--E", "2", "--p", "1", "--m", "0"], 1,
     [("on_shell", "1", "4", False), *((name, False) for name in TIME_REVERSED[:3]),
      ("time_reversed-diff-squared", True), ("split-a-squared", False),
      *_passing(*SPLIT[1:]), ("plane-wave", False)]),
    (["--E", "2", "--p", "1", "--m", "0", "--version", "conjugate"], 1,
     [("on_shell", "1", "4", False), ("conjugate-u-squared", False),
      ("conjugate-dagger-squared", False), ("conjugate-anticommutator", False),
      ("conjugate-sum-squared", True), ("conjugate-diff-squared", False),
      ("split-a-squared", False), *_passing(*SPLIT[1:]), ("plane-wave", False)]),
    # E = 0: the Majorana split divides by E, so its rows are left out.
    (["--E", "0", "--p", "0", "--m", "0"], 0,
     [("on_shell", "0", "0", True), *_passing(*TIME_REVERSED, "plane-wave")]),
    (["--E", "0", "--p", "1", "--m", "2", "--version", "conjugate"], 1,
     [("on_shell", "5", "0", False), *((name, False) for name in CONJUGATE[:3]),
      ("conjugate-sum-squared", True), ("conjugate-diff-squared", False),
      ("plane-wave", False)]),
    (["--E", "5", "--p", "1,2,2", "--m", "4", "--dim", "3d"], 0,
     [("on_shell", "25", "25", True), *_passing(*TIME_REVERSED, *SPLIT, "plane-wave")]),
    (["--E", "5", "--p", "1,2,2", "--m", "4", "--dim", "3d", "--version", "conjugate"], 0,
     [("on_shell", "25", "25", True), *_passing(*CONJUGATE, *SPLIT, "plane-wave")]),
])
def test_dirac_verify_rows(capsys, argv, code, rows):
    got_code, out = run_cli(capsys, "dirac", "verify", *argv)
    payload = json.loads(out)
    assert got_code == code
    # on_shell prints its two sides, each relation its outcome alone
    assert [tuple(c[key] for key in ("check", "lhs", "rhs", "pass") if key in c)
            for c in payload["checks"]] == rows
    assert payload["all_pass"] is (code == 0)


# a value that starts with - and a digit, such as a C14 witness's 3d momentum,
# after its flag and a space; each passes the shell check
MINUS_VALUE_ARGV = [
    ("dirac", "verify", "--E", "1", "--p", "-1,0,0", "--m", "0", "--dim", "3d"),
    ("dirac", "verify", "--E", "1", "--p", "-3/5", "--m", "-4/5"),
]


@pytest.mark.parametrize("argv", MINUS_VALUE_ARGV, ids=" ".join)
def test_a_value_that_starts_with_a_minus_reads_after_a_space_as_after_an_equals_sign(
        capsys, argv):
    flags = [f"{flag}={value}" for flag, value in zip(argv[2::2], argv[3::2])]
    spaced = run_cli(capsys, *argv)
    assert spaced == run_cli(capsys, *argv[:2], *flags)
    assert spaced[0] == 0 and json.loads(spaced[1])["all_pass"]


def test_lof_random_fuzz_json(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "--random", "50", "5", "11",
                        "--format", "json")
    assert code == 0
    assert out == '{\n  "disagreements": 0,\n  "trials": 50\n}\n'


@pytest.mark.parametrize("argv, matrix", [
    (["discrete", "commutator", "--seq", "1/0,1"], None),
    (["discrete", "commutator", "--seq", "0,1,0", "--dt", "1/0"], None),
    (["dirac", "verify", "--E", "1/0", "--p", "1", "--m", "1"], None),
    (["iterant", "eval", "[1/0,2]", "[1,2]"], None),
    (["matrep", "decompose"], [["1/0", 1], [2, 3]]),
    (["matrep", "decompose"], [[[1, 0], 1], [2, 3]]),
])
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, argv, matrix):
    if matrix is not None:
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": matrix}))
        argv = argv + ["--matrix", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("cell, message", [
    (0.5, "error: matrix cell (0, 0) is 0.5; "),
    (None, "error: matrix cell (0, 0) is None; "),
    ([1, 2, 3], "error: matrix cell (0, 0) is [1, 2, 3]; "),
    (True, "error: matrix cell (0, 0) is True; "),
    ([None, 1], "error: cannot read None/1 as a rational"),
    ([0.5, 1], "error: cannot read 0.5/1 as a rational"),
    ([1e400, 1], "error: cannot read inf/1 as a rational"),
    ({"re": [0.5, 1]}, "error: cannot read 0.5/1 as a rational"),
    ({"re": 5}, "error: the 're' part 5 is not a [num, den] pair"),
    ({"re": "12"}, "error: the 're' part '12' is not a [num, den] pair"),
])
def test_decompose_bad_cell_is_a_usage_error(tmp_path, capsys, cell, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[cell, 1], [2, 3]]}))
    code = main(["matrep", "decompose", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(message)


@pytest.mark.parametrize("matrix, message", [
    ([1, 2], "error: matrix row 0 is 1; use a list of cells"),
    ([[1, 2], "34"], "error: matrix row 1 is '34'; use a list of cells"),
    (5, "error: the matrix is 5; use a list of rows"),
    ([], "error: decomposition enumerates n! permutations; 1 <= n <= 5 required, "
         "got a 0x0 matrix"),
    ([[1] * 6] * 6, "error: decomposition enumerates n! permutations; 1 <= n <= 5 required, "
                    "got a 6x6 matrix"),
])
def test_decompose_rows_that_are_not_lists_are_a_usage_error(tmp_path, capsys, matrix, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code = main(["matrep", "decompose", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_schrodinger_csv_overflow_fails_without_rows(tmp_path, capsys):
    code = main(["schrodinger", "run", "--n", "8", "--dt", "1", "--steps", "400",
                 "--init", "planewave:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "schrodinger run failed: the fields overflowed at r = 1.0000"]


@pytest.mark.parametrize("flags, message", [
    (["--sample-every", "0"], "error: --sample-every must be positive, got 0"),
    (["--init", "gaussian:mu"], "error: cannot read init 'gaussian:mu'; "
                                "use gaussian:mu=..,sigma=.. or planewave:k"),
    (["--init", "planewave:x"], "error: cannot read init 'planewave:x'; "
                                "use gaussian:mu=..,sigma=.. or planewave:k"),
    # sigma = 0 is refused before any division by it
    pytest.param(["--init", "gaussian:mu=4,sigma=0"],
                 "error: cannot read init 'gaussian:mu=4,sigma=0'; "
                 "use gaussian:mu=..,sigma=.. or planewave:k",
                 marks=pytest.mark.filterwarnings("error")),
    (["--init", "gaussian:mu=nan,sigma=1"], "error: cannot read init 'gaussian:mu=nan,sigma=1'; "
                                            "use gaussian:mu=..,sigma=.. or planewave:k"),
    (["--init", "gaussian:mu=1000"], "error: gaussian centre mu = 1000.0 is off the ring "
                                     "[0, 8.0) of 8 cells of width dx = 1.0"),
    (["--init", "gaussian:mu=-1,sigma=2"], "error: gaussian centre mu = -1.0 is off the ring "
                                           "[0, 8.0) of 8 cells of width dx = 1.0"),
    (["--init", "gaussian:mu=inf", "--dx", "0.5"], "error: gaussian centre mu = inf is off the "
                                                   "ring [0, 4.0) of 8 cells of width dx = 0.5"),
    (["--init", "planewave:1000"], "error: mode 1000 does not fit a lattice of 8 cells"),
    (["--init", "planewave:-5"], "error: mode -5 does not fit a lattice of 8 cells"),
])
def test_schrodinger_bad_flags_give_our_message(capsys, flags, message):
    code = main(["schrodinger", "run", "--n", "8", "--steps", "4", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("argv", [
    ["group", "table", "--group", "c100000"],
    ["matrep", "isocheck", "--group", "c100000"],
    ["clifford", "fusion", "--power", "1001"],
    ["clifford", "braid", "--n", "100000", "--word", "1"],
    ["matrep", "isocheck", "--group", "c9"],
    ["lof", "reduce", "--random", "10", "100", "1"],
    ["lof", "reduce", "--random", "-1", "6", "1"],
    ["lof", "reduce", "()" * 4001],
    ["matrep", "isocheck", "--group", "s7", "--natural"],
    ["lof", "reduce", "--random", "9" * 60, "1", "1"],
    ["schrodinger", "run", "--n", "9" * 60, "--steps", "0"],
    ["schrodinger", "run", "--n", "4000000", "--steps", "1"],
    ["schrodinger", "run", "--n", "256", "--steps", "16000"],
])
def test_size_caps_exit_two_at_once(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert one_error_line(capsys.readouterr().err)
    assert elapsed < 1.0


def test_schrodinger_csv_rows_stop_at_the_row_cap(capsys, monkeypatch):
    # the README tour writes 256 cells x 1001 samples
    assert 256 * (2000 // 2 + 1) <= groups.MAX_LATTICE_ROWS
    monkeypatch.setattr(groups, "MAX_LATTICE_ROWS", 16 * 5)
    code, out = run_cli(capsys, "schrodinger", "run", "--n", "16", "--steps", "8")
    assert (code, len(out.splitlines())) == (0, 1 + 16 * 5)
    code = main(["schrodinger", "run", "--n", "16", "--steps", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: 16 cells x 6 samples is 96 CSV rows, over the cap of 80; "
                            "raise --sample-every\n")
    code, out = run_cli(capsys, "schrodinger", "run", "--n", "16", "--steps", "19",
                        "--sample-every", "2")
    assert (code, len(out.splitlines())) == (0, 1 + 16 * 5)
    # a dispersion report writes no rows
    code, _ = run_cli(capsys, "schrodinger", "run", "--n", "16", "--steps", "40",
                      "--dispersion", "1")
    assert code == 0


def test_start_up_does_not_load_numpy():
    """Nothing in the package loads numpy: not start-up, not the lattice (a
    dispersion report and a small CSV) and not verify-all."""
    script = (
        "import contextlib, io, sys\n"
        "from iterant_lab import verify\n"
        "from iterant_lab.cli import build_parser, main\n"
        "build_parser()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['schrodinger', 'run', '--n', '8', '--steps', '4', '--dispersion', '1'])\n"
        "    main(['schrodinger', 'run', '--n', '8', '--steps', '4'])\n"
        "verify.run_verify(7)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    """main builds no parser after the first, and a call leaves nothing in the
    shared parser for the next: each gives the bytes it gives when run first."""
    assert build_parser() is build_parser()
    monkeypatch.chdir(tmp_path)
    calls = [("lof", "reduce", "()", "--trace", "--format", "json"),
             ("lof", "reduce", "()"),
             ("lof", "reduce", "(()())()", "--format", "json", "--out", "out.json"),
             ("lof", "reduce", "(()())()", "--format", "json")]

    def outcome(argv):
        Path("out.json").unlink(missing_ok=True)
        code = main(list(argv))
        captured = capsys.readouterr()
        written = Path("out.json").read_text() if "--out" in argv else None
        return code, captured.out, captured.err, written

    first = {}
    for argv in calls:
        build_parser.cache_clear()
        first[argv] = outcome(argv)
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for n in range(50):
        argv = calls[n % len(calls)]
        assert outcome(argv) == first[argv], argv
    assert made == []


def test_lof_reduce_takes_an_expression_at_the_mark_cap(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "()" * groups.MAX_LOF_MARKS)
    assert (code, out) == (0, "marked\n")


def test_lof_reduce_3000_deep_answers_without_recursion(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "lof", "reduce", "(" * 3000 + ")" * 3000)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (1, "unmarked\n")


def test_clifford_fusion_rows_are_fibonacci(capsys):
    code, out = run_cli(capsys, "clifford", "fusion", "--power", "300", "--format", "json")
    assert code == 0
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    expected = [{"n": 0, "unit": 1, "p": 0}] + [
        {"n": n, "unit": fib[n - 1], "p": fib[n]} for n in range(1, 301)]
    assert json.loads(out)["powers"] == expected


LONG = "1" * 5000
OVER_CAP = f"error: a literal of 5000 digits exceeds the cap of {MAX_LITERAL_DIGITS} digits\n"


@pytest.mark.parametrize("argv, matrix, message", [
    (["discrete", "commutator", "--seq", "1e200000,1,2", "--dt", "1"], None,
     "error: exponent in '1e200000'; write the number as a/b or a decimal\n"),
    (["discrete", "commutator", "--seq", "1e10000000,1,2", "--dt", "1"], None,
     "error: exponent in '1e10000000'; write the number as a/b or a decimal\n"),
    (["iterant", "eval", "[1,2", "[3,4]"], None,
     "error: missing ']' for the '[' at position 0 in '[1,2'\n"),
    (["discrete", "commutator", "--seq", f"{LONG},1,2", "--dt", "1"], None, OVER_CAP),
    (["dirac", "verify", "--E", LONG, "--p", "3", "--m", "4"], None, OVER_CAP),
    (["iterant", "eval", f"[{LONG},1]", "[1,2]"], None, OVER_CAP),
    (["matrep", "decompose"], f'{{"matrix": [["{LONG}", 1], [2, 3]]}}', OVER_CAP),
    (["matrep", "decompose"], f'{{"matrix": [[{LONG}, 1], [2, 3]]}}', OVER_CAP),
    (["group", "table", "--group", f"s{LONG}"], None, OVER_CAP),
    (["group", "table", "--group", f"c{LONG}"], None, OVER_CAP),
    (["matrep", "isocheck", "--group", f"s{LONG}", "--natural"], None, OVER_CAP),
    (["clifford", "braid", "--n", "3", "--word", LONG], None, OVER_CAP),
    (["clifford", "braid", "--n", "3", "--word", "1", "--compare", f"1 {LONG}"], None, OVER_CAP),
], ids=["exponent", "huge-exponent", "unclosed-bracket", "long-seq", "long-energy",
        "long-iterant", "long-text-cell", "long-number-cell", "long-symmetric-name",
        "long-cyclic-name", "long-natural-name", "long-braid-word", "long-braid-compare"])
def test_unreadable_literals_are_usage_errors_at_once(tmp_path, capsys, argv, matrix, message):
    if matrix is not None:
        path = tmp_path / "m.json"
        path.write_text(matrix)
        argv = argv + ["--matrix", str(path)]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)
    assert elapsed < 1.0


# One call per subcommand and --format it takes, the call without --format
# standing for the default; the schrodinger CSV is written through --out and
# verify-all runs the stand-in checks above.  Each digest is the sha256 of the
# exit code, stdout, stderr and the --out file, taken from the output of the
# earlier per-command writers.
PINNED = {
    "group-table-text": (("group", "table", "--group", "s3", "--gtable"),
        "c0b549a9d391d67339d4cdcaf83c5a205dadd8031d7c664b3af92be73adb12a3"),
    "group-table-json": (("group", "table", "--group", "s3", "--gtable", "--format", "json"),
        "fb2cf39bf4d7b8a3409194fe98ed83219b155cea2d9b2be2f0cf5958190b4b43"),
    "group-table-csv": (("group", "table", "--group", "s3", "--gtable", "--format", "csv"),
        "7073b97497d70082c4e2206f29b9e10c5037985bfb1eabaf6976d4bfc713c69a"),
    "iterant-eval-text": (("iterant", "eval", "[1/2,-3] + [0,i]e", "[5,6]e"),
        "6805ff35b96dfd9bfd46d1f113cf614f948b5e4da6d667b5b4ed122299d686f3"),
    "iterant-eval-json": (("iterant", "eval", "[1/2,-3] + [0,i]e", "[5,6]e", "--format", "json"),
        "70a645517e55a21222563c0642c4699bbe9c1351227a5a7d9b9eaa1c5965f4fb"),
    "decompose-json": (("matrep", "decompose", "--matrix", "m.json"),
        "4448c6c039dd43bd79bc9e71059c5198afccef99af6d063553e2d2f247c38410"),
    "decompose-text": (("matrep", "decompose", "--matrix", "m.json", "--format", "text"),
        "8426f62b8d1dd5f47c528c0517aba70f420a166a1d8245c0c895184ff5aabe76"),
    "isocheck-text": (("matrep", "isocheck", "--group", "s3", "--seed", "3"),
        "845a02a295251cf1ac4d959e29bc5e19cf327472a88488e2f6095d4934c57be8"),
    "isocheck-json": (("matrep", "isocheck", "--group", "s3", "--seed", "3", "--format", "json"),
        "9b646e01ed69dde5320955d731118c990b2910ab2e0231668eef1575d8e4ba93"),
    "quaternions-text": (("clifford", "quaternions", "--variant", "iota_2x2", "--verify"),
        "3c8fa034d4ce25aff5b37957a5c7f6bd63e564d4c9952a40b7aa65ad8b7b6d52"),
    "quaternions-json": (("clifford", "quaternions", "--variant", "iota_2x2", "--verify",
                "--format", "json"),
        "b2601ea89b00f27e811007f88595b27265a4ad6aea33d5ffdf04aeaaad65af4d"),
    "braid-text": (("clifford", "braid", "--n", "4", "--word", "1 2 1", "--compare", "2 1 2"),
        "670d48e97ca10cb87dac402096857ee3c164c06895b42d0218c2a7b5f5d8fc88"),
    "braid-json": (("clifford", "braid", "--n", "4", "--word", "1 2", "--compare", "2 1",
                "--format", "json"),
        "487b83ced3b04db0353f8df3096dded11f894deeb164037eea2842e0eea8c0f4"),
    "fusion-text": (("clifford", "fusion", "--power", "10"),
        "8a565e885a62e9b38205cfbbebe21983e41b0ab0f92587c9e5e2346bd2ac8586"),
    "fusion-json": (("clifford", "fusion", "--power", "10", "--format", "json"),
        "1d511e4248fd730e2f628aaa4935c9932a26f83056d4adff89c140427195ace4"),
    "fusion-csv": (("clifford", "fusion", "--power", "10", "--format", "csv"),
        "8d004a10d1a2f818d95ccc16567c60e2b4c538bf7d9a5096232fd617771434b7"),
    "dirac-verify-json": (("dirac", "verify", "--E", "3", "--p", "1,2,2", "--m", "0", "--dim",
                "3d", "--version", "conjugate"),
        "d8a3cdc919d151f7edc5a58db454745d1849238f60de8f230e7fc9bafd6b6993"),
    "dirac-verify-text": (("dirac", "verify", "--E", "6", "--p", "3", "--m", "4", "--format",
                "text"),
        "07e53d68135d4a139e0115664ea6a0ea90fa52541080a2cd9e9898d292d50fdc"),
    "majorana-json": (("dirac", "majorana-generators", "--emit-matrices"),
        "452be87c9f6b93ba32945ce84e5d8359dd8bc86bdd36b9f040ef41dc31f66aa9"),
    "majorana-text": (("dirac", "majorana-generators", "--emit-matrices", "--format", "text"),
        "6341f91bc520b8bd047d7a03281cbc745bf3d6c79e5d9ec3d02852cbedbe5c65"),
    "commutator-json": (("discrete", "commutator", "--seq", "1/2,3,-1,4", "--dt", "2/3"),
        "504cea4f8a853e9a0970c7aa2cd670977d691994918e22d3dbd15ed7bfa113e8"),
    "commutator-text": (("discrete", "commutator", "--seq", "1/2,3,-1,4", "--dt", "2/3",
                "--format", "text"),
        "bdf1d33abbc018dccafef618108d6c2c5ebb968ac1f03ba6647e95a7c33b4636"),
    "schrodinger-csv-out": (("schrodinger", "run", "--n", "16", "--steps", "40", "--dt", "0.3",
                "--sample-every", "3", "--init", "planewave:2", "--out", "out.csv"),
        "2ccdff114ca8c6f8a550e71b1fef90a234d0f09cac8bf392518a17a4c3cceb23"),
    "schrodinger-dispersion": (("schrodinger", "run", "--n", "64", "--steps", "400",
                "--dispersion", "3"),
        "06bd3e1f223e44edce97b3638d0c4708fea3f617743143ecf9540fccb5245bce"),
    "lof-text": (("lof", "reduce", "((()())())()"),
        "2163805050a3c4a424fa7e2eea839a8251545178306295d6d8fb90de4aec5368"),
    "lof-json": (("lof", "reduce", "((()())())()", "--format", "json"),
        "d035d7c396e2c7fd6f3a58a61bea16f056dd1e16823dbc58278d3d667e46bffc"),
    "lof-trace-text": (("lof", "reduce", "((((()())())())())()", "--trace"),
        "a0b3290464d1fa2bb15bf3de6cdbc5da4edf8498c0198bd10efb297059627ee6"),
    "lof-trace-json": (("lof", "reduce", "((((()())())())())()", "--trace", "--format", "json"),
        "ddb0ecb12612b956f84611ad40ba8dbe6a2a49656e8a7ffbb350938dd72826d5"),
    "lof-trace-json-out": (("lof", "reduce", "((((()())())())())()", "--trace", "--format", "json",
                "--out", "out.json"),
        "9c286317cf71eb8a9061c59f69e676e7224eb5b8d741e0bee58089ef24347560"),
    "lof-random-json": (("lof", "reduce", "--random", "20", "4", "11", "--format", "json"),
        "8720b282bb0484b9962a0d714eacdddd992a25a2b8c40d47280a392cbe00fbb1"),
    "verify-all-text": (("verify-all", "--seed", "3"),
        "06399db229024541d31fc8417f0ae4fbacbaee85be0a0f0c482b5d171bbaa63c"),
    "verify-all-json": (("verify-all", "--seed", "3", "--format", "json"),
        "cd5ccd4cb8687e1fe6577821125d1b1e0446d61bbd029c2198cd7defb63c02cf"),
    "verify-all-csv": (("verify-all", "--seed", "3", "--format", "csv"),
        "c441d406a40094e14665c51d5bb7047511ba4848fadb2084b00b5805772cbc94"),
}


def _outcome_digest(code, out: str, err: str, written: str) -> str:
    return hashlib.sha256(f"{code}\n{out}\n{err}\n{written}".encode()).hexdigest()


@pytest.mark.parametrize("case", PINNED)
def test_output_bytes_are_pinned(tmp_path, capsys, monkeypatch, case):
    argv, digest = PINNED[case]
    monkeypatch.setattr(verify, "ALL_CHECKS", [_product_rows, _commuting_rows])
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text('{"matrix": [["1+i", 2, 0], [0, "1/2", 3], [4, 0, "-i"]]}')
    code = main(list(argv))
    captured = capsys.readouterr()
    written = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else ""
    assert _outcome_digest(code, captured.out, captured.err, written) == digest


def _dumped(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_ODD_TEXT = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\u00e9\u2028\U0001f600a')
                    | st.characters())
_JSON_LEAVES = (st.none() | st.booleans()
                | st.integers() | st.sampled_from([2 ** 64, -(2 ** 64) - 1, 3 ** 200])
                | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
                | _ODD_TEXT)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_ODD_TEXT, children, max_size=4)),
    max_leaves=30)


@given(_JSON_TREES)
@example([[[[]], {}, ()], {"a": {"b": {"c": [{}]}}}])
@settings(max_examples=300, deadline=None)
def test_json_pieces_join_to_json_dumps(tree):
    # each tree also goes in below the two streamed levels
    for value in (tree, {"outer": [tree, [tree, {"inner": tree}]]}, [[[tree]]]):
        assert "".join(_json_pieces(value)) == _dumped(value)


# json.dumps refuses the first two too; it would write an int key as text
@pytest.mark.parametrize("bad", [Fraction(1, 2), {1, 2}, {3: 2}, {"a": 1, 3: 2}])
@pytest.mark.parametrize("depth", [0, 1, 2, 4])
def test_json_pieces_refuse_a_non_json_leaf_and_a_non_str_key(bad, depth):
    value = bad
    for _ in range(depth):
        value = [value]
    with pytest.raises(TypeError):
        "".join(_json_pieces(value))


class _WriteRecorder(StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_a_long_trace_is_written_in_pieces_no_longer_than_one_step():
    stream = _WriteRecorder()
    with redirect_stdout(stream):
        code = main(["lof", "reduce", "(" * 400 + ")" * 400, "--trace", "--format", "json"])
    steps = json.loads(stream.getvalue())["steps"]
    assert code == 1 and len(steps) >= 200
    assert len(stream.writes) > len(steps)
    # a step sits two levels down, so each of its lines is indented by four
    longest = max(len(textwrap.indent(_dumped(step), "    ")) for step in steps)
    assert max(map(len, stream.writes)) <= longest


def _benchmark_faulty_inputs() -> list[tuple[str, ...]]:
    """FAULTY_INPUTS of perfbench/workloads.py, read without importing the benchmark."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "FAULTY_INPUTS":
            return list(ast.literal_eval(node.value))
    raise LookupError("perfbench/workloads.py defines no FAULTY_INPUTS")


# the known-bad inputs: each once exited 0, ran past 20 s, ended in a
# traceback, gave an error that did not name the fault, or is a benchmark fault
# case; the lattice parameters dx, dt and kappa, and r = kappa*dt/dx^2, once
# reached the lattice unread
KNOWN_BAD_ARGV = [
    *(("iterant", "eval", text, "[1,0]") for text in ("[1,2][3,4]", "[1,2]+", "+", "-")),
    ("dirac", "verify", "--E", "5", "--p", "1,2,2", "--m", "4"),
    *(("dirac", "verify", "--E", "5", "--p", "1,2", "--m", "4", "--dim", dim)
      for dim in ("1d", "3d")),
    ("lof", "reduce", "(()", "--random", "5", "4", "1"),
    ("lof", "reduce", "()", "--random", "5", "4", "1", "--trace", "--format", "json"),
    ("lof", "reduce", "", "--random", "5", "4", "1"),
    ("schrodinger", "run", "--n", "8", "--steps", "1000000000"),
    *_benchmark_faulty_inputs(),
    ("lof", "reduce", "--random", "9" * 60, "1", "1"),
    ("schrodinger", "run", "--n", "9" * 60, "--steps", "0"),
    ("schrodinger", "run", "--n", "4", "--steps", "-1"),
    *(("schrodinger", "run", "--n", "8", "--steps", "4", *flags) for flags in (
        ("--dt", "inf"), ("--dt", "1e309"), ("--kappa", "inf"), ("--kappa", "1e308", "--dt", "10"),
        ("--kappa", "nan"), ("--dx", "inf"), ("--dx", "1e-200"),
        ("--dx", "1e-170", "--dispersion", "1"), ("--kappa", "0", "--dispersion", "1"))),
    ("schrodinger", "run", "--kappa", "-1", "--dispersion", "3", "--steps", "400"),
    ("schrodinger", "run", "--dispersion", "3", "--init", "bogus"),
    ("schrodinger", "run", "--dispersion", "3", "--sample-every", "2"),
    ("schrodinger", "run", "--n", "4000000", "--steps", "1"),
    ("schrodinger", "run", "--n", "256", "--steps", "16000"),
    *(("schrodinger", "run", "--n", "8", "--steps", "4", "--init", init) for init in (
        "gaussian:mu=1000", "gaussian:mu=inf", "planewave:1000", "planewave:" + "9" * 400)),
]


@pytest.mark.parametrize("argv", KNOWN_BAD_ARGV, ids=" ".join)
def test_known_bad_argv_fails_in_one_line(capsys, argv):
    code = main(list(argv))  # an uncaught exception fails the test
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert len(captured.err.splitlines()) <= 1


# The argv fuzz: tricky values, and three plain ones so that a call gets past its
# first check to the next.
FUZZ_TOKENS = ("", "0", "-1", "-1,0,0", "1/0", "nan", "inf", "1e309", "9" * 60, "-" + "9" * 60,
               "(((", "s0", "c0", "s7", "1", "3", "c3")


def _subcommands(parser, prefix=()):
    """(argv prefix, parser) of each subcommand that build_parser defines."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, prefix + (name,))
            return
    yield prefix, parser


SUBCOMMANDS = list(_subcommands(build_parser()))


def _values(action) -> tuple[str, ...]:
    """The flag's choices, or the FUZZ_TOKENS its type reads: argparse itself
    refuses the rest, before any command runs."""
    if action.choices:
        return tuple(action.choices)
    read = action.type or str
    return tuple(token for token in FUZZ_TOKENS if _reads(read, token))


def _reads(read, token: str) -> bool:
    try:
        read(token)
    except ValueError:
        return False
    return True


@st.composite
def _argv(draw) -> tuple[str, ...]:
    """A real subcommand with its required arguments and some of its other
    flags, each value drawn from _values."""
    prefix, parser = draw(st.sampled_from(SUBCOMMANDS))
    argv = list(prefix)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.required and not draw(st.booleans()):
            continue
        count = action.nargs if isinstance(action.nargs, int) else 1
        values = _values(action)
        argv += action.option_strings[:1] + [draw(st.sampled_from(values)) for _ in range(count)]
    return tuple(argv)


class _Overtime(Exception):
    """A call ran past its deadline (not an OSError, which main reports)."""


def _overtime(signum, frame):
    raise _Overtime


def _call(argv) -> tuple[int, bool, str]:
    """main(argv) within 5 s: its exit code, whether argparse exited, and stderr."""
    err = StringIO()
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(5)
    try:
        with redirect_stdout(StringIO()), redirect_stderr(err):
            try:
                return main(list(argv)), False, err.getvalue()
            except SystemExit as exit_:
                return exit_.code, True, err.getvalue()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _with_examples(test):
    for argv in (*KNOWN_BAD_ARGV, *MINUS_VALUE_ARGV):
        test = example(argv=tuple(argv))(test)
    return test


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(argv=_argv())
@_with_examples
def test_argv_fuzz_exits_0_1_or_2_with_one_error_line_in_time(argv):
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as scratch:
        patch.chdir(scratch)  # for --out
        patch.setattr(verify, "ALL_CHECKS", [_product_rows, _commuting_rows])
        code, from_argparse, err = _call(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.splitlines()
        errors = [line for line in lines if "error:" in line]
        assert len(errors) == 1 and errors[0] == lines[-1]
        # argparse prints its usage lines first
        assert len(lines) == 1 or (from_argparse and lines[0].startswith("usage:"))
