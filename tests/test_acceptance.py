"""Acceptance suite: one test per release criterion, each printing a PASS line.

Every row is exact: it compares two exact values with ``==``, on cases
fixed in the code, so no row draws and the seed changes no row.  Every test
reads the rows of one ``run_verify`` run, so each check runs once per session.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import hashlib
import json
import time

import pytest

from iterant_lab import cli, verify

SEED = 7
# sha256 of the JSON list of [check_id, passed, lhs, rhs] rows of
# run_verify(seed=SEED); a change that alters a row on purpose updates it
ROWS_SHA256 = "1123df78b2a2315dea9e18f230b2adacf9bcc4937b694f021911462d7b93a933"
# sha256 of the whole `verify-all --seed 7 --format json` output, which also
# carries each row's area, description and witness
OUTPUT_SHA256 = "9e889a60d23ce147f4440e43abd40dd1ad670e56504243ea1f07267bf95936ea"


@pytest.fixture(scope="session")
def suite():
    """The one verify-all run of the session, its wall time, and the criterion
    and time of each ALL_CHECKS element in the order run_verify called them,
    seen by a wrapper around each element as the benchmark's criterion timer
    wraps them."""
    called = []

    def seen(check):
        def wrapper(seed):
            start = time.monotonic()
            rows = check(seed)
            called.append((rows[0].check_id.split(".", 1)[0], time.monotonic() - start))
            return rows

        return wrapper

    original = list(verify.ALL_CHECKS)
    verify.ALL_CHECKS[:] = [seen(check) for check in original]
    try:
        start = time.monotonic()
        entries = verify.run_verify(seed=SEED)
        elapsed = time.monotonic() - start
    finally:
        verify.ALL_CHECKS[:] = original
    return entries, elapsed, called


def _assert_all(suite, criterion: str) -> None:
    """Print and assert the rows of the criterion whose id opens its title."""
    prefix = criterion.split()[0] + "."
    entries = [e for e in suite[0] if e.check_id.startswith(prefix)]
    assert entries, f"no rows for {criterion}"
    for entry in entries:
        status = "PASS" if entry.passed else "FAIL"
        print(f"{status} {entry.check_id}: {entry.description}")
    failed = [e for e in entries if not e.passed]
    summary = "PASS" if not failed else "FAIL"
    print(f"{summary} {criterion}")
    assert not failed, f"{criterion}: {[e.check_id for e in failed]}"


def test_c01_iterant_square_root(suite):
    _assert_all(suite, "C01 iterant square root (both sign variants)")
    # the squaring itself must be sub-millisecond; average over repetitions
    from iterant_lab.iterants import imaginary_unit

    i_elem = imaginary_unit()
    reps = 1000
    start = time.perf_counter()
    for _ in range(reps):
        _ = i_elem * i_elem
    mean = (time.perf_counter() - start) / reps
    print(f"C01 mean squaring time: {mean * 1e6:.1f} us")
    assert mean < 1e-3


def test_c02_matrix_identity(suite):
    _assert_all(suite, "C02 period-two products match 2x2 matrix products (all 16 basis pairs)")


def test_c03_determinant_bridge(suite):
    _assert_all(suite, "C03 conjugate determinant bridge (10 polarization elements, 100 pairs)")


def test_c04_g_table_theorem(suite):
    _assert_all(suite, "C04 group axioms, actions and the identity-diagonal table theorem")


def test_c05_s3_matrices(suite):
    _assert_all(suite, "C05 six 6x6 permutation matrices from the s3 table")


def test_c06_quaternions_three_ways(suite):
    _assert_all(suite, "C06 quaternion table holds for all three constructions")


def test_c07_decomposition_theorem(suite):
    _assert_all(suite, "C07 diagonal-times-permutation decomposition (n = 2, 3, 4)")


def test_c08_kernel(suite):
    _assert_all(suite, "C08 kernel of the natural representation (18 basis elements, rank count)")


def test_c09_minkowski_observable(suite):
    _assert_all(suite, "C09 spacetime event as a period-two iterant: H, interval, Doppler "
                       "boosts and SL(2, Q(i)) spinor maps on H, proved by degree")


def test_c10_braiding(suite):
    _assert_all(suite, "C10 braiding relations, exact via the root-2-free conjugation")


def test_c11_fermion_algebra(suite):
    _assert_all(suite, "C11 fermion operators from an anticommuting pair")


def test_c12_fusion_ring(suite):
    _assert_all(suite, "C12 fusion ring and Fibonacci coefficients (n <= 20)")


def test_c13_mark_calculus(suite):
    _assert_all(suite, "C13 mark calculus: worked example, every rewrite step up to 9 marks, "
                       "logic tables")


def test_c14_dirac_nilpotents(suite):
    _assert_all(suite, "C14 nilpotent operators, both conjugate conventions, 1d and 3d")


def test_c15_real_generators(suite):
    _assert_all(suite, "C15 totally real generator set and commuting copies")


def test_c16_discrete_commutator(suite):
    _assert_all(suite, "C16 discrete commutator identity (unit sequences and their sums, two tick sizes)")


def test_c17_lattice_scheme(suite):
    _assert_all(suite, "C17 lattice scheme: exact pair map, conserved form and dispersion "
                       "relation of every mode on rings of 2, 3, 4 and 6 cells")
    elapsed = dict(suite[2])["C17"]
    print(f"C17 runtime: {elapsed:.1f}s")
    assert elapsed < 20.0


def test_full_suite_runtime_and_uniqueness(suite):
    entries, elapsed, _ = suite
    print(f"verify-all: {len(entries)} checks in {elapsed:.1f}s")
    assert all(e.passed for e in entries), [e.check_id for e in entries if not e.passed]
    assert elapsed < 60.0
    ids = [e.check_id for e in entries]
    assert len(ids) == len(set(ids))
    rows = [[e.check_id, e.passed, e.lhs, e.rhs] for e in entries]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == ROWS_SHA256


def test_every_criterion_runs_once_in_order_through_the_check_list(suite):
    assert [criterion for criterion, _ in suite[2]] == [f"C{k:02d}" for k in range(1, 18)]


def test_verify_all_json_output_is_pinned(suite, capsys, monkeypatch):
    monkeypatch.setattr(verify, "run_verify", lambda seed: suite[0])
    assert cli.main(["verify-all", "--seed", str(SEED), "--format", "json"]) == 0
    output = capsys.readouterr().out
    assert hashlib.sha256(output.encode()).hexdigest() == OUTPUT_SHA256
