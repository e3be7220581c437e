"""Acceptance suite: one test per release criterion, each printing a PASS line.

Every algebraic criterion is exact (bit-for-bit equality of exact scalars);
the lattice-scheme criterion uses the stated tolerances (2% dispersion error,
1% norm drift, monotone improvement under dt halving).  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import hashlib
import json
import time

from iterant_lab import verify

SEED = 7
# sha256 of the JSON list of [check_id, passed, lhs, rhs] rows of
# run_verify(seed=SEED); a change that alters a row on purpose updates it
ROWS_SHA256 = "aa265c796552e3b5e07015570b16584c07357c55a77c1f1e123c0a2e59d7b023"


def _assert_all(criterion: str, entries) -> None:
    for entry in entries:
        status = "PASS" if entry.passed else "FAIL"
        print(f"{status} {entry.check_id}: {entry.description}")
    failed = [e for e in entries if not e.passed]
    summary = "PASS" if not failed else "FAIL"
    print(f"{summary} {criterion}")
    assert not failed, f"{criterion}: {[e.check_id for e in failed]}"


def test_c01_iterant_square_root():
    _assert_all("C01 iterant square root (both sign variants)",
                verify.check_iterant_root(SEED))
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


def test_c02_matrix_identity():
    _assert_all("C02 period-two products match 2x2 matrix products (500 pairs)",
                verify.check_matrix_identity(SEED, pairs=500))


def test_c03_determinant_bridge():
    _assert_all("C03 conjugate determinant bridge (200 pairs)",
                verify.check_determinant_bridge(SEED, pairs=200))


def test_c04_g_table_theorem():
    _assert_all("C04 identity-diagonal table theorem (c3, c6, s3, klein4)",
                verify.check_g_table_theorem(SEED, pairs=500))


def test_c05_s3_matrices():
    _assert_all("C05 six 6x6 permutation matrices from the s3 table",
                verify.check_s3_matrices(SEED))


def test_c06_quaternions_three_ways():
    _assert_all("C06 quaternion table holds for all three constructions",
                verify.check_quaternions(SEED))


def test_c07_decomposition_theorem():
    _assert_all("C07 diagonal-times-permutation decomposition (n = 2, 3, 4)",
                verify.check_decomposition(SEED, per_dim=34))


def test_c08_kernel():
    _assert_all("C08 kernel of the natural representation (500 random elements)",
                verify.check_kernel(SEED, samples=500))


def test_c09_minkowski_observable():
    _assert_all("C09 Hermitian spacetime observable (200 random events)",
                verify.check_minkowski(SEED, samples=200))


def test_c10_braiding():
    _assert_all("C10 braiding relations, exact via the root-2-free conjugation",
                verify.check_braiding(SEED))


def test_c11_fermion_algebra():
    _assert_all("C11 fermion operators from an anticommuting pair",
                verify.check_fermion(SEED))


def test_c12_fusion_ring():
    _assert_all("C12 fusion ring and Fibonacci coefficients (n <= 20)",
                verify.check_fusion(SEED))


def test_c13_mark_calculus():
    _assert_all("C13 mark calculus: worked example, 1000-expression fuzz, logic tables",
                verify.check_lof(SEED, fuzz=1000))


def test_c14_dirac_nilpotents():
    _assert_all("C14 nilpotent operators, both conjugate conventions, 1d and 3d",
                verify.check_dirac(SEED, triples=50))


def test_c15_real_generators():
    _assert_all("C15 totally real generator set and commuting copies",
                verify.check_real_generators(SEED))


def test_c16_discrete_commutator():
    _assert_all("C16 discrete commutator identity (200 random sequences)",
                verify.check_discrete(SEED, samples=200))


def test_c17_lattice_scheme():
    start = time.monotonic()
    entries = verify.check_schrodinger(SEED)
    elapsed = time.monotonic() - start
    _assert_all("C17 lattice scheme: dispersion 2%, norm drift 1%, dt convergence",
                entries)
    print(f"C17 runtime: {elapsed:.1f}s")
    assert elapsed < 20.0


def test_full_suite_runtime_and_uniqueness():
    start = time.monotonic()
    report = verify.run_verify(seed=SEED)
    elapsed = time.monotonic() - start
    print(f"verify-all: {len(report.entries)} checks in {elapsed:.1f}s")
    assert report.all_passed, [e.check_id for e in report.failures()]
    assert elapsed < 60.0
    ids = [e.check_id for e in report.entries]
    assert len(ids) == len(set(ids))
    rows = [[e.check_id, e.passed, e.lhs, e.rhs] for e in report.entries]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == ROWS_SHA256
