"""The full machine-checked identity suite.

Every check returns an entry with a stable id, a topic area, and lhs/rhs
digests.  The CLI command ``verify-all`` prints the table; the acceptance
test suite asserts each criterion individually.  All checks are exact except
the lattice-scheme ones, whose tolerances are stated inline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import clifford, dirac, discrete, groups, lof, matrep, schrodinger
from .iterants import (
    IterantAlgebra,
    conjugate_period2,
    determinant_period2,
    imaginary_unit,
    natural_sn_algebra,
    period_two_algebra,
    regular_algebra,
    term_by_permutation,
)
from .matrix import SquareMatrix
from .scalars import GaussianRational, _from_triple


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    area: str
    description: str
    passed: bool
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerifyReport:
    entries: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.passed]


def _entry(check_id: str, area: str, description: str, passed: bool, lhs, rhs) -> CheckResult:
    return CheckResult(check_id, area, description, bool(passed), str(lhs), str(rhs))


def _rand_fraction(rng: random.Random, span: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_scalar(rng: random.Random, span: int = 9, den: int = 5) -> GaussianRational:
    """a/b + (c/d)i, drawn as two _rand_fraction calls would draw them."""
    a, b = rng.randint(-span, span), rng.randint(1, den)
    c, d = rng.randint(-span, span), rng.randint(1, den)
    return _from_triple(a * d, c * b, b * d)


def _rand_vector(rng: random.Random, n: int) -> list[GaussianRational]:
    return [_rand_scalar(rng) for _ in range(n)]


def _rand_element(algebra: IterantAlgebra, rng: random.Random, max_terms: int = 3):
    total = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        gid = rng.randrange(algebra.group.order)
        total = total + algebra.term(_rand_vector(rng, algebra.degree), gid)
    return total


# ---------------------------------------------------------------------------
# C01: the oscillation square root of minus one.


def check_iterant_root(seed: int) -> list[CheckResult]:
    algebra = period_two_algebra()
    minus_one = algebra.scalar(-1)
    out = []
    for first, tag in ((-1, "canonical"), (1, "sign-variant")):
        i_elem = imaginary_unit(first=first)
        out.append(
            _entry(
                f"C01.{tag}",
                "iterants",
                f"([{first},{-first}]e)^2 = -1 exactly",
                i_elem * i_elem == minus_one,
                str(i_elem * i_elem),
                str(minus_one),
            )
        )
    i_elem = imaginary_unit()
    out.append(
        _entry(
            "C01.fourth-power",
            "iterants",
            "fourth power of the imaginary iterant is +1",
            i_elem ** 4 == algebra.one(),
            str(i_elem ** 4),
            str(algebra.one()),
        )
    )
    return out


# ---------------------------------------------------------------------------
# C02: period-two iterant product against 2x2 matrix product.


def check_matrix_identity(seed: int, pairs: int = 500) -> list[CheckResult]:
    algebra = period_two_algebra()
    rng = random.Random(seed + 2)
    bad = 0
    for _ in range(pairs):
        x = _rand_element(algebra, rng)
        y = _rand_element(algebra, rng)
        if matrep.to_matrix(x * y) != matrep.to_matrix(x) * matrep.to_matrix(y):
            bad += 1
    return [
        _entry(
            "C02.product-match",
            "matrix-bridge",
            f"iterant product equals matrix product on {pairs} random pairs",
            bad == 0,
            f"{pairs - bad}/{pairs} equal",
            f"{pairs}/{pairs} equal",
        )
    ]


# ---------------------------------------------------------------------------
# C03: conjugate-determinant bridge.


def check_determinant_bridge(seed: int, pairs: int = 200) -> list[CheckResult]:
    algebra = period_two_algebra()
    rng = random.Random(seed + 3)
    det_ok = mult_ok = sym_ok = True
    for _ in range(pairs):
        z = _rand_element(algebra, rng)
        w = _rand_element(algebra, rng)
        dz, dw = determinant_period2(z), determinant_period2(w)
        if dz != matrep.to_matrix(z).determinant():
            det_ok = False
        if determinant_period2(z * w) != dz * dw:
            mult_ok = False
        if z * conjugate_period2(z) != conjugate_period2(z) * z:
            sym_ok = False
    return [
        _entry("C03.det-equals-matrix-det", "matrix-bridge",
               f"Z conj(Z) equals the matrix determinant on {pairs} samples",
               det_ok, "all equal" if det_ok else "mismatch", "all equal"),
        _entry("C03.multiplicative", "matrix-bridge",
               f"D(ZW) = D(Z) D(W) on {pairs} pairs",
               mult_ok, "all equal" if mult_ok else "mismatch", "all equal"),
        _entry("C03.two-sided", "matrix-bridge",
               "Z conj(Z) = conj(Z) Z on all samples",
               sym_ok, "all equal" if sym_ok else "mismatch", "all equal"),
    ]


# ---------------------------------------------------------------------------
# C04/C05: identity-diagonal tables and the regular representation.

C3_MULT = [["1", "S", "S^2"], ["S", "S^2", "1"], ["S^2", "1", "S"]]
C3_GTABLE = [["1", "S", "S^2"], ["S^2", "1", "S"], ["S", "S^2", "1"]]
C6_MULT = [
    ["1", "S", "S^2", "S^3", "S^4", "S^5"],
    ["S", "S^2", "S^3", "S^4", "S^5", "1"],
    ["S^2", "S^3", "S^4", "S^5", "1", "S"],
    ["S^3", "S^4", "S^5", "1", "S", "S^2"],
    ["S^4", "S^5", "1", "S", "S^2", "S^3"],
    ["S^5", "1", "S", "S^2", "S^3", "S^4"],
]
C6_GTABLE = [
    ["1", "S", "S^2", "S^3", "S^4", "S^5"],
    ["S^5", "1", "S", "S^2", "S^3", "S^4"],
    ["S^4", "S^5", "1", "S", "S^2", "S^3"],
    ["S^3", "S^4", "S^5", "1", "S", "S^2"],
    ["S^2", "S^3", "S^4", "S^5", "1", "S"],
    ["S", "S^2", "S^3", "S^4", "S^5", "1"],
]
S3_MULT = [
    ["1", "R", "R^2", "F", "RF", "R^2F"],
    ["R", "R^2", "1", "RF", "R^2F", "F"],
    ["R^2", "1", "R", "R^2F", "F", "RF"],
    ["F", "R^2F", "RF", "1", "R^2", "R"],
    ["RF", "F", "R^2F", "R", "1", "R^2"],
    ["R^2F", "RF", "F", "R^2", "R", "1"],
]
S3_GTABLE = [
    ["1", "R", "R^2", "F", "RF", "R^2F"],
    ["R^2", "1", "R", "R^2F", "F", "RF"],
    ["R", "R^2", "1", "RF", "R^2F", "F"],
    ["F", "R^2F", "RF", "1", "R^2", "R"],
    ["RF", "F", "R^2F", "R", "1", "R^2"],
    ["R^2F", "RF", "F", "R^2", "R", "1"],
]

S3_REGULAR_MATRICES = {
    "R": [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]],
    "R^2": [[0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0]],
    "F": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1],
          [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
    "RF": [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0],
           [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
    "R^2F": [[0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
             [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]],
    "1": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
}


def check_g_table_theorem(seed: int, pairs: int = 500) -> list[CheckResult]:
    out = []
    rng = random.Random(seed + 4)
    for name in ("c3", "c6", "s3", "klein4"):
        group = groups.builtin_group(name)
        action = groups.regular_action(group)
        algebra = regular_algebra(group)
        bad = 0
        for _ in range(pairs):
            x = _rand_element(algebra, rng, max_terms=2)
            y = _rand_element(algebra, rng, max_terms=2)
            if matrep.to_matrix(x * y) != matrep.to_matrix(x) * matrep.to_matrix(y):
                bad += 1
        out.append(
            _entry(f"C04.{name}-homomorphism", "groups",
                   f"{name}: regular-algebra product maps to matrix product ({pairs} pairs)",
                   bad == 0, f"{pairs - bad}/{pairs}", f"{pairs}/{pairs}")
        )
        table_mats = groups.element_matrices_from_g_table(group)
        match = all(
            table_mats[group.names[g]] == action.matrix_of(g)
            and groups.matrix_to_perm(table_mats[group.names[g]]).images
            == action.perm_of(g).images
            for g in range(group.order)
        )
        out.append(
            _entry(f"C04.{name}-regular-placement", "groups",
                   f"{name}: table placement of each element equals its regular permutation matrix",
                   match, "all elements", "all elements")
        )
    out.append(_entry("C04.c3-mult-table", "groups", "c3 multiplication table matches the reference layout",
                      groups.cyclic(3).name_table() == C3_MULT, "table", "reference"))
    out.append(_entry("C04.c3-gtable", "groups", "c3 identity-diagonal table matches the reference layout",
                      groups.g_table_names(groups.cyclic(3)) == C3_GTABLE, "table", "reference"))
    out.append(_entry("C04.c6-mult-table", "groups", "c6 multiplication table matches the reference layout",
                      groups.cyclic(6).name_table() == C6_MULT, "table", "reference"))
    out.append(_entry("C04.c6-gtable", "groups", "c6 identity-diagonal table matches the reference layout",
                      groups.g_table_names(groups.cyclic(6)) == C6_GTABLE, "table", "reference"))
    out.append(_entry("C04.s3-mult-table", "groups", "s3 multiplication table matches the reference layout",
                      groups.symmetric(3).name_table() == S3_MULT, "table", "reference"))
    out.append(_entry("C04.s3-gtable", "groups", "s3 identity-diagonal table matches the reference layout",
                      groups.g_table_names(groups.symmetric(3)) == S3_GTABLE, "table", "reference"))
    return out


def check_s3_matrices(seed: int) -> list[CheckResult]:
    group = groups.symmetric(3)
    mats = groups.element_matrices_from_g_table(group)
    out = []
    for name, expected in S3_REGULAR_MATRICES.items():
        ok = mats[name] == SquareMatrix.from_rows(expected)
        out.append(
            _entry(f"C05.s3-matrix-{name}", "groups",
                   f"6x6 permutation matrix of {name} from the identity-diagonal table",
                   ok, "computed", "reference")
        )
    return out


# ---------------------------------------------------------------------------
# C06: the quaternion table, three ways.


def check_quaternions(seed: int) -> list[CheckResult]:
    out = []
    for variant in ("klein4", "iota_2x2", "majorana_triple"):
        triple = clifford.quaternion_triple(variant)
        out.append(
            _entry(f"C06.{variant}", "clifford",
                   f"{variant}: all 16 quaternion unit products hold",
                   clifford.quaternion_table_holds(triple),
                   "16/16", "16/16")
        )
    klein = clifford.quaternion_triple("klein4")
    real = klein.I.is_real() and klein.J.is_real() and klein.K.is_real()
    out.append(_entry("C06.klein4-real", "clifford",
                      "klein4 quaternion triple is real 4x4", real, str(real), "True"))
    return out


# ---------------------------------------------------------------------------
# C07: diagonal-times-permutation decomposition.


def check_decomposition(seed: int, per_dim: int = 34) -> list[CheckResult]:
    rng = random.Random(seed + 7)
    out = []
    for n in (2, 3, 4):
        ok = True
        for _ in range(per_dim):
            m = SquareMatrix.from_rows(
                [[_rand_scalar(rng) for _ in range(n)] for _ in range(n)]
            )
            terms = matrep.decompose_matrix(m)
            if matrep.reassemble(terms, n) != m:
                ok = False
            if matrep.to_matrix(matrep.embed_matrix(m)) != m:
                ok = False
        out.append(
            _entry(f"C07.n{n}-roundtrip", "representation",
                   f"n={n}: reassembly and section property on {per_dim} random matrices",
                   ok, "exact", "exact")
        )
    m = SquareMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    expected = {
        "()": (1, 5, 9),
        "(123)": (2, 6, 7),
        "(132)": (3, 4, 8),
        "(23)": (1, 6, 8),
        "(13)": (3, 5, 7),
        "(12)": (2, 4, 9),
    }
    got = {
        term.perm.cycle_string(): tuple(int(c.re) for c in term.diag)
        for term in matrep.decompose_matrix(m)
    }
    out.append(
        _entry("C07.worked-3x3", "representation",
               "3x3 worked decomposition produces the six expected diagonals",
               got == expected, str(sorted(got.items())), str(sorted(expected.items())))
    )
    return out


# ---------------------------------------------------------------------------
# C08: kernel of the natural representation.


def _kernel_family_element(algebra, vals: dict[str, Fraction]):
    x, y, z = vals["x"], vals["y"], vals["z"]
    w, t = vals["w"], vals["t"]
    r, s = vals["r"], vals["s"]
    p, q = vals["p"], vals["q"]
    perm = groups.Permutation.from_cycles
    return (
        algebra.vector([x, y, z])
        + term_by_permutation(algebra, [-x, w, t], perm(3, "(23)"))
        + term_by_permutation(algebra, [r, -y, s], perm(3, "(13)"))
        + term_by_permutation(algebra, [p, q, -z], perm(3, "(12)"))
        + term_by_permutation(algebra, [-p, -w, -s], perm(3, "(123)"))
        + term_by_permutation(algebra, [-r, -q, -t], perm(3, "(132)"))
    )


def check_kernel(seed: int, samples: int = 500) -> list[CheckResult]:
    algebra = natural_sn_algebra(3)
    perm = groups.Permutation.from_cycles
    out = []
    e1 = [1, 0, 0]
    x = algebra.vector(e1) - term_by_permutation(algebra, e1, perm(3, "(23)"))
    report = matrep.kernel_test(x)
    out.append(_entry("C08.single-transposition", "representation",
                      "e1 - e1*(23) lies in the kernel",
                      report.in_kernel and report.criteria_agree,
                      "kernel" if report.in_kernel else "not kernel", "kernel"))
    out.append(_entry("C08.idempotent-like", "representation",
                      "that element satisfies x^2 = 2x (so it is not nilpotent)",
                      x * x == 2 * x, str(x * x), str(2 * x)))

    a, b, c = Fraction(1), Fraction(2), Fraction(3)
    y = (
        algebra.scalar(a)
        + term_by_permutation(algebra, [b, b, b], perm(3, "(123)"))
        + term_by_permutation(algebra, [c, c, c], perm(3, "(132)"))
        - term_by_permutation(algebra, [c, a, b], perm(3, "(13)"))
        - term_by_permutation(algebra, [b, c, a], perm(3, "(12)"))
        - term_by_permutation(algebra, [a, b, c], perm(3, "(23)"))
    )
    out.append(_entry("C08.circulant-difference", "representation",
                      "circulant-vs-embedding difference lies in the kernel",
                      matrep.kernel_test(y).in_kernel, "kernel", "kernel"))

    ones = {k: Fraction(1) for k in "xyzwtrspq"}
    fam = _kernel_family_element(algebra, ones)
    out.append(_entry("C08.kernel-family-ones", "representation",
                      "nine-parameter kernel family at all-ones lies in the kernel",
                      matrep.kernel_test(fam).in_kernel, "kernel", "kernel"))

    rng = random.Random(seed + 8)
    agree = True
    forced_ok = True
    for idx in range(samples):
        elem = _rand_element(algebra, rng, max_terms=4)
        rep = matrep.kernel_test(elem)
        if not rep.criteria_agree:
            agree = False
        if idx % 10 == 0:
            vals = {k: _rand_fraction(rng) for k in "xyzwtrspq"}
            if not matrep.kernel_test(_kernel_family_element(algebra, vals)).in_kernel:
                forced_ok = False
    out.append(_entry("C08.criteria-agree", "representation",
                      f"zero-image and entry-sum criteria agree on {samples} random elements",
                      agree, "agree", "agree"))
    out.append(_entry("C08.random-family", "representation",
                      "random kernel-family instances always map to zero",
                      forced_ok, "kernel", "kernel"))
    return out


# ---------------------------------------------------------------------------
# C09: the Hermitian spacetime observable.


def check_minkowski(seed: int, samples: int = 200) -> list[CheckResult]:
    rng = random.Random(seed + 9)
    ok_det = ok_trace = ok_herm = True
    for _ in range(samples):
        event = clifford.SpacetimeEvent.of(
            _rand_fraction(rng), _rand_fraction(rng), _rand_fraction(rng), _rand_fraction(rng)
        )
        rep = clifford.minkowski_observable(event)
        t, x, y, z = event.t, event.x, event.y, event.z
        if rep.determinant != t * t - x * x - y * y - z * z:
            ok_det = False
        if rep.trace != 2 * t:
            ok_trace = False
        if not rep.hermitian:
            ok_herm = False
    rep1 = clifford.minkowski_observable(clifford.SpacetimeEvent.of(2, 1, 0, 0))
    rep2 = clifford.minkowski_observable(clifford.SpacetimeEvent.of(0, 3, 4, 0))
    return [
        _entry("C09.determinant", "spacetime",
               f"det H = T^2-X^2-Y^2-Z^2 on {samples} random events", ok_det, "exact", "exact"),
        _entry("C09.trace", "spacetime", "trace H = 2T on all samples", ok_trace, "exact", "exact"),
        _entry("C09.hermitian", "spacetime", "H equals its conjugate transpose", ok_herm, "exact", "exact"),
        _entry("C09.example-roots", "spacetime",
               "reference events give charpoly roots {1,3} and {-5,5}",
               rep1.eigenvalues == (Fraction(1), Fraction(3))
               and rep2.eigenvalues == (Fraction(-5), Fraction(5))
               and rep1.determinant == 3 and rep2.determinant == -25,
               f"{rep1.eigenvalues} {rep2.eigenvalues}", "(1, 3) (-5, 5)"),
    ]


# ---------------------------------------------------------------------------
# C10: braiding.


def check_braiding(seed: int) -> list[CheckResult]:
    out = []
    rep = clifford.clifford_generators(4)
    identity_ok = True
    for k in range(1, rep.n):
        for j in range(1, rep.n + 1):
            image = clifford.braid_conjugate(rep, k, rep.generators[j - 1])
            if j == k:
                expected = rep.generators[k]
            elif j == k + 1:
                expected = -rep.generators[k - 1]
            else:
                expected = rep.generators[j - 1]
            if image != expected:
                identity_ok = False
    out.append(_entry("C10.images", "braiding",
                      "conjugation sends c_k -> c_{k+1}, c_{k+1} -> -c_k, fixes the rest",
                      identity_ok, "all images", "all images"))

    relations_ok = True
    for n in range(3, 7):
        for k in range(1, n - 1):
            lhs = clifford.braid_word_matrix(n, [k, k + 1, k])
            rhs = clifford.braid_word_matrix(n, [k + 1, k, k + 1])
            if lhs != rhs:
                relations_ok = False
        for k in range(1, n):
            for j in range(k + 2, n):
                b_k = clifford.braid_basis_matrix(n, k)
                b_j = clifford.braid_basis_matrix(n, j)
                if b_k * b_j != b_j * b_k:
                    relations_ok = False
    out.append(_entry("C10.braid-relations", "braiding",
                      "adjacent braid relation and distant commutation for n <= 6",
                      relations_ok, "all relations", "all relations"))

    conj_ok = True
    for j in range(1, rep.n + 1):
        lhs = rep.generators[j - 1]
        for k in (1, 2, 1):
            lhs = clifford.braid_conjugate(rep, k, lhs)
        rhs = rep.generators[j - 1]
        for k in (2, 1, 2):
            rhs = clifford.braid_conjugate(rep, k, rhs)
        if lhs != rhs:
            conj_ok = False
    out.append(_entry("C10.conjugation-braid-relation", "braiding",
                      "the conjugation maps themselves satisfy the braid relation",
                      conj_ok, "equal", "equal"))

    preserved = True
    for n in range(2, 7):
        rep_n = clifford.clifford_generators(n)
        for k in range(1, n):
            images = tuple(
                clifford.braid_conjugate(rep_n, k, c) for c in rep_n.generators
            )
            try:
                clifford.CliffordRep(images)
            except ValueError:
                preserved = False
    out.append(_entry("C10.relations-preserved", "braiding",
                      "images of the generators are again anticommuting square-one (n <= 6)",
                      preserved, str(preserved), "True"))

    span_match = True
    for k in range(1, rep.n):
        basis_matrix = clifford.braid_basis_matrix(rep.n, k)
        for i in range(rep.n):
            expanded = SquareMatrix.zero(rep.dim)
            for j in range(rep.n):
                expanded = expanded + rep.generators[j].scale(basis_matrix.entry(i, j))
            if expanded != clifford.braid_conjugate(rep, k, rep.generators[i]):
                span_match = False
    out.append(_entry("C10.span-matrix-matches-conjugation", "braiding",
                      "the signed-permutation span matrices agree with the conjugation images",
                      span_match, str(span_match), "True"))

    braiders = clifford.quaternion_braiders(clifford.clifford_generators(3))
    out.append(_entry("C10.quaternion-braiders", "braiding",
                      "(1+I)(1+J)(1+I) = (1+J)(1+I)(1+J) and cyclic variants, exactly",
                      braiders.relations_hold, str(braiders.relations_hold), "True"))
    power_ok = (
        clifford.braid_word_matrix(3, [1] * 4) == SquareMatrix.identity(3)
        and clifford.braid_word_matrix(3, [1] * 2) != SquareMatrix.identity(3)
    )
    out.append(_entry("C10.order-four", "braiding",
                      "the span map of a single braid generator has order exactly four",
                      power_ok, str(power_ok), "True"))
    return out


# ---------------------------------------------------------------------------
# C11: fermion operators from an anticommuting pair.


def check_fermion(seed: int) -> list[CheckResult]:
    rep = clifford.clifford_generators(2)
    pair = clifford.fermion_pair(rep, 1, 2)
    adjoint_ok = pair.psi_dagger == pair.psi.conjugate_transpose()
    return [
        _entry("C11.psi-squared", "fermions", "psi^2 = 0 exactly",
               pair.psi_squared_zero, "0", "0"),
        _entry("C11.dagger-squared", "fermions", "psi+^2 = 0 exactly",
               pair.dagger_squared_zero, "0", "0"),
        _entry("C11.anticommutator", "fermions", "psi psi+ + psi+ psi = 1 exactly",
               pair.anticommutator_is_one, "identity", "identity"),
        _entry("C11.adjoint", "fermions",
               "psi+ is the conjugate transpose of psi in this representation",
               adjoint_ok, str(adjoint_ok), "True"),
    ]


# ---------------------------------------------------------------------------
# C12: fusion ring.


def check_fusion(seed: int) -> list[CheckResult]:
    p = clifford.FUSION_P
    ok_rule = p * p == clifford.FusionElement(1, 1)
    fib = [0, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    ok_fib = all(
        clifford.fusion_power(n) == clifford.FusionElement(fib[n - 1], fib[n])
        for n in range(1, 21)
    )
    comm_ok = True
    assoc_ok = True
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    u = clifford.FusionElement(a, b)
                    v = clifford.FusionElement(c, d)
                    if u * v != v * u:
                        comm_ok = False
                    w = clifford.FusionElement((a + c) % 4, (b + d) % 4)
                    if (u * v) * w != u * (v * w):
                        assoc_ok = False
    return [
        _entry("C12.rule", "fusion", "P * P = 1 + P", ok_rule, str(p * p), "1 + 1P"),
        _entry("C12.fibonacci", "fusion",
               "P^n has consecutive Fibonacci coefficients for n <= 20",
               ok_fib, "all match", "all match"),
        _entry("C12.commutative-associative", "fusion",
               "fusion product is commutative and associative on small coefficients",
               comm_ok and assoc_ok, "holds", "holds"),
    ]


# ---------------------------------------------------------------------------
# C13: mark calculus.


WORKED_EXPRESSION = "((((()())())())())()"


def check_lof(seed: int, fuzz: int = 1000) -> list[CheckResult]:
    out = []
    worked = lof.parse(WORKED_EXPRESSION)
    result = lof.reduce_expression(worked)
    out.append(_entry("C13.worked-example", "mark-calculus",
                      "the nested worked example reduces to the marked state",
                      result.value == "marked", result.value, "marked"))
    out.append(_entry("C13.crossing", "mark-calculus", "(()) reduces to unmarked",
                      lof.reduce_expression(lof.parse("(())")).value == "unmarked",
                      lof.reduce_expression(lof.parse("(())")).value, "unmarked"))
    out.append(_entry("C13.calling", "mark-calculus", "()() reduces to marked",
                      lof.reduce_expression(lof.parse("()()")).value == "marked",
                      lof.reduce_expression(lof.parse("()()")).value, "marked"))

    all_agree = lof.confluence_fuzz(fuzz, max_depth=6, orders=3, seed=seed + 13) == 0
    out.append(_entry("C13.confluence", "mark-calculus",
                      f"{fuzz} random expressions reduce to the same value in random rule order",
                      all_agree, "all agree", "all agree"))

    table_ok = True
    for a in (False, True):
        for b in (False, True):
            env = {"A": a, "B": b}
            cases = [
                ("(A)B", (not a) or b),
                ("((A)(B))", a and b),
                ("AB", a or b),
                ("(A)", not a),
                ("((A))", a),
            ]
            for text, expected in cases:
                if lof.eval_logic(lof.parse(text), env) != expected:
                    table_ok = False
    const_ok = (
        lof.eval_logic(lof.parse("()"), {}) is True
        and lof.eval_logic(lof.parse("(())"), {}) is False
    )
    out.append(_entry("C13.logic-tables", "mark-calculus",
                      "the logic reading matches every connective truth table",
                      table_ok and const_ok, "all rows", "all rows"))

    bridge = lof.majorana_pair_bridge()
    bridge_ok = all(
        bridge[k]
        for k in (
            "polarity_squared_one",
            "shift_squared_one",
            "anticommute",
            "product_squares_to_minus_one",
        )
    )
    out.append(_entry("C13.generator-bridge", "mark-calculus",
                      "the re-entrant oscillation pair squares to one and anticommutes",
                      bridge_ok, str(bridge_ok), "True"))
    return out


# ---------------------------------------------------------------------------
# C14: nilpotent plane-wave operators.


def _pythagorean_triples(count: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    triples = []
    for a in range(2, 12):
        for b in range(1, a):
            p = Fraction(a * a - b * b)
            m = Fraction(2 * a * b)
            e = Fraction(a * a + b * b)
            triples.append((e, p, m))
            triples.append((e, m, p))
            if len(triples) >= count:
                return triples[:count]
    return triples


THREE_D_CASES = [
    (5, (1, 2, 2), 4),
    (13, (3, 4, 0), 12),
    (3, (1, 2, 2), 0),
    (7, (2, 3, 6), 0),
    (25, (12, 9, 12), 16),
    (17, (8, 9, 12), 0),
]


def check_dirac(seed: int, triples: int = 50) -> list[CheckResult]:
    out = []
    frame1 = dirac.dirac_frame("1d")
    all_ok: dict[str, bool] = {}
    for e, p, m in _pythagorean_triples(triples):
        params = dirac.OnShellParams.of(e, p, m)
        if not params.on_shell:
            raise AssertionError("triple generator produced an off-shell case")
        for key, value in dirac.relation_report(frame1, params).items():
            all_ok[key] = all_ok.get(key, True) and value
    for key, value in sorted(all_ok.items()):
        out.append(_entry(f"C14.1d-{key}", "dirac",
                          f"1d {key} on {triples} on-shell triples", value,
                          "holds" if value else "fails", "holds"))

    frame3 = dirac.dirac_frame("3d")
    ok3: dict[str, bool] = {}
    for e, p, m in THREE_D_CASES:
        params = dirac.OnShellParams.of(e, p, m)
        if not params.on_shell:
            raise AssertionError("bad 3d case")
        for key, value in dirac.relation_report(frame3, params).items():
            ok3[key] = ok3.get(key, True) and value
    three_ok = all(ok3.values())
    out.append(_entry("C14.3d-identities", "dirac",
                      f"all identities with p replaced by p.s on {len(THREE_D_CASES)} on-shell cases",
                      three_ok, "holds" if three_ok else str(ok3), "holds"))

    rng = random.Random(seed + 14)
    off_ok = True
    for _ in range(100):
        params = dirac.OnShellParams.of(
            _rand_fraction(rng), _rand_fraction(rng), _rand_fraction(rng)
        )
        u = dirac.nilpotent_u(frame1, params)
        if u * u != SquareMatrix.identity(2).scale(params.shell_defect):
            off_ok = False
    out.append(_entry("C14.off-shell-scalar", "dirac",
                      "U^2 = (p^2+m^2-E^2) identity for 100 random off-shell parameters",
                      off_ok, "exact", "exact"))

    frame_checks = (
        frame1.alpha.anticommutator(frame1.beta).is_zero()
        and all(
            frame3.sigmas[i].anticommutator(frame3.sigmas[j]).is_zero()
            for i in range(3)
            for j in range(i + 1, 3)
        )
        and all(
            frame3.sigmas[i] * frame3.sigmas[i] == SquareMatrix.identity(4)
            for i in range(3)
        )
        and all(
            frame3.alpha.commutator(s).is_zero() and frame3.beta.commutator(s).is_zero()
            for s in frame3.sigmas
        )
    )
    out.append(_entry("C14.frames", "dirac",
                      "frame relations: squares one, anticommuting, commuting 3d triple",
                      frame_checks, str(frame_checks), "True"))
    return out


# ---------------------------------------------------------------------------
# C15: the totally real generator set.


def check_real_generators(seed: int) -> list[CheckResult]:
    gens = dirac.majorana_dirac_generators()
    copies = dirac.commuting_copies_check()
    return [
        _entry("C15.realness", "real-generators",
               "all four generator matrices are entrywise real",
               gens.all_real, str(gens.all_real), "True"),
        _entry("C15.relations", "real-generators",
               "alphas square to +1, b' to -1, all four pairwise anticommute",
               all(gens.relation_table.values()), "all relations", "all relations"),
        _entry("C15.commuting-copies", "real-generators",
               "the two split-generator copies commute elementwise and each is standard",
               copies.ok, str(copies.ok), "True"),
    ]


# ---------------------------------------------------------------------------
# C16: discrete commutator identity.


def check_discrete(seed: int, samples: int = 200) -> list[CheckResult]:
    rng = random.Random(seed + 16)
    ok = True
    for _ in range(samples):
        values = [_rand_fraction(rng) for _ in range(16)]
        dt = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        seq = discrete.Sequence.from_values(values)
        if not discrete.basic_commutator(seq, dt).equal:
            ok = False
    walk_values = [Fraction(0)]
    for _ in range(20):
        walk_values.append(walk_values[-1] + rng.choice([-1, 1]))
    walk = discrete.Sequence.from_values(walk_values)
    walk_report = discrete.brownian_constancy(walk, 1)
    quad = discrete.Sequence.from_values([Fraction(t * t) for t in range(10)])
    quad_report = discrete.brownian_constancy(quad, 1)
    return [
        _entry("C16.commutator-identity", "discrete-calculus",
               f"[x, Dx] = J (dx)^2/dt exactly on {samples} random sequences",
               ok, "exact", "exact"),
        _entry("C16.brownian-constant", "discrete-calculus",
               "unit-step walk has constant squared step, K = 1",
               walk_report.constant and walk_report.diffusion_constant == 1,
               f"K={walk_report.diffusion_constant}", "K=1"),
        _entry("C16.non-constant", "discrete-calculus",
               "a quadratic sequence is detected as non-constant",
               not quad_report.constant, str(quad_report.constant), "False"),
    ]


# ---------------------------------------------------------------------------
# C17: lattice scheme (floating point; tolerances stated inline).


def check_schrodinger(seed: int) -> list[CheckResult]:
    out = []
    cfg = schrodinger.LatticeConfig(cells=256, dx=1.0, dt=0.05, kappa=1.0, steps=4000)
    report = schrodinger.dispersion_check(cfg, 3)
    out.append(_entry("C17.dispersion", "lattice-schrodinger",
                      "mode k=3 rotation frequency within 2% of kappa k_eff^2 (r=0.05)",
                      report.rel_error < 0.02,
                      f"rel_error={report.rel_error:.3e}", "< 2e-2"))

    cfg_half = schrodinger.LatticeConfig(cells=256, dx=1.0, dt=0.025, kappa=1.0, steps=8000)
    report_half = schrodinger.dispersion_check(cfg_half, 3)
    out.append(_entry("C17.convergence", "lattice-schrodinger",
                      "halving dt reduces the dispersion error (same physical duration)",
                      report_half.rel_error < report.rel_error,
                      f"{report_half.rel_error:.3e} < {report.rel_error:.3e}", "monotone"))

    cfg_norm = schrodinger.LatticeConfig(cells=256, dx=1.0, dt=0.1, kappa=1.0, steps=10000)
    even, odd = schrodinger.gaussian_fields(cfg_norm, mu=128.0, sigma=10.0)
    result = schrodinger.run(cfg_norm, even, odd)
    drift = abs(result.norm(result.pairs) / result.norm(0) - 1.0)
    out.append(_entry("C17.norm-drift", "lattice-schrodinger",
                      "combined-field norm drifts < 1% over 10^4 ticks at r = 0.1",
                      drift < 0.01, f"drift={drift:.3e}", "< 1e-2"))
    return out


# ---------------------------------------------------------------------------

ALL_CHECKS = [
    check_iterant_root,
    check_matrix_identity,
    check_determinant_bridge,
    check_g_table_theorem,
    check_s3_matrices,
    check_quaternions,
    check_decomposition,
    check_kernel,
    check_minkowski,
    check_braiding,
    check_fermion,
    check_fusion,
    check_lof,
    check_dirac,
    check_real_generators,
    check_discrete,
    check_schrodinger,
]


def run_verify(seed: int = 7) -> VerifyReport:
    entries: list[CheckResult] = []
    for fn in ALL_CHECKS:
        entries.extend(fn(seed))
    ids = [e.check_id for e in entries]
    if len(ids) != len(set(ids)):
        raise AssertionError("check ids are not unique")
    return VerifyReport(tuple(sorted(entries, key=lambda e: e.check_id)))
