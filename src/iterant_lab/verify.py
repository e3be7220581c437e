"""The full machine-checked identity suite.

Every check returns rows with a stable id, a topic area, and lhs/rhs
digests.  A row that checks many cases (random draws or an enumerated list)
runs them through one tally: its lhs counts the cases that agree, and a FAIL
row carries a witness, the first case that disagrees, with the seed, its
index and its inputs in the text or JSON form the package's parsers read.
The CLI command ``verify-all`` prints the table; the acceptance tests read
one report of one run.  All checks are exact except the lattice-scheme ones,
whose tolerances are stated inline.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import clifford, dirac, discrete, groups, lof, matrep, schrodinger
from .iterants import (
    IterantAlgebra,
    conjugate_period2,
    determinant_period2,
    format_period2,
    imaginary_unit,
    majorana_pair_relations,
    natural_sn_algebra,
    period_two_algebra,
    regular_algebra,
    term_by_permutation,
)
from .matrix import SquareMatrix
from .scalars import GaussianRational, _from_triple

# cases per random row
PAIRS = 500             # C02, and C04 for each group
BRIDGE_PAIRS = 200      # C03
MATRICES_PER_DIM = 34   # C07, for each of n = 2, 3, 4
KERNEL_SAMPLES = 500    # C08, a kernel-family draw after every tenth
EVENTS = 200            # C09
BOOSTS = 100            # C09, for each of the two boost rows
FUZZ = 1000             # C13
TRIPLES = 50            # C14, on shell
OFF_SHELL = 100         # C14
SEQUENCES = 200         # C16


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    area: str
    description: str
    passed: bool
    lhs: str
    rhs: str
    witness: dict | None = None


@dataclass(frozen=True)
class VerifyReport:
    entries: tuple[CheckResult, ...]
    seconds: dict[str, float]  # time of each criterion, "C01".."C17"

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


class Tally(NamedTuple):
    cases: int
    agree: int
    first: tuple | None  # (index, case, lhs, rhs) of the first disagreement


def _tally(cases: Iterable, relation: Callable) -> Tally:
    """Apply relation(case) -> (lhs, rhs) to each case in turn; count the
    cases where lhs == rhs and keep the first case where it does not."""
    count = agree = 0
    first = None
    for count, case in enumerate(cases, 1):
        lhs, rhs = relation(case)
        if lhs == rhs:
            agree += 1
        elif first is None:
            first = (count - 1, case, lhs, rhs)
    return Tally(count, agree, first)


def _entry(check_id: str, area: str, description: str, passed, lhs=None, rhs=None, *,
           seed: int | None = None, show: Callable = str) -> CheckResult:
    """One row.  Given a Tally, the row passes when it has cases and every case
    agrees, lhs and rhs are the counts, and the first disagreeing case becomes
    the witness, with its inputs drawn by show(case)."""
    if not isinstance(passed, Tally):
        return CheckResult(check_id, area, description, bool(passed), str(lhs), str(rhs))
    cases, agree, first = passed
    witness = None
    if first is not None:
        index, case, got, want = first
        witness = {"seed": seed, "index": index, "inputs": show(case),
                   "lhs": _text(got), "rhs": _text(want)}
    return CheckResult(check_id, area, description, cases > 0 and first is None,
                       f"{agree}/{cases} agree", f"{cases}/{cases} agree", witness)


def _text(value) -> str:
    return "; ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _name(case: tuple) -> str:
    return case[0]


def _sides(case: tuple) -> tuple:
    """The (lhs, rhs) of a (name, lhs, rhs) relation."""
    return case[1:]


def _rand_fraction(rng: random.Random, span: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_scalar(rng: random.Random, span: int = 9, den: int = 5) -> GaussianRational:
    """a/b + (c/d)i, drawn as two _rand_fraction calls would draw them."""
    a, b = rng.randint(-span, span), rng.randint(1, den)
    c, d = rng.randint(-span, span), rng.randint(1, den)
    return _from_triple(a * d, c * b, b * d)


def _rand_element(algebra: IterantAlgebra, rng: random.Random, max_terms: int = 3):
    total = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        gid = rng.randrange(algebra.group.order)
        total = total + algebra.term([_rand_scalar(rng) for _ in range(algebra.degree)], gid)
    return total


def _rand_pairs(algebra: IterantAlgebra, rng: random.Random, count: int, max_terms: int = 3):
    for _ in range(count):
        x = _rand_element(algebra, rng, max_terms)
        yield x, _rand_element(algebra, rng, max_terms)


def _matrix_relation(pair) -> tuple[SquareMatrix, SquareMatrix]:
    """M(xy) against M(x) M(y)."""
    x, y = pair
    return matrep.to_matrix(x * y), matrep.to_matrix(x) * matrep.to_matrix(y)


def _period2_inputs(case) -> list[str]:
    """The two period-two elements that open a case, as parse_period2 reads them."""
    return [format_period2(x) for x in case[:2]]


# ---------------------------------------------------------------------------
# C01: the oscillation square root of minus one.


def check_iterant_root(seed: int) -> list[CheckResult]:
    algebra = period_two_algebra()
    minus_one = algebra.scalar(-1)
    out = []
    for first, tag in ((-1, "canonical"), (1, "sign-variant")):
        square = imaginary_unit(first=first) ** 2
        out.append(_entry(f"C01.{tag}", "iterants", f"([{first},{-first}]e)^2 = -1 exactly",
                          square == minus_one, square, minus_one))
    fourth = imaginary_unit() ** 4
    out.append(_entry("C01.fourth-power", "iterants", "fourth power of the imaginary iterant is +1",
                      fourth == algebra.one(), fourth, algebra.one()))
    return out


# ---------------------------------------------------------------------------
# C02: period-two iterant product against 2x2 matrix product.


def check_matrix_identity(seed: int) -> list[CheckResult]:
    pairs = _rand_pairs(period_two_algebra(), random.Random(seed + 2), PAIRS)
    return [
        _entry("C02.product-match", "matrix-bridge",
               f"iterant product equals matrix product on {PAIRS} random pairs",
               _tally(pairs, _matrix_relation), seed=seed, show=_period2_inputs)
    ]


# ---------------------------------------------------------------------------
# C03: conjugate-determinant bridge.


def check_determinant_bridge(seed: int) -> list[CheckResult]:
    rng = random.Random(seed + 3)
    cases = [(z, w, determinant_period2(z), determinant_period2(w))
             for z, w in _rand_pairs(period_two_algebra(), rng, BRIDGE_PAIRS)]
    det = _tally(cases, lambda c: (c[2], matrep.to_matrix(c[0]).determinant()))
    mult = _tally(cases, lambda c: (determinant_period2(c[0] * c[1]), c[2] * c[3]))
    sym = _tally(cases, lambda c: (c[0] * conjugate_period2(c[0]), conjugate_period2(c[0]) * c[0]))
    return [
        _entry("C03.det-equals-matrix-det", "matrix-bridge",
               f"Z conj(Z) equals the matrix determinant on {BRIDGE_PAIRS} samples",
               det, seed=seed, show=_period2_inputs),
        _entry("C03.multiplicative", "matrix-bridge",
               f"D(ZW) = D(Z) D(W) on {BRIDGE_PAIRS} pairs",
               mult, seed=seed, show=_period2_inputs),
        _entry("C03.two-sided", "matrix-bridge",
               "Z conj(Z) = conj(Z) Z on all samples",
               sym, seed=seed, show=_period2_inputs),
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


def check_g_table_theorem(seed: int) -> list[CheckResult]:
    out = []
    rng = random.Random(seed + 4)
    for name in ("c3", "c6", "s3", "klein4"):
        group = groups.builtin_group(name)
        action = groups.regular_action(group)
        pairs = _rand_pairs(regular_algebra(group), rng, PAIRS, max_terms=2)
        out.append(
            _entry(f"C04.{name}-homomorphism", "groups",
                   f"{name}: regular-algebra product maps to matrix product ({PAIRS} pairs)",
                   _tally(pairs, _matrix_relation), seed=seed,
                   show=lambda xy: [x.to_json() for x in xy])
        )
        table_mats = groups.element_matrices_from_g_table(group)

        def placement(g: int):
            placed = table_mats[group.names[g]]
            return ((placed, groups.matrix_to_perm(placed).images),
                    (action.matrix_of(g), action.perm_of(g).images))

        out.append(
            _entry(f"C04.{name}-regular-placement", "groups",
                   f"{name}: table placement of each element equals its regular permutation matrix",
                   _tally(range(group.order), placement), seed=seed, show=group.names.__getitem__)
        )
    for name, group, mult, gtable in (("c3", groups.cyclic(3), C3_MULT, C3_GTABLE),
                                      ("c6", groups.cyclic(6), C6_MULT, C6_GTABLE),
                                      ("s3", groups.symmetric(3), S3_MULT, S3_GTABLE)):
        out.append(_entry(f"C04.{name}-mult-table", "groups",
                          f"{name} multiplication table matches the reference layout",
                          group.name_table() == mult, "table", "reference"))
        out.append(_entry(f"C04.{name}-gtable", "groups",
                          f"{name} identity-diagonal table matches the reference layout",
                          groups.g_table_names(group) == gtable, "table", "reference"))
    return out


def check_s3_matrices(seed: int) -> list[CheckResult]:
    group = groups.symmetric(3)
    mats = groups.element_matrices_from_g_table(group)
    out = []
    for name, expected in S3_REGULAR_MATRICES.items():
        reference = SquareMatrix.from_rows(expected)
        out.append(
            _entry(f"C05.s3-matrix-{name}", "groups",
                   f"6x6 permutation matrix of {name} from the identity-diagonal table",
                   mats[name] == reference, _cycles(mats[name]), _cycles(reference))
        )
    return out


def _cycles(matrix: SquareMatrix) -> str:
    """The permutation of a permutation matrix in cycle notation, or why the
    matrix is not one."""
    try:
        return groups.matrix_to_perm(matrix).cycle_string()
    except ValueError as err:
        return str(err)


# ---------------------------------------------------------------------------
# C06: the quaternion table, three ways.


def check_quaternions(seed: int) -> list[CheckResult]:
    out = []
    for variant in ("klein4", "iota_2x2", "majorana_triple"):
        products = clifford.quaternion_products(clifford.quaternion_triple(variant))
        out.append(
            _entry(f"C06.{variant}", "clifford",
                   f"{variant}: all 16 quaternion unit products hold",
                   _tally(products, _sides), seed=seed, show=_name)
        )
    real = clifford.real_relations(vars(clifford.quaternion_triple("klein4")))
    out.append(_entry("C06.klein4-real", "clifford", "klein4 quaternion triple is real 4x4",
                      _tally(real, _sides), seed=seed, show=_name))
    return out


# ---------------------------------------------------------------------------
# C07: diagonal-times-permutation decomposition.


def _roundtrips(m: SquareMatrix):
    """Reassembly of the decomposition, and the section property, against m."""
    return ((matrep.reassemble(matrep.decompose_matrix(m), m.n),
             matrep.to_matrix(matrep.embed_matrix(m))), (m, m))


def check_decomposition(seed: int) -> list[CheckResult]:
    rng = random.Random(seed + 7)
    out = []
    for n in (2, 3, 4):
        matrices = (
            SquareMatrix.from_rows([[_rand_scalar(rng) for _ in range(n)] for _ in range(n)])
            for _ in range(MATRICES_PER_DIM)
        )
        out.append(
            _entry(f"C07.n{n}-roundtrip", "representation",
                   f"n={n}: reassembly and section property on {MATRICES_PER_DIM} random matrices",
                   _tally(matrices, _roundtrips), seed=seed, show=SquareMatrix.to_lists)
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
    x, y, z, w, t, r, s, p, q = (vals[k] for k in "xyzwtrspq")
    perm = groups.Permutation.from_cycles
    return (
        algebra.vector([x, y, z])
        + term_by_permutation(algebra, [-x, w, t], perm(3, "(23)"))
        + term_by_permutation(algebra, [r, -y, s], perm(3, "(13)"))
        + term_by_permutation(algebra, [p, q, -z], perm(3, "(12)"))
        + term_by_permutation(algebra, [-p, -w, -s], perm(3, "(123)"))
        + term_by_permutation(algebra, [-r, -q, -t], perm(3, "(132)"))
    )


def check_kernel(seed: int) -> list[CheckResult]:
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
    in_kernel = matrep.kernel_test(y).in_kernel
    out.append(_entry("C08.circulant-difference", "representation",
                      "circulant-vs-embedding difference lies in the kernel",
                      in_kernel, "kernel" if in_kernel else "not kernel", "kernel"))

    ones = {k: Fraction(1) for k in "xyzwtrspq"}
    fam = _kernel_family_element(algebra, ones)
    in_kernel = matrep.kernel_test(fam).in_kernel
    out.append(_entry("C08.kernel-family-ones", "representation",
                      "nine-parameter kernel family at all-ones lies in the kernel",
                      in_kernel, "kernel" if in_kernel else "not kernel", "kernel"))

    rng = random.Random(seed + 8)
    elements, families = [], []
    for idx in range(KERNEL_SAMPLES):
        elements.append(_rand_element(algebra, rng, max_terms=4))
        if idx % 10 == 0:
            families.append({k: _rand_fraction(rng) for k in "xyzwtrspq"})
    agree = _tally(elements, lambda e: (matrep.kernel_test(e).criteria_agree, True))
    forced = _tally(families, lambda v: (
        matrep.kernel_test(_kernel_family_element(algebra, v)).in_kernel, True))
    out.append(_entry("C08.criteria-agree", "representation",
                      f"zero-image and entry-sum criteria agree on {KERNEL_SAMPLES} random elements",
                      agree, seed=seed, show=lambda e: e.to_json()))
    out.append(_entry("C08.random-family", "representation",
                      "random kernel-family instances always map to zero",
                      forced, seed=seed, show=lambda v: {k: str(q) for k, q in v.items()}))
    return out


# ---------------------------------------------------------------------------
# C09: the Hermitian spacetime observable.


def check_minkowski(seed: int) -> list[CheckResult]:
    rng = random.Random(seed + 9)
    cases = []
    for _ in range(EVENTS):
        event = clifford.SpacetimeEvent.of(*(_rand_fraction(rng) for _ in range(4)))
        cases.append((event, clifford.minkowski_observable(event)))

    def show(case) -> list[str]:
        return [str(case[0].t), str(case[0].x), str(case[0].y), str(case[0].z)]

    def interval(case):
        e, rep = case
        return rep.determinant, e.t * e.t - e.x * e.x - e.y * e.y - e.z * e.z

    # The boosts are drawn after the events, from the same generator.  With
    # a, b >= 1, v = (a^2-b^2)/(a^2+b^2) has 1 - v^2 = (2ab/(a^2+b^2))^2, so the
    # boost is exact; an odd numerator over an even denominator gives 1 - v^2 a
    # numerator of 3 mod 4, never a square, so the boost stays light-cone.
    exact = [(Fraction(a * a - b * b, a * a + b * b), _rand_fraction(rng), _rand_fraction(rng))
             for a, b in ((rng.randint(1, 9), rng.randint(1, 9)) for _ in range(BOOSTS))]
    light_cone = []
    for _ in range(BOOSTS):
        half = rng.randint(1, 6)
        v = Fraction(2 * rng.randint(-half, half - 1) + 1, 2 * half)
        light_cone.append((v, _rand_fraction(rng), _rand_fraction(rng)))

    def boosted_interval(case):
        v, t, x = case
        b = clifford.lorentz_boost(v, t, x)
        return b.t_prime * b.t_prime - b.x_prime * b.x_prime, t * t - x * x

    def light_cone_product(case):
        v, t, x = case
        b = clifford.lorentz_boost(v, t, x)
        return ((b.mode, b.k_squared, b.boosted_u_minus_squared() * b.boosted_u_plus_squared()),
                ("light_cone", (1 + v) / (1 - v), (t * t - x * x) ** 2))

    def boost_inputs(case) -> list[str]:
        return [str(q) for q in case]

    rep1 = clifford.minkowski_observable(clifford.SpacetimeEvent.of(2, 1, 0, 0))
    rep2 = clifford.minkowski_observable(clifford.SpacetimeEvent.of(0, 3, 4, 0))
    return [
        _entry("C09.determinant", "spacetime",
               f"det H = T^2-X^2-Y^2-Z^2 on {EVENTS} random events",
               _tally(cases, interval), seed=seed, show=show),
        _entry("C09.trace", "spacetime", "trace H = 2T on all samples",
               _tally(cases, lambda c: (c[1].trace, 2 * c[0].t)), seed=seed, show=show),
        _entry("C09.hermitian", "spacetime", "H equals its conjugate transpose",
               _tally(cases, lambda c: (c[1].hermitian, True)), seed=seed, show=show),
        _entry("C09.example-roots", "spacetime",
               "reference events give charpoly roots {1,3} and {-5,5}",
               rep1.eigenvalues == (Fraction(1), Fraction(3))
               and rep2.eigenvalues == (Fraction(-5), Fraction(5))
               and rep1.determinant == 3 and rep2.determinant == -25,
               f"{_roots(rep1)} {_roots(rep2)}", "(1, 3) (-5, 5)"),
        _entry("C09.boost-interval", "spacetime",
               f"t'^2-x'^2 = t^2-x^2 under {BOOSTS} exact boosts, v = (a^2-b^2)/(a^2+b^2)",
               _tally(exact, boosted_interval), seed=seed, show=boost_inputs),
        _entry("C09.boost-light-cone", "spacetime",
               f"k^2 = (1+v)/(1-v) and k^2(t-x)^2 (t+x)^2/k^2 = (t^2-x^2)^2 on {BOOSTS} boosts",
               _tally(light_cone, light_cone_product), seed=seed, show=boost_inputs),
    ]


def _roots(observable: clifford.HermitianObservable) -> str:
    """The exact eigenvalues as (lo, hi), or None when they are irrational."""
    roots = observable.eigenvalues
    return "None" if roots is None else f"({roots[0]}, {roots[1]})"


# ---------------------------------------------------------------------------
# C10: braiding.


def check_braiding(seed: int) -> list[CheckResult]:
    out = []
    rep = clifford.clifford_generators(4)
    gens = rep.generators

    def image(case):
        k, j = case
        expected = gens[k] if j == k else -gens[k - 1] if j == k + 1 else gens[j - 1]
        return clifford.braid_conjugate(rep, k, gens[j - 1]), expected

    images = [(k, j) for k in range(1, rep.n) for j in range(1, rep.n + 1)]
    out.append(_entry("C10.images", "braiding",
                      "conjugation sends c_k -> c_{k+1}, c_{k+1} -> -c_k, fixes the rest",
                      _tally(images, image), seed=seed, show=lambda c: {"k": c[0], "j": c[1]}))

    words = [(n, [k, k + 1, k], [k + 1, k, k + 1]) for n in range(3, 7) for k in range(1, n - 1)]
    words += [(n, [k, j], [j, k]) for n in range(3, 7) for k in range(1, n) for j in range(k + 2, n)]
    out.append(_entry("C10.braid-relations", "braiding",
                      "adjacent braid relation and distant commutation for n <= 6",
                      _tally(words, lambda w: (clifford.braid_word_matrix(w[0], w[1]),
                                               clifford.braid_word_matrix(w[0], w[2]))),
                      seed=seed, show=lambda w: {"n": w[0], "word": w[1], "compare": w[2]}))

    def conjugated(j: int, word: tuple[int, ...]) -> SquareMatrix:
        c = gens[j - 1]
        for k in word:
            c = clifford.braid_conjugate(rep, k, c)
        return c

    out.append(_entry("C10.conjugation-braid-relation", "braiding",
                      "the conjugation maps themselves satisfy the braid relation",
                      _tally(range(1, rep.n + 1),
                             lambda j: (conjugated(j, (1, 2, 1)), conjugated(j, (2, 1, 2)))),
                      seed=seed, show=lambda j: {"j": j}))

    def clifford_error(case):
        rep_n, k = case
        try:
            clifford.CliffordRep(tuple(clifford.braid_conjugate(rep_n, k, c)
                                       for c in rep_n.generators))
        except ValueError as err:
            return str(err), None
        return None, None

    reps = [(rep_n, k) for rep_n in map(clifford.clifford_generators, range(2, 7))
            for k in range(1, rep_n.n)]
    out.append(_entry("C10.relations-preserved", "braiding",
                      "images of the generators are again anticommuting square-one (n <= 6)",
                      _tally(reps, clifford_error), seed=seed,
                      show=lambda c: {"n": c[0].n, "k": c[1]}))

    def spanned(case):
        k, i = case
        basis = clifford.braid_basis_matrix(rep.n, k)
        expanded = SquareMatrix.zero(rep.dim)
        for j in range(rep.n):
            expanded = expanded + gens[j].scale(basis.entry(i, j))
        return expanded, clifford.braid_conjugate(rep, k, gens[i])

    spans = [(k, i) for k in range(1, rep.n) for i in range(rep.n)]
    out.append(_entry("C10.span-matrix-matches-conjugation", "braiding",
                      "the signed-permutation span matrices agree with the conjugation images",
                      _tally(spans, spanned), seed=seed, show=lambda c: {"k": c[0], "i": c[1]}))

    braiders = all(lhs == rhs for _, lhs, rhs in
                   clifford.braider_relations(clifford.clifford_generators(3)))
    out.append(_entry("C10.quaternion-braiders", "braiding",
                      "(1+I)(1+J)(1+I) = (1+J)(1+I)(1+J) and cyclic variants, exactly",
                      braiders, str(braiders), "True"))
    out.append(_entry("C10.order-four", "braiding",
                      "the span map of a single braid generator has order exactly four",
                      _tally([(4, True), (2, False)], lambda c: (
                          clifford.braid_word_matrix(3, [1] * c[0]) == SquareMatrix.identity(3),
                          c[1])),
                      seed=seed, show=lambda c: {"n": 3, "word": [1] * c[0]}))
    return out


# ---------------------------------------------------------------------------
# C11: fermion operators from an anticommuting pair.


def check_fermion(seed: int) -> list[CheckResult]:
    squared, dagger_squared, anticommutator, adjoint = (
        lhs == rhs for _, lhs, rhs in clifford.fermion_relations(clifford.clifford_generators(2)))
    return [
        _entry("C11.psi-squared", "fermions", "psi^2 = 0 exactly", squared, "0", "0"),
        _entry("C11.dagger-squared", "fermions", "psi+^2 = 0 exactly", dagger_squared, "0", "0"),
        _entry("C11.anticommutator", "fermions", "psi psi+ + psi+ psi = 1 exactly",
               anticommutator, "identity", "identity"),
        _entry("C11.adjoint", "fermions",
               "psi+ is the conjugate transpose of psi in this representation",
               adjoint, str(adjoint), "True"),
    ]


# ---------------------------------------------------------------------------
# C12: fusion ring.


def check_fusion(seed: int) -> list[CheckResult]:
    p = clifford.FUSION_P
    fib = [0, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    fibonacci = _tally(range(1, 21), lambda n: (
        clifford.fusion_power(n), clifford.FusionElement(fib[n - 1], fib[n])))

    def laws(case):
        a, b, c, d = case
        u, v = clifford.FusionElement(a, b), clifford.FusionElement(c, d)
        w = clifford.FusionElement((a + c) % 4, (b + d) % 4)
        return (u * v, (u * v) * w), (v * u, u * (v * w))

    coefficients = list(itertools.product(range(4), repeat=4))
    return [
        _entry("C12.rule", "fusion", "P * P = 1 + P",
               p * p == clifford.FusionElement(1, 1), str(p * p), "1 + 1P"),
        _entry("C12.fibonacci", "fusion",
               "P^n has consecutive Fibonacci coefficients for n <= 20",
               fibonacci, seed=seed, show=lambda n: {"power": n}),
        _entry("C12.commutative-associative", "fusion",
               "fusion product is commutative and associative on small coefficients",
               _tally(coefficients, laws), seed=seed, show=list),
    ]


# ---------------------------------------------------------------------------
# C13: mark calculus.


WORKED_EXPRESSION = "((((()())())())())()"


def _confluent(case):
    """The values the random rule orders reach, against the reference value."""
    expr, probe_seed = case
    report = lof.confluence_probe(expr, trials=3, seed=probe_seed)
    return report.values_seen, (report.reference_value,)


def check_lof(seed: int) -> list[CheckResult]:
    out = []
    for tag, text, value, description in (
            ("worked-example", WORKED_EXPRESSION, "marked",
             "the nested worked example reduces to the marked state"),
            ("crossing", "(())", "unmarked", "(()) reduces to unmarked"),
            ("calling", "()()", "marked", "()() reduces to marked")):
        got = lof.reduce_expression(lof.parse(text)).value
        out.append(_entry(f"C13.{tag}", "mark-calculus", description, got == value, got, value))

    out.append(_entry("C13.confluence", "mark-calculus",
                      f"{FUZZ} random expressions reduce to the same value in random rule order",
                      _tally(lof.fuzz_cases(FUZZ, max_depth=6, seed=seed + 13), _confluent),
                      seed=seed, show=lambda c: {"expression": str(c[0]), "probe_seed": c[1]}))

    rows = [(text, {"A": a, "B": b}, expected) for a in (False, True) for b in (False, True)
            for text, expected in (("(A)B", (not a) or b), ("((A)(B))", a and b),
                                   ("AB", a or b), ("(A)", not a), ("((A))", a))]
    rows += [("()", {}, True), ("(())", {}, False)]
    out.append(_entry("C13.logic-tables", "mark-calculus",
                      "the logic reading matches every connective truth table",
                      _tally(rows, lambda r: (lof.eval_logic(lof.parse(r[0]), r[1]), r[2])),
                      seed=seed, show=lambda r: {"expression": r[0], "assignment": r[1]}))

    out.append(_entry("C13.generator-bridge", "mark-calculus",
                      "the re-entrant oscillation pair squares to one and anticommutes",
                      _tally(majorana_pair_relations(), _sides), seed=seed, show=_name))
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


def _on_shell(e, p, m) -> dirac.OnShellParams:
    params = dirac.OnShellParams.of(e, p, m)
    if not params.on_shell:
        raise AssertionError(f"E={e}, p={p}, m={m} is off shell")
    return params


def _dirac_inputs(case) -> dict[str, str]:
    """(E, p, m) as the --E, --p and --m flags of ``dirac verify`` read them."""
    e, p, m = case[:3]
    p_text = ",".join(map(str, p)) if isinstance(p, tuple) else str(p)
    return {"E": str(e), "p": p_text, "m": str(m)}


def check_dirac(seed: int) -> list[CheckResult]:
    out = []
    frame1 = dirac.dirac_frame("1d")
    tables = [(e, p, m, {r[0]: _sides(r) for r in dirac.relations(frame1, _on_shell(e, p, m))})
              for e, p, m in _pythagorean_triples(TRIPLES)]
    for key in sorted(tables[0][3]):
        out.append(_entry(f"C14.1d-{key}", "dirac",
                          f"1d {key} on {TRIPLES} on-shell triples",
                          _tally(tables, lambda t: t[3][key]),
                          seed=seed, show=_dirac_inputs))

    frame3 = dirac.dirac_frame("3d")
    out.append(_entry("C14.3d-identities", "dirac",
                      f"all identities with p replaced by p.s on {len(THREE_D_CASES)} on-shell cases",
                      _tally(THREE_D_CASES, lambda c: (
                          [name for name, lhs, rhs in dirac.relations(frame3, _on_shell(*c))
                           if lhs != rhs], [])),
                      seed=seed, show=_dirac_inputs))

    def off_shell_square(case):
        params = dirac.OnShellParams.of(*case)
        u = dirac.nilpotent_u(frame1, params)
        return u * u, SquareMatrix.identity(2).scale(params.shell_defect)

    rng = random.Random(seed + 14)
    draws = (tuple(_rand_fraction(rng) for _ in range(3)) for _ in range(OFF_SHELL))
    out.append(_entry("C14.off-shell-scalar", "dirac",
                      f"U^2 = (p^2+m^2-E^2) identity for {OFF_SHELL} random off-shell parameters",
                      _tally(draws, off_shell_square), seed=seed, show=_dirac_inputs))

    sigmas = frame3.sigmas
    zero = SquareMatrix.zero(4)
    frames = [("1d alpha beta anticommute", frame1.alpha.anticommutator(frame1.beta),
               SquareMatrix.zero(2))]
    for i, s in enumerate(sigmas, 1):
        frames += [(f"sigma{i} sigma{i % 3 + 1} anticommute", s.anticommutator(sigmas[i % 3]), zero),
                   (f"sigma{i} squares to one", s * s, SquareMatrix.identity(4)),
                   (f"alpha and beta commute with sigma{i}",
                    (frame3.alpha.commutator(s), frame3.beta.commutator(s)), (zero, zero))]
    out.append(_entry("C14.frames", "dirac",
                      "frame relations: squares one, anticommuting, commuting 3d triple",
                      _tally(frames, _sides), seed=seed, show=_name))
    return out


# ---------------------------------------------------------------------------
# C15: the totally real generator set.


def check_real_generators(seed: int) -> list[CheckResult]:
    gens = dirac.majorana_dirac_generators()
    return [
        _entry("C15.realness", "real-generators",
               "all four generator matrices are entrywise real",
               _tally(clifford.real_relations(gens), _sides), seed=seed, show=_name),
        _entry("C15.relations", "real-generators",
               "alphas square to +1, b' to -1, all four pairwise anticommute",
               _tally(dirac.generator_relations(gens), _sides), seed=seed, show=_name),
        _entry("C15.commuting-copies", "real-generators",
               "the two split-generator copies commute elementwise and each is standard",
               _tally(dirac.commuting_copy_relations(), _sides), seed=seed, show=_name),
    ]


# ---------------------------------------------------------------------------
# C16: discrete commutator identity.


def check_discrete(seed: int) -> list[CheckResult]:
    rng = random.Random(seed + 16)
    draws = (
        ([_rand_fraction(rng) for _ in range(16)], Fraction(rng.randint(1, 4), rng.randint(1, 4)))
        for _ in range(SEQUENCES)
    )
    commutator = _tally(draws, lambda d: (
        discrete.basic_commutator(discrete.Sequence.from_values(d[0]), d[1]).equal, True))
    # the walk is drawn after the sequences, from the same generator
    walk_values = [Fraction(0)]
    for _ in range(20):
        walk_values.append(walk_values[-1] + rng.choice([-1, 1]))
    walk = discrete.Sequence.from_values(walk_values)
    walk_report = discrete.brownian_constancy(walk, 1)
    quad = discrete.Sequence.from_values([Fraction(t * t) for t in range(10)])
    quad_report = discrete.brownian_constancy(quad, 1)
    return [
        _entry("C16.commutator-identity", "discrete-calculus",
               f"[x, Dx] = J (dx)^2/dt exactly on {SEQUENCES} random sequences",
               commutator, seed=seed,
               show=lambda d: {"seq": ",".join(map(str, d[0])), "dt": str(d[1])}),
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
    """Run every check in ALL_CHECKS, looked up at call time, and time each
    criterion; the times stay on the report and are not printed."""
    entries: list[CheckResult] = []
    seconds: dict[str, float] = {}
    for check in ALL_CHECKS:
        start = time.perf_counter()
        rows = check(seed)
        seconds[rows[0].check_id.split(".", 1)[0]] = time.perf_counter() - start
        entries.extend(rows)
    ids = [e.check_id for e in entries]
    if len(ids) != len(set(ids)):
        raise AssertionError("check ids are not unique")
    return VerifyReport(tuple(sorted(entries, key=lambda e: e.check_id)), seconds)
