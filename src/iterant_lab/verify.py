"""The full machine-checked identity suite.

Each criterion C01..C17 declares its rows as data, and one evaluator turns a
declaration into a row with a stable id, a topic area and the two exact sides
it compares.  A row passes exactly when they are equal:

* a single-case row ``(check_id, description, lhs, rhs)`` passes iff
  ``lhs == rhs`` and prints ``str`` of each side;
* a tallied row ``(check_id, description, cases, relation, show)`` applies
  ``relation(case) -> (lhs, rhs)`` to each case of a list fixed in the code
  and prints the count of cases that agree against the full count.  A FAIL
  row carries a witness, the first case that disagrees, with its index, its
  inputs from ``show(case)`` in the form the package's parsers read, and the
  seed, which changes no row: no row draws.

Where an identity is linear, a tallied row runs it once over a basis, which
proves it everywhere:

* C02.product-match: the product and to_matrix are bilinear, so the 16 basis
  pairs of the period-two algebra suffice;
* C07's round trips and C08.criteria-agree: the matrix units and the 18
  basis elements; C08's kernel family maps to zero at its nine unit
  parameters (family-units), and the basis images and those nine elements
  both have rank 9, so it spans the 9 dimensional kernel (family-spans-kernel);
* C12.commutative-associative: the fusion product is bilinear, so the 8
  triples of the basis {1, P} fix both laws;
* C14.off-shell-scalar: U is linear in (E, p, m), so both sides of
  U^2 = (p^2+m^2-E^2) 1 are quadratic forms, fixed on the e_i and e_i + e_j;
* C17: ticks is linear, so one exact tick pair on the 2N unit fields of a
  ring of N cells is its matrix P, which C17.pair-map compares with
  [[I, rL], [-rL, I - r^2 L^2]]; P^T G P = G (C17.conserved-form) says that
  every field keeps Q = v^T G v.  On rings of 2, 3, 4 and 6 cells the N real
  Fourier modes are rational (Niven, Irrational Numbers (1956), Cor. 3.12)
  and a basis.  For Lv = lambda v and mu = r lambda, C17.dispersion checks
  P(v, 0) = (v, -mu v) and P(0, v) = (mu v, (1 - mu^2) v): each mode turns by
  [[1, mu], [-mu, 1 - mu^2]], of determinant 1 and trace 2 - mu^2, so by
  theta with cos theta = 1 - mu^2/2 (Visscher, Computers in Physics 5 (1991)
  596).  As dt -> 0, arccos(1 - mu^2/2) = |mu| + O(mu^3), the continuum
  frequency, which ``schrodinger run --dispersion`` measures in floats.

Where an identity is polynomial, a tallied row runs it on a set that fixes a
polynomial of its degree: one of degree at most t in each variable that
vanishes on t + 1 values of each is zero (Alon, "Combinatorial
Nullstellensatz", Combin. Probab. Comput. 8 (1999) 7, Lemma 2.1), and a
quadratic form is fixed on the e_i and e_i + e_j (polarization):

* C03, degree 2 over Q(i), no conjugation: D([a, b] + [c, d]e) = ab - cd,
  det to_matrix(Z), Z conj(Z) and conj(Z) Z on the 10 polarization elements,
  and D(ZW) = D(Z) D(W), quadratic in W and in Z, on their 100 pairs;
* C09, on the event element z = [T+X, T-X] + [Y+Zi, Y-Zi]e: iterant-form,
  trace and hermitian are linear over Q (the 4 unit events), determinant and
  doppler-boost, times 2D of degree 2 in D, quadratic (the 10 polarization
  events, at three D); doppler-composition, times DE, has degree 2 in D and E
  and is linear (units, 3 x 3 grid), velocity-addition, cleared, 4 (5 x 5);
* C16, degree 1 in 1/dt, and 2 (commutator-identity) or 1
  (derivative-commutator) in x.  Premise (locality): each side's coefficient
  at tick t depends only on x(t) and x(t+dt), in the same way at every t, so
  each row is one form in those two values, and a window of 4 ticks, with an
  interior tick, holds every point that fixes it (test_discrete tests the
  premise).  At dt = 1 and 2/3, the first runs on the 4 unit sequences of
  ticks 0..3 and their 6 pairwise sums, the second on the units, and each on
  one x from tick 5 at dt = 2/3, where the windows start past the units'.

These rows are proofs through generators:

* C04.<group>-homomorphism runs matrep.generator_cases, (s, h) and (s, e_i)
  for s in groups.generators(G), and C04.<group>-basis-images runs
  matrep.basis_image on every basis element: the matrep docstring's
  induction on word length, which iso_check runs on the same two pieces, and
  whose premise C04.<group>-generated prints.  As in iso_check, one
  matrep.image_memo per group builds each element's image once for both rows;
* C09.spinor-determinant and C09.spinor-hermitian: E12(x) = [[1, x], [0, 1]]
  and E21(x) = [[1, 0], [x, 1]] generate SL(2, Q(i)), as [[a, b], [c, d]] =
  E12((a-1)/c) E21(c) E12((d-1)/c) for c != 0, and E21(1) A has c != 0 if A
  has not.  Both properties pass to products: (AB) H (AB)+ = A (B H B+) A+,
  and B H B+ is the H of another event.  For x = u + vi, E H E+ and its
  determinant have degree 2 in u and in v, so both rows run at u, v in
  {0, 1, 2}, on the 10 polarization events or the 4 units;
* C10.images: conjugation by each braiding element sends each c_j of each
  ladder of 2 to 6 generators to sum_i B_k[j, i] c_i, row j of the span
  matrix B_k = clifford.braid_basis_matrix(n, k) applied to the ladder.  It
  is linear, so a braid word conjugates c_j to row j of braid_word_matrix(n,
  word), the B_k multiplied in word order, applied to the ladder, and
  C10.braid-relations (n = 3..6) and C10.order-four hold for conjugation;
  the order is exactly four as the ladder is linearly independent (by
  C10.ladder-relations, c_j x + x c_j = 2 a_j for x = sum_i a_i c_i).

The matrices of C06, C10 and C11 (ladders of at most 4 generators), C14 and
C15 are to_matrix images of terms over Z2, whose algebra C02 proves, or Z2^2,
klein4's, which C04.klein4-* prove; C10's ladders of 5 and 6 are over Z2^3.

C13.confluence is a proof by enumeration: on every forest of at most
ENUMERATED_MARKS marks, every one-step rewrite keeps the linear value, and a
forest with no rewrite is () or the void; each step removes marks, so every
rule order reaches the linear value, which the lof docstring carries to every
size.

C14.<dim>-<relation> prove each relation of dirac.relations on the whole
shell E^2 = |w|^2, for w = (p, m) with n = 2 coordinates in 1d and 4 in 3d.
Times E^k (k = 2 for split-a-squared, whose A carries 1/E, else 0), lhs - rhs
is a quadratic form R = aE^2 + sum b_k E w_k + sum_{k <= l} c_kl w_k w_l with
matrix coefficients.  The points (1, +-e_k) give each b_k and each a + c_kk;
then at (5, 3e_k + 4e_l), k < l, R is 9(a + c_kk) + 16(a + c_ll) + 15b_k +
20b_l + 12c_kl, which gives each c_kl.  So if R vanishes on these 5 points in
1d and 14 in 3d, then R = a(E^2 - |w|^2), which vanishes on the shell.  That
is the dimension of the quadratic forms modulo the shell form, so no point
can be dropped; E is 1 or 5, never 0, so the split rows run at every point.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from . import clifford, dirac, discrete, groups, lof, matrep, schrodinger
from .iterants import (
    alternations_and_shifts,
    conjugate_period2,
    determinant_period2,
    doppler_boost,
    event_element,
    majorana_pair_relations,
    natural_sn_algebra,
    period_two_algebra,
    regular_algebra,
    term_by_permutation,
)
from .matrix import SquareMatrix
from .scalars import GaussianRational, sqrt_exact

DOPPLER = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3), Fraction(1, 2))  # C09, D > 0

# C13.confluence takes every forest of at most this many marks
ENUMERATED_MARKS = 9


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    area: str
    description: str
    passed: bool
    lhs: str
    rhs: str
    witness: dict | None = None


def _tally(cases: Iterable, relation: Callable) -> tuple[int, int, tuple | None]:
    """Apply relation(case) -> (lhs, rhs) to each case in turn; count the cases
    and those where lhs == rhs, and keep the first (index, case, lhs, rhs)
    where they differ."""
    count = agree = 0
    first = None
    for count, case in enumerate(cases, 1):
        lhs, rhs = relation(case)
        if lhs == rhs:
            agree += 1
        elif first is None:
            first = (count - 1, case, lhs, rhs)
    return count, agree, first


def _evaluate(area: str, seed: int, row: tuple) -> CheckResult:
    """One declared row (see the module docstring).  A tallied row passes when
    it has cases and every case agrees."""
    check_id, description, *sides = row
    if len(sides) == 2:
        lhs, rhs = sides
        return CheckResult(check_id, area, description, bool(lhs == rhs), str(lhs), str(rhs))
    cases, relation, show = sides
    count, agree, first = _tally(cases, relation)
    witness = None
    if first is not None:
        index, case, got, want = first
        witness = {"seed": seed, "index": index, "inputs": show(case),
                   "lhs": _text(got), "rhs": _text(want)}
    return CheckResult(check_id, area, description, count > 0 and first is None,
                       f"{agree}/{count} agree", f"{count}/{count} agree", witness)


def _criterion(area: str):
    """Make rows(seed), a generator of row declarations, into a check: seed ->
    its evaluated rows, all in the given area.  Each row is evaluated as it is
    yielded, before rows runs on."""
    def declare(rows: Callable[[int], Iterator[tuple]]) -> Callable[[int], list[CheckResult]]:
        @functools.wraps(rows)
        def check(seed: int) -> list[CheckResult]:
            return [_evaluate(area, seed, row) for row in rows(seed)]
        return check
    return declare


def _text(value) -> str:
    """A side as text: str of a value, and a tuple's items read the same way,
    joined by "; " at the top and in parentheses below it, so that a rational
    at any depth prints as 1/2, not as its repr."""
    def item(v) -> str:
        return f"({', '.join(map(item, v))})" if isinstance(v, tuple) else str(v)

    return "; ".join(map(item, value)) if isinstance(value, tuple) else str(value)


def _name(case: tuple) -> str:
    return case[0]


def _sides(case: tuple) -> tuple:
    """The (lhs, rhs) of a (name, lhs, rhs) relation."""
    return case[1:]


def _period2_inputs(case) -> list[str]:
    """The two period-two elements that open a case, as parse_period2 reads them."""
    return [str(x) for x in case[:2]]


def _polarization(basis: list) -> list:
    """The basis and then its pairwise sums, which fix a quadratic form."""
    return basis + [a + b for a, b in itertools.combinations(basis, 2)]


def _unit_polarization(n: int) -> list[tuple[int, ...]]:
    """_polarization of the n unit tuples e_i: the e_i, then the e_i + e_j."""
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return units + [tuple(map(sum, zip(a, b))) for a, b in itertools.combinations(units, 2)]


# ---------------------------------------------------------------------------
# C01: the oscillation square root of minus one.


@_criterion("iterants")
def check_iterant_root(seed: int):
    (epsilon, eta), = alternations_and_shifts(1)
    root, one = epsilon * eta, epsilon.algebra.one()
    for sqrt, tag in ((root, "canonical"), (-root, "sign-variant")):
        yield f"C01.{tag}", f"({sqrt})^2 = -1 exactly", sqrt ** 2, -one
    yield "C01.fourth-power", "fourth power of the imaginary iterant is +1", root ** 4, one


# ---------------------------------------------------------------------------
# C02: period-two iterant product against 2x2 matrix product.


@_criterion("matrix-bridge")
def check_matrix_identity(seed: int):
    basis = period_two_algebra().basis()
    yield ("C02.product-match",
           f"iterant product equals matrix product on all {len(basis) ** 2} basis pairs, "
           "so on all pairs (both sides are bilinear)",
           itertools.product(basis, repeat=2), matrep.product_relation, _period2_inputs)


# ---------------------------------------------------------------------------
# C03: conjugate-determinant bridge.


@_criterion("matrix-bridge")
def check_determinant_bridge(seed: int):
    elements = _polarization(period_two_algebra().basis())
    det = {z: determinant_period2(z) for z in elements}
    yield ("C03.det-equals-matrix-det", f"Z conj(Z) equals the matrix determinant on the "
           f"{len(elements)} polarization elements, so on every Z (both are quadratic forms)",
           elements, lambda z: (det[z], matrep.to_matrix(z).determinant()), str)
    yield ("C03.multiplicative", f"D(ZW) = D(Z) D(W) on all {len(elements) ** 2} pairs of them, "
           "so on every pair (each side is quadratic in Z and in W)",
           itertools.product(elements, repeat=2),
           lambda zw: (determinant_period2(zw[0] * zw[1]), det[zw[0]] * det[zw[1]]),
           _period2_inputs)
    yield ("C03.two-sided", "Z conj(Z) = conj(Z) Z on the same elements, so on every Z",
           elements, lambda z: (z * conjugate_period2(z), conjugate_period2(z) * z), str)


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


@_criterion("groups")
def check_g_table_theorem(seed: int):
    for name in ("c3", "c6", "s3", "klein4"):
        group = groups.builtin_group(name)
        algebra = regular_algebra(group)
        action = algebra.action
        gens = groups.generators(group)
        cases, basis = matrep.generator_cases(algebra, gens), algebra.basis()
        image = matrep.image_memo()  # shared by the two rows, as in iso_check
        yield (f"C04.{name}-homomorphism",
               f"{name}: regular-algebra product maps to matrix product on every (s, h) and "
               f"(s, e_i) for the generators s, so on every pair of elements the generators "
               f"reach ({len(cases)} cases)",
               cases, functools.partial(matrep.product_relation, image=image),
               lambda xy: [x.to_json() for x in xy])
        yield (f"C04.{name}-basis-images",
               f"{name}: M(e_i g) is the matrix unit at (i, i*g) on all {len(basis)} basis "
               "elements e_i g, as the homomorphism proof needs",
               basis, functools.partial(matrep.basis_image, image=image), lambda b: b.to_json())
        named = ", ".join(group.names[s] for s in gens)
        yield (f"C04.{name}-generated",
               f"{name}: the closure of the generators {{{named}}} is the whole group",
               ", ".join(group.names[g] for g in sorted(groups.closure(group, gens))),
               ", ".join(group.names))
        table_mats = groups.element_matrices_from_g_table(group)

        def placement(g: int):
            placed = table_mats[group.names[g]]
            return ((placed, groups.matrix_to_perm(placed)),
                    (groups.perm_matrix(action.point_maps[g]), action.point_maps[g]))

        yield (f"C04.{name}-regular-placement",
               f"{name}: table placement of each element equals its regular permutation matrix",
               range(group.order), placement, group.names.__getitem__)
        yield from _group_axioms(name, group)
        yield from _action_law(f"{name}-regular", action)
    period_two = period_two_algebra()
    yield from _group_axioms("period-two", period_two.group)
    yield from _action_law("period-two", period_two.action)
    yield from _action_law("s3-natural", groups.natural_action(3))
    for name, group, mult, gtable in (("c3", groups.cyclic(3), C3_MULT, C3_GTABLE),
                                      ("c6", groups.cyclic(6), C6_MULT, C6_GTABLE),
                                      ("s3", groups.symmetric(3), S3_MULT, S3_GTABLE)):
        for tag, kind, table, reference in (
                ("mult-table", "multiplication", group.name_table(), mult),
                ("gtable", "identity-diagonal", groups.g_table_names(group), gtable)):
            yield (f"C04.{name}-{tag}", f"{name} {kind} table matches the reference layout",
                   itertools.product(range(len(reference)), repeat=2),
                   lambda cell: (table[cell[0]][cell[1]], reference[cell[0]][cell[1]]),
                   lambda cell: {"row": cell[0], "col": cell[1]})


def _group_axioms(tag: str, group: groups.Group):
    """The identity-and-inverses row and the associativity row of a group,
    each witness given by element names, as Group.index_of reads them."""
    names, mul, one = group.names, group.mul, group.identity

    def identity_inverse(a: int):
        inverse = group.inv(a)
        got = (mul(one, a), mul(a, one), mul(a, inverse), mul(inverse, a))
        return tuple(names[g] for g in got), (names[a], names[a], names[one], names[one])

    yield (f"C04.{tag}-identity-inverses",
           f"{tag}: 1a = a1 = a and a a^-1 = a^-1 a = 1 for each element a",
           range(group.order), identity_inverse, names.__getitem__)
    yield (f"C04.{tag}-associativity", f"{tag}: (ab)c = a(bc) on all {group.order ** 3} triples",
           itertools.product(range(group.order), repeat=3),
           lambda t: (names[mul(mul(t[0], t[1]), t[2])], names[mul(t[0], mul(t[1], t[2]))]),
           lambda t: [names[g] for g in t])


def _action_law(tag: str, action: groups.GroupAction):
    """The action-law row of an action: for each pair (g, h), g permutes the
    points, the identity fixes them, and i(gh) = (ig)h at every point i."""
    group, maps = action.group, action.point_maps
    points = tuple(range(action.degree))

    def law(pair: tuple[int, int]):
        g, h = pair
        return ((tuple(sorted(maps[g])), maps[group.identity], tuple(maps[h][i] for i in maps[g])),
                (points, points, maps[group.mul(g, h)]))

    yield (f"C04.{tag}-action",
           f"{action.label}: each element acts bijectively, 1 trivially, and i(gh) = (ig)h",
           itertools.product(range(group.order), repeat=2), law,
           lambda pair: [group.names[g] for g in pair])


@_criterion("groups")
def check_s3_matrices(seed: int):
    mats = groups.element_matrices_from_g_table(groups.symmetric(3))
    for name, expected in S3_REGULAR_MATRICES.items():
        yield (f"C05.s3-matrix-{name}",
               f"6x6 permutation matrix of {name} from the identity-diagonal table",
               _cycles(mats[name]), _cycles(SquareMatrix.from_rows(expected)))


def _cycles(matrix: SquareMatrix) -> str:
    """The permutation of a permutation matrix in cycle notation, or why the
    matrix is not one."""
    try:
        return groups.cycle_string(groups.matrix_to_perm(matrix))
    except ValueError as err:
        return str(err)


# ---------------------------------------------------------------------------
# C06: the quaternion table, three ways.


@_criterion("clifford")
def check_quaternions(seed: int):
    for variant in ("klein4", "iota_2x2", "majorana_triple"):
        yield (f"C06.{variant}", f"{variant}: all 16 quaternion unit products hold",
               clifford.quaternion_products(clifford.quaternion_triple(variant)), _sides, _name)
    yield ("C06.klein4-real", "klein4 quaternion triple is real 4x4",
           clifford.real_relations(vars(clifford.quaternion_triple("klein4"))), _sides, _name)


# ---------------------------------------------------------------------------
# C07: diagonal-times-permutation decomposition.


def _roundtrips(m: SquareMatrix):
    """Reassembly of the decomposition, and the section property, against m."""
    return ((matrep.reassemble(matrep.decompose_matrix(m), m.n),
             matrep.to_matrix(matrep.embed_matrix(m))), (m, m))


@_criterion("representation")
def check_decomposition(seed: int):
    for n in (2, 3, 4):
        yield (f"C07.n{n}-roundtrip",
               f"n={n}: reassembly and section property on the {n * n} matrix units, "
               "so on every matrix (both are linear)",
               [matrep.matrix_unit(n, i, j) for i in range(n) for j in range(n)],
               _roundtrips, SquareMatrix.to_lists)
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
        groups.cycle_string(term.perm): tuple(int(c.re) for c in term.diag)
        for term in matrep.decompose_matrix(m)
    }
    yield ("C07.worked-3x3", "3x3 worked decomposition produces the six expected diagonals",
           sorted(got.items()), sorted(expected.items()))


# ---------------------------------------------------------------------------
# C08: kernel of the natural representation.


def _kernel_family_element(algebra, vals: dict[str, Fraction]):
    x, y, z, w, t, r, s, p, q = (vals[k] for k in "xyzwtrspq")
    perm = groups.from_cycles
    return (
        algebra.vector([x, y, z])
        + term_by_permutation(algebra, [-x, w, t], perm(3, "(23)"))
        + term_by_permutation(algebra, [r, -y, s], perm(3, "(13)"))
        + term_by_permutation(algebra, [p, q, -z], perm(3, "(12)"))
        + term_by_permutation(algebra, [-p, -w, -s], perm(3, "(123)"))
        + term_by_permutation(algebra, [-r, -q, -t], perm(3, "(132)"))
    )


def _kernel(x) -> str:
    return "kernel" if matrep.to_matrix(x).is_zero() else "not kernel"


@_criterion("representation")
def check_kernel(seed: int):
    algebra = natural_sn_algebra(3)
    perm = groups.from_cycles
    e1 = [1, 0, 0]
    x = algebra.vector(e1) - term_by_permutation(algebra, e1, perm(3, "(23)"))
    agree = "agree" if matrep.to_matrix(x) == matrep.entry_sums(x) else "disagree"
    yield ("C08.single-transposition", "e1 - e1*(23) lies in the kernel",
           f"{_kernel(x)}, criteria {agree}", "kernel, criteria agree")
    yield ("C08.idempotent-like", "that element satisfies x^2 = 2x (so it is not nilpotent)",
           x * x, 2 * x)

    a, b, c = Fraction(1), Fraction(2), Fraction(3)
    y = (
        algebra.scalar(a)
        + term_by_permutation(algebra, [b, b, b], perm(3, "(123)"))
        + term_by_permutation(algebra, [c, c, c], perm(3, "(132)"))
        - term_by_permutation(algebra, [c, a, b], perm(3, "(13)"))
        - term_by_permutation(algebra, [b, c, a], perm(3, "(12)"))
        - term_by_permutation(algebra, [a, b, c], perm(3, "(23)"))
    )
    yield ("C08.circulant-difference", "circulant-vs-embedding difference lies in the kernel",
           _kernel(y), "kernel")

    basis = algebra.basis()
    yield ("C08.criteria-agree",
           f"zero-image and entry-sum criteria agree on the {len(basis)} basis elements, "
           "so on every element (both are linear)",
           basis, lambda e: (matrep.to_matrix(e), matrep.entry_sums(e)), lambda e: e.to_json())
    units = [{k: Fraction(int(k == unit)) for k in "xyzwtrspq"} for unit in "xyzwtrspq"]
    zero = SquareMatrix.zero(algebra.degree)
    yield ("C08.family-units", "the kernel family at each of its nine unit parameters maps to zero",
           units, lambda v: (matrep.to_matrix(_kernel_family_element(algebra, v)), zero),
           lambda v: {k: str(q) for k, q in v.items()})

    def flat(m: SquareMatrix) -> list:
        return [c for row in m.rows for c in row]

    def coordinates(x) -> list:
        return [c for g in range(algebra.group.order) for c in x.coefficient(g)]

    image_rank = matrep._matrix_rank([flat(matrep.to_matrix(b)) for b in basis])
    family_rank = matrep._matrix_rank(
        [coordinates(_kernel_family_element(algebra, v)) for v in units])
    n2 = algebra.degree ** 2
    yield ("C08.family-spans-kernel",
           f"the basis images have rank {n2}, so the kernel has dimension "
           f"{len(basis)} - {n2}, and the nine family elements have that rank: "
           "the family is exactly the kernel",
           f"image rank {image_rank}, family rank {family_rank}",
           f"image rank {n2}, family rank {len(basis) - n2}")


# ---------------------------------------------------------------------------
# C09: spacetime in the period-two algebra.


def _spinor(a: SquareMatrix, h: SquareMatrix) -> SquareMatrix:
    """A H A+, the event matrix H under the spinor map A."""
    return a * h * a.conjugate_transpose()


@_criterion("spacetime")
def check_minkowski(seed: int):
    # E12(x) and E21(x) at x = u + vi, u, v in {0, 1, 2}.  A Doppler factor
    # D > 0 gives the rational velocity v = (1-D^2)/(1+D^2).
    grid = [GaussianRational(u, v) for u in range(3) for v in range(3)]
    spinors = ([SquareMatrix.from_rows([[1, x], [0, 1]]) for x in grid]
               + [SquareMatrix.from_rows([[1, 0], [x, 1]]) for x in grid])
    events = _unit_polarization(4)  # the four unit events come first
    units, factors = events[:4], DOPPLER[:3]

    @functools.cache
    def observable(event) -> SquareMatrix:
        return matrep.to_matrix(event_element(event))

    def written(event) -> SquareMatrix:
        t, x, y, z = event
        return SquareMatrix.from_rows([[t + x, GaussianRational(y, z)],
                                       [GaussianRational(y, -z), t - x]])

    def interval(event):
        t, x, y, z = event
        return determinant_period2(event_element(event)), t * t - x * x - y * y - z * z

    def text(event) -> list[str]:
        return [str(q) for q in event]

    def velocity(d: Fraction) -> Fraction:
        return (1 - d * d) / (1 + d * d)

    def boosted(case):
        d, event = case
        t, x = event[:2]
        z = event_element(event)
        b = doppler_boost(z, d)
        plus, minus = b.coefficient("1")
        v, gamma = velocity(d), (1 + d * d) / (2 * d)
        return (((plus + minus) / 2, (plus - minus) / 2, determinant_period2(b)),
                (gamma * (t - v * x), gamma * (x - v * t), determinant_period2(z)))

    def composed(case):
        d, e, event = case
        z = event_element(event)
        return doppler_boost(doppler_boost(z, d), e), doppler_boost(z, d * e)

    def added(case):
        d, e = case
        v, w = velocity(d), velocity(e)
        return (v + w) / (1 + v * w), velocity(d * e)

    def hermitian(m: SquareMatrix):
        return m, m.conjugate_transpose()

    def spinor_inputs(case) -> dict:
        return {"A": case[0].to_lists(), "event": text(case[1])}

    yield ("C09.iterant-form", "the event element z = [T+X, T-X] + [Y+Zi, Y-Zi]e has the matrix "
           "H = [[T+X, Y+Zi], [Y-Zi, T-X]] on the unit events, so on every event (linear)",
           units, lambda event: (observable(event), written(event)), text)
    yield ("C09.determinant", "D(z) = T^2-X^2-Y^2-Z^2 on the polarization events, so on every "
           "event (both sides are quadratic forms)", events, interval, text)
    yield ("C09.trace", "trace H = 2T on the unit events, so on every event (linear)",
           units, lambda event: (observable(event).trace(), 2 * event[0]), text)
    yield ("C09.hermitian", "H equals its conjugate transpose on the unit events, so on every "
           "event (linear over Q)", units, lambda event: hermitian(observable(event)), text)
    yield ("C09.example-roots", "reference events give charpoly roots {1,3} and {-5,5}",
           "; ".join(_spectrum(observable(event)) for event in ((2, 1, 0, 0), (0, 3, 4, 0))),
           "(1, 3) det 3; (-5, 5) det -25")
    yield ("C09.doppler-boost", "[D,1] z [1,1/D] gives T' = gamma(T-vX), X' = gamma(X-vT) and "
           f"keeps D(z) on the polarization events at D = {', '.join(map(str, factors))}, so "
           "on every event and D > 0 (times 2D, degree 2 in D)",
           itertools.product(factors, events), boosted,
           lambda c: {"D": str(c[0]), "event": text(c[1])})
    yield ("C09.doppler-composition", "a boost by D then E is the boost by DE on the unit events "
           f"at D, E = {', '.join(map(str, factors))}, so on every event and D, E > 0 "
           "(times DE, degree 2 in D and in E)", itertools.product(factors, factors, units),
           composed, lambda c: {"D": str(c[0]), "E": str(c[1]), "event": text(c[2])})
    yield ("C09.velocity-addition", "velocities add: (v+w)/(1+vw) = v(DE) for v = v(D) and "
           f"w = v(E) at D, E = {', '.join(map(str, DOPPLER))}, so for all D, E > 0 (cleared, "
           "degree 4 in D and in E)", itertools.product(DOPPLER, repeat=2), added,
           lambda c: {"D": str(c[0]), "E": str(c[1])})
    yield ("C09.spinor-determinant", "det(A H A+) = det H for A = E12(x) = [[1, x], [0, 1]] and "
           "E21(x) = [[1, 0], [x, 1]] at x = u + vi, u, v in {0, 1, 2}, on the polarization "
           "events, so for every A in SL(2, Q(i)), a product of them (degree 2 in u, in v and "
           "in the event)", itertools.product(spinors, events),
           lambda c: (_spinor(c[0], observable(c[1])).determinant(),
                      observable(c[1]).determinant()), spinor_inputs)
    yield ("C09.spinor-hermitian", "A H A+ equals its conjugate transpose for the same A on the "
           "unit events, so for every A in SL(2, Q(i)) (degree 2 in u and in v, linear in the "
           "event)", itertools.product(spinors, units),
           lambda c: hermitian(_spinor(c[0], observable(c[1]))), spinor_inputs)


def _spectrum(h: SquareMatrix) -> str:
    """The roots (tr -+ sqrt(tr^2 - 4 det))/2 of H's characteristic polynomial
    as (lo, hi), or None when they are not rational, and the determinant."""
    tr, det = h.trace(), h.determinant()
    disc = tr * tr - 4 * det
    root = sqrt_exact(disc.re) if disc.is_real() else None
    roots = "None" if root is None else f"({(tr - root) / 2}, {(tr + root) / 2})"
    return f"{roots} det {det}"


# ---------------------------------------------------------------------------
# C10: braiding.


@_criterion("braiding")
def check_braiding(seed: int):
    ladders = {n: clifford.clifford_generators(n) for n in range(2, 7)}
    images = {(n, k): clifford.braid_conjugate(ladder, k, ladder)
              for n, ladder in ladders.items() for k in range(1, n)}
    spans = {(n, k): clifford.braid_basis_matrix(n, k) for n, k in images}

    def image(case):
        n, k, j = case
        ladder = ladders[n]
        terms = [c if b == 1 else -c if b == -1 else c.scale(b)
                 for b, c in zip(spans[n, k].rows[j - 1], ladder) if b]
        spanned = sum(terms[1:], terms[0]) if terms else SquareMatrix.zero(ladder[0].n)
        return images[n, k][j - 1], spanned

    yield ("C10.images", "conjugation by each braiding element sends c_j to row j of its span "
           "matrix B_k applied to the ladder (n = 2..6): a braid word conjugates the ladder as "
           "its word matrix does, so C10.braid-relations and C10.order-four hold for conjugation",
           [(n, k, j) for n in ladders for k in range(1, n) for j in range(1, n + 1)],
           image, lambda c: {"n": c[0], "k": c[1], "j": c[2]})

    words = [(n, [k, k + 1, k], [k + 1, k, k + 1]) for n in range(3, 7) for k in range(1, n - 1)]
    words += [(n, [k, j], [j, k]) for n in range(3, 7) for k in range(1, n) for j in range(k + 2, n)]
    yield ("C10.braid-relations", "adjacent braid relation and distant commutation for n <= 6",
           words, lambda w: (clifford.braid_word_matrix(w[0], w[1]),
                             clifford.braid_word_matrix(w[0], w[2])),
           lambda w: {"n": w[0], "word": w[1], "compare": w[2]})

    yield ("C10.ladder-relations",
           "each ladder generator squares to one and each two anticommute (n = 2..6)",
           ((n, *relation) for n, ladder in ladders.items()
            for relation in clifford.anticommuting_relations(ladder)),
           lambda c: c[2:], lambda c: {"n": c[0], "i": c[1][0], "j": c[1][1]})

    yield ("C10.quaternion-braiders",
           "(1+I)(1+J)(1+I) = (1+J)(1+I)(1+J) and cyclic variants, exactly",
           clifford.braider_relations(clifford.clifford_generators(3)), _sides, _name)
    yield ("C10.order-four", "the span map of a single braid generator has order exactly four",
           [(4, True), (2, False)],
           lambda c: (clifford.braid_word_matrix(3, [1] * c[0]) == SquareMatrix.identity(3), c[1]),
           lambda c: {"n": 3, "word": [1] * c[0]})


# ---------------------------------------------------------------------------
# C11: fermion operators from an anticommuting pair.


@_criterion("fermions")
def check_fermion(seed: int):
    rows = (("psi-squared", "psi^2 = 0 exactly"),
            ("dagger-squared", "psi+^2 = 0 exactly"),
            ("anticommutator", "psi psi+ + psi+ psi = 1 exactly"),
            ("adjoint", "psi+ is the conjugate transpose of psi in this representation"))
    relations = clifford.fermion_relations(clifford.clifford_generators(2))
    for (tag, description), (_, lhs, rhs) in zip(rows, relations, strict=True):
        yield f"C11.{tag}", description, lhs, rhs


# ---------------------------------------------------------------------------
# C12: fusion ring.


@_criterion("fusion")
def check_fusion(seed: int):
    p = clifford.FUSION_P
    fib = [0, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])

    basis = {"1": clifford.FUSION_ONE, "P": p}

    def laws(names):
        u, v, w = map(basis.__getitem__, names)
        return (u * v, (u * v) * w), (v * u, u * (v * w))

    yield "C12.rule", "P * P = 1 + P", p * p, clifford.FusionElement(1, 1)
    powers = clifford.fusion_powers(20)
    yield ("C12.fibonacci", "P^n has consecutive Fibonacci coefficients for n <= 20",
           range(1, 21),
           lambda n: (powers[n], clifford.FusionElement(fib[n - 1], fib[n])),
           lambda n: {"power": n})
    yield ("C12.commutative-associative",
           "fusion product is commutative and associative on the 8 triples of the basis "
           "{1, P}, so on all elements (it is bilinear)",
           itertools.product(basis, repeat=3), laws, list)


# ---------------------------------------------------------------------------
# C13: mark calculus.


WORKED_EXPRESSION = "((((()())())())())()"
_NORMAL_FORMS = {"()": "marked", "": "unmarked"}


def _steps_keep_value(expr: lof.MarkExpr) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The linear values of expr's one-step rewrites against its own, once per
    rewrite; with no rewrite, the value of expr as a normal form, or its text
    if it is not one, against its own."""
    value = lof.linear_value(expr)
    after = lof.successors(expr)
    if not after:
        return (_NORMAL_FORMS.get(expr.text, str(expr)),), (value,)
    return tuple(map(lof.linear_value, after)), (value,) * len(after)


@_criterion("mark-calculus")
def check_lof(seed: int):
    for tag, text, value, description in (
            ("worked-example", WORKED_EXPRESSION, "marked",
             "the nested worked example reduces to the marked state"),
            ("crossing", "(())", "unmarked", "(()) reduces to unmarked"),
            ("calling", "()()", "marked", "()() reduces to marked")):
        yield f"C13.{tag}", description, lof.reduce_expression(lof.parse(text)).value, value

    yield ("C13.confluence",
           f"every rewrite step of every forest of at most {ENUMERATED_MARKS} marks keeps its "
           "linear value, and () and the void are the only normal forms",
           (lof.MarkExpr(text) for marks in range(ENUMERATED_MARKS + 1)
            for text in lof.forests(marks)),
           _steps_keep_value, lambda expr: {"expression": str(expr)})

    rows = [(text, {"A": a, "B": b}, expected) for a in (False, True) for b in (False, True)
            for text, expected in (("(A)B", (not a) or b), ("((A)(B))", a and b),
                                   ("AB", a or b), ("(A)", not a), ("((A))", a))]
    rows += [("()", {}, True), ("(())", {}, False)]
    yield ("C13.logic-tables", "the logic reading matches every connective truth table",
           rows, lambda r: (lof.eval_logic(lof.parse(r[0]), r[1]), r[2]),
           lambda r: {"expression": r[0], "assignment": r[1]})
    yield ("C13.generator-bridge",
           "the re-entrant oscillation pair squares to one and anticommutes",
           majorana_pair_relations(), _sides, _name)


# ---------------------------------------------------------------------------
# C14: nilpotent plane-wave operators.


def _shell_points(n: int) -> list[tuple[int, tuple[int, ...], int]]:
    """(E, p, m) at w = (p, m) with n coordinates: the (1, +-e_k), then the
    (5, 3e_k + 4e_l) for k < l, which fix a relation on the shell (see the
    module docstring)."""
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    points = [(1, tuple(sign * x for x in e)) for e in units for sign in (1, -1)]
    points += [(5, tuple(3 * x + 4 * y for x, y in zip(a, b)))
               for a, b in itertools.combinations(units, 2)]
    return [(e, w[:-1], w[-1]) for e, w in points]


def _dirac_inputs(case, key: str = "") -> dict[str, str]:
    """(E, p, m), the frame and, for a <version>-<relation> key, the version,
    as the --E, --p, --m, --dim and --version flags of ``dirac verify`` read
    them."""
    e, p, m = case[:3]
    inputs = {"E": str(e), "p": ",".join(map(str, p)), "m": str(m), "dim": f"{len(p)}d"}
    version = key.partition("-")[0]
    if version in dirac.VERSIONS:
        inputs["version"] = version
    return inputs


@_criterion("dirac")
def check_dirac(seed: int):
    frame1, frame3 = dirac.dirac_frame("1d"), dirac.dirac_frame("3d")
    for frame in (frame1, frame3):
        dim, points = f"{len(frame.sigmas)}d", _shell_points(len(frame.sigmas) + 1)
        tables = [(e, p, m, {r[0]: _sides(r)
                             for r in dirac.relations(frame, dirac.OnShellParams.of(e, p, m))})
                  for e, p, m in points]
        for key in sorted(tables[0][3]):
            yield (f"C14.{dim}-{key}",
                   f"{dim} {key} on the {len(points)} shell points (1, +-e_k), (5, 3e_k + 4e_l) "
                   "of w = (p, m), so on the whole shell (times E^k, it is a quadratic form)",
                   tables, lambda t: t[3][key], functools.partial(_dirac_inputs, key=key))

    def off_shell_square(case):
        params = dirac.OnShellParams.of(*case)
        u = dirac.nilpotent_pair(frame1, params, "time_reversed")[0]
        return u * u, SquareMatrix.identity(2).scale(params.shell_defect)

    yield ("C14.off-shell-scalar",
           "U^2 = (p^2+m^2-E^2) identity on the six polarization triples (E, p, m), "
           "so for every triple (both sides are quadratic forms)",
           [(e, (p,), m) for e, p, m in _unit_polarization(3)], off_shell_square, _dirac_inputs)

    sigmas = frame3.sigmas
    zero = SquareMatrix.zero(4)
    frames = [("1d alpha beta anticommute", frame1.alpha.anticommutator(frame1.beta),
               SquareMatrix.zero(2))]
    for i, s in enumerate(sigmas, 1):
        frames += [(f"sigma{i} sigma{i % 3 + 1} anticommute", s.anticommutator(sigmas[i % 3]), zero),
                   (f"sigma{i} squares to one", s * s, SquareMatrix.identity(4)),
                   (f"alpha and beta commute with sigma{i}",
                    (frame3.alpha.commutator(s), frame3.beta.commutator(s)), (zero, zero))]
    yield ("C14.frames", "frame relations: squares one, anticommuting, commuting 3d triple",
           frames, _sides, _name)


# ---------------------------------------------------------------------------
# C15: the totally real generator set.


@_criterion("real-generators")
def check_real_generators(seed: int):
    gens = dirac.majorana_dirac_generators()
    yield ("C15.realness", "all four generator matrices are entrywise real",
           clifford.real_relations(gens), _sides, _name)
    yield ("C15.relations", "alphas square to +1, b' to -1, all four pairwise anticommute",
           dirac.generator_relations(gens), _sides, _name)
    yield ("C15.commuting-copies",
           "the two split-generator copies commute elementwise and each is standard",
           dirac.commuting_copy_relations(), _sides, _name)


# ---------------------------------------------------------------------------
# C16: discrete commutator identity.


@_criterion("discrete-calculus")
def check_discrete(seed: int):
    units = [discrete.Sequence.from_values([int(k == i) for k in range(4)]) for i in range(4)]
    tick_sizes = (Fraction(1), Fraction(2, 3))
    shifted = (discrete.Sequence.from_values([1, -2, 3, Fraction(1, 2)], start=5), Fraction(2, 3))

    def show(d):
        return {"seq": ",".join(map(str, d[0].samples)), "start": d[0].start, "dt": str(d[1])}

    yield ("C16.commutator-identity", "[x, Dx] = J (dx)^2/dt exactly on the 4 unit sequences of "
           "4 ticks and their 6 pairwise sums at dt = 1 and 2/3, and on one x from tick 5, so on "
           "every x and dt (quadratic in x, local in t)",
           [(x, dt) for dt in tick_sizes for x in _polarization(units)] + [shifted],
           lambda d: discrete.on_overlap(*discrete.basic_commutator(*d)), show)
    yield ("C16.derivative-commutator", "Dx = [x, J]/dt exactly on the 4 unit sequences of 4 "
           "ticks at dt = 1 and 2/3, and on one x from tick 5, so on all x and dt",
           [(x, dt) for dt in tick_sizes for x in units] + [shifted],
           lambda d: discrete.on_overlap(discrete.discrete_derivative(*d),
                                         discrete.shift_commutator(*d)), show)
    walks = [(discrete.Sequence.from_values(itertools.accumulate(steps, initial=0)), 1)
             for steps in itertools.product((-1, 1), repeat=4)]
    yield ("C16.brownian-constant",
           "each of the 16 unit-step walks of 4 steps has constant squared step, K = 1",
           walks, lambda d: (discrete.diffusion_constant(*d), 1), show)
    quad = discrete.Sequence.from_values([Fraction(t * t) for t in range(10)])
    yield ("C16.non-constant", "a quadratic sequence is detected as non-constant",
           discrete.diffusion_constant(quad, 1), None)


# ---------------------------------------------------------------------------
# C17: lattice scheme: the pair map, its conserved form and each mode's turn.

# cos(2 pi k/N) by k/N for 0 <= k <= N/2, on the rings where it is rational
_COSINES = {Fraction(0): Fraction(1), Fraction(1, 6): Fraction(1, 2), Fraction(1, 4): Fraction(0),
            Fraction(1, 3): Fraction(-1, 2), Fraction(1, 2): Fraction(-1)}


def _lattice(case: tuple[int, Fraction]) -> tuple[SquareMatrix, SquareMatrix, SquareMatrix]:
    """P, one exact tick pair as a matrix on (e, o), whose columns are the
    images of the 2 * cells unit fields, and I and rL, L = S + S^-1 - 2I for the
    cyclic shift S apart from the stencil (S = S^-1 on two cells)."""
    cells, r = case
    cfg = schrodinger.LatticeConfig(cells=cells, dx=Fraction(1), dt=r, kappa=Fraction(1), steps=2)
    columns = []
    for j in range(2 * cells):
        unit = [Fraction(int(i == j)) for i in range(2 * cells)]
        _, (even, odd) = schrodinger.ticks(cfg, unit[:cells], unit[cells:])
        columns.append(even + odd)
    one = SquareMatrix.identity(cells)
    shift = groups.perm_matrix(tuple((i + 1) % cells for i in range(cells)))
    laplacian = shift + shift.conjugate_transpose() - one.scale(2)
    return SquareMatrix.from_rows(zip(*columns)), one, laplacian.scale(r)


def _blocks(a: SquareMatrix, b: SquareMatrix, c: SquareMatrix, d: SquareMatrix) -> SquareMatrix:
    """[[a, b], [c, d]]."""
    return SquareMatrix(tuple(x + y for x, y in zip(a.rows, b.rows))
                        + tuple(x + y for x, y in zip(c.rows, d.rows)))


def _modes(cells: int) -> list[tuple[int, str, Fraction, list[Fraction]]]:
    """The cells real Fourier modes (k, mode, lambda, v) of a ring of 2, 3, 4
    or 6 cells, Lv = (2c - 2) v for c = cos(2 pi k/cells): the cosine mode
    v_j = T_j(c), from v_{j+1} = 2c v_j - v_{j-1}, and for 0 < k < cells/2 the
    sine mode w_j = v_{j+1} - v_{j-1}."""
    modes = []
    for k in range(cells // 2 + 1):
        c = _COSINES[Fraction(k, cells)]
        v = [Fraction(1), c]
        while len(v) < cells:
            v.append(2 * c * v[-1] - v[-2])
        modes.append((k, "cos", 2 * c - 2, v))
        if 0 < 2 * k < cells:
            sine = [v[(j + 1) % cells] - v[j - 1] for j in range(cells)]
            modes.append((k, "sin", 2 * c - 2, sine))
    return modes


@_criterion("lattice-schrodinger")
def check_schrodinger(seed: int):
    # rings with rational modes, and rational ratios r < 1/2; each ring's
    # lattice is built once for all three rows
    cases = ((2, Fraction(1, 3)), (3, Fraction(1, 4)), (4, Fraction(2, 5)), (6, Fraction(3, 7)))
    lattices = {case: _lattice(case) for case in cases}

    def show(case):
        return {"cells": case[0], "r": str(case[1])}

    def pair_map_sides(case):
        p, one, rl = lattices[case]
        return p, _blocks(one, rl, -rl, one - rl * rl)

    def conserved_sides(case):
        # G is the Gram matrix of Q: Q(e, o) = (e, o)^T G (e, o)
        p, one, rl = lattices[case]
        half = rl.scale(Fraction(1, 2))
        g = _blocks(one, half, half, one)
        return p.conjugate_transpose() * g * p, g

    yield ("C17.pair-map",
           "one exact tick pair on the unit fields of rings of 2, 3, 4, 6 cells is "
           "P = [[I, rL], [-rL, I - r^2 L^2]], L the periodic second difference",
           cases, pair_map_sides, show)
    yield ("C17.conserved-form",
           "P^T G P = G with G = [[I, rL/2], [rL/2, I]]: every tick pair keeps "
           "Q = |e|^2 + |o|^2 + r o.Le, positive definite for r < 1/2",
           cases, conserved_sides, show)

    # P W = W [[I, D], [-D, I - D^2]] for W = [[V, 0], [0, V]], V's columns the
    # modes, D = diag(mu): columns j and cells + j are P(v, 0) and P(0, v)
    turned = {}
    for (cells, r), (p, one, _) in lattices.items():
        modes = _modes(cells)
        zero, mu = SquareMatrix.zero(cells), SquareMatrix.diagonal([r * m for *_, m, _ in modes])
        basis = SquareMatrix.from_rows(zip(*(v for *_, v in modes)))
        w = _blocks(basis, zero, zero, basis)
        sides = [tuple(zip(*m.rows)) for m in (p * w, w * _blocks(one, mu, -mu, one - mu * mu))]
        for j, (k, mode, *_) in enumerate(modes):
            turned[cells, r, k, mode] = tuple((side[j], side[cells + j]) for side in sides)

    yield ("C17.dispersion",
           "each real Fourier mode v of those rings, Lv = lambda v with lambda = "
           "2 cos(2 pi k/N) - 2, turns by [[1, mu], [-mu, 1 - mu^2]] for mu = r lambda: "
           "P(v, 0) = (v, -mu v) and P(0, v) = (mu v, (1 - mu^2) v), so cos theta = 1 - mu^2/2",
           list(turned), turned.__getitem__,
           lambda c: {"cells": c[0], "r": str(c[1]), "k": c[2], "mode": c[3]})


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


def run_verify(seed: int = 7) -> tuple[CheckResult, ...]:
    """Run every check in ALL_CHECKS, looked up at call time; the rows sorted
    by id."""
    entries: list[CheckResult] = []
    for check in ALL_CHECKS:
        entries.extend(check(seed))
    ids = [e.check_id for e in entries]
    if len(ids) != len(set(ids)):
        raise AssertionError("check ids are not unique")
    return tuple(sorted(entries, key=lambda e: e.check_id))
