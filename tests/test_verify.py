"""The one evaluator behind every verify-all row.

The real checks run once per session, in tests/test_acceptance.py; these
tests evaluate declared rows of small literal cases, and run a real
criterion only with one case of a library function broken on purpose.
"""

import dataclasses
import itertools
import json
import operator
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iterant_lab import cli, clifford, dirac, discrete, groups, lof, matrep, schrodinger, verify
from iterant_lab.iterants import (
    IterantAlgebra,
    element_from_json,
    event_element,
    natural_sn_algebra,
    parse_period2,
    period_two_algebra,
    regular_algebra,
)
from iterant_lab.matrix import SquareMatrix
from iterant_lab.scalars import I_UNIT, GaussianRational, parse_rational, parse_scalar


def test_tally_counts_the_cases_and_keeps_the_first_disagreement():
    tally = verify._tally(iter(range(6)), lambda n: (n % 3, 0))
    assert tally == (6, 2, (1, 1, 1, 0))


def test_a_passing_row_gives_counts_and_renders_no_witness():
    def render(case):
        raise AssertionError("a passing row rendered a witness")

    row = verify._evaluate("test", 5, ("X01.row", "n = n", [1, 2], lambda n: (n, n), render))
    assert (row.passed, row.lhs, row.rhs, row.witness) == (True, "2/2 agree", "2/2 agree", None)


def test_a_failing_row_carries_the_first_disagreeing_case():
    row = verify._evaluate("test", 5, ("X01.row", "n^2 = 2n", [2, 3, 4],
                                       lambda n: (n * n, 2 * n), lambda n: {"n": n}))
    assert (row.passed, row.lhs, row.rhs) == (False, "1/3 agree", "3/3 agree")
    assert row.witness == {"seed": 5, "index": 1, "inputs": {"n": 3}, "lhs": "9", "rhs": "6"}


def test_a_row_that_checked_no_case_fails():
    row = verify._evaluate("test", 5, ("X01.row", "nothing", [], lambda n: (n, n), str))
    assert (row.passed, row.lhs, row.witness) == (False, "0/0 agree", None)


def test_a_failing_relation_shows_its_two_sides_not_false():
    off_shell = dirac.relations(dirac.dirac_frame("1d"), dirac.OnShellParams.of(2, 1, 0))
    row = verify._evaluate("test", 5, ("X01.row", "off shell", off_shell,
                                       verify._sides, verify._name))
    assert not row.passed
    # U^2 = (p^2 + m^2 - E^2) 1 = -3 against 0: the first relation fails
    assert row.witness == {"seed": 5, "index": 0, "inputs": "conjugate-u-squared",
                           "lhs": str(SquareMatrix.identity(2).scale(-3)),
                           "rhs": str(SquareMatrix.zero(2))}
    assert "False" not in row.witness["lhs"] + row.witness["rhs"]


def test_a_single_case_row_passes_exactly_when_its_printed_sides_are_equal():
    two = SquareMatrix.identity(2).scale(2)
    held = verify._evaluate("test", 5, ("X01.row", "2 = 2", two, SquareMatrix.identity(2) * two))
    assert (held.passed, held.lhs, held.rhs, held.witness) == (True, str(two), str(two), None)
    failed = verify._evaluate("test", 5, ("X01.row", "2 = 0", two, SquareMatrix.zero(2)))
    assert (failed.passed, failed.lhs, failed.rhs) == (False, str(two), str(SquareMatrix.zero(2)))
    assert failed.lhs != failed.rhs


def test_a_table_tally_names_the_first_differing_cell():
    table = [["1", "S"], ["S", "1"]]
    reference = [["1", "S"], ["1", "S"]]
    row = verify._evaluate("test", 5, (
        "X01.table", "table matches", [(i, j) for i in range(2) for j in range(2)],
        lambda c: (table[c[0]][c[1]], reference[c[0]][c[1]]),
        lambda c: {"row": c[0], "col": c[1]}))
    assert (row.passed, row.lhs, row.rhs) == (False, "2/4 agree", "4/4 agree")
    assert row.witness == {"seed": 5, "index": 2, "inputs": {"row": 1, "col": 0},
                           "lhs": "S", "rhs": "1"}


def test_a_criterion_gives_its_area_and_seed_to_every_row():
    @verify._criterion("test")
    def rows(seed):
        yield "X01.single", "one = one", 1, 1
        yield "X01.tally", "n = n + 1", [seed], lambda n: (n, n + 1), lambda n: {"n": n}

    single, tally = rows(9)
    assert (single.area, tally.area) == ("test", "test")
    assert tally.witness == {"seed": 9, "index": 0, "inputs": {"n": 9}, "lhs": "9", "rhs": "10"}


def test_each_row_is_evaluated_before_the_next_is_declared():
    drawn = []

    @verify._criterion("test")
    def rows(seed):
        yield "X01.first", "draws", (drawn.append(n) or n for n in range(3)), lambda n: (n, n), str
        yield "X01.second", "sees the draws", len(drawn), 3

    assert [row.passed for row in rows(0)] == [True, True]


# One input of the library function behind each row, broken on purpose: the
# row's check, the module and name of the function, the function's input for
# a case of the row, how the broken call spoils its result, and the two sides
# the witness must then show.  The input is that of the case at index BROKEN;
# in the C16 rows it is a unit sequence, which the row takes at two tick sizes.
BROKEN = 3  # the index of the first broken case


def _plus_identity(m: SquareMatrix) -> SquareMatrix:
    return m + SquareMatrix.identity(m.n)


def _family(v):
    return verify._kernel_family_element(natural_sn_algebra(3), v)


def _not_hermitian(h: SquareMatrix) -> SquareMatrix:
    return h + SquareMatrix.from_rows([[0, 1], [0, 0]])


def _observable(event) -> SquareMatrix:
    return matrep.to_matrix(event_element(event))


def _spinor(a: SquareMatrix, h: SquareMatrix) -> SquareMatrix:
    return a * h * a.conjugate_transpose()


def _commutator_text(sides):
    lhs, rhs = discrete.on_overlap(*sides)
    return verify._text(lhs), verify._text(rhs)


def _doubled_rhs(sides):
    return sides[0], sides[1].scale(2)


WITNESS_ROWS = {
    "C08.criteria-agree": (
        verify.check_kernel, matrep, "entry_sums", lambda e: e, _plus_identity,
        lambda e: (str(matrep.to_matrix(e)), str(_plus_identity(matrep.entry_sums(e))))),
    "C08.family-units": (
        verify.check_kernel, matrep, "to_matrix", _family, _plus_identity,
        lambda v: (str(_plus_identity(matrep.to_matrix(_family(v)))),
                   str(SquareMatrix.zero(3)))),
    "C09.trace": (
        verify.check_minkowski, matrep, "to_matrix", event_element, _plus_identity,
        lambda ev: (str(_observable(ev).trace() + 2), str(2 * ev[0]))),
    "C09.hermitian": (
        verify.check_minkowski, matrep, "to_matrix", event_element, _not_hermitian,
        lambda ev: (str(_not_hermitian(_observable(ev))),
                    str(_not_hermitian(_observable(ev)).conjugate_transpose()))),
    "C16.commutator-identity": (
        verify.check_discrete, discrete, "basic_commutator", lambda d: d[0], _doubled_rhs,
        lambda d: _commutator_text(_doubled_rhs(discrete.basic_commutator(*d)))),
    "C16.derivative-commutator": (
        verify.check_discrete, discrete, "shift_commutator", lambda d: d[0],
        lambda p: p.scale(2),
        lambda d: _commutator_text((discrete.discrete_derivative(*d),
                                    discrete.shift_commutator(*d).scale(2)))),
}


@pytest.mark.parametrize("row_id", WITNESS_ROWS)
def test_a_broken_case_fails_its_row_with_both_computed_sides(monkeypatch, row_id):
    check, module, name, input_of, spoil, expected = WITNESS_ROWS[row_id]
    # the declaration up to the row, so that lazy cases are drawn in order
    cases, _, show = next(row[2:] for row in check.__wrapped__(7) if row[0] == row_id)
    cases = list(cases)
    target = input_of(cases[BROKEN])
    real = getattr(module, name)

    def broken(*args):
        result = real(*args)
        return spoil(result) if args[0] == target else result

    monkeypatch.setattr(module, name, broken)
    row = {r.check_id: r for r in check(7)}[row_id]
    monkeypatch.undo()

    count, spoiled = len(cases), sum(input_of(case) == target for case in cases)
    assert (row.passed, row.lhs) == (False, f"{count - spoiled}/{count} agree")
    witness = row.witness
    assert (witness["index"], witness["inputs"]) == (BROKEN, show(cases[BROKEN]))
    assert (witness["lhs"], witness["rhs"]) == expected(cases[BROKEN])
    assert witness["lhs"] != witness["rhs"]
    assert not {witness["lhs"], witness["rhs"]} & {"False", "True"}
    assert "Fraction(" not in witness["lhs"] + witness["rhs"]


def test_the_example_roots_are_read_off_the_observable(monkeypatch):
    real, target = matrep.to_matrix, event_element((2, 1, 0, 0))

    def spoiled(z):
        h = real(z)
        return _plus_identity(h) if z == target else h

    monkeypatch.setattr(matrep, "to_matrix", spoiled)
    row = {r.check_id: r for r in verify.check_minkowski(7)}["C09.example-roots"]
    # H + 1 = diag(4, 2): charpoly L^2 - 6L + 8
    assert (row.passed, row.lhs) == (False, "(2, 4) det 8; (-5, 5) det -25")


def test_the_non_constant_row_prints_the_constant(monkeypatch):
    monkeypatch.setattr(discrete, "diffusion_constant", lambda x, dt: Fraction(7, 2))
    row = {r.check_id: r for r in verify.check_discrete(7)}["C16.non-constant"]
    assert (row.passed, row.lhs, row.rhs) == (False, "7/2", "None")


def test_the_commutator_witness_prints_rationals_as_text():
    sides = discrete.on_overlap(*discrete.basic_commutator(
        discrete.Sequence.from_values(["1/2", 0, 1]), "1/3"))
    assert verify._text(sides[1]) == "1/3; (1, (3/4, 3))"


def _rows(declarations) -> dict:
    return {row.check_id: row for row in (verify._evaluate("test", 7, d) for d in declarations)}


def _declared(check, row_id):
    """The (cases, relation, show) of one declared row, its cases as a list."""
    cases, relation, show = next(row[2:] for row in check.__wrapped__(7) if row[0] == row_id)
    return list(cases), relation, show


NEW_C04_ROWS = [f"C04.{name}-{row}" for name in ("c3", "c6", "s3", "klein4", "period-two")
                for row in ("identity-inverses", "associativity")]
NEW_C04_ROWS += [f"C04.{name}-regular-action" for name in ("c3", "c6", "s3", "klein4")]
NEW_C04_ROWS += ["C04.period-two-action", "C04.s3-natural-action"]


def test_a_non_associative_table_fails_the_associativity_row():
    # a table with identity and inverses: (aa)b = 1b = b but a(ab) = a1 = a
    group = groups.Group(("1", "a", "b"), ((0, 1, 2), (1, 0, 0), (2, 0, 0)), label="loop")
    rows = _rows(verify._group_axioms("loop", group))
    assert rows["C04.loop-identity-inverses"].passed
    row = rows["C04.loop-associativity"]
    assert (row.passed, row.lhs) == (False, "23/27 agree")
    assert row.witness == {"seed": 7, "index": 14, "inputs": ["a", "a", "b"],
                           "lhs": "b", "rhs": "a"}
    assert [group.index_of(name) for name in row.witness["inputs"]] == [1, 1, 2]


def test_a_table_whose_first_element_is_not_the_identity_fails_the_identity_row():
    group = groups.Group(("x", "y"), ((1, 0), (0, 1)), label="swapped")
    row = _rows(verify._group_axioms("swapped", group))["C04.swapped-identity-inverses"]
    # 1x = x1 = y: the identity is y, listed second
    assert (row.passed, row.witness["inputs"]) == (False, "x")
    assert (row.witness["lhs"], row.witness["rhs"]) == ("y; y; x; x", "x; x; x; x")
    assert group.index_of(row.witness["inputs"]) == 0


@pytest.mark.parametrize("maps, inputs, lhs", [
    # S acts as S^2 does, so acting by S twice is not acting by S^2
    (((0, 1, 2), (2, 0, 1), (2, 0, 1)), ["S", "S"],
     "(0, 1, 2); (0, 1, 2); (1, 2, 0)"),
    # S sends two points to 1, so it is no bijection
    (((0, 1, 2), (1, 1, 0), (2, 0, 1)), ["S", "1"], "(0, 1, 1); (0, 1, 2); (1, 1, 0)"),
    # the identity moves the points
    (((1, 2, 0), (1, 2, 0), (2, 0, 1)), ["1", "1"], "(0, 1, 2); (1, 2, 0); (2, 0, 1)"),
])
def test_a_broken_action_fails_the_action_row(maps, inputs, lhs):
    group = groups.cyclic(3)
    action = groups.GroupAction(group, maps, label="c3 broken")
    row = _rows(verify._action_law("broken", action))["C04.broken-action"]
    assert (row.passed, row.witness["inputs"], row.witness["lhs"]) == (False, inputs, lhs)
    g, h = (group.index_of(name) for name in inputs)
    assert row.witness["rhs"] == verify._text(((0, 1, 2), (0, 1, 2), maps[group.mul(g, h)]))


@pytest.mark.parametrize("row_id", NEW_C04_ROWS)
def test_each_group_row_names_its_elements_as_index_of_reads_them(row_id):
    cases, _, show = _declared(verify.check_g_table_theorem, row_id)
    name = row_id.split(".")[1].split("-")[0]
    group = verify.period_two_algebra().group if name == "period" else groups.builtin_group(name)
    for case in cases:
        names = show(case)
        ids = group.index_of(names) if isinstance(names, str) else [group.index_of(n) for n in names]
        assert ids == (case if isinstance(case, int) else list(case))


X_EVENT = (0, 1, 0, 0)  # moved by every boost but D = 1
# the cases at X_EVENT that a wrong factor there fails: its three factors in
# the boost row; in the composition a boost by D + 1 then E against one by
# DE + 1, which differ unless E = 1
WRONG_FACTOR_FAILS = {"C09.doppler-boost": 3, "C09.doppler-composition": 6}


@pytest.mark.parametrize("row_id", WRONG_FACTOR_FAILS)
def test_a_wrong_doppler_factor_fails_the_boost_rows(monkeypatch, row_id):
    failing = WRONG_FACTOR_FAILS[row_id]
    cases, _, show = _declared(verify.check_minkowski, row_id)
    target, real = event_element(X_EVENT), verify.doppler_boost
    # D + 1 in place of D, on the element of one event only
    monkeypatch.setattr(verify, "doppler_boost", lambda z, d: real(z, d + 1 if z == target else d))
    row = {r.check_id: r for r in verify.check_minkowski(7)}[row_id]
    monkeypatch.undo()
    assert (row.passed, row.lhs) == (False, f"{len(cases) - failing}/{len(cases)} agree")
    # the first case at the event, with E other than 1 in a composition
    first = next(i for i, case in enumerate(cases) if case[-1] == X_EVENT and 1 not in case[1:-1])
    inputs = row.witness["inputs"]
    assert (row.witness["index"], inputs) == (first, show(cases[first]))
    *factors, event = cases[first]
    assert [parse_rational(inputs[k]) for k in ("D", "E") if k in inputs] == factors
    assert tuple(map(parse_rational, inputs["event"])) == event


@pytest.mark.parametrize("row_id, spoil, lhs_of", [
    # 2A has determinant 4, so det(2A H (2A)+) = 16 det H
    ("C09.spinor-determinant", lambda c: (c[0].scale(2), c[1]),
     lambda c: str(_observable(c[1]).determinant() * 16)),
    # A H A+ is Hermitian for every A, but not for the H of an event with
    # T = i, which is i times the identity
    ("C09.spinor-hermitian", lambda c: (c[0], (I_UNIT, 0, 0, 0)),
     lambda c: str(_spinor(c[0], SquareMatrix.identity(2).scale(I_UNIT)))),
])
def test_a_broken_spinor_case_fails_its_row(row_id, spoil, lhs_of):
    cases, relation, show = _declared(verify.check_minkowski, row_id)
    cases[BROKEN] = spoil(cases[BROKEN])
    row = _rows([(row_id, "broken", cases, relation, show)])[row_id]
    assert (row.passed, row.witness["index"], row.witness["lhs"]) == (
        False, BROKEN, lhs_of(cases[BROKEN]))
    inputs = row.witness["inputs"]
    assert SquareMatrix.from_lists(inputs["A"]) == cases[BROKEN][0]
    assert tuple(map(parse_scalar, inputs["event"])) == cases[BROKEN][1]


def _elementary(x) -> list[SquareMatrix]:
    """E12(x) and E21(x)."""
    return [SquareMatrix.from_rows([[1, x], [0, 1]]), SquareMatrix.from_rows([[1, 0], [x, 1]])]


def _spinor_grid(events: set) -> list:
    """Each E12(x) and E21(x) at x = u + vi, u, v in {0, 1, 2}, on each event,
    E12(0) = E21(0) = 1 twice over."""
    return [(a, event) for u, v in itertools.product(range(3), repeat=2)
            for a in _elementary(GaussianRational(u, v)) for event in events]


def test_the_spinor_matrices_are_unimodular():
    cases, _, _ = _declared(verify.check_minkowski, "C09.spinor-determinant")
    spinors = {a for a, _ in cases}
    # the 9 E12(x) and 9 E21(x), which share x = 0
    assert len(spinors) == 17 and all(a.determinant() == 1 for a in spinors)


FRAMES = {dim: dirac.dirac_frame(dim) for dim in ("1d", "3d")}


# The matrix products of the costliest kernels, counted as perfbench's tracer
# counts them, call by call: dirac.relations builds its terms and both (U, U+)
# pairs once, and the frame's ba and ab on its first call on a frame only, and
# C10 each w = c_{k+1} c_k once per ladder and k, with no product in
# C10.images' sums of span-matrix rows and none in building a ladder, whose
# generators are iterant terms, so an edit that builds an operator again per
# use fails here.
@pytest.mark.parametrize("run, products", [
    (lambda frames: list(dirac.relations(frames["1d"], dirac.OnShellParams.of(5, 3, 4))),
     [22, 20]),
    (lambda frames: list(dirac.relations(frames["3d"], dirac.OnShellParams.of(3, (1, 2, 2), 0))),
     [22, 20]),
    (lambda frames: verify.check_braiding(7), [366]),
], ids=["relations-1d", "relations-3d", "check-braiding"])
def test_each_operator_is_built_once_per_case(monkeypatch, run, products):
    # a copy of a frame holds its fields and none of the products it keeps
    frames = {dim: dataclasses.replace(frame) for dim, frame in FRAMES.items()}
    counts = []
    multiply = SquareMatrix.__mul__

    def counted(self, other):
        counts[-1] += isinstance(other, SquareMatrix)
        return multiply(self, other)

    monkeypatch.setattr(SquareMatrix, "__mul__", counted)
    for _ in products:
        counts.append(0)
        run(frames)
    assert counts == products


def test_a_ladder_that_breaks_a_relation_fails_both_relation_rows(monkeypatch):
    real = clifford.clifford_generators

    def broken(n):
        ladder = real(n)
        if n != 4:
            return ladder
        c1, _, *rest = ladder
        return (c1, c1, *rest)

    monkeypatch.setattr(clifford, "clifford_generators", broken)
    rows = {r.check_id: r for r in verify.check_braiding(7)}
    monkeypatch.undo()
    ladder = rows["C10.ladder-relations"]
    # three relations at n = 2 and six at n = 3 come first; c1 c1 = 1 against -1
    assert (ladder.passed, ladder.witness["index"], ladder.witness["inputs"]) == (
        False, 10, {"n": 4, "i": 1, "j": 2})
    assert (ladder.witness["lhs"], ladder.witness["rhs"]) == (
        str(SquareMatrix.identity(4)), str(-SquareMatrix.identity(4)))
    images = rows["C10.images"]
    # two cases at n = 2 and six at n = 3 come first; c2 c1 = c1 c1 = 1, so the
    # conjugation (1 + c2 c1) c1 (1 - c2 c1)/2 sends c1 to 0, not to c2
    assert (images.passed, images.witness["index"], images.witness["inputs"]) == (
        False, 8, {"n": 4, "k": 1, "j": 1})
    assert (images.witness["lhs"], images.witness["rhs"]) == (
        str(SquareMatrix.zero(4)), str(broken(4)[1]))


def test_an_unsigned_span_matrix_fails_the_images_row_alone(monkeypatch):
    # c_{k+1} -> +c_k on the ladder of 5: the swaps still satisfy the braid
    # relations, so only the comparison with the conjugation sees it
    real = clifford.braid_basis_matrix

    def unsigned(n, k):
        span = real(n, k)
        return span if n != 5 else SquareMatrix.from_rows(
            [[abs(c.re) for c in row] for row in span.rows])

    monkeypatch.setattr(clifford, "braid_basis_matrix", unsigned)
    rows = {r.check_id: r for r in verify.check_braiding(7)}
    monkeypatch.undo()
    images = rows["C10.images"]
    # 2, 6 and 12 cases at n = 2, 3, 4 come first; then c_1 and c_2 at n = 5,
    # k = 1, and conjugation sends c_2 to -c_1
    assert (images.passed, images.lhs, images.witness["index"], images.witness["inputs"]) == (
        False, "66/70 agree", 21, {"n": 5, "k": 1, "j": 2})
    ladder = clifford.clifford_generators(5)
    assert (images.witness["lhs"], images.witness["rhs"]) == (str(-ladder[0]), str(ladder[0]))
    assert rows["C10.braid-relations"].passed and rows["C10.order-four"].passed


# The rows that check an identity once over a basis, and what their argument
# needs of the cases: a row that skipped one would prove nothing.
def _flat(m: SquareMatrix) -> list:
    return [c for row in m.rows for c in row]


def _exactly(cases, needed: set) -> bool:
    """The cases are the needed ones, each once."""
    return len(cases) == len(needed) and set(cases) == needed


def _generator_needs(name: str) -> set:
    """Every (s, h) and (s, e_i) for s in groups.generators(G)."""
    group = groups.builtin_group(name)
    algebra = regular_algebra(group)
    order, n, gens = group.order, algebra.degree, groups.generators(group)
    elements = [algebra.element_of(g) for g in range(order)]
    units = [algebra.vector([int(k == i) for k in range(n)]) for i in range(n)]
    needed = {(elements[s], y) for s in gens for y in elements + units}
    assert len(needed) == len(gens) * (order + n)
    return needed


def _c04_algebra(name: str):
    return regular_algebra(groups.builtin_group(name))


def _period_two_polarization() -> set:
    """The 4 basis elements of the period-two algebra and their 6 pairwise sums."""
    basis = period_two_algebra().basis()
    return set(basis) | {a + b for a, b in itertools.combinations(basis, 2)}


def _unit_events() -> set:
    return {tuple(int(k == i) for k in range(4)) for i in range(4)}


def _polarization_events() -> set:
    """The 4 unit events (T, X, Y, Z) and their 6 pairwise sums."""
    units = _unit_events()
    return units | {tuple(map(sum, zip(a, b))) for a, b in itertools.combinations(units, 2)}


def _factor_grid(cases, values: int, axes: int, events: set | None = None) -> bool:
    """The cases are every tuple of `axes` Doppler factors from one set of
    `values` distinct D > 0, followed by each of the events if there are
    any, each once: a polynomial of degree values - 1 in each factor."""
    factors = {d for case in cases for d in case[:axes]}
    needed = set(itertools.product(factors, repeat=axes))
    if events is not None:
        needed = {(*ds, event) for ds in needed for event in events}
    return len(factors) == values and min(factors) > 0 and _exactly(cases, needed)


TICK_SIZES = {Fraction(1), Fraction(2, 3)}  # one of them not an integer


def _tick_units() -> list:
    """The unit sequences of the 4-tick window from tick 0."""
    return [discrete.Sequence.from_values([int(k == i) for k in range(4)]) for i in range(4)]


def _at_each_tick_size(sequences) -> set:
    return {(x, dt) for x in sequences for dt in TICK_SIZES}


def _in_the_window_and_once_past_it(cases, sequences) -> bool:
    """Each sequence at each tick size, then one case, at one of the tick
    sizes, whose window starts past the window of the units."""
    *inside, (past, dt) = cases
    return (_exactly(inside, _at_each_tick_size(sequences))
            and past.start >= len(_tick_units()) and dt in TICK_SIZES)


def _ticks_every_unit_field(row_id: str) -> bool:
    """Each (cells, r) case of the row ticks exactly the 2 cells unit fields of
    its ring, seen by a wrapper around schrodinger.ticks as the criterion
    declares the row and the relation runs."""
    real, started = schrodinger.ticks, []

    def recording(cfg, even, odd):
        started.append((cfg.cells, cfg.ratio, (*even, *odd)))
        return real(cfg, even, odd)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schrodinger, "ticks", recording)
        cases, relation, _ = _declared(verify.check_schrodinger, row_id)
        for case in cases:
            relation(case)
    units = [(cells, r, tuple(int(i == j) for i in range(2 * cells)))
             for cells, r in cases for j in range(2 * cells)]
    return sorted(started) == sorted(units)


def _every_mode(cases) -> bool:
    """The cases are each mode of each ring of C17.pair-map once, and each
    ring's modes have rank cells, so they span its fields."""
    rings, _, _ = _declared(verify.check_schrodinger, "C17.pair-map")
    for cells, r in rings:
        chosen = {case[2:] for case in cases if case[:2] == (cells, r)}
        vectors = [[GaussianRational(x) for x in v]
                   for k, mode, _, v in verify._modes(cells) if (k, mode) in chosen]
        if len(chosen) != cells or matrep._matrix_rank(vectors) != cells:
            return False
    return len(set(cases)) == len(cases) == sum(cells for cells, _ in rings)


# w = (p, m) has 2 coordinates in 1d and 4 in 3d
SHELL_N = {"1d": 2, "3d": 4}
C14_RELATIONS = (
    *(f"conjugate-{kind}" for kind in ("u-squared", "dagger-squared", "anticommutator",
                                       "sum-squared", "diff-squared")),
    *(f"time_reversed-{kind}" for kind in ("u-squared", "dagger-squared", "anticommutator",
                                           "diff-squared")),
    "split-a-squared", "split-b-squared", "split-anticommute", "split-rebuild", "plane-wave")


PROOF_ROWS = {
    "C02.product-match": (
        verify.check_matrix_identity,
        lambda cases: (len(set(cases)) == 16
                       and set(cases) == set(itertools.product(period_two_algebra().basis(),
                                                               repeat=2)))),
    # the 10 polarization elements, and every pair of them
    "C03.det-equals-matrix-det": (
        verify.check_determinant_bridge, lambda cases: _exactly(cases, _period_two_polarization())),
    "C03.two-sided": (
        verify.check_determinant_bridge, lambda cases: _exactly(cases, _period_two_polarization())),
    "C03.multiplicative": (
        verify.check_determinant_bridge,
        lambda cases: _exactly(cases,
                               set(itertools.product(_period_two_polarization(), repeat=2)))),
    # C09: the unit events where a row is linear in the event, the 10
    # polarization events where it is quadratic, and t + 1 Doppler factors
    # where it has degree t in each
    **{f"C09.{row}": (verify.check_minkowski, lambda cases: _exactly(cases, _unit_events()))
       for row in ("iterant-form", "trace", "hermitian")},
    "C09.determinant": (
        verify.check_minkowski, lambda cases: _exactly(cases, _polarization_events())),
    "C09.doppler-boost": (
        verify.check_minkowski, lambda cases: _factor_grid(cases, 3, 1, _polarization_events())),
    "C09.doppler-composition": (
        verify.check_minkowski, lambda cases: _factor_grid(cases, 3, 2, _unit_events())),
    "C09.velocity-addition": (verify.check_minkowski, lambda cases: _factor_grid(cases, 5, 2)),
    # E12(x) and E21(x) at the 3 x 3 grid of x = u + vi, where each side has
    # degree 2 in u and in v, on the events its degree in the event needs
    "C09.spinor-determinant": (
        verify.check_minkowski,
        lambda cases: Counter(cases) == Counter(_spinor_grid(_polarization_events()))),
    "C09.spinor-hermitian": (
        verify.check_minkowski,
        lambda cases: Counter(cases) == Counter(_spinor_grid(_unit_events()))),
    # the 8 triples of the basis {1, P}
    "C12.commutative-associative": (
        verify.check_fusion, lambda cases: _exactly(cases, set(itertools.product("1P", repeat=3)))),
    # the generator cases of matrep's proof, and every basis element e_i g
    **{f"C04.{name}-homomorphism": (
        verify.check_g_table_theorem,
        lambda cases, name=name: (
            cases == matrep.generator_cases(_c04_algebra(name),
                                            groups.generators(groups.builtin_group(name)))
            and _exactly(cases, _generator_needs(name))))
       for name in ("c3", "c6", "s3", "klein4")},
    **{f"C04.{name}-basis-images": (
        verify.check_g_table_theorem,
        lambda cases, name=name: cases == _c04_algebra(name).basis())
       for name in ("c3", "c6", "s3", "klein4")},
    # every (n, k, j) of the ladders of 2 to 6 generators
    "C10.images": (
        verify.check_braiding,
        lambda cases: _exactly(cases, {(n, k, j) for n in range(2, 7) for k in range(1, n)
                                       for j in range(1, n + 1)})),
    **{f"C07.n{n}-roundtrip": (
        verify.check_decomposition,
        lambda cases, n=n: matrep._matrix_rank([_flat(m) for m in cases]) == n * n)
       for n in (2, 3, 4)},
    "C08.criteria-agree": (
        verify.check_kernel,
        lambda cases: len(set(cases)) == 18 and set(cases) == set(natural_sn_algebra(3).basis())),
    # every forest of at most ENUMERATED_MARKS marks, each multiset once
    "C13.confluence": (
        verify.check_lof,
        lambda cases: [expr.text for expr in cases]
        == [text for marks in range(verify.ENUMERATED_MARKS + 1) for text in lof.forests(marks)]),
    # e_i and e_i + e_j in (E, p, m), the polarization of a quadratic form
    "C14.off-shell-scalar": (
        verify.check_dirac,
        lambda cases: {(e, *p, m) for e, p, m in cases}
        == {tuple(int(k in ij) for k in range(3))
            for ij in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))}),
    # each relation on the shell points of its frame, which fix it on the
    # shell (test_the_shell_points_fix_a_quadratic_form_on_the_shell)
    **{f"C14.{dim}-{name}": (
        verify.check_dirac,
        lambda cases, dim=dim: [case[:3] for case in cases] == verify._shell_points(SHELL_N[dim]))
       for dim in SHELL_N for name in C14_RELATIONS},
    # the 4 unit sequences of a 4-tick window and their 6 pairwise sums, or
    # the units alone, at each of the two tick sizes, and one case past the
    # window; the premise that makes the window enough is tested in
    # test_discrete.py
    "C16.commutator-identity": (
        verify.check_discrete,
        lambda cases: _in_the_window_and_once_past_it(cases, _tick_units() + [
            a + b for a, b in itertools.combinations(_tick_units(), 2)])),
    "C16.derivative-commutator": (
        verify.check_discrete,
        lambda cases: _in_the_window_and_once_past_it(cases, _tick_units())),
    "C17.dispersion": (verify.check_schrodinger, _every_mode),
}


@pytest.mark.parametrize("row_id", [*PROOF_ROWS, "C17.pair-map"])
def test_each_proof_row_covers_what_its_argument_needs(row_id):
    if row_id == "C17.pair-map":  # the cases are rings; what it needs is their unit fields
        assert _ticks_every_unit_field(row_id)
        return
    check, covers = PROOF_ROWS[row_id]
    cases, _, _ = _declared(check, row_id)
    assert covers(cases)


@pytest.mark.parametrize("dim", SHELL_N)
def test_the_shell_points_fix_a_quadratic_form_on_the_shell(dim):
    points = verify._shell_points(SHELL_N[dim])
    assert all(dirac.OnShellParams.of(*point).on_shell for point in points)

    def rank(chosen) -> int:
        # the degree-2 monomials of (E, w) = (E, p, m) at each point
        return matrep._matrix_rank(
            [[GaussianRational(a * b)
              for a, b in itertools.combinations_with_replacement((e, *p, m), 2)]
             for e, p, m in chosen])

    # the quadratic forms in n + 1 variables, less the one shell form, which
    # vanishes on every point: the points fix every other form
    n = SHELL_N[dim]
    assert rank(points) == len(points) == (n + 1) * (n + 2) // 2 - 1
    assert all(rank(points[:k] + points[k + 1:]) == len(points) - 1 for k in range(len(points)))


def _with_cross_term(name: str):
    """dirac.relations with w_1 w_2 times the identity added to the lhs of the
    named relation: p m in 1d and p_1 p_2 in 3d."""
    real = dirac.relations

    def relations(frame, params):
        for rel, lhs, rhs in real(frame, params):
            if rel == name:
                w1, w2 = (*params.momentum, params.mass)[:2]
                lhs += SquareMatrix.identity(frame.dim).scale(w1 * w2)
            yield rel, lhs, rhs
    return relations


# w_1 w_2 vanishes at the units (1, +-e_k) and at every (5, 3e_k + 4e_l) but
# (5, 3e_1 + 4e_2); a <version>-<relation> witness names its version, so
# dirac verify checks the relation that failed, not the default version's
@pytest.mark.parametrize("dim, name, index, inputs", [
    ("1d", "time_reversed-u-squared", 4,
     {"E": "5", "p": "3", "m": "4", "dim": "1d", "version": "time_reversed"}),
    ("3d", "time_reversed-anticommutator", 8,
     {"E": "5", "p": "3,4,0", "m": "0", "dim": "3d", "version": "time_reversed"}),
    ("1d", "conjugate-u-squared", 4,
     {"E": "5", "p": "3", "m": "4", "dim": "1d", "version": "conjugate"}),
    ("3d", "conjugate-sum-squared", 8,
     {"E": "5", "p": "3,4,0", "m": "0", "dim": "3d", "version": "conjugate"}),
    ("1d", "split-a-squared", 4, {"E": "5", "p": "3", "m": "4", "dim": "1d"}),
])
def test_a_cross_term_fails_one_shell_point_with_a_witness_that_dirac_verify_reads_back(
        monkeypatch, dim, name, index, inputs):
    monkeypatch.setattr(dirac, "relations", _with_cross_term(name))
    row = {r.check_id: r for r in verify.check_dirac(7)}[f"C14.{dim}-{name}"]
    count = len(verify._shell_points(SHELL_N[dim]))
    assert (row.passed, row.lhs) == (False, f"{count - 1}/{count} agree")
    assert (row.witness["index"], row.witness["inputs"]) == (index, inputs)
    params = dirac.OnShellParams.of(
        parse_rational(inputs["E"]), tuple(map(parse_rational, inputs["p"].split(","))),
        parse_rational(inputs["m"]))
    lhs, rhs = {rel: (l, r) for rel, l, r in dirac.relations(FRAMES[dim], params)}[name]
    assert (str(lhs), str(rhs)) == (row.witness["lhs"], row.witness["rhs"]) and lhs != rhs
    argv = ["dirac", "verify", *itertools.chain.from_iterable(
        (f"--{flag}", value) for flag, value in inputs.items())]
    assert cli.main(argv) == 1
    monkeypatch.undo()
    assert cli.main(argv) == 0


def _dirac_verify_report(capsys, inputs: dict) -> dict[str, bool]:
    """Each check dirac verify reports for the witness inputs, by name, each
    flag and its value passed as two arguments, as in --p -1,0,0."""
    cli.main(["dirac", "verify", *(arg for flag, value in inputs.items()
                                   for arg in (f"--{flag}", str(value)))])
    return {c["check"]: c["pass"] for c in json.loads(capsys.readouterr().out)["checks"]}


# with no term added every point agrees; with one, a single point of one row
# does not, and dirac verify must then fail that relation alone
@pytest.mark.parametrize("patched", [None, "conjugate-diff-squared", "split-a-squared"])
def test_dirac_verify_reports_each_c14_relation_at_each_shell_point(monkeypatch, capsys, patched):
    if patched:
        monkeypatch.setattr(dirac, "relations", _with_cross_term(patched))
    reports, disagree = {}, []
    for row_id, _, cases, relation, show in verify.check_dirac.__wrapped__(7):
        dim, _, name = row_id.removeprefix("C14.").partition("-")
        if dim not in SHELL_N:
            continue
        for case in cases:
            inputs = show(case)
            flags = tuple(inputs.items())
            if flags not in reports:
                reports[flags] = _dirac_verify_report(capsys, inputs)
            lhs, rhs = relation(case)
            assert reports[flags][name] is (lhs == rhs), (row_id, inputs)
            disagree += [(name, inputs["dim"])] if lhs != rhs else []
    assert disagree == ([] if patched is None else [(patched, "1d"), (patched, "3d")])
    # and it reports nothing else: on_shell, then exactly the relations of the
    # rows whose witnesses carry its flags
    for flags, report in reports.items():
        inputs = dict(flags)
        version = inputs.get("version", "time_reversed")
        assert list(report) == ["on_shell", *(
            name for name in C14_RELATIONS
            if name.startswith(f"{version}-") or not name.startswith(dirac.VERSIONS))]
        assert report["on_shell"]


# The premise of the C14 shell rows: times E^k, lhs - rhs of every relation
# is a quadratic form in (E, w).  k is 2 for split-a-squared, whose A carries
# 1/E, and 0 for the rest.
POWER_OF_E = {"split-a-squared": 2}
_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _cleared(frame, v) -> dict:
    """E^k (lhs - rhs) at v = (E, w), by relation and side component."""
    e, *p, m = v
    cleared = {}
    for name, lhs, rhs in dirac.relations(frame, dirac.OnShellParams.of(e, tuple(p), m)):
        pairs = zip(lhs, rhs) if isinstance(lhs, tuple) else [(lhs, rhs)]
        for k, (l, r) in enumerate(pairs):
            cleared[name, k] = (l - r).scale(e ** POWER_OF_E.get(name, 0))
    return cleared


@pytest.mark.parametrize("dim", SHELL_N)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_each_relation_times_a_power_of_e_is_a_quadratic_form(dim, data):
    coordinates = st.lists(_SMALL, min_size=SHELL_N[dim] + 1, max_size=SHELL_N[dim] + 1)
    v, step = data.draw(coordinates), data.draw(coordinates)
    scale = data.draw(_SMALL.filter(lambda x: x not in (0, 1, -1)))
    line = [[a + t * b for a, b in zip(v, step)] for t in range(4)]
    assume(all(point[0] != 0 for point in line))
    assume(not dirac.OnShellParams.of(v[0], tuple(v[1:-1]), v[-1]).on_shell)
    frame = FRAMES[dim]
    f0, f1, f2, f3 = (_cleared(frame, point) for point in line)
    scaled = _cleared(frame, [scale * a for a in v])
    assert len(f0) == 16
    for key, at_v in f0.items():
        # a zero third difference along the line: degree at most 2
        assert (f3[key] - f2[key].scale(3) + f1[key].scale(3) - at_v).is_zero(), key
        # and homogeneous: no part of degree 0 or 1
        assert scaled[key] == at_v.scale(scale * scale), key


def _wrapless_difference(values):
    """The stencil with its two wrap terms dropped: the ring cut open at its seam."""
    padded = [0, *values, 0]
    return [(a - 2 * b) + c for a, b, c in zip(padded, padded[1:], padded[2:])]


@pytest.mark.parametrize("row_id", ["C17.pair-map", "C17.conserved-form"])
def test_a_stencil_without_its_wrap_fails_each_exact_lattice_row(monkeypatch, row_id):
    monkeypatch.setattr(schrodinger, "second_difference", _wrapless_difference)
    row = {r.check_id: r for r in verify.check_schrodinger(7)}[row_id]
    assert not row.passed and row.witness is not None
    inputs = row.witness["inputs"]
    case = (inputs["cells"], parse_rational(inputs["r"]))
    _, relation, _ = _declared(verify.check_schrodinger, row_id)
    lhs, rhs = relation(case)
    assert (str(lhs), str(rhs)) == (row.witness["lhs"], row.witness["rhs"])
    assert lhs != rhs


def _odd_tick_flipped(cfg, even, odd):
    """schrodinger.ticks with the sign of its odd tick flipped:
    psi_o += r * stencil(psi_e)."""
    e, o, r = list(even), list(odd), cfg.ratio
    yield e, o
    for tick in range(cfg.steps):
        if tick % 2 == 0:
            e = [v + r * d for v, d in zip(e, schrodinger.second_difference(o))]
        else:
            o = [v + r * d for v, d in zip(o, schrodinger.second_difference(e))]
            yield e, o


def test_a_flipped_odd_tick_fails_the_dispersion_row_on_every_mode_that_turns(monkeypatch):
    # the pair map becomes [[I, rL], [rL, I + r^2 L^2]]: P(v, 0) = (v, +mu v),
    # which is right only where mu = r lambda = 0, on the k = 0 modes
    monkeypatch.setattr(schrodinger, "ticks", _odd_tick_flipped)
    row = {r.check_id: r for r in verify.check_schrodinger(7)}["C17.dispersion"]
    cases, relation, show = _declared(verify.check_schrodinger, "C17.dispersion")
    failing = [case for case in cases if operator.ne(*relation(case))]
    assert failing == [case for case in cases if case[2] != 0] and len(failing) == 11
    assert (row.passed, row.lhs) == (False, f"4/{len(cases)} agree")
    inputs = row.witness["inputs"]
    case = (inputs["cells"], parse_rational(inputs["r"]), inputs["k"], inputs["mode"])
    assert case == failing[0] == cases[row.witness["index"]] and show(case) == inputs
    lhs, rhs = relation(case)
    assert (verify._text(lhs), verify._text(rhs)) == (row.witness["lhs"], row.witness["rhs"])


@pytest.mark.parametrize("part", ["re", "im"])
def test_a_spinor_map_right_at_0_and_1_fails_both_spinor_rows_at_2(monkeypatch, part):
    # adds p(p-1)/2 [[0, 1], [0, 0]] to A H A+, for p the real or imaginary
    # part of A's x: right at p = 0 and 1, so a 2 x 2 grid would pass it,
    # though each side has degree 2 in p
    def off(a: SquareMatrix):
        return getattr(a.rows[0][1] + a.rows[1][0], part)

    real, nudge = verify._spinor, SquareMatrix.from_rows([[0, 1], [0, 0]])
    monkeypatch.setattr(verify, "_spinor",
                        lambda a, h: real(a, h) + nudge.scale(off(a) * (off(a) - 1) / 2))
    rows = {r.check_id: r for r in verify.check_minkowski(7)}
    for row_id in ("C09.spinor-determinant", "C09.spinor-hermitian"):
        row = rows[row_id]
        cases, relation, show = _declared(verify.check_minkowski, row_id)
        at_two = [i for i, (a, _) in enumerate(cases) if off(a) == 2]
        assert (row.passed, row.witness["index"]) == (False, at_two[0])
        inputs = row.witness["inputs"]
        case = (SquareMatrix.from_lists(inputs["A"]), tuple(map(parse_rational, inputs["event"])))
        assert case == cases[at_two[0]] and show(case) == inputs
        lhs, rhs = relation(case)
        assert (verify._text(lhs), verify._text(rhs)) == (row.witness["lhs"], row.witness["rhs"])
        assert lhs != rhs
    # A H A+ fails hermiticity at every case at 2: three values of the other
    # part, two generators, four unit events
    assert rows["C09.spinor-hermitian"].lhs == "48/72 agree"


def _inner_dropping(successors):
    """successors with every crossing rewritten to the empty mark, (()) to (),
    where it should vanish; a text's crossings are exactly its (()) spans."""
    def broken(expr):
        marks = expr.text.count("(")
        callings = [after for after in successors(expr) if after.text.count("(") == marks - 1]
        return callings + [lof.MarkExpr(expr.text[:span.start() + 1] + expr.text[span.start() + 3:])
                           for span in re.finditer(re.escape("(())"), expr.text)]
    return broken


def test_a_crossing_that_keeps_its_mark_fails_the_confluence_proof_with_a_witness(monkeypatch):
    monkeypatch.setattr(lof, "successors", _inner_dropping(lof.successors))
    row = {r.check_id: r for r in verify.check_lof(7)}["C13.confluence"]
    assert not row.passed and row.witness["inputs"] == {"expression": "(())"}
    _, relation, _ = _declared(verify.check_lof, "C13.confluence")
    lhs, rhs = relation(lof.parse(row.witness["inputs"]["expression"]))
    assert (verify._text(lhs), verify._text(rhs)) == (row.witness["lhs"], row.witness["rhs"])
    assert lhs != rhs


@pytest.mark.parametrize("row_id, check", [
    ("C02.product-match", verify.check_matrix_identity),
    *((f"C04.{name}-homomorphism", verify.check_g_table_theorem)
      for name in ("c3", "c6", "s3", "klein4")),
])
def test_an_unshifted_product_fails_each_product_row_with_a_witness_that_reads_back(
        monkeypatch, row_id, check):
    # (a g)(b h) = (a.b)(gh): the twisted product without its twist
    monkeypatch.setattr(IterantAlgebra, "shifted_vector", lambda self, vec, g: vec)
    row = {r.check_id: r for r in check(7)}[row_id]
    assert not row.passed and row.witness is not None
    inputs = row.witness["inputs"]
    if row_id.startswith("C02."):
        pair = tuple(parse_period2(text) for text in inputs)
    else:
        algebra = regular_algebra(groups.builtin_group(row_id.split(".")[1].split("-")[0]))
        pair = tuple(element_from_json(algebra, obj) for obj in inputs)
    lhs, rhs = matrep.product_relation(pair)
    assert (str(lhs), str(rhs)) == (row.witness["lhs"], row.witness["rhs"])
    assert lhs != rhs


def test_a_swap_of_two_points_fails_each_basis_images_row_with_a_witness_that_reads_back(
        monkeypatch):
    # conjugating to_matrix by the swap of points 0 and 1 keeps every product,
    # so the homomorphism rows pass, but moves M(e_0) = E_00 to E_11
    plain = matrep.to_matrix

    def swapped(x):
        swap = groups.perm_matrix((1, 0) + tuple(range(2, x.algebra.degree)))
        return swap * plain(x) * swap

    monkeypatch.setattr(matrep, "to_matrix", swapped)
    rows = {r.check_id: r for r in verify.check_g_table_theorem(7)}
    for name in ("c3", "c6", "s3", "klein4"):
        assert rows[f"C04.{name}-homomorphism"].passed
        row = rows[f"C04.{name}-basis-images"]
        assert (row.passed, row.witness["index"]) == (False, 0)
        b = element_from_json(_c04_algebra(name), row.witness["inputs"])
        assert b == _c04_algebra(name).basis()[0]
        lhs, rhs = matrep.basis_image(b)
        assert (str(lhs), str(rhs)) == (row.witness["lhs"], row.witness["rhs"])
        assert lhs != rhs


def test_c04_builds_each_image_once_for_its_two_proof_rows(monkeypatch):
    # per group of order n, the n^2 basis elements e_i g and the n elements g
    built = []
    plain = matrep.to_matrix
    monkeypatch.setattr(matrep, "to_matrix", lambda x: built.append(x) or plain(x))
    assert all(row.passed for row in verify.check_g_table_theorem(7))
    assert len(built) == sum(n * n + n for n in (3, 6, 6, 4))


@pytest.mark.parametrize("check", verify.ALL_CHECKS)
def test_a_criterion_that_draws_nothing_gives_the_same_rows_at_every_seed(check):
    rows = [check(seed) for seed in range(1, 11)]
    assert rows[0] and all(seeded == rows[0] for seeded in rows[1:])


def _nonzero_coordinates(z) -> int:
    return sum(not c.is_zero() for g in ("1", "e") for c in z.coefficient(g))


@pytest.mark.parametrize("row_id", ["C03.det-equals-matrix-det", "C03.multiplicative"])
def test_a_determinant_wrong_only_off_the_basis_fails_c03_with_a_witness_that_reads_back(
        monkeypatch, row_id):
    # D + 1 on the elements with two nonzero coordinates: right on every basis
    # element, so only the pairwise sums see it
    real = verify.determinant_period2
    monkeypatch.setattr(verify, "determinant_period2",
                        lambda z: real(z) + 1 if _nonzero_coordinates(z) == 2 else real(z))
    row = {r.check_id: r for r in verify.check_determinant_bridge(7)}[row_id]
    assert not row.passed and row.witness is not None
    inputs = row.witness["inputs"]
    if row_id == "C03.det-equals-matrix-det":
        # the four basis elements agree, their six sums do not
        assert (row.lhs, row.witness["index"]) == ("4/10 agree", 4)
        case = parse_period2(inputs)
        assert _nonzero_coordinates(case) == 2
    else:
        case = tuple(parse_period2(text) for text in inputs)
        assert max(map(_nonzero_coordinates, case)) == 2
    _, relation, _ = _declared(verify.check_determinant_bridge, row_id)
    lhs, rhs = relation(case)
    assert (str(lhs), str(rhs)) == (row.witness["lhs"], row.witness["rhs"])
    assert lhs != rhs


def _nonzero_event_coordinates(z) -> int:
    """How many of T, X, Y, Z are nonzero in z = [T+X, T-X] + [Y+Zi, Y-Zi]e."""
    (a, b), (c, d) = z.coefficient("1"), z.coefficient("e")
    return sum(not v.is_zero() for v in (a + b, a - b, c + d, c - d))


def test_a_determinant_wrong_only_off_the_unit_events_fails_c09_with_a_witness_that_reads_back(
        monkeypatch):
    # D + 1 on the events with two nonzero coordinates: right on the four
    # units, so only their six pairwise sums see it
    real = verify.determinant_period2
    monkeypatch.setattr(verify, "determinant_period2",
                        lambda z: real(z) + 1 if _nonzero_event_coordinates(z) == 2 else real(z))
    row = {r.check_id: r for r in verify.check_minkowski(7)}["C09.determinant"]
    assert (row.passed, row.lhs, row.witness["index"]) == (False, "4/10 agree", 4)
    event = tuple(map(parse_rational, row.witness["inputs"]))
    assert sum(map(bool, event)) == 2
    _, relation, _ = _declared(verify.check_minkowski, "C09.determinant")
    lhs, rhs = relation(event)
    assert (str(lhs), str(rhs)) == (row.witness["lhs"], row.witness["rhs"])
    assert lhs != rhs


def test_a_boost_right_at_two_factors_fails_the_boost_row_at_the_third(monkeypatch):
    # adds (D-1)(D-2) [1, 0]: right at D = 1 and 2, so two factors would pass
    # it, though each side has degree 2 in D
    real, algebra = verify.doppler_boost, period_two_algebra()
    monkeypatch.setattr(verify, "doppler_boost",
                        lambda z, d: real(z, d) + algebra.vector([(d - 1) * (d - 2), 0]))
    row = {r.check_id: r for r in verify.check_minkowski(7)}["C09.doppler-boost"]
    cases, relation, show = _declared(verify.check_minkowski, "C09.doppler-boost")
    third = [i for i, (d, _) in enumerate(cases) if d not in (1, 2)]
    assert len(third) == 10 and len(cases) == 30
    assert (row.passed, row.lhs, row.witness["index"]) == (False, "20/30 agree", third[0])
    inputs = row.witness["inputs"]
    case = (parse_rational(inputs["D"]), tuple(map(parse_rational, inputs["event"])))
    assert case == cases[third[0]] and show(case) == inputs
    lhs, rhs = relation(case)
    assert (verify._text(lhs), verify._text(rhs)) == (row.witness["lhs"], row.witness["rhs"])
    assert lhs != rhs


def test_a_commutator_wrong_only_on_two_tick_sequences_fails_c16_with_a_witness_that_reads_back(
        monkeypatch):
    real = discrete.basic_commutator
    monkeypatch.setattr(discrete, "basic_commutator", lambda x, dt: (
        _doubled_rhs(real(x, dt)) if sum(map(bool, x.nums)) == 2 else real(x, dt)))
    row = {r.check_id: r for r in verify.check_discrete(7)}["C16.commutator-identity"]
    # the 4 units agree at both tick sizes, and so does the case past the
    # window, which is nonzero on all its 4 ticks; the 6 sums agree at neither
    assert (row.passed, row.lhs, row.witness["index"]) == (False, "9/21 agree", 4)
    inputs = row.witness["inputs"]
    x = discrete.Sequence.from_values([parse_rational(v) for v in inputs["seq"].split(",")],
                                      inputs["start"])
    case = (x, parse_rational(inputs["dt"]))
    assert sum(map(bool, x.nums)) == 2 and case[1] in TICK_SIZES
    cases, relation, show = _declared(verify.check_discrete, "C16.commutator-identity")
    assert case == cases[4] and show(case) == inputs
    lhs, rhs = relation(case)
    assert (verify._text(lhs), verify._text(rhs)) == (row.witness["lhs"], row.witness["rhs"])
    assert lhs != rhs


def test_a_generating_set_short_of_its_last_generator_fails_the_generated_rows(monkeypatch):
    # the homomorphism rows still pass on the fewer cases: only the premise
    # row sees that the generators no longer reach the group, and it checks
    # the one generating set that the homomorphism rows run on
    real = groups.generators
    monkeypatch.setattr(groups, "generators", lambda group: real(group)[:-1])
    rows = {r.check_id: r for r in verify.check_g_table_theorem(7)}
    for name, reached in (("s3", "1, R, R^2"), ("klein4", "1, A")):
        group = groups.builtin_group(name)
        # the homomorphism rows take that same set: one fewer s
        cases = (len(real(group)) - 1) * 2 * group.order
        assert rows[f"C04.{name}-homomorphism"].lhs == f"{cases}/{cases} agree"
        assert rows[f"C04.{name}-homomorphism"].passed
        assert rows[f"C04.{name}-basis-images"].passed
        row = rows[f"C04.{name}-generated"]
        assert (row.passed, row.lhs, row.rhs) == (False, reached, ", ".join(group.names))
