import itertools
import random
from fractions import Fraction

import pytest

from iterant_lab import groups, matrep, verify
from iterant_lab.cli import main
from iterant_lab.groups import from_cycles
from iterant_lab.iterants import (
    IterantAlgebra,
    determinant_period2,
    natural_sn_algebra,
    period_two_algebra,
    regular_algebra,
    term_by_permutation,
)
from iterant_lab.matrix import SquareMatrix
from iterant_lab.scalars import GaussianRational


def rand_element(algebra, rng, max_terms=3, span=4):
    total = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        vec = [Fraction(rng.randint(-span, span)) for _ in range(algebra.degree)]
        total = total + algebra.term(vec, rng.randrange(algebra.group.order))
    return total


def rand_matrix(rng, n, span=5):
    return SquareMatrix.from_rows(
        [[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    )


def test_to_matrix_period_two_layout():
    alg = period_two_algebra()
    z = alg.vector([1, 4]) + alg.term([2, 3], "e")
    assert matrep.to_matrix(z) == SquareMatrix.from_rows([[1, 2], [3, 4]])


def test_to_matrix_period_three_layout():
    alg = regular_algebra(groups.cyclic(3))
    a, b, c, d, e, f, g, h, k = (Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7, 8, 9))
    s = "S"
    z = (
        alg.vector([a, b, c])
        + alg.term([d, e, f], s)
        + alg.term([g, h, k], "S^2")
    )
    expected = SquareMatrix.from_rows([[a, d, g], [h, b, e], [f, k, c]])
    assert matrep.to_matrix(z) == expected


def test_to_matrix_identity():
    for alg in (period_two_algebra(), natural_sn_algebra(3)):
        assert matrep.to_matrix(alg.one()) == SquareMatrix.identity(alg.degree)


def test_to_matrix_is_homomorphism():
    rng = random.Random(20)
    algebras = [
        period_two_algebra(),
        regular_algebra(groups.cyclic(3)),
        regular_algebra(groups.symmetric(3)),
        natural_sn_algebra(3),
    ]
    for alg in algebras:
        for _ in range(100):
            x, y = rand_element(alg, rng), rand_element(alg, rng)
            assert matrep.to_matrix(x * y) == matrep.to_matrix(x) * matrep.to_matrix(y)
            assert matrep.to_matrix(x + y) == matrep.to_matrix(x) + matrep.to_matrix(y)


def test_embed_all_ones_matrix():
    m = SquareMatrix.from_rows([[1] * 3 for _ in range(3)])
    element = matrep.embed_matrix(m)
    assert len(element.terms) == 6
    half = GaussianRational(Fraction(1, 2))
    for _, vec in element.terms:
        assert vec == (half, half, half)


def test_embed_identity_2x2():
    element = matrep.embed_matrix(SquareMatrix.identity(2))
    alg = natural_sn_algebra(2)
    assert element == alg.vector([1, 1])


def test_section_property():
    rng = random.Random(21)
    for n in (2, 3, 4):
        for _ in range(34):
            m = rand_matrix(rng, n)
            assert matrep.to_matrix(matrep.embed_matrix(m)) == m


def test_decompose_zero_matrix():
    terms = matrep.decompose_matrix(SquareMatrix.zero(3))
    assert all(all(c.is_zero() for c in t.diag) for t in terms)


def test_decompose_reassembles_random_4x4():
    rng = random.Random(22)
    for _ in range(25):
        m = rand_matrix(rng, 4)
        terms = matrep.decompose_matrix(m)
        assert len(terms) == 24
        assert matrep.reassemble(terms, 4) == m


def test_decompose_worked_3x3():
    m = SquareMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    got = {
        groups.cycle_string(t.perm): tuple(int(c.re) for c in t.diag)
        for t in matrep.decompose_matrix(m)
    }
    assert got == {
        "()": (1, 5, 9),
        "(123)": (2, 6, 7),
        "(132)": (3, 4, 8),
        "(23)": (1, 6, 8),
        "(13)": (3, 5, 7),
        "(12)": (2, 4, 9),
    }
    # the six diagonal-times-permutation products add to 2! times the matrix
    total = SquareMatrix.zero(3)
    for t in matrep.decompose_matrix(m):
        total = total + SquareMatrix.diagonal(t.diag) * groups.perm_matrix(t.perm)
    assert total == m.scale(2)


def test_size_limit():
    with pytest.raises(ValueError, match="n <= 5"):
        matrep.embed_matrix(SquareMatrix.identity(6))
    with pytest.raises(ValueError, match="n <= 5"):
        matrep.decompose_matrix(SquareMatrix.identity(6))


def test_kernel_single_transposition_element():
    alg = natural_sn_algebra(3)
    e1 = [1, 0, 0]
    x = alg.vector(e1) - term_by_permutation(alg, e1, from_cycles(3, "(23)"))
    image = matrep.to_matrix(x)
    assert image.is_zero()
    assert image == matrep.entry_sums(x)
    assert x * x == 2 * x


def test_kernel_circulant_difference():
    alg = natural_sn_algebra(3)
    a, b, c = Fraction(1), Fraction(2), Fraction(3)
    y = (
        alg.scalar(a)
        + term_by_permutation(alg, [b] * 3, from_cycles(3, "(123)"))
        + term_by_permutation(alg, [c] * 3, from_cycles(3, "(132)"))
        - term_by_permutation(alg, [c, a, b], from_cycles(3, "(13)"))
        - term_by_permutation(alg, [b, c, a], from_cycles(3, "(12)"))
        - term_by_permutation(alg, [a, b, c], from_cycles(3, "(23)"))
    )
    assert matrep.to_matrix(y).is_zero()


def test_kernel_nine_parameter_family():
    alg = natural_sn_algebra(3)
    rng = random.Random(23)
    for _ in range(25):
        x, y, z, w, t, r, s, p, q = (Fraction(rng.randint(-5, 5)) for _ in range(9))
        elem = (
            alg.vector([x, y, z])
            + term_by_permutation(alg, [-x, w, t], from_cycles(3, "(23)"))
            + term_by_permutation(alg, [r, -y, s], from_cycles(3, "(13)"))
            + term_by_permutation(alg, [p, q, -z], from_cycles(3, "(12)"))
            + term_by_permutation(alg, [-p, -w, -s], from_cycles(3, "(123)"))
            + term_by_permutation(alg, [-r, -q, -t], from_cycles(3, "(132)"))
        )
        assert matrep.to_matrix(elem).is_zero()


def test_kernel_criteria_agree_on_random_elements():
    alg = natural_sn_algebra(3)
    rng = random.Random(24)
    for _ in range(100):
        elem = rand_element(alg, rng, max_terms=4)
        assert matrep.to_matrix(elem) == matrep.entry_sums(elem)


def test_conjugate_matrix_is_classical_adjoint():
    from iterant_lab.iterants import alternations_and_shifts, conjugate_period2

    alg = period_two_algebra()
    rng = random.Random(26)
    for _ in range(50):
        z = rand_element(alg, rng)
        m = matrep.to_matrix(z)
        adj = matrep.to_matrix(conjugate_period2(z))
        # adjugate property: M adj(M) = adj(M) M = det(M) I
        det = m.determinant()
        assert m * adj == SquareMatrix.identity(2).scale(det)
        assert adj * m == SquareMatrix.identity(2).scale(det)
    # the bare shift conjugates to its negative
    (_, e), = alternations_and_shifts(1)
    assert conjugate_period2(e) == -e


def test_determinant_bridge():
    alg = period_two_algebra()
    rng = random.Random(25)
    for _ in range(100):
        z = rand_element(alg, rng)
        assert determinant_period2(z) == matrep.to_matrix(z).determinant()


def test_iso_check_cyclic_regular():
    report = matrep.iso_check(regular_algebra(groups.cyclic(3)))
    assert report["isomorphism"]
    assert report["algebra_dim"] == 9 == report["matrix_dim"]


def test_iso_check_s3_regular():
    report = matrep.iso_check(regular_algebra(groups.symmetric(3)))
    assert report["isomorphism"]
    assert report["matrix_dim"] == 36


def test_iso_check_natural_action_not_faithful():
    report = matrep.iso_check(natural_sn_algebra(3))
    assert report["homomorphism_ok"]
    assert not report["distinct_basis_images"]
    assert report["algebra_dim"] == 18
    assert report["matrix_dim"] == 9
    assert report["spans_matrix_algebra"]
    assert not report["isomorphism"]


GENERATOR_COUNTS = {**{f"c{n}": 1 for n in range(1, 9)}, "klein4": 2,
                    "s1": 1, "s2": 1, "s3": 2, "s4": 2, "s5": 2, "s6": 3}


@pytest.mark.parametrize("name", GENERATOR_COUNTS)
def test_generators_close_to_the_whole_group(name):
    group = groups.builtin_group(name)
    gens = groups.generators(group)
    assert len(gens) == GENERATOR_COUNTS[name]
    assert groups.closure(group, gens) == set(range(group.order))


def test_closure_of_a_proper_subset():
    c8 = groups.cyclic(8)
    assert groups.closure(c8, [2]) == {0, 2, 4, 6}
    assert groups.closure(c8, [4, 6]) == {0, 2, 4, 6}
    assert groups.closure(c8, []) == set()


# Every action `matrep isocheck` admits: the regular actions up to order 8
# and the natural actions up to degree 6.  The fields are those iso_check
# returns, in its order: action, algebra_dim, matrix_dim, homomorphism_ok,
# distinct_basis_images, image_rank, spans_matrix_algebra, isomorphism.
ISOCHECK_TABLE = [
    ("c1 regular", 1, 1, True, True, 1, True, True),
    ("c2 regular", 4, 4, True, True, 4, True, True),
    ("c3 regular", 9, 9, True, True, 9, True, True),
    ("c4 regular", 16, 16, True, True, 16, True, True),
    ("c5 regular", 25, 25, True, True, 25, True, True),
    ("c6 regular", 36, 36, True, True, 36, True, True),
    ("c7 regular", 49, 49, True, True, 49, True, True),
    ("c8 regular", 64, 64, True, True, 64, True, True),
    ("klein4 regular", 16, 16, True, True, 16, True, True),
    ("s1 regular", 1, 1, True, True, 1, True, True),
    ("s2 regular", 4, 4, True, True, 4, True, True),
    ("s3 regular", 36, 36, True, True, 36, True, True),
    ("s1 natural", 1, 1, True, True, 1, True, True),
    ("s2 natural", 4, 4, True, True, 4, True, True),
    ("s3 natural", 18, 9, True, False, 9, True, False),
    ("s4 natural", 96, 16, True, False, 16, True, False),
    ("s5 natural", 600, 25, True, False, 25, True, False),
    ("s6 natural", 4320, 36, True, False, 36, True, False),
]


def _algebra(label):
    name, kind = label.split()
    if kind == "natural":
        return natural_sn_algebra(groups.parse_group_name(name)[1])
    return regular_algebra(groups.builtin_group(name))


@pytest.mark.parametrize("row", ISOCHECK_TABLE, ids=[row[0] for row in ISOCHECK_TABLE])
def test_iso_check_table(row):
    assert tuple(matrep.iso_check(_algebra(row[0])).values()) == row


def test_isocheck_and_c04_prove_the_one_klein4_algebra(monkeypatch):
    # both reach the product cases through generator_cases, so the algebras it
    # is handed are those the two proofs run on
    seen = []
    real = matrep.generator_cases
    monkeypatch.setattr(matrep, "generator_cases",
                        lambda algebra, gens: seen.append(algebra) or real(algebra, gens))
    assert main(["matrep", "isocheck", "--group", "klein4"]) == 0
    (checked,) = seen
    list(verify.check_g_table_theorem(7))
    proved = [a for a in seen[1:] if a.group is groups.klein4()]
    assert len(proved) == 1 and proved[0] is checked is regular_algebra(groups.klein4())


def _swap_two_points(algebra, g):
    """The algebra of algebra's action with the images of points 0 and 1
    under g exchanged."""
    action = algebra.action
    maps = list(action.point_maps)
    images = list(maps[g])
    images[0], images[1] = images[1], images[0]
    maps[g] = tuple(images)
    return IterantAlgebra(groups.GroupAction(action.group, tuple(maps), action.label))


@pytest.mark.parametrize("label", ["c8 regular", "s4 natural"])
def test_iso_check_catches_each_swapped_point_map(label):
    algebra = _algebra(label)
    caught = [g for g in range(1, algebra.group.order)
              if not matrep.iso_check(_swap_two_points(algebra, g))["homomorphism_ok"]]
    assert caught == list(range(1, algebra.group.order))


@pytest.mark.parametrize("label", ["c8 regular", "klein4 regular", "s3 regular",
                                   "s4 natural", "s5 natural"])
def test_iso_check_needs_a_generating_set(monkeypatch, label):
    # without its last generator the set no longer generates the group;
    # iso_check reads groups.generators once, for the closure check and for
    # generator_cases
    real = groups.generators
    monkeypatch.setattr(groups, "generators", lambda group: real(group)[:-1])
    report = matrep.iso_check(_algebra(label))
    assert not report["homomorphism_ok"]
    assert not report["isomorphism"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_unit_has_a_single_entry_one(n):
    for i, j in itertools.product(range(n), repeat=2):
        expected = [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]
        assert matrep.matrix_unit(n, i, j) == SquareMatrix.from_rows(expected)


def test_iso_check_reads_the_basis_terms(monkeypatch):
    # conjugating by the swap of points 0 and 1 keeps every product case, but
    # moves the basis images off the matrix units at (i, i*g)
    algebra = _algebra("c8 regular")
    swap = groups.perm_matrix((1, 0) + tuple(range(2, algebra.degree)))
    plain = matrep.to_matrix
    monkeypatch.setattr(matrep, "to_matrix", lambda x: swap * plain(x) * swap)
    x, y = algebra.element_of("S"), algebra.vector(range(8))
    assert matrep.product_relation((x, y))[0] == matrep.product_relation((x, y))[1]
    assert not matrep.iso_check(algebra)["homomorphism_ok"]


def test_iso_check_builds_each_distinct_image_once(monkeypatch):
    # the 96 basis images e_i g and the 24 group elements: a product s e_i is a
    # basis element, and s h a group element
    algebra = natural_sn_algebra(4)
    built, related = [], []
    plain_image, plain_relation = matrep.to_matrix, matrep.product_relation
    monkeypatch.setattr(matrep, "to_matrix", lambda x: built.append(x) or plain_image(x))
    monkeypatch.setattr(matrep, "product_relation", lambda pair, image=None:
                        related.append(pair) or plain_relation(pair, image))
    assert matrep.iso_check(algebra)["homomorphism_ok"]
    assert len(built) == len({x.terms for x in built}) == 120
    # product_relation is still the relation, on every generator case
    assert related == matrep.generator_cases(algebra, groups.generators(algebra.group))
