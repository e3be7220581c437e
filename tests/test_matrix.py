import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterant_lab import clifford, groups, matrep, scalars
from iterant_lab.iterants import regular_algebra
from iterant_lab.matrix import SquareMatrix, from_entries, integer_rows
from iterant_lab.scalars import GaussianRational


def rand_matrix(rng, n, complex_entries=True, shape="dense"):
    """A dense matrix, a signed permutation (entries 1, -1, i, -i) or one with
    at most two nonzeros a row: most products the package makes are of the
    last two shapes."""
    def cell():
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if complex_entries else Fraction(0)
        return GaussianRational(re, im)

    if shape == "dense":
        return SquareMatrix(tuple(tuple(cell() for _ in range(n)) for _ in range(n)))
    perm = rng.sample(range(n), n)
    units = [GaussianRational(1), GaussianRational(-1),
             GaussianRational(0, 1), GaussianRational(0, -1)]
    rows = [[GaussianRational()] * n for _ in range(n)]
    for i, row in enumerate(rows):
        if shape == "signed":
            row[perm[i]] = rng.choice(units)
        else:
            for j in rng.sample(range(n), min(n, 2)):
                row[j] = cell()
    return SquareMatrix(tuple(map(tuple, rows)))


SHAPES = ("dense", "signed", "two-per-row")


def test_rejects_non_square():
    with pytest.raises(ValueError, match="not square"):
        SquareMatrix.from_rows([[1, 2], [3]])


def test_identity_and_zero():
    assert SquareMatrix.identity(3) * SquareMatrix.identity(3) == SquareMatrix.identity(3)
    assert SquareMatrix.zero(3).is_zero()
    assert SquareMatrix.identity(2).scale(Fraction(3)) == SquareMatrix.diagonal([3, 3])


def test_identity_is_shared_per_size():
    assert SquareMatrix.identity(4) is SquareMatrix.identity(4)
    assert SquareMatrix.identity(4) == SquareMatrix.diagonal([1] * 4)


def test_ring_axioms_random():
    rng = random.Random(70)
    for _ in range(50):
        n = rng.randint(1, 5)
        a, b, c = (rand_matrix(rng, n, shape=rng.choice(SHAPES)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a + b) - b == a
        assert (a * b).conjugate_transpose() == b.conjugate_transpose() * a.conjugate_transpose()


def test_determinant_against_cofactor_oracle():
    rng = random.Random(71)
    for _ in range(100):
        m = rand_matrix(rng, 3)
        (a, b, c), (d, e, f), (g, h, k) = m.rows
        cofactor = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        assert m.determinant() == cofactor


def test_determinant_2x2_and_multiplicative():
    rng = random.Random(72)
    for _ in range(100):
        m = rand_matrix(rng, 2)
        (a, b), (c, d) = m.rows
        assert m.determinant() == a * d - b * c
        for shape in SHAPES:
            w = rand_matrix(rng, 2, shape=shape)
            assert (m * w).determinant() == m.determinant() * w.determinant()
            assert (w * m).determinant() == w.determinant() * m.determinant()


def test_determinant_singular():
    m = SquareMatrix.from_rows([[1, 2], [2, 4]])
    assert m.determinant() == GaussianRational()


def test_transpose_and_conjugate_transpose():
    m = SquareMatrix.from_rows(
        [[GaussianRational(Fraction(1), Fraction(2)), GaussianRational(Fraction(3))],
         [GaussianRational(Fraction(0), Fraction(-1)), GaussianRational(Fraction(5))]]
    )
    assert m.conjugate_transpose().rows[0][1] == GaussianRational(Fraction(0), Fraction(1))
    assert m.conjugate_transpose().conjugate_transpose() == m


def test_trace_is_additive():
    rng = random.Random(73)
    a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
    assert (a + b).trace() == a.trace() + b.trace()


def test_scale_and_neg():
    m = SquareMatrix.from_rows([[1, -2], [0, 3]])
    assert m.scale(Fraction(1, 2)) + m.scale(Fraction(1, 2)) == m
    assert -m + m == SquareMatrix.zero(2)
    assert 2 * m == m * 2


def test_pow():
    m = SquareMatrix.from_rows([[0, -1], [1, 0]])
    assert m ** 4 == SquareMatrix.identity(2)
    assert m ** 0 == SquareMatrix.identity(2)
    with pytest.raises(ValueError):
        m ** -1


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        SquareMatrix.identity(2) * SquareMatrix.identity(3)


def test_json_lists_roundtrip():
    rng = random.Random(75)
    m = rand_matrix(rng, 3)
    assert SquareMatrix.from_lists(m.to_lists()) == m
    # plain-number and string cells are also accepted
    assert SquareMatrix.from_lists([[1, "1/2"], [[3, 4], 0]]) == SquareMatrix.from_rows(
        [[1, Fraction(1, 2)], [Fraction(3, 4), 0]]
    )


def test_str_is_aligned():
    text = str(SquareMatrix.from_rows([[1, -10], [100, 2]]))
    lines = text.splitlines()
    assert len(lines) == 2
    assert len(lines[0]) == len(lines[1])


def lcm_view(m: SquareMatrix):
    """The integer view as defined on the Fraction parts: the lcm of every
    part's denominator, and each part's numerator scaled to it."""
    den = lcm(*(x.denominator for row in m.rows for z in row for x in (z.re, z.im)))
    return (tuple(tuple(z.re.numerator * (den // z.re.denominator) for z in row) for row in m.rows),
            tuple(tuple(z.im.numerator * (den // z.im.denominator) for z in row) for row in m.rows),
            den)


mixed_parts = st.fractions(min_value=-30, max_value=30, max_denominator=40)
mixed_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.builds(GaussianRational, mixed_parts, mixed_parts),
                                min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(mixed_matrices)
def test_integer_view_is_the_lcm_of_the_part_denominators(rows):
    m = SquareMatrix(tuple(map(tuple, rows)))
    assert (m.re, m.im, m.den) == lcm_view(m)
    # each row scaled by the lcm of its own part denominators, as the rank
    # reads it
    for row, pairs in zip(m.rows, integer_rows(m.rows)):
        row_den = lcm(*(x.denominator for z in row for x in (z.re, z.im)))
        assert pairs == [(z.re.numerator * (row_den // z.re.denominator),
                          z.im.numerator * (row_den // z.im.denominator)) for z in row]


@settings(max_examples=60, deadline=None)
@given(mixed_matrices)
def test_cells_are_the_entries_as_str_writes_them(rows):
    # the tables' common denominator leaves most entries out of lowest terms
    m = SquareMatrix(tuple(map(tuple, rows)))
    assert m.cells() == [[str(z) for z in row] for row in rows]


def tables(m: SquareMatrix):
    return m.re, m.im, m.den


@settings(max_examples=60, deadline=None)
@given(mixed_matrices, st.sampled_from([Fraction(1, 3), Fraction(-2, 5), GaussianRational(1, 2)]))
def test_equal_matrices_have_one_stored_form(rows, c):
    m = SquareMatrix(tuple(map(tuple, rows)))
    n = m.n
    one, other = SquareMatrix.identity(n), SquareMatrix.from_rows([[c] * n] * n)
    algebra = regular_algebra(groups.cyclic(n))
    units = [matrep.matrix_unit(n, i, j).scale(m.rows[i][j]) for i in range(n) for j in range(n)]
    built = [
        SquareMatrix.from_rows(m.rows),
        # row i of M is the sum over g of its entry at (i, i*g), placed by to_matrix
        matrep.to_matrix(sum((algebra.term([m.rows[i][(i + g) % n] for i in range(n)], g)
                              for g in range(1, n)),
                             algebra.term([m.rows[i][i] for i in range(n)], 0))),
        sum(units[1:], units[0]),
        one * m, m * one, (m.scale(c) * one).scale(1 / c),
        (m + other) - other, -(other - m) + other,
        m.conjugate_transpose().conjugate_transpose(),
        matrep.reassemble(matrep.decompose_matrix(m), n),
    ]
    # M = sum over g of diag(its entries at (i, i*g)) * P_g, with each P_g
    # placed once from the g-table and once from the action
    table_mats = groups.element_matrices_from_g_table(algebra.group)
    for perms in ([table_mats[name] for name in algebra.group.names],
                  [groups.perm_matrix(images) for images in algebra.action.point_maps]):
        terms = [SquareMatrix.diagonal([m.rows[i][(i + g) % n] for i in range(n)]) * p
                 for g, p in enumerate(perms)]
        built.append(sum(terms[1:], terms[0]))
    if n > 1:
        b = clifford.braid_basis_matrix(n, 1)
        built.append(m * b * b.conjugate_transpose())
    den = lcm(*(z.den for row in m.rows for z in row))
    assert m.den == den and gcd(den, *(x for t in (m.re, m.im) for row in t for x in row)) == 1
    for b in built:
        assert b == m and hash(b) == hash(m) and tables(b) == tables(m)


placed_entries = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.builds(GaussianRational, mixed_parts, mixed_parts)), max_size=12)))


@settings(max_examples=150, deadline=None)
@given(placed_entries)
def test_from_entries_adds_the_values_at_each_position(case):
    n, entries = case
    m = from_entries(n, iter(entries))
    sums = {}
    for i, j, z in entries:
        sums[i, j] = sums.get((i, j), GaussianRational()) + z
    assert m.rows == tuple(tuple(sums.get((i, j), GaussianRational()) for j in range(n))
                           for i in range(n))
    units = [matrep.matrix_unit(n, i, j).scale(z) for i, j, z in entries]
    assert m == sum(units, SquareMatrix.zero(n))
    den = lcm(*(z.den for z in sums.values()))
    assert m.den == den and gcd(den, *(x for t in (m.re, m.im) for row in t for x in row)) == 1


def test_a_ladder_product_builds_its_entries_only_when_read(monkeypatch):
    a, b = clifford.clifford_generators(4)[:2]
    made = []
    allocate = scalars._allocate  # every GaussianRational is made through it
    monkeypatch.setattr(scalars, "_allocate", lambda cls: made.append(cls) or allocate(cls))
    product = a * b
    assert made == []
    rows = product.rows
    assert len(made) == sum(not z.is_zero() for row in rows for z in row) == 4
    assert product.rows is rows and len(made) == 4
