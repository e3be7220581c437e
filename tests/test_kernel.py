"""The fraction-free kernel of matrix.py against independent oracles.

Determinant and rank share one Bareiss routine and are checked against
sympy; the integer-table product is checked against the schoolbook sum of
GaussianRational products, written out here, on dense factors and on the
sparse shapes most products have.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterant_lab import groups, matrep
from iterant_lab.matrix import SquareMatrix
from iterant_lab.scalars import GaussianRational, parse_scalar

sympy = pytest.importorskip("sympy")


def to_sympy(z: GaussianRational):
    return (sympy.Rational(z.re.numerator, z.re.denominator)
            + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator))


def from_sympy(value) -> GaussianRational:
    re, im = sympy.expand(value).as_real_imag()
    return GaussianRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def sympy_rank(rows) -> int:
    matrix = sympy.Matrix([[to_sympy(z) for z in row] for row in rows])
    return matrix.rank(iszerofunc=lambda x: sympy.expand(x) == 0)


def random_scalar(rng, zero_share=0.3) -> GaussianRational:
    if rng.random() < zero_share:
        return GaussianRational()
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def random_rows(rng, m, n, zero_share=0.3):
    return [[random_scalar(rng, zero_share) for _ in range(n)] for _ in range(m)]


def low_rank_rows(rng, m, n, rank):
    """An m x n table that is a product of m x rank and rank x n factors."""
    left = random_rows(rng, m, rank, zero_share=0.2)
    right = random_rows(rng, rank, n, zero_share=0.2)
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), GaussianRational())
             for j in range(n)] for i in range(m)]


def square_cases(seed=90):
    """Generic, singular and zero-leading-pivot n x n matrices, n = 1..6."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for _ in range(3):
            yield random_rows(rng, n, n)
        for rank in range(n):
            yield low_rank_rows(rng, n, n, rank)
        # Upper triangular with zeros ahead of each pivot, rows shuffled: every
        # leading pivot position is zero until a swap brings a row up.
        rows = [[GaussianRational() if j <= i else random_scalar(rng, 0) for j in range(n)]
                for i in range(n)]
        rows[-1][0] = random_scalar(rng, 0)
        rng.shuffle(rows)
        yield rows


def test_determinant_matches_sympy():
    for rows in square_cases():
        m = SquareMatrix(tuple(tuple(row) for row in rows))
        expected = from_sympy(sympy.Matrix([[to_sympy(z) for z in row] for row in rows]).det())
        assert m.determinant() == expected, rows


def test_rank_matches_sympy_on_square_cases():
    for rows in square_cases(seed=91):
        assert matrep._matrix_rank(rows) == sympy_rank(rows), rows


def test_rank_matches_sympy_on_rectangular_stacks():
    rng = random.Random(92)
    for m, n in ((1, 4), (4, 1), (3, 7), (7, 3), (12, 5), (5, 12)):
        for rank in range(min(m, n) + 1):
            rows = low_rank_rows(rng, m, n, rank)
            assert matrep._matrix_rank(rows) == sympy_rank(rows) == rank


def test_rank_of_s5_permutation_matrices():
    # 120 flattened 5x5 permutation matrices span a space of dimension (5-1)^2 + 1
    one, zero = GaussianRational(Fraction(1)), GaussianRational()
    rows = [[one if p[i] == j else zero for i in range(5) for j in range(5)]
            for p in groups.natural_action(5).point_maps]
    assert matrep._matrix_rank(rows) == sympy_rank(rows) == 17


def test_rank_of_empty_stack():
    assert matrep._matrix_rank([]) == 0


# --- the integer-table product --------------------------------------------------

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.one_of(
    st.builds(GaussianRational, fractions, fractions),
    st.builds(lambda im: GaussianRational(Fraction(0), im), fractions),  # purely imaginary
    st.just(GaussianRational()),
)


def square_matrices(n, entries=scalars):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: SquareMatrix(tuple(tuple(row) for row in rows)))


# The product skips a part product whose real or imaginary table is all zero,
# so each factor is drawn whole-real, whole-imaginary, zero or mixed: every
# combination of skipped parts meets the schoolbook sum.
part_kinds = st.sampled_from([
    st.builds(GaussianRational, fractions),
    st.builds(lambda im: GaussianRational(Fraction(0), im), fractions),
    st.just(GaussianRational()),
    scalars,
])


def schoolbook(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    n = a.n
    return SquareMatrix(tuple(
        tuple(sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), GaussianRational())
              for j in range(n))
        for i in range(n)))


units = st.sampled_from([GaussianRational(1), GaussianRational(-1),
                         GaussianRational(0, 1), GaussianRational(0, -1)])


@st.composite
def signed_permutations(draw, n):
    """A permutation matrix with each one times 1, -1, i or -i."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(units, min_size=n, max_size=n))
    return SquareMatrix(tuple(tuple(signs[i] if j == perm[i] else GaussianRational()
                                    for j in range(n)) for i in range(n)))


@st.composite
def two_per_row(draw, n, entries):
    """At most two nonzero entries a row, in drawn columns."""
    rows = []
    for _ in range(n):
        row = [GaussianRational()] * n
        for j in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
            row[j] = draw(entries)
        rows.append(tuple(row))
    return SquareMatrix(tuple(rows))


# The product goes row by row over the nonzeros of its left factor, and most
# products the package makes are of signed permutations or of matrices with
# at most two nonzeros a row, so each factor is drawn dense or in one of
# those two shapes.
@st.composite
def matrix_pair(draw, count=2, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.one_of(square_matrices(n, draw(part_kinds)), signed_permutations(n),
                                two_per_row(n, draw(part_kinds))))
                 for _ in range(count))


@settings(max_examples=150, deadline=None)
@given(matrix_pair())
def test_product_equals_schoolbook_sum(pair):
    a, b = pair
    product = a * b
    assert product == schoolbook(a, b)
    for row in product.rows:
        for z in row:
            assert parse_scalar(str(z)) == z


@settings(max_examples=40, deadline=None)
@given(matrix_pair(count=3, max_n=4))
def test_product_is_associative(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(square_matrices))
def test_zero_and_identity_products(a):
    zero, one = SquareMatrix.zero(a.n), SquareMatrix.identity(a.n)
    assert a * zero == zero == zero * a
    assert (a * zero).is_zero()
    assert a * one == a == one * a
    # the tables of a product are the ones its entries give
    product = a * a
    rebuilt = SquareMatrix(product.rows)
    assert (product.re, product.im, product.den) == (rebuilt.re, rebuilt.im, rebuilt.den)
