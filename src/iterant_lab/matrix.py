"""Dense square matrices over the Gaussian rationals, all arithmetic exact.

Entries are ``GaussianRational`` values, each an integer triple
``(re_num, im_num, den)``, and the two costly operations read those triples
directly.  A product reads each factor's integer view, computed at most once
per matrix: the lcm ``d`` of the entry denominators and integer tables of
the real and imaginary numerators scaled to it, so that ``A * B`` is a table
of integer dot products over ``dA * dB``, each entry reduced once by its own
gcd.  Of the four part products of ``(Ar + i Ai)(Br + i Bi)`` only those whose
two tables both hold a nonzero entry are summed: most products here are of
real or purely imaginary signed permutations, where one to three of the four
are zero.  The determinant here and the rank in ``matrep`` both call
``bareiss``, one fraction-free elimination over the Gaussian integers
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968), after scaling each row to integers by
the lcm of its entry denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .scalars import GaussianRational, ScalarLike, _from_triple, parse_rational, parse_scalar
from .scalars import scalar_from_json, scalar_to_json

GaussianInteger = tuple[int, int]
IntegerTable = tuple[tuple[int, ...], ...]
IntegerView = tuple[IntegerTable, IntegerTable, int]  # (re, im, den)
# The zero entry that products and matrep.to_matrix place: equal matrices
# built by them compare most entries by identity, without calling __eq__.
ZERO = GaussianRational()


@dataclass(frozen=True)
class SquareMatrix:
    rows: tuple[tuple[GaussianRational, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"matrix is not square: row of length {len(row)} in {n}x{n}")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[ScalarLike]]) -> SquareMatrix:
        return SquareMatrix(
            tuple(tuple(GaussianRational.of(x) for x in row) for row in rows)
        )

    @staticmethod
    @cache
    def identity(n: int) -> SquareMatrix:
        """The n x n identity, one shared matrix per n (with its integer view)."""
        return SquareMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(n: int) -> SquareMatrix:
        return SquareMatrix.from_rows([[0] * n for _ in range(n)])

    @staticmethod
    def diagonal(entries: Sequence[ScalarLike]) -> SquareMatrix:
        n = len(entries)
        return SquareMatrix.from_rows(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def n(self) -> int:
        return len(self.rows)

    def __add__(self, other: SquareMatrix) -> SquareMatrix:
        self._check_dim(other)
        return SquareMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: SquareMatrix) -> SquareMatrix:
        self._check_dim(other)
        return SquareMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> SquareMatrix:
        return SquareMatrix(tuple(tuple(-a for a in row) for row in self.rows))

    @cached_property
    def integers(self) -> IntegerView:
        """The matrix as (re + i*im) / den with integer tables and the least
        den > 0, the lcm of the entry denominators; computed on first use."""
        den = lcm(*(z.den for row in self.rows for z in row))
        return (tuple(tuple(z.re_num * (den // z.den) for z in row) for row in self.rows),
                tuple(tuple(z.im_num * (den // z.den) for z in row) for row in self.rows),
                den)

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            self._check_dim(other)
            a_re, a_im, a_den = self.integers
            b_re, b_im, b_den = other.integers
            den = a_den * b_den
            # a part product whose real or imaginary table is all zero is zero
            a_r, a_i = any(map(any, a_re)), any(map(any, a_im))
            b_r, b_i = any(map(any, b_re)), any(map(any, b_im))
            rr, ii, ri, ir = a_r and b_r, a_i and b_i, a_r and b_i, a_i and b_r
            cols = tuple(zip(zip(*b_re), zip(*b_im)))
            rows = []
            for ar, ai in zip(a_re, a_im):
                row = []
                for br, bi in cols:
                    xr = ((sum(map(mul, ar, br)) if rr else 0)
                          - (sum(map(mul, ai, bi)) if ii else 0))
                    xi = ((sum(map(mul, ar, bi)) if ri else 0)
                          + (sum(map(mul, ai, br)) if ir else 0))
                    row.append(_from_triple(xr, xi, den) if xr or xi else ZERO)
                rows.append(tuple(row))
            return SquareMatrix(tuple(rows))
        return self.scale(other)

    def __rmul__(self, other: ScalarLike) -> SquareMatrix:
        return self.scale(other)

    def scale(self, factor: ScalarLike) -> SquareMatrix:
        c = GaussianRational.of(factor)
        return SquareMatrix(tuple(tuple(c * a for a in row) for row in self.rows))

    def __pow__(self, k: int) -> SquareMatrix:
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = SquareMatrix.identity(self.n)
        for _ in range(k):
            result = result * self
        return result

    def conjugate(self) -> SquareMatrix:
        """The entrywise complex conjugate."""
        return SquareMatrix(tuple(tuple(a.conjugate() for a in row) for row in self.rows))

    def conjugate_transpose(self) -> SquareMatrix:
        return SquareMatrix(
            tuple(tuple(a.conjugate() for a in col) for col in zip(*self.rows))
        )

    def trace(self) -> GaussianRational:
        return sum((self.rows[i][i] for i in range(self.n)), GaussianRational())

    def determinant(self) -> GaussianRational:
        """Exact determinant: Bareiss elimination of the rows scaled to integers."""
        rows, scale = integer_rows(self.rows)
        rank, (re, im) = bareiss(rows)
        if rank < self.n:
            return GaussianRational()
        return _from_triple(re, im, scale)

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def anticommutator(self, other: SquareMatrix) -> SquareMatrix:
        return self * other + other * self

    def commutator(self, other: SquareMatrix) -> SquareMatrix:
        return self * other - other * self

    def to_lists(self) -> list[list[dict]]:
        return [[scalar_to_json(a) for a in row] for row in self.rows]

    @staticmethod
    def from_lists(data: Sequence[Sequence]) -> SquareMatrix:
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"the matrix is {data!r}; use a list of rows")
        rows = []
        for r, row in enumerate(data):
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"matrix row {r} is {row!r}; use a list of cells")
            parsed = []
            for c, cell in enumerate(row):
                if isinstance(cell, dict):
                    parsed.append(scalar_from_json(cell))
                elif isinstance(cell, str):
                    parsed.append(parse_scalar(cell))
                elif isinstance(cell, list) and len(cell) == 2:
                    parsed.append(GaussianRational(parse_rational(*cell)))
                elif isinstance(cell, int) and not isinstance(cell, bool):
                    parsed.append(GaussianRational.of(cell))
                else:
                    raise ValueError(
                        f"matrix cell ({r}, {c}) is {cell!r}; use an int, a text literal, "
                        'a [num, den] pair or a {"re", "im"} object')
            rows.append(tuple(parsed))
        return SquareMatrix(tuple(rows))

    def __str__(self) -> str:
        cells = [[str(a) for a in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    def _check_dim(self, other: SquareMatrix) -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n}x{self.n} vs {other.n}x{other.n}")


def integer_rows(
    rows: Iterable[Sequence[GaussianRational]],
) -> tuple[list[list[GaussianInteger]], int]:
    """Each row times the lcm of its entry denominators, as Gaussian-integer
    pairs, and the product of those multipliers.  Scaling a row by a nonzero
    integer keeps the rank and multiplies the determinant by that integer."""
    scaled, scale = [], 1
    for row in rows:
        m = lcm(*(z.den for z in row))
        scaled.append([(z.re_num * (m // z.den), z.im_num * (m // z.den)) for z in row])
        scale *= m
    return scaled, scale


def bareiss(rows: list[list[GaussianInteger]]) -> tuple[int, GaussianInteger]:
    """Fraction-free Gaussian elimination over Z[i] (Bareiss, 1968).

    ``rows`` is any m x n table of Gaussian-integer pairs; it is overwritten.
    Columns with no pivot are skipped, so the number of pivots is the rank.
    After step k every entry below the pivots is a (k+1)-minor of the input,
    so the division by the previous pivot is exact.  Returns the rank and the
    last pivot, negated once per row swap: for a square input of full rank
    that is the determinant.
    """
    m = len(rows)
    width = len(rows[0]) if rows else 0
    rank, sign = 0, 1
    prev = (1, 0)
    for col in range(width):
        found = next((r for r in range(rank, m) if rows[r][col] != (0, 0)), None)
        if found is None:
            continue
        if found != rank:
            rows[rank], rows[found] = rows[found], rows[rank]
            sign = -sign
        top = rows[rank]
        pr, pi = top[col]
        dr, di = prev
        norm = dr * dr + di * di
        for r in range(rank + 1, m):
            row = rows[r]
            qr, qi = row[col]
            if qr == qi == 0 and (pr, pi) == prev:
                continue
            for j in range(col + 1, width):
                ar, ai = row[j]
                br, bi = top[j]
                xr = pr * ar - pi * ai - qr * br + qi * bi
                xi = pr * ai + pi * ar - qr * bi - qi * br
                if di == 0:
                    row[j] = (xr // dr, xi // dr)
                else:
                    row[j] = ((xr * dr + xi * di) // norm, (xi * dr - xr * di) // norm)
        prev = (pr, pi)
        rank += 1
        if rank == m:
            break
    return rank, (sign * prev[0], sign * prev[1])
