"""Square matrices over the Gaussian rationals, all arithmetic exact.

A matrix is stored as integer tables: ``re`` and ``im`` hold the real and
imaginary numerators of its entries over one denominator ``den``, the lcm of
the entry denominators, so that gcd(den, every numerator) = 1 and equal
matrices have equal ``(re, im, den)``; equality and hashing read these.  The
entries, ``GaussianRational`` values, are built from the tables on the first
read of ``rows`` and kept; ``cells`` writes them as text from the tables.
The one builder from entries, ``from_entries``, sums the values placed at each
(i, j); it and every operation here end in one gcd (``_from_tables``), which
no other module calls.  Almost every matrix the package multiplies is a
signed permutation or has at most two nonzeros a row, so ``A * B`` goes row by
row over A's nonzeros: for each nonzero x + i*y in column k it adds x*B_k and
y*(i B_k) to the result row, as ``map``s over B's integer rows k.  The
determinant here and the rank in ``matrep`` both call ``bareiss``, one
fraction-free elimination over the Gaussian integers (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math. Comp.
22, 1968), the determinant on the tables and the rank on rows scaled to
integers by the lcm of their entry denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import add, or_
from typing import Iterable, Sequence

from .scalars import ONE, GaussianRational, ScalarLike, _from_triple, format_triple
from .scalars import parse_rational, parse_scalar, quoted, scalar_from_json, scalar_to_json

GaussianInteger = tuple[int, int]
IntegerTable = tuple[tuple[int, ...], ...]
ZERO = GaussianRational()  # the one zero entry that rows places


@dataclass(frozen=True, init=False)
class SquareMatrix:
    """An n x n matrix (re + i*im) / den; see the module docstring.
    ``SquareMatrix(rows)`` takes n rows of n ``GaussianRational`` entries."""

    re: IntegerTable
    im: IntegerTable
    den: int

    def __new__(cls, rows: Sequence[Sequence[GaussianRational]]) -> SquareMatrix:
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError(f"matrix is not square: row of length {len(row)} in {n}x{n}")
        return from_entries(n, ((i, j, z) for i, row in enumerate(rows)
                                for j, z in enumerate(row)))

    @cached_property
    def rows(self) -> Sequence[Sequence[GaussianRational]]:
        """The entries, built from the tables on first read."""
        den = self.den
        return tuple(tuple(_from_triple(x, y, den) if x or y else ZERO for x, y in zip(xs, ys))
                     for xs, ys in zip(self.re, self.im))

    @staticmethod
    def from_rows(rows: Iterable[Sequence[ScalarLike]]) -> SquareMatrix:
        return SquareMatrix(
            tuple(tuple(GaussianRational.of(x) for x in row) for row in rows)
        )

    @staticmethod
    @cache
    def identity(n: int) -> SquareMatrix:
        """The n x n identity, one shared matrix per n."""
        return from_entries(n, [(i, i, ONE) for i in range(n)])

    @staticmethod
    def zero(n: int) -> SquareMatrix:
        return from_entries(n, ())

    @staticmethod
    def diagonal(entries: Sequence[ScalarLike]) -> SquareMatrix:
        return from_entries(len(entries),
                            [(i, i, GaussianRational.of(c)) for i, c in enumerate(entries)])

    @property
    def n(self) -> int:
        return len(self.re)

    def __add__(self, other: SquareMatrix) -> SquareMatrix:
        return self._combine(other, 1)

    def __sub__(self, other: SquareMatrix) -> SquareMatrix:
        return self._combine(other, -1)

    def _combine(self, other: SquareMatrix, sign: int) -> SquareMatrix:
        """self + sign * other, over the lcm of the two denominators."""
        self._check_dim(other)
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        return _from_tables(_mix(f, self.re, g, other.re), _mix(f, self.im, g, other.im), den)

    def __neg__(self) -> SquareMatrix:
        return _from_tables(_times(-1, self.re), _times(-1, self.im), self.den)

    def __mul__(self, other):
        if not isinstance(other, SquareMatrix):
            return self.scale(other)
        self._check_dim(other)
        b_re, b_im = other.re, other.im
        cols, zeros = range(len(b_re)), (0,) * len(b_re)
        re, im = [], []
        for xs, ys in zip(self.re, self.im):
            # (x + iy)(B_re + i B_im) = (x B_re - y B_im) + i (x B_im + y B_re)
            row_re, row_im = [], []
            for k in compress(cols, map(or_, xs, ys)):
                x, y = xs[k], ys[k]
                if x:
                    row_re.append(_row_times(x, b_re[k]))
                    row_im.append(_row_times(x, b_im[k]))
                if y:
                    row_re.append(_row_times(-y, b_im[k]))
                    row_im.append(_row_times(y, b_re[k]))
            re.append(tuple(reduce(_add_rows, row_re)) if row_re else zeros)
            im.append(tuple(reduce(_add_rows, row_im)) if row_im else zeros)
        return _from_tables(tuple(re), tuple(im), self.den * other.den)

    def __rmul__(self, other: ScalarLike) -> SquareMatrix:
        return self.scale(other)

    def scale(self, factor: ScalarLike) -> SquareMatrix:
        c = GaussianRational.of(factor)
        p, q = c.re_num, c.im_num
        return _from_tables(_mix(p, self.re, -q, self.im), _mix(p, self.im, q, self.re),
                            c.den * self.den)

    def __pow__(self, k: int) -> SquareMatrix:
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = SquareMatrix.identity(self.n)
        for _ in range(k):
            result = result * self
        return result

    def conjugate(self) -> SquareMatrix:
        """The entrywise complex conjugate."""
        return _from_tables(self.re, _times(-1, self.im), self.den)

    def conjugate_transpose(self) -> SquareMatrix:
        return _from_tables(tuple(zip(*self.re)), _times(-1, tuple(zip(*self.im))), self.den)

    def trace(self) -> GaussianRational:
        return _from_triple(sum(row[i] for i, row in enumerate(self.re)),
                            sum(row[i] for i, row in enumerate(self.im)), self.den)

    def determinant(self) -> GaussianRational:
        """Exact determinant: Bareiss elimination of the integer tables."""
        rank, (re, im) = bareiss([list(zip(xs, ys)) for xs, ys in zip(self.re, self.im)])
        if rank < self.n:
            return GaussianRational()
        return _from_triple(re, im, self.den ** self.n)

    def is_zero(self) -> bool:
        return not any(map(any, self.re)) and not any(map(any, self.im))

    def anticommutator(self, other: SquareMatrix) -> SquareMatrix:
        return self * other + other * self

    def commutator(self, other: SquareMatrix) -> SquareMatrix:
        return self * other - other * self

    def to_lists(self) -> list[list[dict]]:
        return [[scalar_to_json(a) for a in row] for row in self.rows]

    @staticmethod
    def from_lists(data: Sequence[Sequence]) -> SquareMatrix:
        if not isinstance(data, (list, tuple)):
            raise ValueError(f"the matrix is {quoted(data)}; use a list of rows")
        rows = []
        for r, row in enumerate(data):
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"matrix row {r} is {quoted(row)}; use a list of cells")
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
                        f"matrix cell ({r}, {c}) is {quoted(cell)}; use an int, a text literal, "
                        'a [num, den] pair or a {"re", "im"} object')
            rows.append(tuple(parsed))
        return SquareMatrix(tuple(rows))

    def cells(self) -> list[list[str]]:
        """Each entry as ``str`` writes it, read from the tables."""
        den = self.den
        return [[format_triple(x, y, den) for x, y in zip(xs, ys)]
                for xs, ys in zip(self.re, self.im)]

    def __str__(self) -> str:
        cells = self.cells()
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    def _check_dim(self, other: SquareMatrix) -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n}x{self.n} vs {other.n}x{other.n}")


_add_rows = partial(map, add)


def from_entries(n: int, entries: Iterable[tuple[int, int, GaussianRational]]) -> SquareMatrix:
    """The n x n matrix holding at each (i, j) the sum of the values that the
    (i, j, value) entries, 0 <= i, j < n, give there, and zero where they give none."""
    entries = list(entries)
    den = lcm(*{z.den for _, _, z in entries})
    re, im = [0] * (n * n), [0] * (n * n)  # row-major
    for i, j, z in entries:
        f = den // z.den
        re[i * n + j] += z.re_num * f
        im[i * n + j] += z.im_num * f
    # the rows are n items at a time of one iterator; a real matrix shares zero rows
    return _from_tables(tuple(zip(*[iter(re)] * n)),
                        tuple(zip(*[iter(im)] * n)) if any(im) else ((0,) * n,) * n, den)


def _from_tables(re: IntegerTable, im: IntegerTable, den: int) -> SquareMatrix:
    """The matrix (re + i*im) / den for integer tables and den > 0, divided by
    the gcd of den and every numerator when that gcd is not 1.  The fields
    are written to __dict__, past the frozen class's refusing __setattr__."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
        if g != 1:
            re = tuple(tuple(map(g.__rfloordiv__, row)) for row in re)
            im = tuple(tuple(map(g.__rfloordiv__, row)) for row in im)
            den //= g
    m = object.__new__(SquareMatrix)
    vars(m).update(re=re, im=im, den=den)
    return m


def _row_times(c: int, row: tuple[int, ...]):
    """The integer row c * row, as an iterator unless c is 1."""
    return row if c == 1 else map(c.__mul__, row)


def _times(c: int, table: IntegerTable) -> IntegerTable:
    """The integer table c * table."""
    return table if c == 1 else tuple(tuple(map(c.__mul__, row)) for row in table)


def _mix(p: int, s: IntegerTable, q: int, t: IntegerTable) -> IntegerTable:
    """The integer table p*s + q*t."""
    if not q:
        return _times(p, s)
    return tuple(tuple(map(add, x, y)) for x, y in zip(_times(p, s), _times(q, t)))


def integer_rows(rows: Iterable[Sequence[GaussianRational]]) -> list[list[GaussianInteger]]:
    """Each row times the lcm of its entry denominators, as Gaussian-integer
    pairs; scaling a row by a nonzero integer keeps the rank."""
    scaled = []
    for row in rows:
        m = lcm(*(z.den for z in row))
        scaled.append([(z.re_num * (m // z.den), z.im_num * (m // z.den)) for z in row])
    return scaled


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
