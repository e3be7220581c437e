"""Sums of (coefficient vector) x (group element) with the twisted product.

The product rule is ``(a g)(b h) = (a . b^g)(g h)`` where ``(b^g)_i = b_{i*g}``
and ``.`` is the componentwise product.  One engine covers both the
regular-action algebras (vectors of length |G| over a group G) and the
natural-action algebras over the full symmetric group, which differ only in
the chosen action.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .groups import Group, GroupAction, Permutation
from .groups import cycle_string, natural_action, regular_action, xor_group
from .scalars import (
    GaussianRational,
    ScalarLike,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
)

Vector = tuple[GaussianRational, ...]


def _as_vector(entries, degree: int) -> Vector:
    vec = tuple(GaussianRational.of(x) for x in entries)
    if len(vec) != degree:
        raise ValueError(f"coefficient vector has length {len(vec)}, expected {degree}")
    return vec


@dataclass(frozen=True)
class IterantAlgebra:
    """The algebra of finite sums a*g for a fixed group action."""

    action: GroupAction

    @property
    def degree(self) -> int:
        return self.action.degree

    @property
    def group(self) -> Group:
        return self.action.group

    def zero(self) -> IterantElement:
        return IterantElement(self, ())

    def one(self) -> IterantElement:
        return self.scalar(1)

    def scalar(self, value: ScalarLike) -> IterantElement:
        c = GaussianRational.of(value)
        return self.vector([c] * self.degree)

    def vector(self, entries) -> IterantElement:
        """A pure coefficient vector, attached to the identity element."""
        return self.term(entries, self.group.identity)

    def term(self, entries, g: int | str) -> IterantElement:
        gid = self.group.index_of(g) if isinstance(g, str) else g
        vec = _as_vector(entries, self.degree)
        if all(c.is_zero() for c in vec):
            return self.zero()
        return IterantElement(self, ((gid, vec),))

    def element_of(self, g: int | str) -> IterantElement:
        """The group element itself (all-ones coefficient vector)."""
        return self.term([1] * self.degree, g)

    def shifted_vector(self, vec: Vector, g: int) -> Vector:
        """The action of g on a coefficient vector: (b^g)_i = b_{i*g}."""
        maps = self.action.point_maps[g]
        return tuple(vec[maps[i]] for i in range(self.degree))

    def basis(self) -> list[IterantElement]:
        """All e_i * g, g outermost; a module basis of the algebra."""
        n = self.degree
        units = [_as_vector([int(k == i) for k in range(n)], n) for i in range(n)]
        return [IterantElement(self, ((gid, unit),))
                for gid in range(self.group.order) for unit in units]

    def dimension(self) -> int:
        return self.degree * self.group.order

    def __repr__(self) -> str:
        return f"IterantAlgebra({self.action.label}, dim={self.dimension()})"


@dataclass(frozen=True)
class IterantElement:
    """Immutable element: sorted nonzero (group id, coefficient vector) terms."""

    algebra: IterantAlgebra
    terms: tuple[tuple[int, Vector], ...]

    def _check_same(self, other: IterantElement) -> None:
        if self.algebra.action is other.algebra.action:
            return
        if self.algebra != other.algebra:
            raise ValueError(
                f"algebra mismatch: {self.algebra!r} vs {other.algebra!r}"
            )

    def coefficient(self, g: int | str) -> Vector:
        gid = self.algebra.group.index_of(g) if isinstance(g, str) else g
        for tid, vec in self.terms:
            if tid == gid:
                return vec
        return tuple(GaussianRational() for _ in range(self.algebra.degree))

    def __add__(self, other: IterantElement) -> IterantElement:
        self._check_same(other)
        acc: dict[int, list[GaussianRational]] = {}
        for gid, vec in self.terms + other.terms:
            if gid in acc:
                acc[gid] = [a + b for a, b in zip(acc[gid], vec)]
            else:
                acc[gid] = list(vec)
        return _from_accumulator(self.algebra, acc)

    def __sub__(self, other: IterantElement) -> IterantElement:
        return self + (-other)

    def __neg__(self) -> IterantElement:
        return IterantElement(
            self.algebra,
            tuple((gid, tuple(-c for c in vec)) for gid, vec in self.terms),
        )

    def __mul__(self, other):
        if isinstance(other, IterantElement):
            self._check_same(other)
            algebra = self.algebra
            group = algebra.group
            acc: dict[int, list[GaussianRational]] = {}
            for g, a in self.terms:
                for h, b in other.terms:
                    gh = group.mul(g, h)
                    shifted = algebra.shifted_vector(b, g)
                    prod = [x * y for x, y in zip(a, shifted)]
                    if gh in acc:
                        acc[gh] = [p + q for p, q in zip(acc[gh], prod)]
                    else:
                        acc[gh] = prod
            return _from_accumulator(algebra, acc)
        return self.scale(other)

    def __rmul__(self, other: ScalarLike) -> IterantElement:
        return self.scale(other)

    def scale(self, factor: ScalarLike) -> IterantElement:
        c = GaussianRational.of(factor)
        if c.is_zero():
            return self.algebra.zero()
        return IterantElement(
            self.algebra,
            tuple((gid, tuple(c * x for x in vec)) for gid, vec in self.terms),
        )

    def __pow__(self, k: int) -> IterantElement:
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = self.algebra.one()
        for _ in range(k):
            result = result * self
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> GaussianRational | None:
        """The scalar c if self == c * 1, else None."""
        if self.is_zero():
            return GaussianRational()
        if len(self.terms) != 1:
            return None
        gid, vec = self.terms[0]
        if gid != self.algebra.group.identity:
            return None
        first = vec[0]
        return first if all(c == first for c in vec) else None

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "g": self.algebra.group.names[gid],
                    "vec": [scalar_to_json(c) for c in vec],
                }
                for gid, vec in self.terms
            ]
        }

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for gid, vec in self.terms:
            vec_text = "[" + ",".join(str(c) for c in vec) + "]"
            name = self.algebra.group.names[gid]
            parts.append(vec_text if gid == self.algebra.group.identity else f"{vec_text}{name}")
        return " + ".join(parts)


def _from_accumulator(algebra: IterantAlgebra, acc: dict) -> IterantElement:
    terms = []
    for gid in sorted(acc):
        vec = tuple(acc[gid])
        if any(not c.is_zero() for c in vec):
            terms.append((gid, vec))
    return IterantElement(algebra, tuple(terms))


def element_from_json(algebra: IterantAlgebra, obj: dict) -> IterantElement:
    total = algebra.zero()
    for term in obj.get("terms", []):
        vec = [scalar_from_json(c) for c in term["vec"]]
        total = total + algebra.term(vec, term["g"])
    return total


# ---------------------------------------------------------------------------
# Period-two algebra: vectors [a, b] with the order-two shift, written "e".


def period_two_algebra() -> IterantAlgebra:
    """Vectors [a, b] and the swap e, e^2 = 1 and [a,b]e = e[b,a]: Z2's regular algebra."""
    return regular_algebra(xor_group(1))


def majorana_pair_relations() -> Iterator[tuple[str, IterantElement, IterantElement]]:
    """The order-two pair behind the re-entrant mark, epsilon = [-1,1] and the
    shift eta: each squares to one, they anticommute, and their product
    squares to -1.  Each relation is one (name, lhs, rhs) triple."""
    (epsilon, eta), = alternations_and_shifts(1)
    one = epsilon.algebra.one()
    yield "polarity_squared_one", epsilon * epsilon, one
    yield "shift_squared_one", eta * eta, one
    yield "anticommute", epsilon * eta + eta * epsilon, epsilon.algebra.zero()
    yield "product_squares_to_minus_one", (epsilon * eta) ** 2, -one


def conjugate_period2(z: IterantElement) -> IterantElement:
    """A + Be  ->  reverse(A) - Be, the hypercomplex conjugate."""
    algebra = z.algebra
    if algebra.action is not period_two_algebra().action:
        raise ValueError("conjugate is defined on the period-two algebra only")
    a = z.coefficient("1")
    b = z.coefficient("e")
    return algebra.vector((a[1], a[0])) - algebra.term(b, "e")


def determinant_period2(z: IterantElement) -> GaussianRational:
    """D(Z) = Z * conjugate(Z), always a scalar; equals ab - cd for [a,b] + [c,d]e."""
    product = z * conjugate_period2(z)
    value = product.is_scalar()
    if value is None:
        raise ArithmeticError("Z * conj(Z) did not collapse to a scalar")
    return value


def event_element(event: tuple[Fraction, Fraction, Fraction, Fraction]) -> IterantElement:
    """The event (T, X, Y, Z) as [T+X, T-X] + [Y+Zi, Y-Zi]e.  Its matrix is the
    Hermitian observable H = [[T+X, Y+Zi], [Y-Zi, T-X]], of trace 2T, and its
    D is the interval T^2-X^2-Y^2-Z^2."""
    t, x, y, z = event
    algebra = period_two_algebra()
    return (algebra.vector([t + x, t - x])
            + algebra.term([GaussianRational(y, z), GaussianRational(y, -z)], "e"))


def doppler_boost(z: IterantElement, d: Fraction) -> IterantElement:
    """The boost of the event element z by the Doppler factor D > 0, as one exact
    product [D, 1] z [1, 1/D]: the light-cone coordinates T+X and T-X go to
    D(T+X) and (T-X)/D, and Y, Z stay.  The velocity is v = (1-D^2)/(1+D^2) and
    gamma = (1+D^2)/(2D), so no square root is taken.  Going back,
    D^2 = (1-v)/(1+v): a rational v whose D is irrational, such as v = 1/2, has
    no exact boost."""
    algebra = period_two_algebra()
    return algebra.vector([d, 1]) * z * algebra.vector([1, 1 / Fraction(d)])


def parse_period2(text: str) -> IterantElement:
    """Parse "[a,b] + [c,d]e" (either part optional) into the period-two algebra.

    A sign may open the text, and one sign separates each two terms; a term
    must follow every sign.  Spaces are dropped, and positions in errors
    index the text as given.
    """
    algebra = period_two_algebra()
    total = algebra.zero()
    kept = [i for i, ch in enumerate(text) if ch != " "]  # where each char of s stands
    s = "".join(text[i] for i in kept)
    if not s or s == "0":
        return total
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign, pos = (1 if s[0] == "+" else -1), 1
    while True:
        if pos == len(s):
            raise ValueError(
                f"expected a term after the sign at position {kept[pos - 1]} in {text!r}")
        if s[pos] != "[":
            raise ValueError(f"expected '[' at position {kept[pos]} in {text!r}")
        close = s.find("]", pos)
        if close < 0:
            raise ValueError(f"missing ']' for the '[' at position {kept[pos]} in {text!r}")
        inner = s[pos + 1 : close]
        entries = [parse_scalar(p) for p in inner.split(",")]
        if len(entries) != 2:
            raise ValueError(f"expected two components in {inner!r}")
        pos = close + 1
        g = "1"
        if pos < len(s) and s[pos] == "e":
            g = "e"
            pos += 1
        total = total + algebra.term([sign * c for c in entries], g)
        if pos == len(s):
            return total
        if s[pos] not in "+-":
            raise ValueError(
                f"expected '+' or '-' between terms at position {kept[pos]} in {text!r}")
        sign, pos = (1 if s[pos] == "+" else -1), pos + 1


# ---------------------------------------------------------------------------
# Natural symmetric-group algebras (length-n vectors, all of S_n acting).


@lru_cache(maxsize=None)
def natural_sn_algebra(n: int) -> IterantAlgebra:
    return IterantAlgebra(natural_action(n))


@lru_cache(maxsize=None)
def regular_algebra(group: Group) -> IterantAlgebra:
    """The one algebra of the regular action of group."""
    return IterantAlgebra(regular_action(group))


@lru_cache(maxsize=None)
def alternations_and_shifts(k: int) -> tuple[tuple[IterantElement, IterantElement], ...]:
    """The period-two pairs (epsilon_j, eta_j), j < k, of the regular algebra of
    xor_group(k) (period_two_algebra() for k = 1, klein4's for k = 2):
    epsilon_j is [-1, 1] on bit j (-1 where bit j is 0), eta_j the shift by
    bit j.  Bit 0 is the top bit, so to_matrix gives Kronecker order, bit 0
    leftmost; pairs of two bits commute."""
    size = 2 ** k
    algebra = regular_algebra(xor_group(k))
    pairs = []
    for j in range(k):
        bit = size >> (j + 1)
        epsilon = algebra.vector([1 if i & bit else -1 for i in range(size)])
        pairs.append((epsilon, algebra.element_of(bit)))
    return tuple(pairs)


def term_by_permutation(
    algebra: IterantAlgebra, entries, perm: Permutation
) -> IterantElement:
    """Build a term keyed by the group element that acts as the given permutation."""
    for gid in range(algebra.group.order):
        if algebra.action.point_maps[gid] == perm:
            return algebra.term(entries, gid)
    raise ValueError(f"no element of {algebra.group.label} acts as {cycle_string(perm)}")
