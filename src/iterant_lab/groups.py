"""Finite groups with explicit permutation actions and identity-diagonal tables.

Conventions, fixed once and inherited by every downstream module:

* permutations act on the right and compose left to right, so the point
  image satisfies ``(p * q).apply(i) == q.apply(p.apply(i))``;
* the permutation matrix of ``p`` has its row-``i`` one in column ``i*p``;
* the element ordering of a group is part of the group value, and the
  rearranged multiplication table (identity down the diagonal) quotes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .matrix import SquareMatrix


# The desk-scale caps: S_6 has 720 elements, S_7 already a 5040^2 table,
# enumerating the n * n! basis of the natural S_n algebra stops at n = 5, and
# the isocheck of a regular action, whose algebra has dimension order^2,
# stops at order 8.
MAX_SYMMETRIC_DEGREE = 6
MAX_GROUP_ORDER = factorial(MAX_SYMMETRIC_DEGREE)
MAX_ENUMERATED_DEGREE = 5
MAX_ISOCHECK_ORDER = 8


class GroupTableError(ValueError):
    """A multiplication table violates a group axiom; carries the witness cell."""

    def __init__(self, axiom: str, cell: tuple[int, ...], message: str):
        super().__init__(f"{axiom} fails at {cell}: {message}")
        self.axiom = axiom
        self.cell = cell


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0..n-1}; images[i] is the image of point i (right action)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {self.images}")

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        """Left-to-right composition: apply self first, then other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch in permutation product")
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_string(self) -> str:
        """Cycle notation on 1-based points; the identity prints as "()"."""
        seen = [False] * self.degree
        parts = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cycle = []
            point = start
            while not seen[point]:
                seen[point] = True
                cycle.append(point + 1)
                point = self.images[point]
            parts.append("(" + "".join(str(p) for p in cycle) + ")")
        return "".join(parts) if parts else "()"

    @staticmethod
    def from_cycles(degree: int, text: str) -> Permutation:
        """Parse 1-based cycle notation like "(12)(34)"; "()" is the identity."""
        images = list(range(degree))
        body = text.replace(" ", "")
        if body in ("", "()", "id", "e"):
            return Permutation(tuple(images))
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"malformed cycle notation {text!r}")
        for chunk in body[1:-1].split(")("):
            points = [int(c) - 1 for c in chunk.split(",")] if "," in chunk else [
                int(c) - 1 for c in chunk
            ]
            if any(p < 0 or p >= degree for p in points):
                raise ValueError(f"point out of range in cycle {chunk!r}")
            if len(set(points)) != len(points):
                raise ValueError(f"repeated point in cycle {chunk!r}")
            for a, b in zip(points, points[1:] + points[:1]):
                images[a] = b
        return Permutation(tuple(images))

    def __str__(self) -> str:
        return self.cycle_string()


class Group:
    """A finite group given by element names and a multiplication table of ids."""

    def __init__(
        self,
        names: tuple[str, ...],
        table: tuple[tuple[int, ...], ...],
        validate: bool = True,
        label: str = "",
    ):
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self.label = label or "group"
        n = len(self.names)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise GroupTableError("closure", (n,), "table is not order x order")
        if validate:
            self._validate()
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r} in {self.label}") from None

    def _validate(self) -> None:
        n = len(self.names)
        for i, row in enumerate(self.table):
            for j, v in enumerate(row):
                if not (0 <= v < n):
                    raise GroupTableError("closure", (i, j), f"entry {v} is not an element id")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise GroupTableError(
                            "associativity",
                            (a, b, c),
                            f"({self.names[a]}*{self.names[b]})*{self.names[c]} != "
                            f"{self.names[a]}*({self.names[b]}*{self.names[c]})",
                        )

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                return e
        raise GroupTableError("identity", (-1,), "no two-sided identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        n = self.order
        inv = []
        for a in range(n):
            partner = next(
                (b for b in range(n) if self.table[a][b] == self.identity == self.table[b][a]),
                None,
            )
            if partner is None:
                raise GroupTableError("inverses", (a,), f"element {self.names[a]} has no inverse")
            inv.append(partner)
        return tuple(inv)

    def name_table(self) -> list[list[str]]:
        return [[self.names[v] for v in row] for row in self.table]

    def __repr__(self) -> str:
        return f"Group({self.label}, order={self.order})"


def _group_from_permutations(
    perms: list[Permutation], names: list[str], label: str
) -> tuple[Group, tuple[Permutation, ...]]:
    index = {p.images: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[(a * b).images] for b in perms) for a in perms
    )
    return Group(tuple(names), table, validate=False, label=label), tuple(perms)


@lru_cache(maxsize=None)
def cyclic(n: int) -> Group:
    """Cyclic group of order n with elements 1, S, S^2, ..."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"cyclic group order {n} exceeds the cap of {MAX_GROUP_ORDER}")
    names = ["1"] + [f"S^{k}" if k > 1 else "S" for k in range(1, n)]
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return Group(tuple(names), table, validate=False, label=f"c{n}")


@lru_cache(maxsize=None)
def klein4() -> Group:
    """The group C2 x C2 with elements 1, A, B, C and A^2 = B^2 = C^2 = 1, AB = C."""
    perms = [
        Permutation((0, 1, 2, 3)),
        Permutation((1, 0, 3, 2)),
        Permutation((2, 3, 0, 1)),
        Permutation((3, 2, 1, 0)),
    ]
    group, _ = _group_from_permutations(perms, ["1", "A", "B", "C"], "klein4")
    return group


@lru_cache(maxsize=None)
def _symmetric_with_perms(n: int) -> tuple[Group, tuple[Permutation, ...]]:
    if n < 1:
        raise ValueError("symmetric group degree must be positive")
    if n > MAX_SYMMETRIC_DEGREE:
        raise ValueError(f"symmetric group degree {n} exceeds the cap of {MAX_SYMMETRIC_DEGREE}")
    if n == 3:
        # Listing 1, R, R^2, F, RF, R^2F with R = (123), F = (12), so that
        # R^3 = F^2 = 1 and FR = R^2 F under left-to-right composition.
        r = Permutation((1, 2, 0))
        f = Permutation((1, 0, 2))
        perms = [Permutation.identity(3), r, r * r, f, r * f, r * r * f]
        names = ["1", "R", "R^2", "F", "RF", "R^2F"]
        return _group_from_permutations(perms, names, "s3")
    perms = [Permutation(images) for images in itertools.permutations(range(n))]
    names = [p.cycle_string() for p in perms]
    return _group_from_permutations(perms, names, f"s{n}")


def symmetric(n: int) -> Group:
    """Symmetric group on n points; S_3 uses the R/F listing 1, R, R^2, F, RF, R^2F."""
    return _symmetric_with_perms(n)[0]


def symmetric_permutations(n: int) -> tuple[Permutation, ...]:
    """The underlying degree-n permutations, aligned with symmetric(n)'s listing."""
    return _symmetric_with_perms(n)[1]


def explicit(names: list[str], table: list[list[int]], label: str = "explicit") -> Group:
    """Group from an explicit table; all axioms are checked eagerly."""
    return Group(tuple(names), tuple(tuple(row) for row in table), validate=True, label=label)


def g_table(group: Group) -> tuple[tuple[int, ...], ...]:
    """Rearranged multiplication table with entry (i, j) = g_i^-1 g_j.

    The diagonal is all identity, and the positions of each element g form the
    permutation matrix of the right regular action of g.
    """
    return tuple(
        tuple(group.mul(group.inv(i), j) for j in range(group.order))
        for i in range(group.order)
    )


def g_table_names(group: Group) -> list[list[str]]:
    return [[group.names[v] for v in row] for row in g_table(group)]


def perm_matrix(p: Permutation) -> SquareMatrix:
    """0/1 matrix with the row-i one in column i*p; products track composition."""
    n = p.degree
    return SquareMatrix.from_rows(
        [[1 if j == p.images[i] else 0 for j in range(n)] for i in range(n)]
    )


def matrix_to_perm(m: SquareMatrix) -> Permutation:
    """Inverse of perm_matrix; rejects anything that is not a permutation matrix."""
    n = m.n
    images = []
    for i, row in enumerate(m.rows):
        ones = []
        for j, a in enumerate(row):
            if a.is_zero():
                continue
            if a.is_real() and a.re == 1:
                ones.append(j)
            else:
                raise ValueError(f"not a permutation matrix: entry ({i},{j}) is {a}")
        if len(ones) != 1:
            raise ValueError(f"not a permutation matrix: row {i} has {len(ones)} ones")
        images.append(ones[0])
    if sorted(images) != list(range(n)):
        bad = next(i for i in range(n) if images.count(images[i]) > 1)
        raise ValueError(f"not a permutation matrix: duplicate column in row {bad}")
    return Permutation(tuple(images))


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on points 0..degree-1; point_maps[g][i] = i*g."""

    group: Group
    degree: int
    point_maps: tuple[tuple[int, ...], ...]
    label: str = ""

    def __post_init__(self) -> None:
        e = self.group.identity
        if any(self.point_maps[e][i] != i for i in range(self.degree)):
            raise ValueError("identity element does not act as the identity")
        for g in range(self.group.order):
            if sorted(self.point_maps[g]) != list(range(self.degree)):
                raise ValueError(f"element {self.group.names[g]} does not act bijectively")
        for g in range(self.group.order):
            for h in range(self.group.order):
                gh = self.group.mul(g, h)
                for i in range(self.degree):
                    if self.point_maps[gh][i] != self.point_maps[h][self.point_maps[g][i]]:
                        raise ValueError(
                            f"action is not compatible with the product at "
                            f"({self.group.names[g]}, {self.group.names[h]}, point {i})"
                        )

    def act(self, g: int, point: int) -> int:
        return self.point_maps[g][point]

    def perm_of(self, g: int) -> Permutation:
        return Permutation(self.point_maps[g])

    def matrix_of(self, g: int) -> SquareMatrix:
        return perm_matrix(self.perm_of(g))


def regular_action(group: Group) -> GroupAction:
    """Right regular action: point i moves under g to the index of g_i * g."""
    maps = tuple(
        tuple(group.mul(i, g) for i in range(group.order))
        for g in range(group.order)
    )
    return GroupAction(group, group.order, maps, label=f"{group.label} regular")


@lru_cache(maxsize=None)
def natural_action(n: int) -> GroupAction:
    """Symmetric group of degree n acting on n points the obvious way."""
    group, perms = _symmetric_with_perms(n)
    maps = tuple(p.images for p in perms)
    return GroupAction(group, n, maps, label=f"s{n} natural")


def element_matrices_from_g_table(group: Group) -> dict[str, SquareMatrix]:
    """For each element g, the 0/1 matrix marking the positions of g in the
    rearranged identity-diagonal table; these realize the regular representation."""
    table = g_table(group)
    out = {}
    for g in range(group.order):
        rows = [
            [1 if table[i][j] == g else 0 for j in range(group.order)]
            for i in range(group.order)
        ]
        out[group.names[g]] = SquareMatrix.from_rows(rows)
    return out


def builtin_group(name: str) -> Group:
    key = name.lower()
    if key.startswith("c") and key[1:].isdigit():
        return cyclic(int(key[1:]))
    if key.startswith("s") and key[1:].isdigit():
        return symmetric(int(key[1:]))
    if key == "klein4":
        return klein4()
    raise KeyError(f"unknown group {name!r}; try c<n>, s<n> or klein4")
