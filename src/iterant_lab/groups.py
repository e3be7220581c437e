"""Finite groups with explicit permutation actions and identity-diagonal tables.

Conventions, fixed once and inherited by every downstream module:

* a permutation is its image tuple; permutations act on the right and
  compose left to right, so the product pq (p first, then q) is
  ``tuple(q[i] for i in p)`` and ``pq[i] == q[p[i]]``;
* the permutation matrix of ``p`` has its row-``i`` one in column ``i*p``;
* the element ordering of a group is part of the group value, and the
  rearranged multiplication table (identity down the diagonal) quotes it;
* the identity is element 0 of every listing.

No constructor here checks a group axiom or the action law: the C04 rows of
``verify-all`` check them, with the failing elements named, for every group
and action the package builds but Z2^3 and Z2^4, which only
tests/test_groups.py checks, with the same rows.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .matrix import SquareMatrix, from_entries
from .scalars import ONE, parse_integer, quoted


# The desk-scale caps: S_6 has 720 elements, S_7 already a 5040^2 table,
# embedding or decomposing an n x n matrix over the n! permutations stops at
# n = 5, the isocheck of a regular action, whose algebra has dimension
# order^2, stops at order 8 (c8 takes about 4 ms, and s6 natural, the largest
# natural isocheck, about 0.15 s), the random mark trees of
# the confluence fuzz, which hold up to 4^depth marks (about 1.4^depth * 10 on average), stop at depth 8 and at 2000
# trees (about 5 s at depth 8), a parsed mark expression stops at 4000 marks
# (a flat list of 4000 reduces in about 0.6 s), a lattice run stops at
# 2^22 cells x steps (0.5 to 1 s of list ticks at any size, counting fewer
# than 16 cells as 16; the dispersion report ticks no cells), and the CSV of
# a run at 2^19 rows of cells x samples (about 4 s; the README tour writes
# 256,256).
MAX_SYMMETRIC_DEGREE = 6
MAX_GROUP_ORDER = factorial(MAX_SYMMETRIC_DEGREE)
MAX_ENUMERATED_DEGREE = 5
MAX_ISOCHECK_ORDER = 8
MAX_LOF_DEPTH = 8
MAX_LOF_TRIALS = 2000
MAX_LOF_MARKS = 4000
MAX_LATTICE_WORK = 2 ** 22
MAX_LATTICE_ROWS = 2 ** 19


# A bijection of {0..n-1}, held as its image tuple: images[i] is the image of i.
Permutation = tuple[int, ...]


# Up to this many points every point is one digit, and cycle_string writes a
# cycle's points side by side, as "(123)"; past it a comma separates them, as
# "(9,11)", which would otherwise read as a cycle of 9, 1 and 1.
MAX_UNSEPARATED_DEGREE = 9


def cycle_string(images: Permutation) -> str:
    """Cycle notation on 1-based points; the identity prints as "()"."""
    separator = "," if len(images) > MAX_UNSEPARATED_DEGREE else ""
    seen = [False] * len(images)
    parts = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cycle = []
        point = start
        while not seen[point]:
            seen[point] = True
            cycle.append(point + 1)
            point = images[point]
        parts.append("(" + separator.join(str(p) for p in cycle) + ")")
    return "".join(parts) if parts else "()"


def from_cycles(degree: int, text: str) -> Permutation:
    """Read what cycle_string writes for a permutation of degree points:
    1-based cycles like "(12)(34)", or "(1,2)(10,11)" past nine points, and
    "()" for the identity."""
    images = list(range(degree))
    if text == "()":
        return tuple(images)
    separated = degree > MAX_UNSEPARATED_DEGREE
    cycle = r"\([0-9]+(,[0-9]+)*\)" if separated else r"\([0-9]+\)"
    if re.fullmatch(f"({cycle})+", text) is None:
        raise ValueError(f"malformed cycle notation {text!r}")
    moved: set[int] = set()
    for chunk in text[1:-1].split(")("):
        points = [int(c) - 1 for c in (chunk.split(",") if separated else chunk)]
        if any(p < 0 or p >= degree for p in points):
            raise ValueError(f"point out of range in cycle {chunk!r}")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point in cycle {chunk!r}")
        if moved.intersection(points):
            raise ValueError(f"cycles share a point in {text!r}: not a bijection")
        moved.update(points)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


class Group:
    """A finite group given by element names and a multiplication table of ids.

    The table is taken as given: the identity is element 0, and the inverse
    of a is the column of the 0 in row a."""

    identity = 0

    def __init__(
        self,
        names: tuple[str, ...],
        table: tuple[tuple[int, ...], ...],
        label: str = "",
    ):
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self.label = label or "group"
        self.inverses = tuple(row.index(self.identity) for row in self.table)

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

    def name_table(self) -> list[list[str]]:
        return [[self.names[v] for v in row] for row in self.table]

    def __repr__(self) -> str:
        return f"Group({self.label}, order={self.order})"


@lru_cache(maxsize=None)
def cyclic(n: int) -> Group:
    """Cyclic group of order n with elements 1, S, S^2, ..."""
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"cyclic group order {n} exceeds the cap of {MAX_GROUP_ORDER}")
    names = ["1"] + [f"S^{k}" if k > 1 else "S" for k in range(1, n)]
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return Group(tuple(names), table, label=f"c{n}")


@lru_cache(maxsize=None)
def xor_group(k: int) -> Group:
    """Z2^k, one group per k: the 2^k bit masks under XOR, named 1, e for k = 1
    (label s2), 1, A, B, C for k = 2 (klein4), and past that by their k bits
    (z2^k).  Its regular action moves point i to i ^ g."""
    size = 2 ** k
    if k == 1:
        names, label = ("1", "e"), "s2"
    elif k == 2:
        names, label = ("1", "A", "B", "C"), "klein4"
    else:
        names, label = tuple(format(g, f"0{k}b") for g in range(size)), f"z2^{k}"
    return Group(names, tuple(tuple(i ^ j for j in range(size)) for i in range(size)), label)


def klein4() -> Group:
    """The group C2 x C2 with elements 1, A, B, C and A^2 = B^2 = C^2 = 1, AB = C:
    Z2^2 with A, B and C the masks 1, 2 and 3."""
    return xor_group(2)


def closure(group: Group, elements: list[int]) -> set[int]:
    """Every product of one or more of the elements.  In a finite group that
    is the subgroup they generate, since g^-1 = g^(k-1) for g of order k; no
    elements give the empty set."""
    reached = set(elements)
    frontier = list(reached)
    while frontier:
        frontier = [h for h in {group.mul(g, s) for g in frontier for s in elements}
                    if h not in reached]
        reached.update(frontier)
    return reached


def generators(group: Group) -> list[int]:
    """A generating set, chosen greedily: the elements in descending order of
    element order (ties in listing order), each kept if it is not yet in the
    closure of those kept before it, until that closure is the whole group.
    Every cyclic group gets one generator, klein4 and S_3 to S_5 two, S_6 three."""
    def element_order(g: int) -> int:
        k, power = 1, g
        while power != group.identity:
            k, power = k + 1, group.mul(power, g)
        return k

    kept: list[int] = []
    reached: set[int] = set()
    for g in sorted(range(group.order), key=element_order, reverse=True):
        if len(reached) == group.order:
            break
        if g not in reached:
            kept.append(g)
            reached = closure(group, kept)
    return kept


def symmetric(n: int) -> Group:
    """Symmetric group on n points, listed as natural_action(n) lists it."""
    return natural_action(n).group


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


def perm_matrix(images: Permutation) -> SquareMatrix:
    """0/1 matrix with the row-i one in column i*p; products track composition."""
    return from_entries(len(images), [(i, j, ONE) for i, j in enumerate(images)])


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
    return tuple(images)


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on points 0..degree-1; point_maps[g] is the
    permutation of g, so point_maps[g][i] = i*g."""

    group: Group
    point_maps: tuple[Permutation, ...]
    label: str = ""

    @property
    def degree(self) -> int:
        return len(self.point_maps[0])


def regular_action(group: Group) -> GroupAction:
    """Right regular action: point i moves under g to the index of g_i * g."""
    maps = tuple(
        tuple(group.mul(i, g) for i in range(group.order))
        for g in range(group.order)
    )
    return GroupAction(group, maps, label=f"{group.label} regular")


@lru_cache(maxsize=None)
def natural_action(n: int) -> GroupAction:
    """Symmetric group of degree n acting on n points the obvious way: the
    listing is every permutation in itertools order, named by its cycles,
    except S_3, listed as 1, R, R^2, F, RF, R^2F."""
    if n < 1:
        raise ValueError("symmetric group degree must be positive")
    if n > MAX_SYMMETRIC_DEGREE:
        raise ValueError(f"symmetric group degree {n} exceeds the cap of {MAX_SYMMETRIC_DEGREE}")
    if n == 3:
        # R = (123) and F = (12), so that R^3 = F^2 = 1 and FR = R^2 F under
        # left-to-right composition.
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
        names = ["1", "R", "R^2", "F", "RF", "R^2F"]
    else:
        perms = list(itertools.permutations(range(n)))
        names = [cycle_string(p) for p in perms]
    # the table under left-to-right composition, each product looked up by its image tuple
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(b[i] for i in a)] for b in perms) for a in perms)
    return GroupAction(Group(tuple(names), table, f"s{n}"), tuple(perms), label=f"s{n} natural")


def element_matrices_from_g_table(group: Group) -> dict[str, SquareMatrix]:
    """For each element g, the 0/1 matrix marking the positions of g in the
    rearranged identity-diagonal table; these realize the regular representation."""
    placed = [[] for _ in range(group.order)]
    for i, row in enumerate(g_table(group)):
        for j, g in enumerate(row):
            placed[g].append((i, j, ONE))
    return {name: from_entries(group.order, entries)
            for name, entries in zip(group.names, placed)}


def parse_group_name(name: str) -> tuple[str, int]:
    """The family ("c", "s" or "klein4") and the number that c<n>, s<n> or
    klein4 names; the number is read under the literal digit cap."""
    key = name.lower()
    if key == "klein4":
        return key, 4
    if key[:1] in ("c", "s") and key[1:].isdigit():
        return key[0], parse_integer(key[1:])
    raise KeyError(f"unknown group {quoted(name)}; try c<n>, s<n> or klein4")


def builtin_group(name: str) -> Group:
    family, n = parse_group_name(name)
    if family == "c":
        return cyclic(n)
    if family == "s":
        return symmetric(n)
    return klein4()
