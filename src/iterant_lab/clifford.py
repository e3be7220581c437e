"""Quaternion triples, anticommuting generator ladders,
braiding by conjugation, fermion operators and the self-dual fusion ring.

Clifford algebra comes from the alternation epsilon = [-1, 1] and the shift
eta, with sqrt(-1) = epsilon eta: each bit j of Z2^k has its own pair
(epsilon_j, eta_j), and every ladder generator and the klein4 and iota_2x2
quaternions are each one iterant term v g, read through matrep.to_matrix.
Over xor_group(k) the elements are 1, e for k = 1 (the period-two algebra),
1, A, B, C for k = 2 (klein4's), and k bits past that (ladders of 5 to 8).

Each identity (a quaternion unit product, a generator, braider or fermion
relation, the realness of a matrix) is yielded as one (name, lhs, rhs)
triple; the caller compares the two sides, so a failure shows both.  No
constructor here checks one: a generator ladder is taken as built, and the
C10 rows of verify-all check its relations.

All braiding stays in exact arithmetic: the conjugation by (1 + c'c)/sqrt(2)
is computed as (1 + c'c) x (1 - c'c) / 2, where the sqrt(2) factors cancel
identically.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .groups import klein4
from .iterants import alternations_and_shifts, regular_algebra
from .matrep import to_matrix
from .matrix import SquareMatrix
from .scalars import I_UNIT

# Each identity is one (name, lhs, rhs) triple; it holds when lhs == rhs.
Relations = Iterator[tuple[str, Any, Any]]


@dataclass(frozen=True)
class QuaternionTriple:
    I: SquareMatrix
    J: SquareMatrix
    K: SquareMatrix

    @property
    def dim(self) -> int:
        return self.I.n


_QUATERNION_SIGNS = {
    # (left unit, right unit) -> (sign, result unit) over {1, i, j, k}
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def quaternion_products(triple: QuaternionTriple) -> Relations:
    """The 16 unit products, each as (name, product, the table's signed unit)."""
    units = {"1": SquareMatrix.identity(triple.dim), "i": triple.I, "j": triple.J, "k": triple.K}
    for (a, b), (sign, c) in _QUATERNION_SIGNS.items():
        yield f"{a}*{b}", units[a] * units[b], units[c].scale(sign)


def quaternion_triple(variant: str) -> QuaternionTriple:
    """Three constructions of I, J, K with I^2 = J^2 = K^2 = IJK = -1.

    * ``klein4``: real 4x4 signed permutation matrices, the terms
      [1,-1,-1,1] A, [1,1,-1,-1] B and [1,-1,1,-1] C of klein4's regular algebra;
    * ``iota_2x2``: 2x2 Gaussian-rational matrices i epsilon, epsilon eta and
      i eta of the period-two pair over Z2;
    * ``majorana_triple``: products of a triple of anticommuting square-one
      generators (I = c2 c1, J = c3 c2, K = c1 c3).
    """
    if variant == "klein4":
        algebra = regular_algebra(klein4())
        return QuaternionTriple(to_matrix(algebra.term([1, -1, -1, 1], "A")),
                                to_matrix(algebra.term([1, 1, -1, -1], "B")),
                                to_matrix(algebra.term([1, -1, 1, -1], "C")))
    if variant == "iota_2x2":
        (epsilon, eta), = alternations_and_shifts(1)
        return QuaternionTriple(to_matrix(epsilon.scale(I_UNIT)), to_matrix(epsilon * eta),
                                to_matrix(eta.scale(I_UNIT)))
    if variant == "majorana_triple":
        return quaternions_from_triple(clifford_generators(3))
    raise ValueError(f"unknown quaternion variant {variant!r}")


MAX_CLIFFORD_GENERATORS = 8


def _check_generator_count(n: int) -> None:
    if not 1 <= n <= MAX_CLIFFORD_GENERATORS:
        raise ValueError(f"generator count must be in 1..{MAX_CLIFFORD_GENERATORS}, got {n}")


def clifford_generators(n: int) -> tuple[SquareMatrix, ...]:
    """Ladder of n anticommuting square-one matrices in dimension 2^k,
    k = ceil(n/2), taken as built: the C10 rows of verify-all check
    anticommuting_relations of every ladder the package builds.

    c_{2j} = P_j epsilon_j and c_{2j+1} = P_j eta_j over Z2^k, with
    P_j = prod_{l<j} i epsilon_l eta_l, of square +1 and commuting with both."""
    _check_generator_count(n)
    pairs = alternations_and_shifts((n + 1) // 2)
    parity = pairs[0][0].algebra.one()
    terms = []
    for epsilon, eta in pairs:
        terms += [parity * epsilon, parity * eta]
        parity = parity * (epsilon * eta).scale(I_UNIT)
    return tuple(to_matrix(term) for term in terms[:n])


def quaternions_from_triple(generators: tuple[SquareMatrix, ...]) -> QuaternionTriple:
    if len(generators) != 3:
        raise ValueError(f"need exactly 3 generators, got {len(generators)}")
    a, b, c = generators
    return QuaternionTriple(b * a, c * b, a * c)


def braid_conjugate(
    generators: tuple[SquareMatrix, ...], k: int, xs: Iterable[SquareMatrix]
) -> list[SquareMatrix]:
    """Each x conjugated by the k-th braiding element, exactly:
    (1 + c_{k+1} c_k) x (1 - c_{k+1} c_k) / 2.  w = c_{k+1} c_k and 1 +- w
    are built once for all of xs."""
    if not 1 <= k < len(generators):
        raise ValueError(f"braid index must satisfy 1 <= k < {len(generators)}, got {k}")
    identity = SquareMatrix.identity(generators[0].n)
    w = generators[k] * generators[k - 1]
    left, right = identity + w, identity - w
    return [(left * x * right).scale(Fraction(1, 2)) for x in xs]


def braid_basis_matrix(n: int, k: int) -> SquareMatrix:
    """Signed permutation of the generator span: c_k -> c_{k+1}, c_{k+1} -> -c_k.

    Row i holds the coordinates of the image of c_{i+1}.
    """
    _check_generator_count(n)
    if not 1 <= k < n:
        raise ValueError(f"braid index must satisfy 1 <= k < {n}, got {k}")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    rows[k - 1][k - 1] = 0
    rows[k - 1][k] = 1
    rows[k][k] = 0
    rows[k][k - 1] = -1
    return SquareMatrix.from_rows(rows)


def braid_word_matrix(n: int, word: list[int]) -> SquareMatrix:
    _check_generator_count(n)
    total = SquareMatrix.identity(n)
    for k in word:
        total = total * braid_basis_matrix(n, k)
    return total


def braider_relations(generators: tuple[SquareMatrix, ...]) -> Relations:
    """The braid relations of the unnormalized braiders 1+I, 1+J, 1+K, each as
    (name, lhs, rhs); the dropped 1/sqrt(2) factors cancel identically, so the
    relations hold exactly."""
    triple = quaternions_from_triple(generators)
    one = SquareMatrix.identity(triple.dim)
    a, b, c = one + triple.I, one + triple.J, one + triple.K
    yield "ABA = BAB", a * b * a, b * a * b
    yield "BCB = CBC", b * c * b, c * b * c
    yield "ACA = CAC", a * c * a, c * a * c


def anticommuting_relations(generators: tuple[SquareMatrix, ...]) -> Relations:
    """c_i^2 = 1 and c_i c_j = -c_j c_i for i < j, each as (name, lhs, rhs)
    named by the 1-based pair (i, j), with i == j for the square."""
    one = SquareMatrix.identity(generators[0].n)
    for i, a in enumerate(generators, 1):
        yield (i, i), a * a, one
        for j, b in enumerate(generators[i:], i + 1):
            yield (i, j), a * b, -(b * a)


def fermion_relations(generators: tuple[SquareMatrix, ...]) -> Relations:
    """The fermion relations of psi = (c_1 + i c_2)/2 and psi+ = (c_1 - i c_2)/2,
    each as (name, lhs, rhs); they follow from the anticommuting square-one pair."""
    c, cp = generators[0], generators[1]
    half = Fraction(1, 2)
    psi = (c + cp.scale(I_UNIT)).scale(half)
    psi_dag = (c - cp.scale(I_UNIT)).scale(half)
    zero = SquareMatrix.zero(c.n)
    yield "psi^2 = 0", psi * psi, zero
    yield "psi+^2 = 0", psi_dag * psi_dag, zero
    yield "psi psi+ + psi+ psi = 1", psi.anticommutator(psi_dag), SquareMatrix.identity(c.n)
    yield "psi+ = conjugate transpose of psi", psi_dag, psi.conjugate_transpose()


def real_relations(matrices: dict[str, SquareMatrix]) -> Relations:
    """Each named matrix against its entrywise complex conjugate: equal iff real."""
    for name, m in matrices.items():
        yield name, m, m.conjugate()


# ---------------------------------------------------------------------------
# Fusion ring of a self-dual particle: P * P = 1 + P.


@dataclass(frozen=True)
class FusionElement:
    unit: int = 0
    p: int = 0

    def __add__(self, other: FusionElement) -> FusionElement:
        return FusionElement(self.unit + other.unit, self.p + other.p)

    def __mul__(self, other: FusionElement) -> FusionElement:
        a, b, c, d = self.unit, self.p, other.unit, other.p
        return FusionElement(a * c + b * d, a * d + b * c + b * d)

    def __str__(self) -> str:
        return f"{self.unit} + {self.p}P"


FUSION_ONE = FusionElement(1, 0)
FUSION_P = FusionElement(0, 1)


# P^n has coefficients of about 0.7 n bits; the cap keeps a table desk-scale.
MAX_FUSION_POWER = 1000


def fusion_powers(n: int) -> list[FusionElement]:
    """P^0, P^1, ..., P^n, one product each."""
    if not 0 <= n <= MAX_FUSION_POWER:
        raise ValueError(f"fusion powers are defined for 0 <= n <= {MAX_FUSION_POWER}, got {n}")
    powers = [FUSION_ONE]
    for _ in range(n):
        powers.append(powers[-1] * FUSION_P)
    return powers

