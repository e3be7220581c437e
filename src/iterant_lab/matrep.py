"""Bridge between iterant algebras and matrix algebras.

``to_matrix`` sends a sum of vector-times-group-element terms to the matching
sum of diagonal-times-permutation matrices.  For the natural symmetric-group
algebras it has a one-sided inverse ``embed_matrix`` built from the exact
decomposition  M = (1/(n-1)!) * sum over all permutations of diag(v) * P,
where v picks the matrix entries (m_{1p(1)}, ..., m_{np(n)}).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .groups import MAX_ENUMERATED_DEGREE, GroupAction, Permutation
from .groups import perm_matrix, symmetric_permutations
from .iterants import (
    IterantAlgebra,
    IterantElement,
    natural_sn_algebra,
)
from .matrix import SquareMatrix, bareiss, integer_rows
from .scalars import GaussianRational


@dataclass(frozen=True)
class DecompositionTerm:
    """One diagonal-times-permutation summand of a matrix decomposition."""

    diag: tuple[GaussianRational, ...]
    perm: Permutation


def to_matrix(x: IterantElement) -> SquareMatrix:
    """Linear, multiplicative map sending a*g to diag(a) * P(action of g)."""
    algebra = x.algebra
    n = algebra.degree
    zero = GaussianRational()
    rows = [[zero] * n for _ in range(n)]
    for gid, vec in x.terms:
        maps = algebra.action.point_maps[gid]
        for i in range(n):
            rows[i][maps[i]] = rows[i][maps[i]] + vec[i]
    return SquareMatrix(tuple(tuple(row) for row in rows))


def _entry_vector(m: SquareMatrix, p: Permutation) -> tuple[GaussianRational, ...]:
    return tuple(m.rows[i][p.images[i]] for i in range(m.n))


def embed_matrix(m: SquareMatrix) -> IterantElement:
    """The section of to_matrix: (1/(n-1)!) * sum of entry-vectors times permutations."""
    n = m.n
    if n > MAX_ENUMERATED_DEGREE:
        raise ValueError(f"embedding enumerates n! permutations; n <= {MAX_ENUMERATED_DEGREE} required, got {n}")
    algebra = natural_sn_algebra(n)
    factor = Fraction(1, factorial(n - 1))
    perms = symmetric_permutations(n)
    total = algebra.zero()
    for gid, p in enumerate(perms):
        vec = [factor * c for c in _entry_vector(m, p)]
        total = total + algebra.term(vec, gid)
    return total


def decompose_matrix(m: SquareMatrix) -> list[DecompositionTerm]:
    """All n! diagonal-times-permutation summands (leading 1/(n-1)! not folded in)."""
    n = m.n
    if n > MAX_ENUMERATED_DEGREE:
        raise ValueError(f"decomposition enumerates n! permutations; n <= {MAX_ENUMERATED_DEGREE} required, got {n}")
    return [
        DecompositionTerm(_entry_vector(m, p), p) for p in symmetric_permutations(n)
    ]


def reassemble(terms: list[DecompositionTerm], n: int) -> SquareMatrix:
    """(1/(n-1)!) * sum diag(term) * P(term); exact inverse of decompose_matrix."""
    total = SquareMatrix.zero(n)
    for term in terms:
        total = total + SquareMatrix.diagonal(term.diag) * perm_matrix(term.perm)
    return total.scale(Fraction(1, factorial(n - 1)))


@dataclass(frozen=True)
class KernelReport:
    in_kernel: bool
    criteria_agree: bool


def kernel_test(x: IterantElement) -> KernelReport:
    """Zero-image test cross-checked against the entry-sum criterion.

    The element sum(a_g * g) maps to zero exactly when, for every (i, j), the
    i-th coefficients of the terms whose element moves i to j add to zero.
    """
    image = to_matrix(x)
    algebra = x.algebra
    n = algebra.degree
    sums_vanish = True
    cross_ok = True
    for i in range(n):
        for j in range(n):
            total = GaussianRational()
            for gid, vec in x.terms:
                if algebra.action.point_maps[gid][i] == j:
                    total = total + vec[i]
            if not total.is_zero():
                sums_vanish = False
            if image.entry(i, j) != total:
                cross_ok = False
    return KernelReport(image.is_zero(), cross_ok and sums_vanish == image.is_zero())


@dataclass(frozen=True)
class IsoReport:
    action_label: str
    algebra_dim: int
    matrix_dim: int
    homomorphism_ok: bool
    injective_on_basis: bool
    image_rank: int
    spans_matrix_algebra: bool

    @property
    def isomorphism(self) -> bool:
        return (
            self.homomorphism_ok
            and self.injective_on_basis
            and self.spans_matrix_algebra
            and self.algebra_dim == self.matrix_dim
        )


def _random_element(algebra: IterantAlgebra, rng: random.Random, max_terms: int = 3) -> IterantElement:
    total = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        gid = rng.randrange(algebra.group.order)
        vec = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(algebra.degree)]
        total = total + algebra.term(vec, gid)
    return total


def _matrix_rank(vectors: list[list[GaussianRational]]) -> int:
    """Rank over the scalar field, by Bareiss elimination of the rows scaled to integers."""
    return bareiss(integer_rows(vectors)[0])[0]


def iso_check(action: GroupAction, samples: int = 100, seed: int = 0) -> IsoReport:
    """Probe whether to_matrix is an isomorphism onto the full matrix algebra."""
    algebra = IterantAlgebra(action)
    rng = random.Random(seed)
    hom_ok = True
    for _ in range(samples):
        x = _random_element(algebra, rng)
        y = _random_element(algebra, rng)
        if to_matrix(x * y) != to_matrix(x) * to_matrix(y):
            hom_ok = False
            break
    basis_images = [to_matrix(b) for b in algebra.basis()]
    injective = len(set(basis_images)) == len(basis_images)
    flat = [[m.rows[i][j] for i in range(m.n) for j in range(m.n)] for m in basis_images]
    rank = _matrix_rank(flat)
    n2 = action.degree * action.degree
    return IsoReport(
        action_label=action.label,
        algebra_dim=algebra.dimension(),
        matrix_dim=n2,
        homomorphism_ok=hom_ok,
        injective_on_basis=injective,
        image_rank=rank,
        spans_matrix_algebra=rank == n2,
    )
