"""Bridge between iterant algebras and matrix algebras.

``to_matrix`` sends a sum of vector-times-group-element terms to the matching
sum of diagonal-times-permutation matrices.  For the natural symmetric-group
algebras it has a one-sided inverse ``embed_matrix`` built from the exact
decomposition  M = (1/(n-1)!) * sum over all permutations of diag(v) * P,
where v picks the matrix entries (m_{1p(1)}, ..., m_{np(n)}).

The checks hand back two sides for the caller to compare: ``entry_sums`` is
the kernel's entry-sum criterion as a matrix, equal to ``to_matrix`` of the
same element exactly when the two kernel criteria agree, and
``product_relation`` gives M(xy) beside M(x) M(y).  ``iso_check`` reads the
latter on seeded random pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .groups import MAX_ENUMERATED_DEGREE, GroupAction, Permutation
from .groups import natural_action
from .iterants import (
    IterantAlgebra,
    IterantElement,
    natural_sn_algebra,
    random_pairs,
)
from .matrix import SquareMatrix, bareiss, integer_rows
from .scalars import GaussianRational


@dataclass(frozen=True)
class DecompositionTerm:
    """One diagonal-times-permutation summand of a matrix decomposition."""

    diag: tuple[GaussianRational, ...]
    perm: Permutation


def _placed(n: int, terms) -> SquareMatrix:
    """The sum of diag(vec) * P(images) over the (vec, images) terms: row i of
    diag(vec) * P(images) holds vec[i] at column images[i] and zeros elsewhere."""
    zero = GaussianRational()
    rows = [[zero] * n for _ in range(n)]
    for vec, images in terms:
        for i in range(n):
            rows[i][images[i]] = rows[i][images[i]] + vec[i]
    return SquareMatrix(tuple(tuple(row) for row in rows))


def to_matrix(x: IterantElement) -> SquareMatrix:
    """Linear, multiplicative map sending a*g to diag(a) * P(action of g)."""
    maps = x.algebra.action.point_maps
    return _placed(x.algebra.degree, ((vec, maps[gid]) for gid, vec in x.terms))


def _entry_vector(m: SquareMatrix, p: Permutation) -> tuple[GaussianRational, ...]:
    return tuple(m.rows[i][p[i]] for i in range(m.n))


def embed_matrix(m: SquareMatrix) -> IterantElement:
    """The section of to_matrix: (1/(n-1)!) * sum of entry-vectors times permutations."""
    n = m.n
    if n > MAX_ENUMERATED_DEGREE:
        raise ValueError(f"embedding enumerates n! permutations; n <= {MAX_ENUMERATED_DEGREE} required, got {n}")
    algebra = natural_sn_algebra(n)
    factor = Fraction(1, factorial(n - 1))
    total = algebra.zero()
    for gid, p in enumerate(algebra.action.point_maps):
        vec = [factor * c for c in _entry_vector(m, p)]
        total = total + algebra.term(vec, gid)
    return total


def decompose_matrix(m: SquareMatrix) -> list[DecompositionTerm]:
    """All n! diagonal-times-permutation summands (leading 1/(n-1)! not folded in)."""
    n = m.n
    if n > MAX_ENUMERATED_DEGREE:
        raise ValueError(f"decomposition enumerates n! permutations; n <= {MAX_ENUMERATED_DEGREE} required, got {n}")
    return [
        DecompositionTerm(_entry_vector(m, p), p) for p in natural_action(n).point_maps
    ]


def reassemble(terms: list[DecompositionTerm], n: int) -> SquareMatrix:
    """(1/(n-1)!) * sum diag(term) * P(term); exact inverse of decompose_matrix."""
    placed = _placed(n, ((term.diag, term.perm) for term in terms))
    return placed.scale(Fraction(1, factorial(n - 1)))


def entry_sums(x: IterantElement) -> SquareMatrix:
    """The entry-sum criterion as a matrix: entry (i, j) adds the i-th
    coefficients of the terms whose element moves i to j.

    x maps to zero exactly when every such sum vanishes, so the criterion
    agrees with the zero-image test exactly when entry_sums(x) == to_matrix(x).
    """
    maps, n = x.algebra.action.point_maps, x.algebra.degree
    return SquareMatrix(tuple(
        tuple(sum((vec[i] for gid, vec in x.terms if maps[gid][i] == j), GaussianRational())
              for j in range(n))
        for i in range(n)))


def product_relation(
    pair: tuple[IterantElement, IterantElement],
) -> tuple[SquareMatrix, SquareMatrix]:
    """M(xy) against M(x) M(y)."""
    x, y = pair
    return to_matrix(x * y), to_matrix(x) * to_matrix(y)


def _matrix_rank(vectors: list[list[GaussianRational]]) -> int:
    """Rank over the scalar field, by Bareiss elimination of the rows scaled to integers."""
    return bareiss(integer_rows(vectors)[0])[0]


def iso_check(action: GroupAction, samples: int = 100, seed: int = 0) -> dict:
    """Probe whether to_matrix is an isomorphism onto the full matrix algebra:
    the fields ``matrep isocheck`` prints, in its order.  The homomorphism
    probe compares the two sides of product_relation on seeded random pairs
    and stops at the first pair that differs."""
    algebra = IterantAlgebra(action)
    pairs = random_pairs(algebra, random.Random(seed), samples)
    hom_ok = all(lhs == rhs for lhs, rhs in map(product_relation, pairs))
    basis_images = [to_matrix(b) for b in algebra.basis()]
    flat = [[m.rows[i][j] for i in range(m.n) for j in range(m.n)] for m in basis_images]
    rank = _matrix_rank(flat)
    dim, n2 = algebra.dimension(), action.degree * action.degree
    return {
        "action": action.label,
        "algebra_dim": dim,
        "matrix_dim": n2,
        "homomorphism_ok": hom_ok,
        "distinct_basis_images": len(set(basis_images)) == len(basis_images),
        "image_rank": rank,
        "spans_matrix_algebra": rank == n2,
        # rank = n^2 = dim already makes the basis images distinct
        "isomorphism": hom_ok and rank == n2 == dim,
    }
