"""Bridge between iterant algebras and matrix algebras.

``to_matrix`` sends a sum of vector-times-group-element terms to the matching
sum of diagonal-times-permutation matrices, built by ``matrix.from_entries``
from each entry v[i] of a term v g placed at (i, i*g).  For the natural
symmetric-group algebras it has a one-sided inverse ``embed_matrix`` built
from the exact decomposition  M = (1/(n-1)!) * sum over all permutations of
diag(v) * P, where v picks the matrix entries (m_{1p(1)}, ..., m_{np(n)}).

The checks hand back two sides for the caller to compare: ``entry_sums`` is
the kernel's entry-sum criterion as a matrix, equal to ``to_matrix`` of the
same element exactly when the two kernel criteria agree, and
``product_relation`` gives M(xy) beside M(x) M(y).

The homomorphism M(xy) = M(x) M(y) is proved here once, from finitely many
cases, taking the table as a group: associative, with identity 0 (C04 checks
the axioms of the groups it names).  Both sides are bilinear, so basis terms
x = a g and y = b h suffice, and by the product rule (a g)(b h) = (a.b^g)(gh)
the identity is

    diag(a) P_g diag(b) P_h = diag(a.b^g) P_gh,

given M(e_i g) = diag(e_i) P_g.  That holds for all a, b, g, h once, for
every g, P_g P_h = P_gh for every h and P_g diag(b) = diag(b^g) P_g for the
unit vectors b, and so for every b, both sides being linear in b.
product_relation on the ``generator_cases`` (s, h) and (s, e_i) gives both
facts for each generator s.  They pass from g to sg: P_sg P_h = P_s P_g P_h =
P_s P_gh = P_sgh, and P_sg diag(b) = P_s diag(b^g) P_g = diag(b^sg) P_sg.  So
by induction on word length they hold for every product of generators, and
the closure of the generators makes that every element.  ``basis_image``
gives the premise M(e_i g) = diag(e_i) P_g: M(e_i g) beside the matrix unit
at (i, i*g).  Two callers run these two pieces: ``iso_check``, for
``matrep isocheck``, and the C04.<group>-homomorphism and
C04.<group>-basis-images rows of verify-all.  Each caller passes both pieces
one ``image_memo``, so the image of each distinct element is built once per
check: the basis elements e_i g, and the group elements s, h and sh (a
product s e_i is a basis element).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import groups
from .groups import MAX_ENUMERATED_DEGREE, Permutation, natural_action
from .iterants import IterantAlgebra, IterantElement, natural_sn_algebra
from .matrix import SquareMatrix, bareiss, from_entries, integer_rows
from .scalars import ONE, GaussianRational


@dataclass(frozen=True)
class DecompositionTerm:
    """One diagonal-times-permutation summand of a matrix decomposition."""

    diag: tuple[GaussianRational, ...]
    perm: Permutation


def _placed(n: int, terms) -> SquareMatrix:
    """The sum of diag(vec) * P(images) over the (vec, images) terms: row i of
    diag(vec) * P(images) holds vec[i] at column images[i] and zeros elsewhere."""
    return from_entries(n, ((i, j, c) for vec, images in terms
                            for i, j, c in zip(range(n), images, vec)))


def to_matrix(x: IterantElement) -> SquareMatrix:
    """Linear, multiplicative map sending a*g to diag(a) * P(action of g)."""
    maps = x.algebra.action.point_maps
    return _placed(x.algebra.degree, ((vec, maps[gid]) for gid, vec in x.terms))


def _entry_vector(m: SquareMatrix, p: Permutation) -> tuple[GaussianRational, ...]:
    return tuple(m.rows[i][p[i]] for i in range(m.n))


def embed_matrix(m: SquareMatrix) -> IterantElement:
    """The section of to_matrix: the decompose_matrix terms with a nonzero
    diagonal, each scaled by 1/(n-1)!, as an element of the natural algebra
    (decompose_matrix lists them in group-id order)."""
    factor = Fraction(1, factorial(m.n - 1))
    return IterantElement(natural_sn_algebra(m.n), tuple(
        (gid, tuple(factor * c for c in term.diag))
        for gid, term in enumerate(decompose_matrix(m)) if any(term.diag)))


def decompose_matrix(m: SquareMatrix) -> list[DecompositionTerm]:
    """All n! diagonal-times-permutation summands (leading 1/(n-1)! not folded in)."""
    n = m.n
    if not 1 <= n <= MAX_ENUMERATED_DEGREE:
        raise ValueError(f"decomposition enumerates n! permutations; 1 <= n <= "
                         f"{MAX_ENUMERATED_DEGREE} required, got a {n}x{n} matrix")
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


def image_memo() -> Callable[[IterantElement], SquareMatrix]:
    """to_matrix for the elements of one algebra, building the image of each
    distinct element once, for as long as the caller keeps the function.  A
    check makes one and drops it when it ends, so no image outlives it."""
    images: dict[tuple, SquareMatrix] = {}

    def image(x: IterantElement) -> SquareMatrix:
        m = images.get(x.terms)
        if m is None:
            m = images[x.terms] = to_matrix(x)
        return m

    return image


def product_relation(
    pair: tuple[IterantElement, IterantElement], image=None,
) -> tuple[SquareMatrix, SquareMatrix]:
    """M(xy) against M(x) M(y), with M an image_memo, or to_matrix by default."""
    x, y = pair
    image = image or to_matrix
    return image(x * y), image(x) * image(y)


def _matrix_rank(vectors: list[list[GaussianRational]]) -> int:
    """Rank over the scalar field, by Bareiss elimination of the rows scaled to integers."""
    return bareiss(integer_rows(vectors))[0]


def generator_cases(algebra: IterantAlgebra,
                    gens: list[int]) -> list[tuple[IterantElement, IterantElement]]:
    """Every (s, h) and (s, e_i) for s in gens, group elements h and unit
    vectors e_i: the product cases of the proof in the module docstring, for
    the generating set whose closure the caller checks."""
    elements = [algebra.element_of(g) for g in range(algebra.group.order)]
    units = algebra.basis()[:algebra.degree]  # the e_i on the identity
    return list(itertools.product([elements[s] for s in gens], elements + units))


def matrix_unit(n: int, i: int, j: int) -> SquareMatrix:
    """The n x n matrix with a single entry 1, at (i, j)."""
    return from_entries(n, [(i, j, ONE)])


def basis_image(b: IterantElement, image=None) -> tuple[SquareMatrix, SquareMatrix]:
    """M(e_i g) against the matrix unit at (i, i*g), for the basis element
    b = e_i g, with M as in product_relation."""
    (g, vec), = b.terms
    i = [c.is_zero() for c in vec].index(False)
    unit = matrix_unit(b.algebra.degree, i, b.algebra.action.point_maps[g][i])
    return (image or to_matrix)(b), unit


def iso_check(algebra: IterantAlgebra) -> dict:
    """Decide whether to_matrix is an isomorphism of the algebra onto the full
    matrix algebra: the fields ``matrep isocheck`` prints, in its order.

    The homomorphism is proved as the module docstring argues: generators(G)
    must close to all of G, product_relation must hold on every
    generator_cases pair, and each basis_image must be its matrix unit.  The
    checks stop at the first that fails.  One image_memo serves both pieces
    and the rank."""
    group, n = algebra.group, algebra.degree
    image = image_memo()
    # a repeated image adds nothing to the rank (a natural action repeats each
    # (n-1)! times), so only the distinct ones are kept
    distinct, units_ok = {}, True
    for m, unit in (basis_image(b, image) for b in algebra.basis()):
        distinct[m] = None
        units_ok = units_ok and m == unit
    gens = groups.generators(group)
    hom_ok = (len(groups.closure(group, gens)) == group.order
              and all(lhs == rhs for lhs, rhs in (product_relation(pair, image) for pair
                                                  in generator_cases(algebra, gens)))
              and units_ok)
    rank = _matrix_rank([[m.rows[i][j] for i in range(n) for j in range(n)] for m in distinct])
    dim, n2 = algebra.dimension(), n * n
    return {
        "action": algebra.action.label,
        "algebra_dim": dim,
        "matrix_dim": n2,
        "homomorphism_ok": hom_ok,
        "distinct_basis_images": len(distinct) == dim,
        "image_rank": rank,
        "spans_matrix_algebra": rank == n2,
        # rank = n^2 = dim already makes the basis images distinct
        "isomorphism": hom_ok and rank == n2 == dim,
    }
