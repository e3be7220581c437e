import random
from fractions import Fraction

import numpy as np  # the Kronecker-product reference the iterant ladders are compared with
import pytest

from iterant_lab import clifford, dirac
from iterant_lab.clifford import (
    FusionElement,
    anticommuting_relations,
    braid_basis_matrix,
    braid_conjugate,
    braid_word_matrix,
    clifford_generators,
    braider_relations,
    fermion_relations,
    fusion_powers,
    quaternion_products,
    quaternion_triple,
    real_relations,
)
from iterant_lab.groups import from_cycles
from iterant_lab.iterants import (
    alternations_and_shifts,
    natural_sn_algebra,
    period_two_algebra,
    term_by_permutation,
)
from iterant_lab.matrep import to_matrix
from iterant_lab.matrix import SquareMatrix
from iterant_lab.scalars import GaussianRational, I_UNIT


def identity(n):
    return SquareMatrix.identity(n)


def split_pair():
    """epsilon and eta of Z2 (k = 1) and their matrices."""
    (epsilon, eta), = alternations_and_shifts(1)
    return epsilon, eta, to_matrix(epsilon), to_matrix(eta)


def test_split_quaternion_relations():
    epsilon, eta, polarity, shift = split_pair()
    one = epsilon.algebra.one()
    assert epsilon * epsilon == one
    assert eta * eta == one
    assert (epsilon * eta) ** 2 == -one  # sqrt(-1) = epsilon eta
    assert (epsilon * eta + eta * epsilon).is_zero()
    assert polarity * shift == to_matrix(epsilon * eta) == SquareMatrix.from_rows([[0, -1], [1, 0]])


@pytest.mark.parametrize("variant", ["klein4", "iota_2x2", "majorana_triple"])
def test_quaternion_tables(variant):
    products = list(quaternion_products(quaternion_triple(variant)))
    assert len({name for name, _, _ in products}) == 16
    assert all(got == want for _, got, want in products)


def test_klein4_variant_is_real_4x4():
    triple = quaternion_triple("klein4")
    assert triple.dim == 4
    assert all(lhs == rhs for _, lhs, rhs in real_relations(vars(triple)))
    i_times_i = triple.I.scale(GaussianRational(0, 1))
    assert list(real_relations({"iI": i_times_i})) == [("iI", i_times_i, -i_times_i)]
    assert triple.I * triple.J * triple.K == -identity(4)


def test_iota_variant_is_2x2():
    triple = quaternion_triple("iota_2x2")
    assert triple.dim == 2
    assert triple.I * triple.J * triple.K == -identity(2)


def test_signed_permutation_square_in_a4():
    # [+1,-1,-1,+1] attached to (12)(34) squares to -1 in the natural algebra
    a4 = natural_sn_algebra(4)
    elem = term_by_permutation(a4, [1, -1, -1, 1], from_cycles(4, "(12)(34)"))
    assert elem * elem == a4.scalar(-1)


def test_generator_ladder_small():
    _, _, polarity, shift = split_pair()
    assert clifford_generators(2) == (polarity, shift)


def test_generator_ladder_five():
    gens = clifford_generators(5)
    assert gens[0].n == 8
    one = identity(8)
    for c in gens:
        assert c * c == one
    for a in range(5):
        for b in range(a + 1, 5):
            assert gens[a].anticommutator(gens[b]).is_zero()


def test_generator_count_limit():
    with pytest.raises(ValueError):
        clifford_generators(9)
    with pytest.raises(ValueError):
        clifford_generators(0)


def test_anticommuting_relations_name_the_pairs_that_fail():
    _, _, polarity, shift = split_pair()
    relations = list(anticommuting_relations((polarity, shift)))
    assert [name for name, _, _ in relations] == [(1, 1), (1, 2), (2, 2)]
    assert all(lhs == rhs for _, lhs, rhs in relations)
    failing = [name for name, lhs, rhs in anticommuting_relations((polarity, polarity, polarity * shift))
               if lhs != rhs]
    # polarity commutes with itself; root squares to -1 and anticommutes with polarity
    assert failing == [(1, 2), (3, 3)]


def test_braid_conjugate_images():
    gens = clifford_generators(4)
    for k in range(1, 4):
        assert braid_conjugate(gens, k, [gens[k - 1]]) == [gens[k]]
        assert braid_conjugate(gens, k, [gens[k]]) == [-gens[k - 1]]
        for j in range(1, 5):
            if j not in (k, k + 1):
                assert braid_conjugate(gens, k, [gens[j - 1]]) == [gens[j - 1]]


def test_braid_conjugate_maps_each_matrix_as_alone():
    gens = clifford_generators(4)
    xs = [*gens, gens[0] * gens[1], identity(4)]
    for k in range(1, 4):
        assert braid_conjugate(gens, k, xs) == [braid_conjugate(gens, k, [x])[0] for x in xs]
    assert braid_conjugate(gens, 1, []) == []


def test_braid_conjugate_index_range():
    gens = clifford_generators(3)
    with pytest.raises(ValueError):
        braid_conjugate(gens, 3, [gens[0]])
    with pytest.raises(ValueError):
        braid_conjugate(gens, 0, [gens[0]])


def _int_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_braid_matrix_n3_against_integer_oracle():
    # plain integer-matrix oracle, independent of the exact-matrix machinery
    b1 = [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]
    b2 = [[1, 0, 0], [0, 0, 1], [0, -1, 0]]
    lhs = _int_matmul(_int_matmul(b1, b2), b1)
    rhs = _int_matmul(_int_matmul(b2, b1), b2)
    assert lhs == rhs == [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    assert braid_basis_matrix(3, 1) == SquareMatrix.from_rows(b1)
    assert braid_basis_matrix(3, 2) == SquareMatrix.from_rows(b2)
    assert braid_word_matrix(3, [1, 2, 1]) == SquareMatrix.from_rows(lhs)
    assert braid_word_matrix(3, [2, 1, 2]) == SquareMatrix.from_rows(rhs)


def test_braid_relations_up_to_six():
    for n in range(3, 7):
        for k in range(1, n - 1):
            assert braid_word_matrix(n, [k, k + 1, k]) == braid_word_matrix(n, [k + 1, k, k + 1])
        for k in range(1, n):
            for j in range(k + 2, n):
                bk, bj = braid_basis_matrix(n, k), braid_basis_matrix(n, j)
                assert bk * bj == bj * bk


def test_braid_generator_order_four():
    for n in (2, 3, 5):
        for k in range(1, n):
            assert braid_word_matrix(n, [k] * 4) == identity(n)
            assert braid_word_matrix(n, [k] * 2) != identity(n)


def test_braid_images_stay_clifford():
    for n in (3, 5):
        gens = clifford_generators(n)
        one = identity(gens[0].n)
        for k in range(1, n):
            images = braid_conjugate(gens, k, gens)
            for i, a in enumerate(images):
                assert a * a == one
                for b in images[i + 1:]:
                    assert a.anticommutator(b).is_zero()


def test_quaternion_braiders_relations():
    gens = clifford_generators(3)
    relations = list(braider_relations(gens))
    assert [name for name, _, _ in relations] == ["ABA = BAB", "BCB = CBC", "ACA = CAC"]
    assert all(lhs == rhs for _, lhs, rhs in relations)
    triple = clifford.quaternions_from_triple(gens)
    a, c = identity(triple.dim) + triple.I, identity(triple.dim) + triple.K
    # (1+I)(1-I) = 1 - I^2 = 2
    assert a * (identity(triple.dim) - triple.I) == identity(triple.dim).scale(2)
    assert relations[2][1:] == (a * c * a, c * a * c)


def test_fermion_pair_relations():
    relations = {name: (lhs, rhs) for name, lhs, rhs in fermion_relations(clifford_generators(2))}
    assert list(relations) == ["psi^2 = 0", "psi+^2 = 0", "psi psi+ + psi+ psi = 1",
                               "psi+ = conjugate transpose of psi"]
    assert all(lhs == rhs for lhs, rhs in relations.values())
    assert relations["psi^2 = 0"][1] == SquareMatrix.zero(2)
    assert relations["psi psi+ + psi+ psi = 1"][1] == identity(2)
    half = Fraction(1, 2)
    i_half = GaussianRational(Fraction(0), half)
    _, _, polarity, shift = split_pair()
    psi_dagger, psi_dagger_from_psi = relations["psi+ = conjugate transpose of psi"]
    psi = psi_dagger_from_psi.conjugate_transpose()
    assert psi == polarity.scale(half) + shift.scale(i_half)
    assert psi_dagger == polarity.scale(half) - shift.scale(i_half)


def test_quaternion_braiders_require_three_generators():
    with pytest.raises(ValueError, match="3 generators"):
        list(braider_relations(clifford_generators(2)))


def test_fusion_rule():
    p = clifford.FUSION_P
    assert p * p == FusionElement(1, 1)
    assert clifford.FUSION_ONE * p == p
    assert fusion_powers(4)[3:] == [FusionElement(1, 2), FusionElement(2, 3)]


def test_fusion_fibonacci_coefficients():
    fib = [0, 1]
    for _ in range(25):
        fib.append(fib[-1] + fib[-2])
    powers = fusion_powers(20)
    for n in range(1, 21):
        assert powers[n] == FusionElement(fib[n - 1], fib[n])


def test_fusion_commutative_associative():
    elems = [FusionElement(a, b) for a in range(11) for b in range(11)]
    for u in elems:
        for v in elems:
            assert u * v == v * u
    small = [FusionElement(a, b) for a in range(5) for b in range(5)]
    for u in small:
        for v in small:
            for w in small:
                assert (u * v) * w == u * (v * w)
    rng = random.Random(30)
    for _ in range(500):
        u, v, w = (FusionElement(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_split_pair_is_the_period_two_iterant_pair():
    epsilon, eta, polarity, shift = split_pair()
    algebra = period_two_algebra()
    assert epsilon == algebra.vector([-1, 1]) and eta == algebra.element_of("e")
    assert polarity == SquareMatrix.from_rows([[-1, 0], [0, 1]])
    assert shift == SquareMatrix.from_rows([[0, 1], [1, 0]])
    assert to_matrix((epsilon * eta) ** 2) == -identity(2)


# The reference: the Jordan-Wigner ladder as numpy.kron chains of the 2x2
# epsilon, eta and parity i epsilon eta, block 0 the left factor.
EPSILON = np.array([[-1, 0], [0, 1]])
ETA = np.array([[0, 1], [1, 0]])
PARITY = 1j * EPSILON @ ETA
ONE = np.eye(2)


def kron(*factors):
    out = np.eye(1)
    for factor in factors:
        out = np.kron(out, factor)
    return out


def jordan_wigner(n):
    blocks = (n + 1) // 2
    ladder = []
    for m in range(n):
        block, slot = divmod(m, 2)
        factors = [PARITY] * block + [EPSILON if slot == 0 else ETA] + [ONE] * (blocks - block - 1)
        ladder.append(kron(*factors))
    return ladder


def as_array(m):
    return np.array([[complex(z.re, z.im) for z in row] for row in m.rows])


def one_term(m):
    """The term v g of the XOR algebra of Z2^k whose to_matrix is m, with g
    read from row 0; None when m is not one such term."""
    algebra = alternations_and_shifts(m.n.bit_length() - 1)[0][0].algebra
    g = next(j for j, z in enumerate(m.rows[0]) if not z.is_zero())
    term = algebra.term([m.rows[i][i ^ g] for i in range(m.n)], g)
    return term if to_matrix(term) == m else None


UNITS = {GaussianRational(1), GaussianRational(-1), I_UNIT, -I_UNIT}


def kron_cases():
    """(name, matrix the package builds, its Kronecker-product reference)."""
    for n in range(1, 9):
        for m, (built, want) in enumerate(zip(clifford_generators(n), jordan_wigner(n)), 1):
            yield f"ladder {n} c{m}", built, want
    frame = dirac.dirac_frame("3d")
    s1, s2 = kron(ONE, ETA), -kron(ONE, EPSILON)
    yield "3d alpha", frame.alpha, kron(EPSILON, ONE)
    yield "3d beta", frame.beta, kron(ETA, ONE)
    for i, want in enumerate((s1, s2, 1j * s1 @ s2), 1):
        yield f"3d s{i}", frame.sigmas[i - 1], want
    majorana = dirac.majorana_dirac_generators()
    yield "ax", majorana["ax"], kron(ETA, ETA)
    yield "ay", majorana["ay"], kron(ONE, EPSILON)
    yield "az", majorana["az"], kron(EPSILON, ETA)
    yield "beta_prime", majorana["beta_prime"], kron(EPSILON @ ETA, ETA)
    klein = quaternion_triple("klein4")
    yield "klein4 I", klein.I, kron(EPSILON, EPSILON) @ kron(ONE, ETA)
    yield "klein4 J", klein.J, -kron(EPSILON, ONE) @ kron(ETA, ONE)
    yield "klein4 K", klein.K, -kron(ONE, EPSILON) @ kron(ETA, ETA)


def test_every_ladder_dirac_and_klein4_matrix_is_its_kron_chain_and_one_unit_term():
    cases = list(kron_cases())
    assert len(cases) == 36 + 5 + 4 + 3
    for name, built, want in cases:
        assert np.array_equal(as_array(built), want), name
        term = one_term(built)
        assert term is not None and len(term.terms) == 1, name
        assert set(term.terms[0][1]) <= UNITS, name
