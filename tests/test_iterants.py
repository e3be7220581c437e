import random
from fractions import Fraction

import pytest

from iterant_lab import groups
from iterant_lab.iterants import (
    IterantAlgebra,
    alternations_and_shifts,
    conjugate_period2,
    determinant_period2,
    doppler_boost,
    element_from_json,
    event_element,
    majorana_pair_relations,
    natural_sn_algebra,
    parse_period2,
    period_two_algebra,
    regular_algebra,
)
from iterant_lab.matrep import to_matrix
from iterant_lab.matrix import SquareMatrix
from iterant_lab.scalars import GaussianRational


def split_pair():
    """The alternation epsilon = [-1,1] and the shift eta = e of Z2."""
    (epsilon, eta), = alternations_and_shifts(1)
    return epsilon, eta


def rand_element(algebra, rng, max_terms=3, span=4):
    total = algebra.zero()
    for _ in range(rng.randint(1, max_terms)):
        vec = [Fraction(rng.randint(-span, span)) for _ in range(algebra.degree)]
        total = total + algebra.term(vec, rng.randrange(algebra.group.order))
    return total


def test_add_componentwise():
    alg = period_two_algebra()
    assert alg.vector([1, 2]) + alg.vector([3, 4]) == alg.vector([4, 6])


def test_add_zero_identity():
    alg = period_two_algebra()
    x = alg.term([1, 2], "e") + alg.vector([5, -1])
    assert x + alg.zero() == x


def test_add_merges_like_terms():
    alg = period_two_algebra()
    assert alg.term([1, 0], "e") + alg.term([0, 1], "e") == alg.term([1, 1], "e")


def test_mul_componentwise_on_identity_terms():
    alg = period_two_algebra()
    assert alg.vector([2, 3]) * alg.vector([5, 7]) == alg.vector([10, 21])


def test_epsilon_eta_squares_to_minus_one():
    alg = period_two_algebra()
    epsilon, eta = split_pair()
    i = epsilon * eta
    assert i == alg.term([-1, 1], "e")
    for root in (i, -i):
        assert root * root == alg.scalar(-1)
    assert i ** 4 == alg.one()


def test_epsilon_eta_rotates_vectors():
    alg = period_two_algebra()
    epsilon, eta = split_pair()
    # i [a,b] = [-b, a] e for a=3, b=5
    assert epsilon * eta * alg.vector([3, 5]) == alg.term([-5, 3], "e")


def test_shift_relations():
    alg = period_two_algebra()
    _, e = split_pair()
    assert e * e == alg.one()
    rng = random.Random(7)
    for _ in range(100):
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        assert alg.vector([a, b]) * e == e * alg.vector([b, a])


def test_shift_commutes_past_reversed_vector_times_anything():
    alg = period_two_algebra()
    _, e = split_pair()
    rng = random.Random(8)
    for _ in range(50):
        b, c = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        x = rand_element(alg, rng)
        assert (alg.vector([b, c]) * e) * x == (e * alg.vector([c, b])) * x


def test_polarity_anticommutes_with_shift():
    eps, eta = split_pair()
    assert (eps * eta + eta * eps).is_zero()
    assert eps * eps == eps.algebra.one()


def test_period3_shift_relation():
    alg = regular_algebra(groups.cyclic(3))
    s = alg.element_of("S")
    assert alg.vector([2, 3, 5]) * s == s * alg.vector([5, 2, 3])
    t = s * s
    assert alg.vector([2, 3, 5]) * t == t * alg.vector([3, 5, 2])
    assert s * s * s == alg.one()


def test_conjugate_and_determinant_example():
    alg = period_two_algebra()
    z = alg.vector([1, 2]) + alg.term([3, 4], "e")
    # D(Z) = ab - cd = 1*2 - 3*4 = -10
    assert determinant_period2(z) == GaussianRational(Fraction(-10))
    assert conjugate_period2(alg.one()) == alg.one()
    assert conjugate_period2(conjugate_period2(z)) == z


def test_determinant_multiplicative():
    alg = period_two_algebra()
    rng = random.Random(9)
    for _ in range(100):
        z, w = rand_element(alg, rng), rand_element(alg, rng)
        assert determinant_period2(z * w) == determinant_period2(z) * determinant_period2(w)


def test_conjugate_product_antihomomorphism():
    alg = period_two_algebra()
    rng = random.Random(10)
    for _ in range(50):
        z, w = rand_element(alg, rng), rand_element(alg, rng)
        assert conjugate_period2(z * w) == conjugate_period2(w) * conjugate_period2(z)
        assert conjugate_period2(z + w) == conjugate_period2(z) + conjugate_period2(w)


def test_conjugate_requires_period_two():
    a3 = natural_sn_algebra(3)
    with pytest.raises(ValueError):
        conjugate_period2(a3.one())


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18)])
def test_an_basis_size(n, count):
    assert len(natural_sn_algebra(n).basis()) == count
    assert natural_sn_algebra(n).dimension() == count


def test_associativity_across_algebras():
    rng = random.Random(11)
    algebras = [
        period_two_algebra(),
        regular_algebra(groups.cyclic(3)),
        regular_algebra(groups.symmetric(3)),
        natural_sn_algebra(3),
    ]
    for alg in algebras:
        for _ in range(500):
            x, y, z = (rand_element(alg, rng, 2) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_distributivity():
    rng = random.Random(12)
    alg = natural_sn_algebra(3)
    for _ in range(100):
        x, y, z = (rand_element(alg, rng) for _ in range(3))
        assert x * (y + z) == x * y + x * z
        assert (y + z) * x == y * x + z * x


def test_spacetime_polarity_product_form():
    # with s = [-1,1] of square one, (t + x s)(t' + x' s) = (tt'+xx') + (tx'+xt') s,
    # and t + x s is the light-cone pair [t-x, t+x]
    alg = period_two_algebra()
    sigma, _ = split_pair()
    rng = random.Random(15)
    for _ in range(100):
        t, x, t2, x2 = (Fraction(rng.randint(-9, 9)) for _ in range(4))
        lhs = (alg.scalar(t) + x * sigma) * (alg.scalar(t2) + x2 * sigma)
        rhs = alg.scalar(t * t2 + x * x2) + (t * x2 + x * t2) * sigma
        assert lhs == rhs
        assert alg.scalar(t) + x * sigma == alg.vector([t - x, t + x])


def test_rescaling_pair_preserves_component_product():
    # T[a,b] = [k a, b/k] leaves the componentwise product ab unchanged
    alg = period_two_algebra()
    rng = random.Random(13)
    for _ in range(100):
        a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
        k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        boosted = alg.vector([k * a, b / k])
        product = boosted.coefficient("1")[0] * boosted.coefficient("1")[1]
        assert product == a * b


def test_doppler_boost_example():
    # D = 2: v = (1-4)/(1+4) = -3/5 and gamma = 5/4
    z = doppler_boost(event_element((5, 0, 3, 4)), Fraction(2))
    alg = period_two_algebra()
    assert z == alg.vector([10, Fraction(5, 2)]) + alg.term(
        [GaussianRational(3, 4), GaussianRational(3, -4)], "e")
    h = to_matrix(z)
    assert h == SquareMatrix.from_rows([[10, GaussianRational(3, 4)],
                                        [GaussianRational(3, -4), Fraction(5, 2)]])
    # T' = gamma (T - v X) = 25/4 and X' = gamma (X - v T) = 15/4, Y and Z stay
    assert (h.trace() / 2, (h.rows[0][0] - h.rows[1][1]) / 2) == (Fraction(25, 4), Fraction(15, 4))
    assert h.determinant() == determinant_period2(z) == 5 * 5 - 3 * 3 - 4 * 4


def test_doppler_boosts_compose_and_one_is_no_boost():
    z = event_element((Fraction(1, 2), 3, -2, Fraction(7, 3)))
    assert doppler_boost(z, Fraction(1)) == z
    d, e = Fraction(3, 2), Fraction(2, 7)
    assert doppler_boost(doppler_boost(z, d), e) == doppler_boost(z, d * e)
    assert doppler_boost(doppler_boost(z, d), 1 / d) == z


def test_minkowski_examples():
    identity = SquareMatrix.identity(2)
    h = to_matrix(event_element((2, 1, 0, 0)))
    # charpoly L^2 - 4L + 3: trace 4, determinant 3, roots 1 and 3
    assert (h.trace(), h.determinant()) == (4, 3)
    assert [(h - identity.scale(root)).determinant() for root in (1, 3)] == [0, 0]

    h = to_matrix(event_element((1, 0, 0, 0)))
    assert h == identity
    assert h.determinant() == 1

    h = to_matrix(event_element((0, 3, 4, 0)))
    assert (h.trace(), h.determinant()) == (0, -25)
    assert [(h - identity.scale(root)).determinant() for root in (-5, 5)] == [0, 0]


def test_minkowski_random_events():
    rng = random.Random(32)
    for _ in range(200):
        t, x, y, z = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        element = event_element((t, x, y, z))
        h = to_matrix(element)
        assert h == h.conjugate_transpose()
        assert h.determinant() == determinant_period2(element) == t * t - x * x - y * y - z * z
        assert h.trace() == 2 * t
        # charpoly evaluated at the matrix itself vanishes
        zero = h * h - h.scale(2 * t) + SquareMatrix.identity(2).scale(h.determinant())
        assert zero.is_zero()


def test_algebra_mismatch_raises():
    x = period_two_algebra().one()
    y = natural_sn_algebra(3).one()
    with pytest.raises(ValueError, match="algebra mismatch"):
        x + y
    with pytest.raises(ValueError, match="algebra mismatch"):
        x * y


def test_equal_algebras_built_separately_interoperate():
    first = IterantAlgebra(groups.regular_action(groups.cyclic(3)))
    second = IterantAlgebra(groups.regular_action(groups.cyclic(3)))
    assert first.vector([1, 2, 3]) + second.vector([1, 0, 0]) == first.vector([2, 2, 3])
    assert second.element_of("S") * first.element_of("S") == first.element_of("S^2")


def test_period2_text_roundtrip():
    alg = period_two_algebra()
    z = alg.vector([Fraction(1, 2), -2]) + alg.term([3, Fraction(-4, 3)], "e")
    assert parse_period2(str(z)) == z
    assert str(alg.zero()) == "0"
    assert parse_period2("[1,2] + [3,4]e") == alg.vector([1, 2]) + alg.term([3, 4], "e")
    assert parse_period2("-[1,0]e") == alg.term([-1, 0], "e")
    assert parse_period2("[1,2] - [3,4]e") == alg.vector([1, 2]) - alg.term([3, 4], "e")


@pytest.mark.parametrize("text, message", [
    ("[1,2][3,4]", "expected '+' or '-' between terms at position 5 in '[1,2][3,4]'"),
    ("[1,2]e[3,4]", "expected '+' or '-' between terms at position 6 in '[1,2]e[3,4]'"),
    ("[1,2] +", "expected a term after the sign at position 6 in '[1,2] +'"),
    ("+", "expected a term after the sign at position 0 in '+'"),
    ("-", "expected a term after the sign at position 0 in '-'"),
    ("[1,2] + - [3,4]", "expected '[' at position 8 in '[1,2] + - [3,4]'"),
])
def test_period2_text_needs_one_sign_between_terms(text, message):
    with pytest.raises(ValueError) as err:
        parse_period2(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, fault", [
    ("[1,2] + - [3,4]", "-"), ("[1,2] +", "+"), (" [1, 2]  [3,4]", "["),
    ("[1,2] + x", "x"), ("  [1,2", "["),
])
def test_period2_error_positions_index_the_text_as_given(text, fault):
    with pytest.raises(ValueError) as err:
        parse_period2(text)
    position = int(str(err.value).split("position ")[1].split()[0])
    assert text[position] == fault


def test_json_roundtrip():
    alg = natural_sn_algebra(3)
    rng = random.Random(14)
    x = rand_element(alg, rng)
    assert element_from_json(alg, x.to_json()) == x


def test_vector_length_is_checked():
    with pytest.raises(ValueError, match="length"):
        period_two_algebra().vector([1, 2, 3])


def test_the_z2_and_z2_squared_pairs_live_in_the_period_two_and_klein4_algebras():
    epsilon, eta = split_pair()
    assert epsilon + parse_period2("[1,2]e") == parse_period2("[-1,1] + [1,2]e")
    assert epsilon.algebra is eta.algebra is period_two_algebra()
    assert alternations_and_shifts(2)[0][0].algebra.group is groups.klein4()
    assert alternations_and_shifts(2)[0][0].algebra is regular_algebra(groups.klein4())


def test_majorana_pair_relations():
    relations = {name: (lhs, rhs) for name, lhs, rhs in majorana_pair_relations()}
    assert list(relations) == ["polarity_squared_one", "shift_squared_one", "anticommute",
                               "product_squares_to_minus_one"]
    assert all(lhs == rhs for lhs, rhs in relations.values())
    one = period_two_algebra().one()
    assert relations["product_squares_to_minus_one"] == (-one, -one)
