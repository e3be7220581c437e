import random
from fractions import Fraction

import pytest

from iterant_lab.discrete import (
    Sequence,
    ShiftPoly,
    basic_commutator,
    diffusion_constant,
    discrete_derivative,
    on_overlap,
    shift_commutator,
)


def seq_of(fn, length=10, start=0):
    return Sequence.from_values([Fraction(fn(t)) for t in range(start, start + length)], start)


def equal_on_overlap(a: ShiftPoly, b: ShiftPoly) -> bool:
    lhs, rhs = on_overlap(a, b)
    return lhs == rhs


def sequences_agree(a: Sequence, b: Sequence) -> bool:
    """Two signals, each read as the J^0 operator of one tick, agree on their overlap."""
    return equal_on_overlap(ShiftPoly.from_sequence(a, 1), ShiftPoly.from_sequence(b, 1))


def test_sequence_window_and_values():
    s = seq_of(lambda t: t * t, 5)
    assert s.window() == (0, 5)
    assert s.value_at(3) == 9
    with pytest.raises(IndexError):
        s.value_at(5)


def test_sequence_advanced():
    s = seq_of(lambda t: t, 5)
    assert s.advanced(2).value_at(0) == 2
    assert s.advanced(2).window() == (-2, 3)


def test_constant_sequence():
    c = Sequence.constant(Fraction(3, 2))
    assert c.value_at(-100) == Fraction(3, 2)
    assert c.window() is None
    assert (c * seq_of(lambda t: t, 4)).value_at(2) == 3


def test_sequence_requires_one_form():
    with pytest.raises(ValueError):
        Sequence(samples=(Fraction(1),), const=Fraction(1))


def test_shift_commutation_rule():
    # f J = J f(t+dt): multiplying by J on the right shifts the coefficient
    f = seq_of(lambda t: t, 8)
    j_op = ShiftPoly.shift_operator(1)
    fj = ShiftPoly.from_sequence(f, 1) * j_op
    assert fj.coefficient(0).is_zero_on_window()
    assert sequences_agree(fj.coefficient(1), f.advanced(1))


def test_shift_operator_powers():
    j_op = ShiftPoly.shift_operator(1)
    jj = j_op * j_op
    assert sequences_agree(jj.coefficient(2), Sequence.constant(1))
    assert jj.coefficient(1).is_zero_on_window()


def test_word_product_hand_expansion():
    # (f J)(g J) canonicalizes to J^2 f(t+2dt) g(t+dt):
    # with f(t)=t, g(t)=t^2 the tick-0 value is f(2) g(1) = 2;
    # with the factors swapped it is g(2) f(1) = 4.
    f = seq_of(lambda t: t, 8)
    g = seq_of(lambda t: t * t, 8)
    j_op = ShiftPoly.shift_operator(1)
    fj = ShiftPoly.from_sequence(f, 1) * j_op
    gj = ShiftPoly.from_sequence(g, 1) * j_op
    assert (fj * gj).coefficient(2).value_at(0) == 2
    assert (gj * fj).coefficient(2).value_at(0) == 4


def test_step_mismatch():
    a = ShiftPoly.from_sequence(seq_of(lambda t: t, 4), 1)
    b = ShiftPoly.from_sequence(seq_of(lambda t: t, 4), Fraction(1, 2))
    with pytest.raises(ValueError, match="tick-size"):
        a * b


def test_derivative_linear_sequence():
    d = discrete_derivative(seq_of(lambda t: t, 8), 1)
    coeff = d.coefficient(1)
    assert all(coeff.value_at(t) == 1 for t in range(*coeff.window()))
    assert d.coefficient(0).is_zero_on_window()


def test_derivative_constant_sequence():
    d = discrete_derivative(seq_of(lambda t: 7, 8), 1)
    assert d.terms == ()


def test_derivative_quadratic_sequence():
    d = discrete_derivative(seq_of(lambda t: t * t, 8), 1)
    coeff = d.coefficient(1)
    for t in range(*coeff.window()):
        assert coeff.value_at(t) == 2 * t + 1


def test_derivative_fractional_step():
    # x(t) = t on the grid t = 0, dt, 2 dt with dt = 1/2: slope is 1 per tick/dt
    x = Sequence.from_values([Fraction(0), Fraction(1), Fraction(2)])
    d = discrete_derivative(x, Fraction(1, 2))
    assert d.coefficient(1).value_at(0) == 2


def test_derivative_is_the_shift_commutator():
    # Dx = J (x(t+dt) - x(t))/dt against [x, J]/dt; a wrong form differs
    rng = random.Random(53)
    for _ in range(50):
        x = Sequence.from_values([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                  for _ in range(8)], rng.randint(-3, 3))
        dt = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        assert equal_on_overlap(discrete_derivative(x, dt), shift_commutator(x, dt))
    x = seq_of(lambda t: t * t, 6)
    assert not equal_on_overlap(discrete_derivative(x, 1), shift_commutator(x, 1).scale(-1))


def test_derivative_window_too_short():
    with pytest.raises(ValueError):
        discrete_derivative(Sequence.from_values([Fraction(1)]), 1)


def test_commutator_linear():
    lhs, rhs = basic_commutator(seq_of(lambda t: t, 8), 1)
    assert equal_on_overlap(lhs, rhs)
    coeff = rhs.coefficient(1)
    assert all(coeff.value_at(t) == 1 for t in range(*coeff.window()))


def test_commutator_quadratic():
    lhs, rhs = basic_commutator(seq_of(lambda t: t * t, 8), 1)
    assert equal_on_overlap(lhs, rhs)
    coeff = rhs.coefficient(1)
    for t in range(*coeff.window()):
        assert coeff.value_at(t) == (2 * t + 1) ** 2


def test_commutator_unit_step_walk():
    rng = random.Random(50)
    values = [Fraction(0)]
    for _ in range(12):
        values.append(values[-1] + rng.choice([-1, 1]))
    lhs, rhs = basic_commutator(Sequence.from_values(values), 1)
    assert equal_on_overlap(lhs, rhs)
    coeff = rhs.coefficient(1)
    assert all(coeff.value_at(t) == 1 for t in range(*coeff.window()))


def test_commutator_random_sequences():
    rng = random.Random(51)
    for _ in range(200):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(16)]
        dt = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        assert equal_on_overlap(*basic_commutator(Sequence.from_values(values), dt))


def test_commutator_window_too_short():
    with pytest.raises(ValueError):
        basic_commutator(Sequence.from_values([Fraction(0), Fraction(1)]), 1)


def test_shiftpoly_mul_associative():
    rng = random.Random(52)
    for _ in range(50):
        polys = []
        for _ in range(3):
            terms = {}
            for k in range(rng.randint(1, 2)):
                values = [Fraction(rng.randint(-4, 4)) for _ in range(10)]
                terms[rng.randint(0, 2)] = Sequence.from_values(values)
            polys.append(ShiftPoly.build(1, terms))
        a, b, c = polys
        assert equal_on_overlap((a * b) * c, a * (b * c))


def test_brownian_constancy_cases():
    walk = Sequence.from_values([0, 1, 0, 1, 0])
    assert diffusion_constant(walk, 1) == 1

    uneven = Sequence.from_values([0, 1, 3])
    assert diffusion_constant(uneven, 1) is None

    flat = Sequence.from_values([5, 5, 5, 5])
    assert diffusion_constant(flat, 1) == 0


def test_brownian_scaled_steps():
    # steps of size 2 with dt = 4 give K = 1
    values = [0, 2, 0, 2, 4, 2]
    assert diffusion_constant(Sequence.from_values(values), 4) == 1


def test_on_overlap_sides():
    # the shared window of [0, 4) and [1, 6) is [1, 4); tick sizes lead each side
    a = ShiftPoly.build(1, {1: seq_of(lambda t: t, 4)})
    b = ShiftPoly.build(1, {1: seq_of(lambda t: t, 5, start=1), 2: Sequence.constant(3)})
    lhs, rhs = on_overlap(a, b)
    assert lhs == (1, (1, (1, 2, 3)), (2, (0,)))
    assert rhs == (1, (1, (1, 2, 3)), (2, (3,)))
    half = ShiftPoly.build(Fraction(1, 2), {1: seq_of(lambda t: t, 4)})
    assert not equal_on_overlap(a, half)
    assert equal_on_overlap(a, a)
