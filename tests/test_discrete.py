import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # equal values have equal fields; a zero window is held over 1
    assert Sequence.from_values([Fraction(1, 2), 1]) == Sequence.from_values([Fraction(2, 4), 1])
    zero = Sequence.from_values([Fraction(1, 3), 1]).scale(0)
    assert (zero.nums, zero.den) == ((0, 0), 1)


def test_sequence_advanced():
    s = seq_of(lambda t: t, 5)
    assert s.advanced(2).value_at(0) == 2
    assert s.advanced(2).window() == (-2, 3)


def test_constant_sequence():
    c = Sequence.constant(Fraction(3, 2))
    assert c.value_at(-100) == Fraction(3, 2)
    assert c.window() is None
    assert (c * seq_of(lambda t: t, 4)).value_at(2) == 3


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


# --- the integer window against a Fraction reference --------------------------
#
# A reference signal is a tick -> Fraction dict for a window, or one Fraction
# for a constant, computed here in Fractions.

values = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def signals(draw):
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        c = draw(values)
        return Sequence.constant(c), c
    start = draw(st.integers(min_value=-6, max_value=6))
    vals = draw(st.lists(st.one_of(values, st.just(Fraction(0))), min_size=1, max_size=8))
    return Sequence.from_values(vals, start), {start + i: v for i, v in enumerate(vals)}


def ref_combine(ra, rb, op):
    """op on the shared ticks of two references, or None where they share none."""
    if isinstance(ra, Fraction) and isinstance(rb, Fraction):
        return op(ra, rb)
    ticks = sorted(rb if isinstance(ra, Fraction) else
                   ra.keys() if isinstance(rb, Fraction) else ra.keys() & rb.keys())

    def at(r, t):
        return r if isinstance(r, Fraction) else r[t]

    return {t: op(at(ra, t), at(rb, t)) for t in ticks} or None


def assert_matches(seq: Sequence, ref):
    """seq holds ref's values through every reader, in the canonical form that
    gives equal values equal fields."""
    assert seq.den > 0 and gcd(*seq.nums, seq.den) == 1
    if not any(seq.nums):
        assert seq.den == 1
    if isinstance(ref, Fraction):
        assert seq == Sequence.constant(ref)
        assert (seq.window(), seq.samples, seq.const) == (None, None, ref)
        assert seq.value_at(-1000) == seq.value_at(1000) == ref
        return
    ticks = sorted(ref)
    assert seq == Sequence.from_values([ref[t] for t in ticks], ticks[0])
    assert seq.window() == (ticks[0], ticks[-1] + 1) and seq.const is None
    assert seq.samples == tuple(ref[t] for t in ticks)
    assert all(seq.value_at(t) == ref[t] for t in ticks)
    for outside in (ticks[0] - 1, ticks[-1] + 1):
        with pytest.raises(IndexError):
            seq.value_at(outside)


@settings(max_examples=300, deadline=None)
@given(signals(), signals(), values, st.integers(min_value=-4, max_value=4))
def test_integer_window_matches_a_fraction_reference(a, b, factor, ticks):
    (sa, ra), (sb, rb) = a, b
    assert_matches(sa, ra)
    for op in (operator.add, operator.sub, operator.mul):
        expected = ref_combine(ra, rb, op)
        if expected is None:
            with pytest.raises(ValueError, match="do not overlap"):
                op(sa, sb)
        else:
            assert_matches(op(sa, sb), expected)
    assert_matches(sa.scale(factor), ref_combine(ra, factor, operator.mul))
    assert_matches(sa.advanced(ticks), ra if isinstance(ra, Fraction)
                   else {t - ticks: v for t, v in ra.items()})
    # on_overlap of the two as J^0 operators: a zero coefficient is dropped and
    # reads as the constant 0
    dt = Fraction(2, 3)
    ra, rb = (Fraction(0) if sa.is_zero_on_window() else ra,
              Fraction(0) if sb.is_zero_on_window() else rb)
    pair = ref_combine(ra, rb, lambda x, y: (x, y))
    pa, pb = ShiftPoly.from_sequence(sa, dt), ShiftPoly.from_sequence(sb, dt)
    if pair is None:
        with pytest.raises(ValueError, match="do not overlap"):
            on_overlap(pa, pb)
        return
    if ra == rb == 0:
        expected = ((dt,), (dt,))
    else:
        shared = [pair] if isinstance(pair, tuple) else [pair[t] for t in sorted(pair)]
        expected = tuple((dt, (0, tuple(side[i] for side in shared))) for i in (0, 1))
    assert on_overlap(pa, pb) == expected


# The commutators take 1/dt once in discrete_derivative, once for the right side
# of basic_commutator and once in shift_commutator; every other operation of
# the window kernel runs on integers.
TICK_SIZE_INVERSES = 3
FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_window_kernel_does_no_fraction_arithmetic(monkeypatch):
    x = Sequence.from_values([Fraction(t * t - 7, t % 5 + 1) for t in range(16)])
    dt = Fraction(2, 3)
    calls = []

    def counted(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)
        return wrapper

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    lhs, rhs = basic_commutator(x, dt)
    shift = shift_commutator(x, dt)
    monkeypatch.undo()
    assert len(calls) <= TICK_SIZE_INVERSES, calls
    assert on_overlap(lhs, rhs)[0] == on_overlap(lhs, rhs)[1]
    assert equal_on_overlap(discrete_derivative(x, dt), shift)
