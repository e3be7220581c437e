import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iterant_lab.scalars import (
    GaussianRational,
    _from_triple,
    format_scalar,
    parse_rational,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
    sqrt_exact,
)


def rand_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_rational_product():
    half, third = GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 3))
    assert half * third == GaussianRational(Fraction(1, 6))


def test_i_squared_is_minus_one():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)


def test_unit_modulus_product():
    z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    # direct expansion (a+bi)(a-bi) = a^2 + b^2 = 9/25 + 16/25 = 1
    assert z * z.conjugate() == GaussianRational(1)


def test_conjugate_examples():
    assert GaussianRational(2, 3).conjugate() == GaussianRational(2, -3)
    assert GaussianRational(5).conjugate() == GaussianRational(5)
    x, y = GaussianRational(1, 1), GaussianRational(2, -1)
    # hand expansion: (1+i)(2-i) = 3+i, so both sides are 3-i
    assert (x * y).conjugate() == GaussianRational(3, -1)
    assert x.conjugate() * y.conjugate() == GaussianRational(3, -1)


def test_conjugate_involution():
    rng = random.Random(0)
    for _ in range(100):
        z = rand_scalar(rng)
        assert z.conjugate().conjugate() == z


def test_field_axioms_on_random_triples():
    rng = random.Random(1)
    one = GaussianRational(1)
    for _ in range(1000):
        a, b, c = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * (one / a) == one
        assert a + (-a) == GaussianRational(0)


def test_norm_squared_is_real():
    rng = random.Random(2)
    for _ in range(200):
        z = rand_scalar(rng)
        assert (z * z.conjugate()).im == 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_parse_reduction_canonical():
    assert parse_scalar("2/4") == parse_scalar("1/2")
    assert parse_scalar("2/4").re == Fraction(1, 2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/5+4/5i", GaussianRational(Fraction(3, 5), Fraction(4, 5))),
        ("3/5 + 4/5 i", GaussianRational(Fraction(3, 5), Fraction(4, 5))),
        ("-1/2", GaussianRational(Fraction(-1, 2))),
        ("i", GaussianRational(0, 1)),
        ("-i", GaussianRational(0, -1)),
        ("3-2i", GaussianRational(3, -2)),
        ("7", GaussianRational(7)),
        ("4/5i", GaussianRational(0, Fraction(4, 5))),
    ],
)
def test_parse_cases(text, expected):
    assert parse_scalar(text) == expected


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("")
    with pytest.raises(ValueError):
        parse_scalar("3i+2")


def test_format_parse_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        z = rand_scalar(rng)
        assert parse_scalar(format_scalar(z)) == z


def test_json_roundtrip():
    z = GaussianRational(Fraction(-3, 7), Fraction(2, 5))
    obj = scalar_to_json(z)
    assert obj == {"re": [-3, 7], "im": [2, 5]}
    assert scalar_from_json(obj) == z


def test_sqrt_exact():
    assert sqrt_exact(Fraction(16, 25)) == Fraction(4, 5)
    assert sqrt_exact(Fraction(2)) is None
    assert sqrt_exact(Fraction(-1)) is None
    assert sqrt_exact(Fraction(0)) == 0


def test_zero_denominator_is_a_value_error():
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational(3, -6) == Fraction(-1, 2)
    for bad in (lambda: parse_rational("1/0"), lambda: parse_rational(1, 0),
                lambda: parse_scalar("2+1/0i"), lambda: scalar_from_json({"re": [1, 0]})):
        with pytest.raises(ValueError, match="zero denominator"):
            bad()


# --- laws of the integer-triple scalar, against a Fraction-pair oracle -------

parts = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.integers(min_value=-10**30, max_value=10**30),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
)
gaussians = st.builds(GaussianRational, parts, parts)
reals = st.builds(GaussianRational, parts)


def pair(z):
    return (z.re, z.im)


def oracle_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def oracle_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def oracle_text(re, im):
    """The text rule of format_scalar, written on the Fraction parts."""
    if im == 0:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if re == 0:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


def assert_canonical(z):
    assert type(z.re_num) is int and type(z.im_num) is int and type(z.den) is int
    assert z.den > 0
    assert gcd(z.re_num, z.im_num, z.den) == 1
    if z.re_num == 0 and z.im_num == 0:
        assert (z.re_num, z.im_num, z.den) == (0, 0, 1)


@settings(max_examples=300, deadline=None)
@given(gaussians, gaussians)
def test_arithmetic_matches_the_fraction_pair_oracle(z, w):
    x, y = pair(z), pair(w)
    assert pair(z + w) == (x[0] + y[0], x[1] + y[1])
    assert pair(z - w) == (x[0] - y[0], x[1] - y[1])
    assert pair(z * w) == oracle_mul(x, y)
    assert pair(-z) == (-x[0], -x[1])
    assert pair(z.conjugate()) == (x[0], -x[1])
    if not w.is_zero():
        assert pair(z / w) == oracle_div(x, y)
    for result in (z + w, z - w, z * w, -z, z.conjugate(), z / w if w else z):
        assert_canonical(result)


@settings(max_examples=300, deadline=None)
@given(gaussians, parts)
def test_mixed_operands_match_the_oracle(z, r):
    x = pair(z)
    assert pair(z + r) == pair(r + z) == (x[0] + r, x[1])
    assert pair(z - r) == (x[0] - r, x[1])
    assert pair(r - z) == (r - x[0], -x[1])
    assert pair(z * r) == pair(r * z) == (x[0] * r, x[1] * r)
    if r != 0:
        assert pair(z / r) == (x[0] / r, x[1] / r)
    if not z.is_zero():
        assert pair(r / z) == oracle_div((Fraction(r), Fraction(0)), x)


@settings(max_examples=200, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    zero, one = GaussianRational(), GaussianRational(1)
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - a == zero
    if a:
        assert a * (one / a) == one and (b / a) * a == b


@settings(max_examples=300, deadline=None)
@given(gaussians)
def test_every_constructor_gives_the_canonical_triple(z):
    assert_canonical(z)
    assert_canonical(GaussianRational.of(z.re))
    assert (GaussianRational().re_num, GaussianRational().im_num, GaussianRational().den) == (0, 0, 1)
    zero = GaussianRational(Fraction(0, 7), Fraction(0, 3))
    assert (zero.re_num, zero.im_num, zero.den) == (0, 0, 1)


@settings(max_examples=300, deadline=None)
@given(reals, gaussians)
# a real integer hashes as the int: these are where Python's numeric hash
# wraps (modulus 2**61 - 1) or special-cases -1
@example(GaussianRational(-1), GaussianRational(1, 1))
@example(GaussianRational(0), GaussianRational())
@example(GaussianRational(2**61 - 1), GaussianRational(0, 2**61 - 1))
@example(GaussianRational(2**61), GaussianRational(2**61))
@example(GaussianRational(-2**61), GaussianRational(Fraction(-2**61, 3)))
def test_real_values_compare_and_hash_like_their_fraction(z, w):
    r = z.re
    assert z == r and r == z and hash(z) == hash(r)
    assert {r: "found"}[z] == "found"
    if r.denominator == 1:
        assert z == int(r) and int(r) == z and hash(z) == hash(int(r))
    assert (z == w) == (pair(z) == pair(w))
    if w.im != 0:
        assert w != w.re and w.re != w
    assert z != r + Fraction(1, 3)


@settings(max_examples=300, deadline=None)
@given(gaussians)
def test_text_json_and_repr_keep_their_form(z):
    re, im = pair(z)
    assert str(z) == format_scalar(z) == oracle_text(re, im)
    assert scalar_to_json(z) == {"re": [re.numerator, re.denominator],
                                 "im": [im.numerator, im.denominator]}
    assert repr(z) == f"GaussianRational({re!r}, {im!r})"
    assert hash(z) == (hash(re) if im == 0 else hash((re, im)))
    assert parse_scalar(str(z)) == z
    assert scalar_from_json(scalar_to_json(z)) == z


def test_setting_an_attribute_raises():
    z = GaussianRational(Fraction(1, 2), 3)
    for name in ("re", "im", "re_num", "im_num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    with pytest.raises(AttributeError):
        del z.den
    assert not hasattr(z, "__dict__")
    assert (z.re_num, z.im_num, z.den) == (1, 6, 2)
    assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z


@settings(max_examples=300, deadline=None)
@given(st.integers(-99, 99), st.integers(1, 99), st.integers(-99, 99), st.integers(1, 99))
def test_the_three_constructors_agree(a, b, c, d):
    built = GaussianRational(Fraction(a, b), Fraction(c, d))
    triple = _from_triple(a * d, c * b, b * d)
    parsed = parse_scalar(f"{a}/{b}{c:+d}/{d}i")
    assert built == triple == parsed
    assert hash(built) == hash(triple) == hash(parsed)
    for z in (built, triple, parsed):
        assert_canonical(z)
        assert pair(z) == (Fraction(a, b), Fraction(c, d))


def test_constructor_rejects_inexact_parts():
    for bad in (0.5, "1/2", None, 1j):
        with pytest.raises(TypeError, match="exact rational"):
            GaussianRational(bad)
        with pytest.raises(TypeError, match="exact rational"):
            GaussianRational(1, bad)
