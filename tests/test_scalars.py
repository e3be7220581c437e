import random
from fractions import Fraction

import pytest

from iterant_lab.scalars import (
    GaussianRational,
    format_scalar,
    parse_rational,
    parse_scalar,
    scalar,
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
    assert scalar(Fraction(1, 2)) * scalar(Fraction(1, 3)) == scalar(Fraction(1, 6))


def test_i_squared_is_minus_one():
    i = scalar(0, 1)
    assert i * i == scalar(-1)


def test_unit_modulus_product():
    z = scalar(Fraction(3, 5), Fraction(4, 5))
    # direct expansion (a+bi)(a-bi) = a^2 + b^2 = 9/25 + 16/25 = 1
    assert z * z.conjugate() == scalar(1)


def test_conjugate_examples():
    assert scalar(2, 3).conjugate() == scalar(2, -3)
    assert scalar(5).conjugate() == scalar(5)
    x, y = scalar(1, 1), scalar(2, -1)
    # hand expansion: (1+i)(2-i) = 3+i, so both sides are 3-i
    assert (x * y).conjugate() == scalar(3, -1)
    assert x.conjugate() * y.conjugate() == scalar(3, -1)


def test_conjugate_involution():
    rng = random.Random(0)
    for _ in range(100):
        z = rand_scalar(rng)
        assert z.conjugate().conjugate() == z


def test_field_axioms_on_random_triples():
    rng = random.Random(1)
    one = scalar(1)
    for _ in range(1000):
        a, b, c = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * (one / a) == one
        assert a + (-a) == scalar(0)


def test_norm_squared_is_real():
    rng = random.Random(2)
    for _ in range(200):
        z = rand_scalar(rng)
        assert (z * z.conjugate()).im == 0
        assert z.norm_squared() == (z * z.conjugate()).re


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        scalar(1) / scalar(0)


def test_parse_reduction_canonical():
    assert parse_scalar("2/4") == parse_scalar("1/2")
    assert parse_scalar("2/4").re == Fraction(1, 2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/5+4/5i", scalar(Fraction(3, 5), Fraction(4, 5))),
        ("3/5 + 4/5 i", scalar(Fraction(3, 5), Fraction(4, 5))),
        ("-1/2", scalar(Fraction(-1, 2))),
        ("i", scalar(0, 1)),
        ("-i", scalar(0, -1)),
        ("3-2i", scalar(3, -2)),
        ("7", scalar(7)),
        ("4/5i", scalar(0, Fraction(4, 5))),
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
    z = scalar(Fraction(-3, 7), Fraction(2, 5))
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
