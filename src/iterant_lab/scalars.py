"""Exact scalar arithmetic: rationals and Gaussian rationals (a + b*i).

Every algebra module shares these coefficients; nothing here touches floating
point.  Rationals are the standard library ``fractions.Fraction``, which
already maintains the canonical-form invariants (positive denominator,
numerator and denominator coprime, zero stored as 0/1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

ScalarLike = Union[int, Fraction, "GaussianRational"]


def _as_fraction(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True, eq=False)
class GaussianRational:
    """Exact complex scalar a + b*i with rational a, b and i*i = -1."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value: ScalarLike) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(_as_fraction(value))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # real values hash like their Fraction so mixed comparisons stay sound
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __add__(self, other: ScalarLike) -> GaussianRational:
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> GaussianRational:
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> GaussianRational:
        return GaussianRational.of(other) - self

    def __mul__(self, other: ScalarLike) -> GaussianRational:
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> GaussianRational:
        o = GaussianRational.of(other)
        denom = o.re * o.re + o.im * o.im
        if denom == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / denom,
            (self.im * o.re - self.re * o.im) / denom,
        )

    def __rtruediv__(self, other: ScalarLike) -> GaussianRational:
        return GaussianRational.of(other) / self

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        """|a + bi|^2 = a^2 + b^2, always a rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


I_UNIT = GaussianRational(Fraction(0), Fraction(1))


def scalar(re: int | Fraction, im: int | Fraction = 0) -> GaussianRational:
    return GaussianRational(_as_fraction(re), _as_fraction(im))


def format_scalar(z: GaussianRational) -> str:
    """Emit "a/b" for reals and "a/b+c/di" otherwise (canonical reduced form)."""
    if z.im == 0:
        return str(z.re)
    imag = f"{z.im}i" if z.im != 1 else "i"
    if z.im == -1:
        imag = "-i"
    if z.re == 0:
        return imag
    sign = "+" if z.im > 0 else ""
    return f"{z.re}{sign}{imag}"


def parse_rational(value, denominator=1) -> Fraction:
    """value/denominator from ints or text like "-2/5"; any other part (a float,
    a bool, null) and a zero denominator are ValueErrors."""
    if not all(isinstance(part, (int, str)) and not isinstance(part, bool)
               for part in (value, denominator)):
        raise ValueError(f"cannot read {value!r}/{denominator!r} as a rational")
    try:
        return Fraction(value) / Fraction(denominator)
    except ZeroDivisionError:
        literal = value if denominator == 1 else f"{value}/{denominator}"
        raise ValueError(f"zero denominator in {literal!r}") from None


def parse_scalar(text: str) -> GaussianRational:
    """Parse "a/b", "a/b+c/d i", "-i", "3-2i", ... into an exact scalar."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    if "i" not in s:
        return GaussianRational(parse_rational(s))
    if not s.endswith("i"):
        raise ValueError(f"malformed scalar literal {text!r}: i must end the imaginary part")
    body = s[:-1]
    # Split the real part from the imaginary coefficient at the last sign
    # that is not the leading one.
    split = max(body.rfind("+"), body.rfind("-", 1))
    real_text, imag_text = (body[:split], body[split:]) if split > 0 else ("", body)
    if imag_text in ("", "+"):
        im = Fraction(1)
    elif imag_text == "-":
        im = Fraction(-1)
    else:
        im = parse_rational(imag_text)
    re = parse_rational(real_text) if real_text else Fraction(0)
    return GaussianRational(re, im)


def scalar_to_json(z: GaussianRational) -> dict:
    return {
        "re": [z.re.numerator, z.re.denominator],
        "im": [z.im.numerator, z.im.denominator],
    }


def scalar_from_json(obj: dict) -> GaussianRational:
    re_num, re_den = obj.get("re", [0, 1])
    im_num, im_den = obj.get("im", [0, 1])
    return GaussianRational(parse_rational(re_num, re_den), parse_rational(im_num, im_den))


def sqrt_exact(value: Fraction) -> Fraction | None:
    """Rational square root of a non-negative rational, or None if irrational."""
    import math

    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
