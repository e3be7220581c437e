"""Exact scalar arithmetic: Gaussian rationals (a + b*i) on Python integers.

Every algebra module shares these coefficients; nothing here touches floating
point.  A ``GaussianRational`` is stored as one integer triple
``(re_num, im_num, den)`` for the value ``(re_num + im_num*i) / den``, kept in
canonical form: ``den > 0``, ``gcd(re_num, im_num, den) = 1``, and zero is
``(0, 0, 1)``.  Equal values therefore have equal triples.  All arithmetic
runs on the integers, and a result is divided by the gcd only when that gcd
is not 1 (Knuth, TAOCP vol. 2, section 4.5.1).  The parts ``re`` and ``im``
are read as ``fractions.Fraction`` values, which is also how rationals enter
and leave: the constructor takes an int or a ``Fraction`` for each part.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

ScalarLike = Union[int, Fraction, "GaussianRational"]


def _ratio(value) -> tuple[int, int]:
    """An int or a Fraction as a (numerator, positive denominator) pair in
    lowest terms."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class GaussianRational:
    """Exact complex scalar a + b*i with rational a, b and i*i = -1.

    ``re_num``, ``im_num`` and ``den`` are the canonical integer triple of the
    value; like every attribute of the class they are read-only.
    """

    __slots__ = ("re_num", "im_num", "den")

    def __new__(cls, re: int | Fraction = 0, im: int | Fraction = 0) -> GaussianRational:
        if type(re) is int and type(im) is int:
            return _make(re, im, 1)
        p, q = _ratio(re)
        r, s = _ratio(im)
        if q == s:
            return _make(p, r, q)
        # p/q and r/s are in lowest terms, so over the lcm of q and s no prime
        # divides both numerators and the denominator
        den = lcm(q, s)
        return _make(p * (den // q), r * (den // s), den)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def of(value: ScalarLike) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        num, den = _ratio(value)
        return _make(num, 0, den)

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return (self.re_num == other.re_num and self.im_num == other.im_num
                    and self.den == other.den)
        if isinstance(other, int):
            return self.im_num == 0 and self.den == 1 and self.re_num == other
        if isinstance(other, Fraction):
            return (self.im_num == 0 and self.den == other.denominator
                    and self.re_num == other.numerator)
        return NotImplemented

    def __hash__(self) -> int:
        # real values hash like their Fraction so mixed comparisons stay sound;
        # Python's numeric hash gives an integer the hash of its Fraction
        if self.im_num == 0:
            return hash(self.re_num) if self.den == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other: ScalarLike) -> GaussianRational:
        o = other if type(other) is GaussianRational else GaussianRational.of(other)
        d, f = self.den, o.den
        if d == f:
            return _from_triple(self.re_num + o.re_num, self.im_num + o.im_num, d)
        return _from_triple(self.re_num * f + o.re_num * d,
                            self.im_num * f + o.im_num * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> GaussianRational:
        o = other if type(other) is GaussianRational else GaussianRational.of(other)
        d, f = self.den, o.den
        if d == f:
            return _from_triple(self.re_num - o.re_num, self.im_num - o.im_num, d)
        return _from_triple(self.re_num * f - o.re_num * d,
                            self.im_num * f - o.im_num * d, d * f)

    def __rsub__(self, other: ScalarLike) -> GaussianRational:
        return GaussianRational.of(other) - self

    def __mul__(self, other: ScalarLike) -> GaussianRational:
        o = other if type(other) is GaussianRational else GaussianRational.of(other)
        a, b, c, e = self.re_num, self.im_num, o.re_num, o.im_num
        return _from_triple(a * c - b * e, a * e + b * c, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> GaussianRational:
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        o = other if type(other) is GaussianRational else GaussianRational.of(other)
        a, b, c, e = self.re_num, self.im_num, o.re_num, o.im_num
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        f = o.den
        return _from_triple((a * c + b * e) * f, (b * c - a * e) * f, self.den * norm)

    def __rtruediv__(self, other: ScalarLike) -> GaussianRational:
        return GaussianRational.of(other) / self

    def __neg__(self) -> GaussianRational:
        return _make(-self.re_num, -self.im_num, self.den)

    def conjugate(self) -> GaussianRational:
        return _make(self.re_num, -self.im_num, self.den)

    def is_zero(self) -> bool:
        return self.re_num == 0 and self.im_num == 0

    def is_real(self) -> bool:
        return self.im_num == 0

    def __bool__(self) -> bool:
        return self.re_num != 0 or self.im_num != 0

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_allocate = object.__new__
_set_re_num = GaussianRational.re_num.__set__
_set_im_num = GaussianRational.im_num.__set__
_set_den = GaussianRational.den.__set__


def _make(re_num: int, im_num: int, den: int) -> GaussianRational:
    """The scalar of a triple already in canonical form, unchecked.  The slot
    descriptors write past the class's refusing __setattr__."""
    z = _allocate(GaussianRational)
    _set_re_num(z, re_num)
    _set_im_num(z, im_num)
    _set_den(z, den)
    return z


def _from_triple(re_num: int, im_num: int, den: int) -> GaussianRational:
    """The scalar (re_num + im_num*i) / den for integers with den > 0, divided
    by the gcd of the three when that gcd is not 1."""
    g = gcd(re_num, im_num, den)
    if g != 1:
        return _make(re_num // g, im_num // g, den // g)
    return _make(re_num, im_num, den)


I_UNIT = GaussianRational(0, 1)


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    """num/den for den > 0 as a numerator and denominator with no common factor."""
    g = gcd(num, den)
    return num // g, den // g


def _rational_text(num: int, den: int) -> str:
    """num/den as str(Fraction(num, den)) writes it."""
    num, den = _lowest_terms(num, den)
    return str(num) if den == 1 else f"{num}/{den}"


def format_scalar(z: GaussianRational) -> str:
    """Emit "a/b" for reals and "a/b+c/di" otherwise (canonical reduced form)."""
    re_num, im_num, den = z.re_num, z.im_num, z.den
    if im_num == 0:
        return _rational_text(re_num, den)
    if im_num == den:
        imag = "i"
    elif im_num == -den:
        imag = "-i"
    else:
        imag = _rational_text(im_num, den) + "i"
    if re_num == 0:
        return imag
    return _rational_text(re_num, den) + ("+" if im_num > 0 else "") + imag


# The most digits one rational literal may hold: far below Python's
# 4300-digit limit on converting text to int, so a product of a few such
# numbers still prints.
MAX_LITERAL_DIGITS = 1000


def parse_rational(value, denominator=1) -> Fraction:
    """value/denominator from ints or text like "-2/5" or "0.5"; any other part
    (a float, a bool, null), an exponent such as "1e9", text of more than
    MAX_LITERAL_DIGITS digits and a zero denominator are ValueErrors.  An
    exponent is refused because Fraction would build its whole integer, which
    takes unbounded time and memory."""
    if not all(isinstance(part, (int, str)) and not isinstance(part, bool)
               for part in (value, denominator)):
        raise ValueError(f"cannot read {value!r}/{denominator!r} as a rational")
    for part in (value, denominator):
        if isinstance(part, str):
            if "e" in part.lower():
                raise ValueError(f"exponent in {part!r}; write the number as a/b or a decimal")
            _check_digits(part)
    try:
        return Fraction(value) / Fraction(denominator)
    except ZeroDivisionError:
        literal = value if denominator == 1 else f"{value}/{denominator}"
        raise ValueError(f"zero denominator in {literal!r}") from None


def parse_integer(text: str) -> int:
    """int(text) for text of at most MAX_LITERAL_DIGITS digits; longer text is
    a ValueError that names the cap, not Python's own digit limit."""
    _check_digits(text)
    return int(text)


def _check_digits(text: str) -> None:
    digits = sum(map(str.isdigit, text))
    if digits > MAX_LITERAL_DIGITS:
        raise ValueError(f"a literal of {digits} digits exceeds the cap of "
                         f"{MAX_LITERAL_DIGITS} digits")


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
        "re": list(_lowest_terms(z.re_num, z.den)),
        "im": list(_lowest_terms(z.im_num, z.den)),
    }


def scalar_from_json(obj: dict) -> GaussianRational:
    """{"re": [num, den], "im": [num, den]}, either part defaulting to 0; a part
    that is not a [num, den] pair is a ValueError."""
    parts = []
    for key in ("re", "im"):
        part = obj.get(key, [0, 1])
        if not (isinstance(part, (list, tuple)) and len(part) == 2):
            raise ValueError(f"the {key!r} part {part!r} is not a [num, den] pair")
        parts.append(parse_rational(*part))
    return GaussianRational(*parts)


def sqrt_exact(value: Fraction) -> Fraction | None:
    """Rational square root of a non-negative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None
