"""Windowed sequences, the tick-shift operator J, and the adjusted derivative.

Coefficients live on an integer tick grid (tick n stands for t0 + n*dt).  The
single rewriting rule f(t) J = J f(t + dt) normalizes every operator word to
the canonical form  sum over k of J^k f_k(t)  with all J factors leftmost.
The central identity  [x, Dx] = J (x(t+dt) - x(t))^2 / dt  holds for every
sequence, on the window where both sides are defined, and so does the
derivative's own commutator form Dx = [x, J]/dt.  ``basic_commutator`` returns
the two sides of the first, ``discrete_derivative`` and ``shift_commutator``
those of the second, and ``on_overlap`` reads two operators on the windows
they share, so the caller compares them with ``==``.

A sequence holds its window as integer numerators over one denominator, in
canonical form like ``scalars.GaussianRational`` (Knuth, TAOCP vol. 2,
section 4.5.1): the denominator is positive, the gcd of the numerators and
the denominator is 1, and a zero window is held over 1, so equal values have
equal fields.  Every window operation runs on the integers and takes one gcd
per result; ``Fraction`` values are built only when a caller reads
``samples``, ``const``, ``value_at`` or ``on_overlap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Callable, Iterable


@dataclass(frozen=True)
class Sequence:
    """A rational-valued signal: finite window of samples, or a constant.

    The value at tick ``start + i`` is ``nums[i] / den``.  A constant has
    ``start`` None, no window, and its one numerator in ``nums``.  Build
    sequences with ``from_values`` and ``constant``, which give the canonical
    form.
    """

    nums: tuple[int, ...]
    den: int
    start: int | None

    @staticmethod
    def from_values(values: Iterable, start: int = 0) -> Sequence:
        # over the lcm of the reduced denominators no prime divides every
        # numerator and the denominator
        fracs = [Fraction(v) for v in values]
        den = lcm(*(f.denominator for f in fracs))
        return Sequence(tuple(f.numerator * (den // f.denominator) for f in fracs), den, start)

    @staticmethod
    def constant(value) -> Sequence:
        c = Fraction(value)
        return Sequence((c.numerator,), c.denominator, None)

    @property
    def samples(self) -> tuple[Fraction, ...] | None:
        """The window's values, or None for a constant."""
        if self.start is None:
            return None
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def const(self) -> Fraction | None:
        """A constant's value, or None for a window."""
        return None if self.start is not None else self.value_at(0)

    def window(self) -> tuple[int, int] | None:
        """Half-open tick range of definition, or None for all ticks."""
        if self.start is None:
            return None
        return (self.start, self.start + len(self.nums))

    def value_at(self, tick: int) -> Fraction:
        if self.start is None:
            return Fraction(self.nums[0], self.den)
        if not (self.start <= tick < self.start + len(self.nums)):
            raise IndexError(f"tick {tick} outside window {self.window()}")
        return Fraction(self.nums[tick - self.start], self.den)

    def advanced(self, ticks: int) -> Sequence:
        """The signal t -> self(t + ticks); windows shift accordingly."""
        if self.start is None or ticks == 0:
            return self
        return Sequence(self.nums, self.den, self.start - ticks)

    def _on(self, window: tuple[int, int] | None) -> tuple[int, ...]:
        """The numerators on ``window``, which lies inside this sequence's
        own; a constant's one numerator repeats, and stays single when
        ``window`` is None."""
        if self.start is None:
            return self.nums if window is None else self.nums * (window[1] - window[0])
        lo, hi = window  # type: ignore[misc]
        return self.nums[lo - self.start:hi - self.start]

    def _combine(self, other: Sequence, op: Callable[[int, int], int]) -> Sequence:
        """``op`` (add, sub or mul) on the shared window, on the numerators."""
        window = overlap_window(self.window(), other.window())
        a, b = self._on(window), other._on(window)
        d, e = self.den, other.den
        if op is mul:
            d *= e
        elif d != e:
            a, b = [v * e for v in a], [v * d for v in b]
            d *= e
        return _reduced(tuple(map(op, a, b)), d, None if window is None else window[0])

    def __add__(self, other: Sequence) -> Sequence:
        return self._combine(other, add)

    def __sub__(self, other: Sequence) -> Sequence:
        return self._combine(other, sub)

    def __mul__(self, other: Sequence) -> Sequence:
        return self._combine(other, mul)

    def scale(self, factor) -> Sequence:
        c = factor if type(factor) in (int, Fraction) else Fraction(factor)
        p = c.numerator
        return _reduced(tuple(v * p for v in self.nums), self.den * c.denominator, self.start)

    def is_zero_on_window(self) -> bool:
        return not any(self.nums)

    def __len__(self) -> int:
        if self.start is None:
            raise TypeError("constant sequences have no finite length")
        return len(self.nums)


def _reduced(nums: tuple[int, ...], den: int, start: int | None) -> Sequence:
    """The canonical sequence of ``nums / den`` (den > 0) from ``start``."""
    g = gcd(*nums, den)
    if g != 1:
        nums, den = tuple(v // g for v in nums), den // g
    return Sequence(nums, den, start)


def overlap_window(
    a: tuple[int, int] | None, b: tuple[int, int] | None
) -> tuple[int, int] | None:
    if a is None:
        return b
    if b is None:
        return a
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo >= hi:
        raise ValueError(f"windows {a} and {b} do not overlap")
    return (lo, hi)


@dataclass(frozen=True)
class ShiftPoly:
    """Canonical operator word  sum over k of J^k f_k  with a fixed tick size dt."""

    dt: Fraction
    terms: tuple[tuple[int, Sequence], ...]  # sorted by J power, no zero terms

    @staticmethod
    def build(dt, terms: dict[int, Sequence]) -> ShiftPoly:
        kept = tuple(
            (k, seq) for k, seq in sorted(terms.items()) if not seq.is_zero_on_window()
        )
        # every operation passes its own tick size, a Fraction already
        return ShiftPoly(dt if type(dt) is Fraction else Fraction(dt), kept)

    @staticmethod
    def from_sequence(x: Sequence, dt) -> ShiftPoly:
        return ShiftPoly.build(dt, {0: x})

    @staticmethod
    def shift_operator(dt) -> ShiftPoly:
        return ShiftPoly.build(dt, {1: Sequence.constant(1)})

    def coefficient(self, power: int) -> Sequence:
        for k, seq in self.terms:
            if k == power:
                return seq
        return Sequence.constant(0)

    def _check_dt(self, other: ShiftPoly) -> None:
        if self.dt != other.dt:
            raise ValueError(f"tick-size mismatch: {self.dt} vs {other.dt}")

    def __add__(self, other: ShiftPoly) -> ShiftPoly:
        self._check_dt(other)
        acc: dict[int, Sequence] = dict(self.terms)
        for k, seq in other.terms:
            acc[k] = acc[k] + seq if k in acc else seq
        return ShiftPoly.build(self.dt, acc)

    def __neg__(self) -> ShiftPoly:
        return ShiftPoly(self.dt, tuple((k, seq.scale(-1)) for k, seq in self.terms))

    def __sub__(self, other: ShiftPoly) -> ShiftPoly:
        return self + (-other)

    def __mul__(self, other: ShiftPoly) -> ShiftPoly:
        """(J^a f)(J^b g) = J^(a+b) f(t+b) g(t), normalized to canonical form."""
        self._check_dt(other)
        acc: dict[int, Sequence] = {}
        for a, f in self.terms:
            for b, g in other.terms:
                term = f.advanced(b) * g
                key = a + b
                acc[key] = acc[key] + term if key in acc else term
        return ShiftPoly.build(self.dt, acc)

    def scale(self, factor) -> ShiftPoly:
        return ShiftPoly(self.dt, tuple((k, seq.scale(factor)) for k, seq in self.terms))


def on_overlap(a: ShiftPoly, b: ShiftPoly) -> tuple[tuple, tuple]:
    """Each operator's tick size, then for each J power that either holds the
    power and its coefficient's values on the window the two coefficients
    share (the one value where both are constant).  The operators are equal on
    their overlap exactly when the two results are equal."""
    sides: tuple[list, list] = ([a.dt], [b.dt])
    for k in sorted({k for k, _ in a.terms} | {k for k, _ in b.terms}):
        pair = (a.coefficient(k), b.coefficient(k))
        window = overlap_window(pair[0].window(), pair[1].window())
        for side, f in zip(sides, pair):
            side.append((k, tuple(Fraction(v, f.den) for v in f._on(window))))
    return tuple(sides[0]), tuple(sides[1])


def discrete_derivative(x: Sequence, dt) -> ShiftPoly:
    """Dx = J (x(t+dt) - x(t))/dt, which equals shift_commutator(x, dt) on the
    shared window: compare on_overlap of the two."""
    if x.start is not None and len(x) < 2:
        raise ValueError("derivative needs a window of length >= 2")
    dt = Fraction(dt)
    return ShiftPoly.build(dt, {1: (x.advanced(1) - x).scale(1 / dt)})


def shift_commutator(x: Sequence, dt) -> ShiftPoly:
    """[x, J]/dt, the commutator form of the derivative."""
    dt = Fraction(dt)
    j_op = ShiftPoly.shift_operator(dt)
    x_poly = ShiftPoly.from_sequence(x, dt)
    return (x_poly * j_op - j_op * x_poly).scale(1 / dt)


def basic_commutator(x: Sequence, dt) -> tuple[ShiftPoly, ShiftPoly]:
    """[x, Dx] and J (x(t+dt) - x(t))^2 / dt, which agree on the shared window:
    compare on_overlap of the two."""
    if x.start is not None and len(x) < 3:
        raise ValueError("commutator needs a window of length >= 3")
    dt = Fraction(dt)
    x_poly = ShiftPoly.from_sequence(x, dt)
    dx = discrete_derivative(x, dt)
    lhs = x_poly * dx - dx * x_poly
    delta = x.advanced(1) - x
    rhs = ShiftPoly.build(dt, {1: (delta * delta).scale(1 / dt)})
    return lhs, rhs


def diffusion_constant(x: Sequence, dt) -> Fraction | None:
    """(x(t+dt) - x(t))^2 / dt when it is the same for every step of the
    window, else None."""
    if x.start is None:
        return Fraction(0)
    if len(x) < 3:
        raise ValueError("constancy check needs a window of length >= 3")
    rate = 1 / Fraction(dt)  # raises on dt = 0 whether or not the steps agree
    steps = {(b - a) ** 2 for a, b in zip(x.nums, x.nums[1:])}
    return Fraction(steps.pop(), x.den ** 2) * rate if len(steps) == 1 else None
