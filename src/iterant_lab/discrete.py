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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable


@dataclass(frozen=True)
class Sequence:
    """A rational-valued signal: finite window of samples, or a constant.

    Finite form: ``samples`` holds values at ticks start, start+1, ...
    Constant form: ``samples`` is None and ``const`` is the everywhere-value.
    """

    samples: tuple[Fraction, ...] | None
    start: int = 0
    const: Fraction | None = None

    def __post_init__(self) -> None:
        if (self.samples is None) == (self.const is None):
            raise ValueError("exactly one of samples/const must be given")

    @staticmethod
    def from_values(values: Iterable, start: int = 0) -> Sequence:
        return Sequence(tuple(Fraction(v) for v in values), start)

    @staticmethod
    def constant(value) -> Sequence:
        return Sequence(None, 0, Fraction(value))

    def window(self) -> tuple[int, int] | None:
        """Half-open tick range of definition, or None for all ticks."""
        if self.samples is None:
            return None
        return (self.start, self.start + len(self.samples))

    def value_at(self, tick: int) -> Fraction:
        if self.samples is None:
            return self.const  # type: ignore[return-value]
        if not (self.start <= tick < self.start + len(self.samples)):
            raise IndexError(f"tick {tick} outside window {self.window()}")
        return self.samples[tick - self.start]

    def advanced(self, ticks: int) -> Sequence:
        """The signal t -> self(t + ticks); windows shift accordingly."""
        if self.samples is None or ticks == 0:
            return self
        return Sequence(self.samples, self.start - ticks)

    def _combine(self, other: Sequence, op: Callable) -> Sequence:
        if self.samples is None and other.samples is None:
            return Sequence.constant(op(self.const, other.const))
        window = overlap_window(self.window(), other.window())
        lo, hi = window  # both cannot be constant here
        return Sequence(
            tuple(op(self.value_at(t), other.value_at(t)) for t in range(lo, hi)), lo
        )

    def __add__(self, other: Sequence) -> Sequence:
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: Sequence) -> Sequence:
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other: Sequence) -> Sequence:
        return self._combine(other, lambda a, b: a * b)

    def scale(self, factor) -> Sequence:
        c = Fraction(factor)
        if self.samples is None:
            return Sequence.constant(self.const * c)
        return Sequence(tuple(v * c for v in self.samples), self.start)

    def is_zero_on_window(self) -> bool:
        if self.samples is None:
            return self.const == 0
        return all(v == 0 for v in self.samples)

    def __len__(self) -> int:
        if self.samples is None:
            raise TypeError("constant sequences have no finite length")
        return len(self.samples)


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
        return ShiftPoly(Fraction(dt), kept)

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
            values = (f.const,) if window is None else tuple(map(f.value_at, range(*window)))
            side.append((k, values))
    return tuple(sides[0]), tuple(sides[1])


def discrete_derivative(x: Sequence, dt) -> ShiftPoly:
    """Dx = J (x(t+dt) - x(t))/dt, which equals shift_commutator(x, dt) on the
    shared window: compare on_overlap of the two."""
    if x.samples is not None and len(x) < 2:
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
    if x.samples is not None and len(x) < 3:
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
    if x.samples is None:
        return Fraction(0)
    if len(x) < 3:
        raise ValueError("constancy check needs a window of length >= 3")
    dt = Fraction(dt)
    steps = [
        (x.samples[i + 1] - x.samples[i]) ** 2 / dt for i in range(len(x.samples) - 1)
    ]
    return steps[0] if all(s == steps[0] for s in steps) else None
