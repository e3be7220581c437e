"""The reference slice: a fixed piece of pure-Python work timed inside every run.

Every timing a run reports is divided by the time of this slice in the same
run, which cancels most of the drift of a shared machine.  The slice uses
only the standard library (ints, tuples, dicts, a frozen dataclass and
``Fraction``) and imports nothing from the program, so no change to the
program can move it.

Its mix follows the program's hot paths: products of frozen pairs of
``Fraction``s, as in the Gaussian-rational kernel, and a table of tuples
built and probed through a dict, as in the group tables and the mark
calculus.  Object allocation matters: when the machine's speed swung, a
slice of tight small-``Fraction`` arithmetic alone swung about 10% further
than the program's calls, while this mix swung with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class _Pair:
    re: Fraction
    im: Fraction


def _pair_work() -> _Pair:
    acc = _Pair(Fraction(1), Fraction(0))
    for k in range(1, 200):
        x = _Pair(Fraction(k, 7), Fraction(-k, 5))
        acc = _Pair(acc.re * x.re - acc.im * x.im, acc.re * x.im + acc.im * x.re)
        # keep entries small so every repetition costs the same
        acc = _Pair(acc.re - int(acc.re), acc.im - int(acc.im))
    return acc


def _table_work() -> int:
    rows = [(k, (k * 7919) % 10007, str(k)) for k in range(20000)]
    index = {row[1]: row for row in rows}
    return sum(index[k][0] for k in range(0, 10007, 3) if k in index)


def reference_slice() -> tuple[_Pair, _Pair, int]:
    """One slice; the result is the same on every call and is checked by the caller."""
    return _pair_work(), _pair_work(), _table_work()
