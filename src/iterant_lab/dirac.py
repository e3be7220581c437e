"""Nilpotent plane-wave operator algebra for the relativistic wave equation.

With generators a (alpha) and b (beta) of square one that anticommute, the
element U = ba E + b p - a m squares to (p^2 + m^2 - E^2), so U is nilpotent
exactly on the energy shell E^2 = p^2 + m^2.  Two conjugate-operator
conventions are carried side by side because they satisfy different
anticommutator identities:

* ``conjugate``:      U = ba E + b p + a m,   U+ = ab E + a p + b m,
                      with U U+ + U+ U = 2 (p + m)^2;
* ``time_reversed``:  U = ba E + b p - a m,   U+ = -ba E + b p - a m,
                      with U U+ + U+ U = 4 E^2.

The momentum p has one component per space dimension, and U reads it as the
operator p.s, the one sum p_1 s_1 + ... over the frame's s_i.  In one
dimension s_1 is the identity, so p.s is p times the identity; in three
dimensions s_1, s_2, s_3 are an independent commuting triple of
anticommuting square-one matrices, and the same identities hold with
(p + m)^2 read as the operator square.

Each identity is yielded as one (name, lhs, rhs) triple and the caller
compares the two sides: ``relations`` for one (E, p, m), and
``generator_relations`` and ``commuting_copy_relations`` for the totally real
generator set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .clifford import Relations, split_quaternions
from .matrix import SquareMatrix
from .scalars import I_UNIT

VERSIONS = ("conjugate", "time_reversed")


@dataclass(frozen=True)
class OnShellParams:
    energy: Fraction
    momentum: tuple[Fraction, ...]  # one or three components
    mass: Fraction

    @staticmethod
    def of(energy, momentum, mass) -> OnShellParams:
        """A scalar momentum is the 1-tuple of one space dimension."""
        if isinstance(momentum, (tuple, list)):
            p = tuple(Fraction(c) for c in momentum)
        else:
            p = (Fraction(momentum),)
        if len(p) not in (1, 3):
            raise ValueError(f"momentum must have 1 or 3 components, got {len(p)}")
        return OnShellParams(Fraction(energy), p, Fraction(mass))

    @property
    def momentum_squared(self) -> Fraction:
        return sum(c * c for c in self.momentum)

    @property
    def shell_defect(self) -> Fraction:
        """p^2 + m^2 - E^2; zero exactly on shell."""
        return self.momentum_squared + self.mass * self.mass - self.energy * self.energy

    @property
    def on_shell(self) -> bool:
        return self.shell_defect == 0


@dataclass(frozen=True)
class DiracFrame:
    """alpha, beta with square one and alpha beta + beta alpha = 0, and one
    s_i per space dimension commuting with both: the identity in the 1d
    frame, an anticommuting square-one triple in the 3d frame."""

    alpha: SquareMatrix
    beta: SquareMatrix
    sigmas: tuple[SquareMatrix, ...]

    @property
    def dim(self) -> int:
        return self.alpha.n

    @property
    def ba_ab(self) -> tuple[SquareMatrix, SquareMatrix]:
        """ba and ab, built on first use and kept in the instance dict, writable though frozen."""
        if "ba_ab" not in self.__dict__:
            self.__dict__["ba_ab"] = (self.beta * self.alpha, self.alpha * self.beta)
        return self.__dict__["ba_ab"]

    def momentum_operator(self, params: OnShellParams) -> SquareMatrix:
        """p.s = sum of p_i s_i."""
        s, p = self.sigmas, params.momentum
        if len(p) != len(s):
            raise ValueError(
                f"frame is {len(s)}-dimensional but momentum is {len(p)}-dimensional"
            )
        return sum((s_i.scale(p_i) for s_i, p_i in zip(s[1:], p[1:])), s[0].scale(p[0]))


def dirac_frame(dim: str = "1d") -> DiracFrame:
    """The 2x2 split-generator frame, or its 4x4 three-dimensional extension:
    alpha, beta from the hatted copy and s_1, s_2, s_3 = i s_1 s_2 from the
    plain copy of the split generators."""
    if dim == "1d":
        sq = split_quaternions()
        return DiracFrame(alpha=sq.polarity, beta=sq.shift, sigmas=(sq.one,))
    if dim == "3d":
        hatted, plain = _hatted_and_plain()
        s1, s2 = plain["shift"], -plain["polarity"]
        return DiracFrame(alpha=hatted["polarity"], beta=hatted["shift"],
                          sigmas=(s1, s2, (s1 * s2).scale(I_UNIT)))
    raise ValueError(f"dim must be '1d' or '3d', got {dim!r}")


def _terms(frame: DiracFrame, params: OnShellParams) -> tuple[SquareMatrix, ...]:
    """p.s, ba, ab, b(p.s), a(p.s), a m and b m: every product and multiple
    that both versions' (U, U+) and the plane wave are built from."""
    a, b, p_op = frame.alpha, frame.beta, frame.momentum_operator(params)
    return p_op, *frame.ba_ab, b * p_op, a * p_op, a.scale(params.mass), b.scale(params.mass)


def nilpotent_pair(
    frame: DiracFrame, params: OnShellParams, version: str,
    terms: tuple[SquareMatrix, ...] | None = None,
) -> tuple[SquareMatrix, SquareMatrix]:
    """The matched (U, U+) pair for the requested convention (see module doc),
    from the _terms of frame and params, built here unless they are given."""
    _, ba, ab, bp, ap, am, bm = terms or _terms(frame, params)
    e = params.energy
    if version == "conjugate":
        return ba.scale(e) + bp + am, ab.scale(e) + ap + bm
    if version == "time_reversed":
        return ba.scale(e) + bp - am, ba.scale(-e) + bp - am
    raise ValueError(f"version must be one of {VERSIONS}, got {version!r}")


def relations(frame: DiracFrame, params: OnShellParams) -> Relations:
    """Every relation of U = ba E + b p - a m for one (E, p, m), each as
    (name, lhs, rhs).

    U^2 = 0 for each version's (U, U+), each version's anticommutator and
    sum/difference squares, all named <version>-<relation> after VERSIONS,
    the Majorana split U = (A + iB) E with A, B square-one and anticommuting,
    and the plane-wave residual: with D = E - alpha p - beta m one has
    U = D beta alpha, and D beta alpha U = U^2 vanishes.  The split relations
    are left out when E = 0, where the split divides by zero.  Off shell the
    nilpotency and plane-wave relations fail; the nonzero sides show the
    defect.  The _terms and both pairs are built once; the plain U is the
    time-reversed one, so its square is time_reversed-u-squared.
    """
    identity = SquareMatrix.identity(frame.dim)
    zero = SquareMatrix.zero(frame.dim)
    terms = p_op, ba, _, bp, ap, am, bm = _terms(frame, params)
    pairs = {version: nilpotent_pair(frame, params, version, terms) for version in VERSIONS}
    u_plain = pairs["time_reversed"][0]
    e2 = params.energy * params.energy
    for version, (u, u_dag) in pairs.items():
        yield f"{version}-u-squared", u * u, zero
        yield f"{version}-dagger-squared", u_dag * u_dag, zero
        anti = u * u_dag + u_dag * u
        minus = u - u_dag
        if version == "conjugate":
            m_term = p_op + identity.scale(params.mass)
            expected = (m_term * m_term).scale(2)
            plus = u + u_dag
            yield f"{version}-anticommutator", anti, expected
            yield f"{version}-sum-squared", plus * plus, expected
            yield f"{version}-diff-squared", minus * minus, -expected
        else:
            yield f"{version}-anticommutator", anti, identity.scale(4 * e2)
            yield f"{version}-diff-squared", minus * minus, identity.scale(-4 * e2)
    if params.energy != 0:
        a = (bp - am).scale(1 / params.energy)
        b = ba.scale(-I_UNIT)
        yield "split-a-squared", a * a, identity
        yield "split-b-squared", b * b, identity
        yield "split-anticommute", a.anticommutator(b), zero
        rebuilt = ((a + b.scale(I_UNIT)).scale(params.energy),
                   (a - b.scale(I_UNIT)).scale(params.energy))
        yield "split-rebuild", rebuilt, pairs["time_reversed"]
    factored = (identity.scale(params.energy) - ap - bm) * ba
    yield "plane-wave", (factored * u_plain, factored), (zero, u_plain)


# ---------------------------------------------------------------------------
# Totally real generators from two commuting copies of the split system.


def _hatted_and_plain() -> tuple[dict[str, SquareMatrix], dict[str, SquareMatrix]]:
    """Two commuting copies of the split generators; hatted copy = left factor."""
    sq = split_quaternions()
    one = sq.one
    return ({"polarity": sq.polarity.kron(one), "shift": sq.shift.kron(one)},
            {"polarity": one.kron(sq.polarity), "shift": one.kron(sq.shift)})


def majorana_dirac_generators() -> dict[str, SquareMatrix]:
    """Real 4x4 generators ax = shift^ shift, ay = polarity, az = polarity^ shift,
    b' = polarity^ shift^ shift, by name; the alphas square to +1, b' to -1, all
    four pairwise anticommute, so {ax, ay, az, i b'} generates the Dirac algebra
    without any complex entries in the generators themselves."""
    hatted, plain = _hatted_and_plain()
    return {
        "ax": hatted["shift"] * plain["shift"],
        "ay": plain["polarity"],
        "az": hatted["polarity"] * plain["shift"],
        "beta_prime": hatted["polarity"] * hatted["shift"] * plain["shift"],
    }


def generator_relations(gens: dict[str, SquareMatrix]) -> Relations:
    """The squares of the real generators and their pairwise anticommutators."""
    identity = SquareMatrix.identity(4)
    zero = SquareMatrix.zero(4)
    for name in ("ax", "ay", "az"):
        yield f"{name}^2 = 1", gens[name] * gens[name], identity
    beta_prime = gens["beta_prime"]
    yield "beta_prime^2 = -1", beta_prime * beta_prime, -identity
    yield "(i beta_prime)^2 = 1", beta_prime.scale(I_UNIT) ** 2, identity
    for name_a, name_b in itertools.combinations(gens, 2):
        yield (f"{name_a} {name_b} + {name_b} {name_a} = 0",
               gens[name_a].anticommutator(gens[name_b]), zero)


def commuting_copy_relations() -> Relations:
    """The tensor construction really gives two commuting split-generator
    copies: the copies commute elementwise, each satisfies the split
    relations, and the hatted root squares to -1."""
    hatted, plain = _hatted_and_plain()
    identity = SquareMatrix.identity(4)
    zero = SquareMatrix.zero(4)
    yield ("commutators_vanish",
           tuple(h.commutator(p) for h, p in itertools.product(hatted.values(), plain.values())),
           (zero,) * 4)
    for name, copy in (("hatted_relations", hatted), ("plain_relations", plain)):
        yield (name,
               (copy["polarity"] * copy["polarity"], copy["shift"] * copy["shift"],
                copy["polarity"].anticommutator(copy["shift"])),
               (identity, identity, zero))
    root = hatted["polarity"] * hatted["shift"]
    yield "hatted_root_squares_to_minus_one", root * root, -identity
