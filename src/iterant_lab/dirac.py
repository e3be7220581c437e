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

In three space dimensions p is replaced by the operator p.s built from an
independent commuting triple of anticommuting square-one matrices, and the
same identities hold with (p + m)^2 read as the operator square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import split_quaternions
from .matrix import SquareMatrix, scalar_matrix
from .scalars import I_UNIT

VERSIONS = ("conjugate", "time_reversed")


@dataclass(frozen=True)
class OnShellParams:
    energy: Fraction
    momentum: Fraction | tuple[Fraction, Fraction, Fraction]
    mass: Fraction

    @staticmethod
    def of(energy, momentum, mass) -> OnShellParams:
        if isinstance(momentum, (tuple, list)):
            p = tuple(Fraction(c) for c in momentum)
            if len(p) != 3:
                raise ValueError(f"momentum vector must have 3 components, got {len(p)}")
        else:
            p = Fraction(momentum)
        return OnShellParams(Fraction(energy), p, Fraction(mass))

    @property
    def space_dim(self) -> int:
        return 3 if isinstance(self.momentum, tuple) else 1

    @property
    def momentum_squared(self) -> Fraction:
        if isinstance(self.momentum, tuple):
            return sum(c * c for c in self.momentum)
        return self.momentum * self.momentum

    @property
    def shell_defect(self) -> Fraction:
        """p^2 + m^2 - E^2; zero exactly on shell."""
        return self.momentum_squared + self.mass * self.mass - self.energy * self.energy

    @property
    def on_shell(self) -> bool:
        return self.shell_defect == 0


@dataclass(frozen=True)
class DiracFrame:
    """alpha, beta with square one and alpha beta + beta alpha = 0; in the
    three-dimensional frame an independent commuting triple s_1, s_2, s_3."""

    alpha: SquareMatrix
    beta: SquareMatrix
    sigmas: tuple[SquareMatrix, ...]
    space_dim: int

    @property
    def dim(self) -> int:
        return self.alpha.n

    def momentum_operator(self, params: OnShellParams) -> SquareMatrix:
        if params.space_dim != self.space_dim:
            raise ValueError(
                f"frame is {self.space_dim}-dimensional but momentum is "
                f"{params.space_dim}-dimensional"
            )
        if self.space_dim == 1:
            return scalar_matrix(self.dim, params.momentum)
        total = SquareMatrix.zero(self.dim)
        for p_i, s_i in zip(params.momentum, self.sigmas):
            total = total + s_i.scale(p_i)
        return total


def dirac_frame(dim: str = "1d") -> DiracFrame:
    """The 2x2 split-generator frame, or its 4x4 three-dimensional extension."""
    sq = split_quaternions()
    if dim == "1d":
        return DiracFrame(alpha=sq.polarity, beta=sq.shift, sigmas=(), space_dim=1)
    if dim == "3d":
        one = sq.one
        alpha = sq.polarity.kron(one)
        beta = sq.shift.kron(one)
        s1 = sq.shift
        s2 = -sq.polarity
        s3 = (s1 * s2).scale(I_UNIT)
        sigmas = tuple(one.kron(s) for s in (s1, s2, s3))
        return DiracFrame(alpha=alpha, beta=beta, sigmas=sigmas, space_dim=3)
    raise ValueError(f"dim must be '1d' or '3d', got {dim!r}")


def nilpotent_u(frame: DiracFrame, params: OnShellParams) -> SquareMatrix:
    """U = ba E + b p - a m; U^2 = (p^2 + m^2 - E^2) * identity."""
    p_op = frame.momentum_operator(params)
    return (
        (frame.beta * frame.alpha).scale(params.energy)
        + frame.beta * p_op
        - frame.alpha.scale(params.mass)
    )


def nilpotent_pair(
    frame: DiracFrame, params: OnShellParams, version: str
) -> tuple[SquareMatrix, SquareMatrix]:
    """The matched (U, U+) pair for the requested convention (see module doc)."""
    p_op = frame.momentum_operator(params)
    ba = frame.beta * frame.alpha
    if version == "conjugate":
        u = ba.scale(params.energy) + frame.beta * p_op + frame.alpha.scale(params.mass)
        u_dag = (
            (frame.alpha * frame.beta).scale(params.energy)
            + frame.alpha * p_op
            + frame.beta.scale(params.mass)
        )
        return u, u_dag
    if version == "time_reversed":
        u = nilpotent_u(frame, params)
        u_dag = (
            ba.scale(-params.energy) + frame.beta * p_op - frame.alpha.scale(params.mass)
        )
        return u, u_dag
    raise ValueError(f"version must be one of {VERSIONS}, got {version!r}")


@dataclass(frozen=True)
class MajoranaSplit:
    """U = (A + iB) E with A, B square-one and anticommuting (time-reversed pair)."""

    A: SquareMatrix
    B: SquareMatrix
    a_squared_one: bool
    b_squared_one: bool
    anticommute: bool
    reconstructs_u: bool
    reconstructs_u_dagger: bool


def majorana_split(frame: DiracFrame, params: OnShellParams) -> MajoranaSplit:
    if params.energy == 0:
        raise ValueError("the split divides by the energy; E must be nonzero")
    p_op = frame.momentum_operator(params)
    inv_e = Fraction(1) / params.energy
    a = (frame.beta * p_op - frame.alpha.scale(params.mass)).scale(inv_e)
    b = (frame.beta * frame.alpha).scale(-I_UNIT)
    identity = SquareMatrix.identity(frame.dim)
    u, u_dag = nilpotent_pair(frame, params, "time_reversed")
    rebuilt_u = (a + b.scale(I_UNIT)).scale(params.energy)
    rebuilt_dag = (a - b.scale(I_UNIT)).scale(params.energy)
    return MajoranaSplit(
        A=a,
        B=b,
        a_squared_one=(a * a == identity),
        b_squared_one=(b * b == identity),
        anticommute=a.anticommutator(b).is_zero(),
        reconstructs_u=(rebuilt_u == u),
        reconstructs_u_dagger=(rebuilt_dag == u_dag),
    )


@dataclass(frozen=True)
class PlaneWaveResidual:
    residual: SquareMatrix
    factorization_ok: bool  # U == (E - a p - b m) * b * a
    shell_defect: Fraction

    @property
    def is_solution(self) -> bool:
        return self.residual.is_zero()


def plane_wave_residual(frame: DiracFrame, params: OnShellParams) -> PlaneWaveResidual:
    """The operator content of the plane-wave solution: with
    D = E - alpha p - beta m one has U = D beta alpha, and D beta alpha U = U^2
    must vanish on shell.  Off shell the nonzero defect is reported, not raised.
    """
    p_op = frame.momentum_operator(params)
    delta = (
        scalar_matrix(frame.dim, params.energy)
        - frame.alpha * p_op
        - frame.beta.scale(params.mass)
    )
    u = nilpotent_u(frame, params)
    factored = delta * frame.beta * frame.alpha
    residual = factored * u
    return PlaneWaveResidual(
        residual=residual,
        factorization_ok=(factored == u),
        shell_defect=params.shell_defect,
    )


def relation_report(frame: DiracFrame, params: OnShellParams) -> dict[str, bool]:
    """Every relation of U = ba E + b p - a m for one (E, p, m), keyed by name.

    U^2 = 0 for the plain U and for each version's (U, U+), each version's
    anticommutator and sum/difference squares, the Majorana split and the
    plane-wave residual.  The split keys are left out when E = 0, where the
    split is undefined.  Off shell the nilpotency keys read False.
    """
    identity = SquareMatrix.identity(frame.dim)
    zero = SquareMatrix.zero(frame.dim)
    p_op = frame.momentum_operator(params)
    m_term = p_op + identity.scale(params.mass)
    checks = {}
    u_plain = nilpotent_u(frame, params)
    checks["u-squared-zero"] = u_plain * u_plain == zero
    for version in VERSIONS:
        u, u_dag = nilpotent_pair(frame, params, version)
        checks[f"{version}-u-squared"] = u * u == zero
        checks[f"{version}-dagger-squared"] = u_dag * u_dag == zero
        anti = u * u_dag + u_dag * u
        if version == "conjugate":
            expected = (m_term * m_term).scale(2)
            checks["conjugate-anticommutator"] = anti == expected
            plus = u + u_dag
            minus = u - u_dag
            checks["conjugate-sum-squared"] = plus * plus == expected
            checks["conjugate-diff-squared"] = minus * minus == -expected
        else:
            e2 = params.energy * params.energy
            checks["time-reversed-anticommutator"] = anti == identity.scale(4 * e2)
            minus = u - u_dag
            checks["time-reversed-diff-squared"] = minus * minus == identity.scale(-4 * e2)
    if params.energy != 0:
        split = majorana_split(frame, params)
        checks["split-a-squared"] = split.a_squared_one
        checks["split-b-squared"] = split.b_squared_one
        checks["split-anticommute"] = split.anticommute
        checks["split-rebuild"] = split.reconstructs_u and split.reconstructs_u_dagger
    residual = plane_wave_residual(frame, params)
    checks["plane-wave"] = residual.is_solution and residual.factorization_ok
    return checks


# ---------------------------------------------------------------------------
# Totally real generators from two commuting copies of the split system.


def _hatted_and_plain() -> tuple[dict[str, SquareMatrix], dict[str, SquareMatrix]]:
    """Two commuting copies of the split generators; hatted copy = left factor."""
    sq = split_quaternions()
    one = sq.one
    hatted = {
        "polarity": sq.polarity.kron(one),
        "shift": sq.shift.kron(one),
    }
    plain = {
        "polarity": one.kron(sq.polarity),
        "shift": one.kron(sq.shift),
    }
    return hatted, plain


@dataclass(frozen=True)
class RealGenerators:
    ax: SquareMatrix
    ay: SquareMatrix
    az: SquareMatrix
    beta_prime: SquareMatrix
    relation_table: dict[str, bool]
    all_real: bool


def majorana_dirac_generators() -> RealGenerators:
    """Real 4x4 generators ax = shift^ shift, ay = polarity, az = polarity^ shift,
    b' = polarity^ shift^ shift; the alphas square to +1, b' to -1, all four
    pairwise anticommute, so {ax, ay, az, i b'} generates the Dirac algebra
    without any complex entries in the generators themselves."""
    hatted, plain = _hatted_and_plain()
    ax = hatted["shift"] * plain["shift"]
    ay = plain["polarity"]
    az = hatted["polarity"] * plain["shift"]
    beta_prime = hatted["polarity"] * hatted["shift"] * plain["shift"]
    identity = SquareMatrix.identity(4)
    named = [("ax", ax), ("ay", ay), ("az", az), ("beta_prime", beta_prime)]
    table: dict[str, bool] = {
        "ax^2 = 1": ax * ax == identity,
        "ay^2 = 1": ay * ay == identity,
        "az^2 = 1": az * az == identity,
        "beta_prime^2 = -1": beta_prime * beta_prime == -identity,
        "(i beta_prime)^2 = 1": beta_prime.scale(I_UNIT) ** 2 == identity,
    }
    for idx_a in range(len(named)):
        for idx_b in range(idx_a + 1, len(named)):
            name_a, mat_a = named[idx_a]
            name_b, mat_b = named[idx_b]
            table[f"{name_a} {name_b} + {name_b} {name_a} = 0"] = mat_a.anticommutator(
                mat_b
            ).is_zero()
    all_real = all(m.is_real() for _, m in named)
    return RealGenerators(ax, ay, az, beta_prime, table, all_real)


@dataclass(frozen=True)
class CommutingCopiesReport:
    commutators_vanish: bool
    hatted_relations: bool
    plain_relations: bool
    hatted_root_squares_to_minus_one: bool

    @property
    def ok(self) -> bool:
        return (
            self.commutators_vanish
            and self.hatted_relations
            and self.plain_relations
            and self.hatted_root_squares_to_minus_one
        )


def commuting_copies_check() -> CommutingCopiesReport:
    """The tensor construction really gives two commuting split-generator copies."""
    hatted, plain = _hatted_and_plain()
    identity = SquareMatrix.identity(4)
    commute = all(
        hatted[a].commutator(plain[b]).is_zero()
        for a in ("polarity", "shift")
        for b in ("polarity", "shift")
    )

    def relations(copy: dict[str, SquareMatrix]) -> bool:
        return (
            copy["polarity"] * copy["polarity"] == identity
            and copy["shift"] * copy["shift"] == identity
            and copy["polarity"].anticommutator(copy["shift"]).is_zero()
        )

    root = hatted["polarity"] * hatted["shift"]
    return CommutingCopiesReport(
        commutators_vanish=commute,
        hatted_relations=relations(hatted),
        plain_relations=relations(plain),
        hatted_root_squares_to_minus_one=(root * root == -identity),
    )
