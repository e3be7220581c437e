"""Split quaternions, quaternion triples, anticommuting generator ladders,
braiding by conjugation, fermion operators, the self-dual fusion ring, and the
exact spacetime demonstrations (boost and Hermitian observable).

All braiding stays in exact arithmetic: the conjugation by (1 + c'c)/sqrt(2)
is computed as (1 + c'c) x (1 - c'c) / 2, where the sqrt(2) factors cancel
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .iterants import polarity_element, shift_element
from .matrep import to_matrix
from .matrix import SquareMatrix
from .scalars import I_UNIT, GaussianRational, sqrt_exact


@dataclass(frozen=True)
class SplitQuaternions:
    """The 2x2 system {1, polarity, shift, root} with polarity^2 = shift^2 = 1,
    polarity*shift = -shift*polarity and root = polarity*shift of square -1."""

    one: SquareMatrix
    polarity: SquareMatrix
    shift: SquareMatrix
    root: SquareMatrix


def split_quaternions() -> SplitQuaternions:
    """The period-two iterants polarity [-1,1] and shift e, read as matrices."""
    polarity = to_matrix(polarity_element())
    shift = to_matrix(shift_element())
    return SplitQuaternions(SquareMatrix.identity(2), polarity, shift, polarity * shift)


@dataclass(frozen=True)
class QuaternionTriple:
    I: SquareMatrix
    J: SquareMatrix
    K: SquareMatrix

    @property
    def dim(self) -> int:
        return self.I.n


_QUATERNION_SIGNS = {
    # (left unit, right unit) -> (sign, result unit) over {1, i, j, k}
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def quaternion_table_holds(triple: QuaternionTriple) -> bool:
    """Check every one of the 16 unit products against the quaternion table."""
    n = triple.dim
    units = {
        "1": SquareMatrix.identity(n),
        "i": triple.I,
        "j": triple.J,
        "k": triple.K,
    }
    for (a, b), (sign, c) in _QUATERNION_SIGNS.items():
        if units[a] * units[b] != units[c].scale(sign):
            return False
    return True


def quaternion_triple(variant: str) -> QuaternionTriple:
    """Three constructions of I, J, K with I^2 = J^2 = K^2 = IJK = -1.

    * ``klein4``: real 4x4 signed permutation matrices diag(v) * P over the
      three order-two permutations (12)(34), (13)(24), (14)(23);
    * ``iota_2x2``: 2x2 Gaussian-rational matrices built from a commuting
      imaginary unit times the split generators;
    * ``majorana_triple``: products of a triple of anticommuting square-one
      generators (I = c2 c1, J = c3 c2, K = c1 c3).
    """
    if variant == "klein4":
        from .groups import klein4, regular_action

        group = klein4()
        action = regular_action(group)
        a_mat = action.matrix_of(group.index_of("A"))
        b_mat = action.matrix_of(group.index_of("B"))
        c_mat = action.matrix_of(group.index_of("C"))
        alpha = SquareMatrix.diagonal([1, -1, -1, 1])
        beta = SquareMatrix.diagonal([1, 1, -1, -1])
        gamma = SquareMatrix.diagonal([1, -1, 1, -1])
        return QuaternionTriple(alpha * a_mat, beta * b_mat, gamma * c_mat)
    if variant == "iota_2x2":
        sq = split_quaternions()
        return QuaternionTriple(
            sq.polarity.scale(I_UNIT), sq.polarity * sq.shift, sq.shift.scale(I_UNIT)
        )
    if variant == "majorana_triple":
        rep = clifford_generators(3)
        return quaternions_from_triple(rep)
    raise ValueError(f"unknown quaternion variant {variant!r}")


@dataclass(frozen=True)
class CliffordRep:
    """n pairwise-anticommuting square-one matrices (checked at construction)."""

    generators: tuple[SquareMatrix, ...]

    def __post_init__(self) -> None:
        gens = self.generators
        dim = gens[0].n if gens else 0
        identity = SquareMatrix.identity(dim)
        for idx, c in enumerate(gens):
            if c * c != identity:
                raise ValueError(f"generator {idx + 1} does not square to the identity")
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                if not gens[a].anticommutator(gens[b]).is_zero():
                    raise ValueError(f"generators {a + 1} and {b + 1} do not anticommute")

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return self.generators[0].n


MAX_CLIFFORD_GENERATORS = 8


def _check_generator_count(n: int) -> None:
    if not 1 <= n <= MAX_CLIFFORD_GENERATORS:
        raise ValueError(f"generator count must be in 1..{MAX_CLIFFORD_GENERATORS}, got {n}")


def clifford_generators(n: int) -> CliffordRep:
    """Ladder of n anticommuting square-one matrices in dimension 2^ceil(n/2).

    Block j contributes the split pair (polarity, shift) in slot j, preceded by
    parity factors i * polarity * shift (square +1, anticommuting with both).
    """
    _check_generator_count(n)
    sq = split_quaternions()
    parity = sq.root.scale(I_UNIT)  # squares to +1
    blocks = (n + 1) // 2
    gens: list[SquareMatrix] = []
    for k in range(n):
        block, slot = divmod(k, 2)
        factor = sq.polarity if slot == 0 else sq.shift
        mat = SquareMatrix.identity(1)
        for j in range(blocks):
            if j < block:
                mat = mat.kron(parity)
            elif j == block:
                mat = mat.kron(factor)
            else:
                mat = mat.kron(sq.one)
        gens.append(mat)
    return CliffordRep(tuple(gens))


def quaternions_from_triple(rep: CliffordRep) -> QuaternionTriple:
    if rep.n != 3:
        raise ValueError(f"need exactly 3 generators, got {rep.n}")
    a, b, c = rep.generators
    return QuaternionTriple(b * a, c * b, a * c)


def braid_conjugate(rep: CliffordRep, k: int, x: SquareMatrix) -> SquareMatrix:
    """Conjugation by the k-th braiding element, exactly:
    (1 + c_{k+1} c_k) x (1 - c_{k+1} c_k) / 2."""
    if not 1 <= k < rep.n:
        raise ValueError(f"braid index must satisfy 1 <= k < {rep.n}, got {k}")
    identity = SquareMatrix.identity(rep.dim)
    w = rep.generators[k] * rep.generators[k - 1]
    return ((identity + w) * x * (identity - w)).scale(Fraction(1, 2))


def braid_basis_matrix(n: int, k: int) -> SquareMatrix:
    """Signed permutation of the generator span: c_k -> c_{k+1}, c_{k+1} -> -c_k.

    Row i holds the coordinates of the image of c_{i+1}.
    """
    _check_generator_count(n)
    if not 1 <= k < n:
        raise ValueError(f"braid index must satisfy 1 <= k < {n}, got {k}")
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    rows[k - 1][k - 1] = 0
    rows[k - 1][k] = 1
    rows[k][k] = 0
    rows[k][k - 1] = -1
    return SquareMatrix.from_rows(rows)


def braid_word_matrix(n: int, word: list[int]) -> SquareMatrix:
    _check_generator_count(n)
    total = SquareMatrix.identity(n)
    for k in word:
        total = total * braid_basis_matrix(n, k)
    return total


@dataclass(frozen=True)
class QuaternionBraiders:
    """Unnormalized braiders 1+I, 1+J, 1+K; the dropped 1/sqrt(2) factors cancel
    identically in the braid relations, which therefore hold exactly."""

    A: SquareMatrix
    B: SquareMatrix
    C: SquareMatrix
    relations_hold: bool


def quaternion_braiders(rep: CliffordRep) -> QuaternionBraiders:
    if rep.n != 3:
        raise ValueError(f"need exactly 3 generators, got {rep.n}")
    triple = quaternions_from_triple(rep)
    one = SquareMatrix.identity(rep.dim)
    a, b, c = one + triple.I, one + triple.J, one + triple.K
    relations = (
        a * b * a == b * a * b
        and b * c * b == c * b * c
        and a * c * a == c * a * c
    )
    return QuaternionBraiders(a, b, c, relations)


@dataclass(frozen=True)
class FermionPair:
    psi: SquareMatrix
    psi_dagger: SquareMatrix
    psi_squared_zero: bool
    dagger_squared_zero: bool
    anticommutator_is_one: bool


def fermion_pair(rep: CliffordRep, j: int = 1, k: int = 2) -> FermionPair:
    """psi = (c_j + i c_k)/2 and its conjugate; the standard fermion relations
    follow from the anticommuting square-one pair."""
    if j == k or not (1 <= j <= rep.n and 1 <= k <= rep.n):
        raise ValueError(f"need distinct generator indices in 1..{rep.n}, got ({j}, {k})")
    c, cp = rep.generators[j - 1], rep.generators[k - 1]
    half = Fraction(1, 2)
    psi = (c + cp.scale(I_UNIT)).scale(half)
    psi_dag = (c - cp.scale(I_UNIT)).scale(half)
    identity = SquareMatrix.identity(rep.dim)
    return FermionPair(
        psi=psi,
        psi_dagger=psi_dag,
        psi_squared_zero=(psi * psi).is_zero(),
        dagger_squared_zero=(psi_dag * psi_dag).is_zero(),
        anticommutator_is_one=psi.anticommutator(psi_dag) == identity,
    )


# ---------------------------------------------------------------------------
# Fusion ring of a self-dual particle: P * P = 1 + P.


@dataclass(frozen=True)
class FusionElement:
    unit: int = 0
    p: int = 0

    def __post_init__(self) -> None:
        if self.unit < 0 or self.p < 0:
            raise ValueError("fusion coefficients are non-negative integers")

    def __add__(self, other: FusionElement) -> FusionElement:
        return FusionElement(self.unit + other.unit, self.p + other.p)

    def __mul__(self, other: FusionElement) -> FusionElement:
        a, b, c, d = self.unit, self.p, other.unit, other.p
        return FusionElement(a * c + b * d, a * d + b * c + b * d)

    def __str__(self) -> str:
        return f"{self.unit} + {self.p}P"


FUSION_ONE = FusionElement(1, 0)
FUSION_P = FusionElement(0, 1)


# P^n has coefficients of about 0.7 n bits; the cap keeps a table desk-scale.
MAX_FUSION_POWER = 1000


def fusion_powers(n: int) -> list[FusionElement]:
    """P^0, P^1, ..., P^n, one product each."""
    if not 0 <= n <= MAX_FUSION_POWER:
        raise ValueError(f"fusion powers are defined for 0 <= n <= {MAX_FUSION_POWER}, got {n}")
    powers = [FUSION_ONE]
    for _ in range(n):
        powers.append(powers[-1] * FUSION_P)
    return powers


def fusion_power(n: int) -> FusionElement:
    return fusion_powers(n)[-1]


# ---------------------------------------------------------------------------
# Spacetime demonstrations.


@dataclass(frozen=True)
class BoostResult:
    mode: str  # "exact" | "light_cone"
    velocity: Fraction
    k_squared: Fraction
    u_minus: Fraction  # t - x
    u_plus: Fraction  # t + x
    invariant: Fraction  # t^2 - x^2, preserved in both modes
    gamma: Fraction | None = None
    k: Fraction | None = None
    t_prime: Fraction | None = None
    x_prime: Fraction | None = None

    def boosted_u_minus_squared(self) -> Fraction:
        return self.k_squared * self.u_minus * self.u_minus

    def boosted_u_plus_squared(self) -> Fraction:
        return self.u_plus * self.u_plus / self.k_squared


def lorentz_boost(v: Fraction, t: Fraction, x: Fraction) -> BoostResult:
    """Boost of the event (t, x); exact when 1 - v^2 is a rational square,
    otherwise the light-cone pair [k(t-x), k^-1(t+x)] is carried via k^2."""
    v, t, x = Fraction(v), Fraction(t), Fraction(x)
    one_minus = 1 - v * v
    if one_minus <= 0:
        raise ValueError(f"velocity magnitude must be < 1, got {v}")
    k_squared = (1 + v) / (1 - v)
    invariant = t * t - x * x
    root = sqrt_exact(one_minus)
    if root is None:
        return BoostResult(
            mode="light_cone",
            velocity=v,
            k_squared=k_squared,
            u_minus=t - x,
            u_plus=t + x,
            invariant=invariant,
        )
    gamma = 1 / root
    t_prime = gamma * (t - x * v)
    x_prime = gamma * (x - v * t)
    return BoostResult(
        mode="exact",
        velocity=v,
        k_squared=k_squared,
        u_minus=t - x,
        u_plus=t + x,
        invariant=invariant,
        gamma=gamma,
        k=(1 + v) * gamma,
        t_prime=t_prime,
        x_prime=x_prime,
    )


@dataclass(frozen=True)
class SpacetimeEvent:
    t: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    @staticmethod
    def of(t, x, y, z) -> SpacetimeEvent:
        return SpacetimeEvent(Fraction(t), Fraction(x), Fraction(y), Fraction(z))


@dataclass(frozen=True)
class HermitianObservable:
    matrix: SquareMatrix
    determinant: Fraction
    trace: Fraction
    charpoly: tuple[Fraction, Fraction, Fraction]  # (1, -2T, det)
    eigenvalues: tuple[Fraction, Fraction] | None  # exact roots when available
    hermitian: bool


def minkowski_observable(event: SpacetimeEvent) -> HermitianObservable:
    """H = [[T+X, Y+Zi], [Y-Zi, T-X]]: Hermitian, det = T^2-X^2-Y^2-Z^2,
    characteristic polynomial L^2 - 2T L + det."""
    t, x, y, z = event.t, event.x, event.y, event.z
    h = SquareMatrix.from_rows(
        [
            [GaussianRational(t + x), GaussianRational(y, z)],
            [GaussianRational(y, -z), GaussianRational(t - x)],
        ]
    )
    det = h.determinant()
    if not det.is_real():
        raise ArithmeticError("determinant of a Hermitian matrix must be real")
    spatial = x * x + y * y + z * z
    radius = sqrt_exact(spatial)
    eigenvalues = (t - radius, t + radius) if radius is not None else None
    return HermitianObservable(
        matrix=h,
        determinant=det.re,
        trace=2 * t,
        charpoly=(Fraction(1), -2 * t, det.re),
        eigenvalues=eigenvalues,
        hermitian=h.is_hermitian(),
    )
