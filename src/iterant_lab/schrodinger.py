"""Staggered explicit scheme for the free Schrodinger equation on a ring.

One real field would only diffuse; the alternating-sign recursion

    psi(t+1) - psi(t) = (-1)^t * (kappa dt / dx^2) * second difference

becomes wave-like once the even- and odd-tick values are read as two coupled
fields.  ``ticks`` realizes that reading: even ticks update the even field from
the curvature of the odd field (+), odd ticks update the odd field from the
even field (-), which is the standard staggered real/imaginary discretization
of  i d_t psi = kappa d_xx psi  for psi = psi_e + i psi_o.  One even+odd pair
of ticks advances physical time by dt.

Fields are plain lists.  The CLI ticks floats; ``verify`` ticks Fractions,
with dx, dt and kappa given as Fractions, so that r and every tick are exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .groups import MAX_LATTICE_WORK

# Each Fourier mode advances one tick pair by [[1, mu], [-mu, 1 - mu^2]] with
# mu = r lambda and lambda in [-4, 0]: determinant 1 and trace 2 - mu^2, so
# the scheme stays bounded exactly while r < 1/2.
STABILITY_WARNING_RATIO = 0.5


@dataclass(frozen=True)
class LatticeConfig:
    """dx, dt and kappa are floats, or Fractions for an exact run."""

    cells: int
    dx: float
    dt: float
    kappa: float
    steps: int

    def __post_init__(self) -> None:
        if self.cells < 2:
            raise ValueError("need at least two cells")
        for name, value in (("dx", self.dx), ("dt", self.dt), ("kappa", self.kappa)):
            if not 0 < value < math.inf:  # nan included
                raise ValueError(f"{name} must be finite and positive, got {value}")
        # dx^2 may underflow to 0 and kappa*dt overflow to inf
        if not (self.dx * self.dx > 0 and 0 < self.ratio < math.inf):
            raise ValueError(f"r = kappa*dt/dx^2 must be finite and positive, got kappa = "
                             f"{self.kappa}, dt = {self.dt}, dx = {self.dx}")
        if self.steps < 0:
            raise ValueError(f"steps must not be negative, got {self.steps}")
        # a list tick costs about 1.3 us plus 0.16 us a cell (2-core Xeon,
        # CPython 3.11), so a smaller lattice is counted as 16 cells, and a
        # run of no steps still holds its cells
        if max(self.cells, 16) * max(self.steps, 1) > MAX_LATTICE_WORK:
            raise ValueError(f"{self.cells} cells x {self.steps} steps exceeds the lattice work "
                             f"cap of {MAX_LATTICE_WORK} (fewer than 16 cells count as 16)")

    @property
    def ratio(self) -> float:
        """r = kappa dt / dx^2, the explicit-scheme stability ratio."""
        return self.kappa * self.dt / (self.dx * self.dx)

    @property
    def stability_warning(self) -> bool:
        return self.ratio >= STABILITY_WARNING_RATIO


def second_difference(values: list) -> list:
    """Periodic stencil (v[i-1] - 2 v[i]) + v[i+1], summed in that order in
    every cell, so on floats it equals
    np.roll(values, 1) - 2.0 * values + np.roll(values, -1) bit for bit, and
    on Fractions it is exact.  On two cells both neighbours are the other cell."""
    left = values[-1:] + values[:-1]
    right = values[1:] + values[:1]
    return [(a - 2 * b) + c for a, b, c in zip(left, values, right)]


def ticks(cfg: LatticeConfig, even: list, odd: list):
    """Yield the (even, odd) field pair at the start and after each pair of
    the cfg.steps ticks; each yielded list is new and is not changed later.

    Even tick:  psi_e += r * stencil(psi_o);  odd tick:  psi_o -= r * stencil(psi_e).
    """
    for values in (even, odd):
        if len(values) != cfg.cells:
            raise ValueError(f"field has {len(values)} cells, expected {cfg.cells}")
    e, o = list(even), list(odd)
    r = cfg.ratio
    yield e, o
    for tick in range(cfg.steps):
        if tick % 2 == 0:
            e = [v + r * d for v, d in zip(e, second_difference(o))]
        else:
            o = [v - r * d for v, d in zip(o, second_difference(e))]
            yield e, o


def run(cfg: LatticeConfig, even: list, odd: list, every: int = 1) -> list[tuple[list, list]]:
    """The pairs 0, every, 2*every, ... of ``ticks``, after all cfg.steps ticks."""
    return [pair for index, pair in enumerate(ticks(cfg, even, odd)) if index % every == 0]


def gaussian_fields(cfg: LatticeConfig, mu: float, sigma: float) -> tuple[list, list]:
    """exp(-(x - mu)^2 / 2 sigma^2) as the even field, with x - mu measured
    on the ring, so a Gaussian near either end wraps across the seam.  The
    exponent is never positive, so a narrow sigma underflows to 0 and never
    overflows."""
    if not sigma > 0:
        raise ValueError(f"gaussian width sigma must be positive, got {sigma}")
    ring = cfg.cells * cfg.dx
    z = [math.remainder(cell * cfg.dx - mu, ring) / sigma for cell in range(cfg.cells)]
    return [math.exp(-0.5 * (v * v)) for v in z], [0.0] * cfg.cells


def _check_mode(cfg: LatticeConfig, k_mode: int) -> None:
    """A mode with |k| over cells // 2 would alias a lower one, so it is refused."""
    if abs(k_mode) > cfg.cells // 2:
        raise ValueError(f"mode {k_mode} does not fit a lattice of {cfg.cells} cells")


def plane_wave_fields(cfg: LatticeConfig, k_mode: int) -> tuple[list, list]:
    """exp(i k x) split into its real (even) and imaginary (odd) parts."""
    _check_mode(cfg, k_mode)
    k = 2.0 * math.pi * k_mode / (cfg.cells * cfg.dx)
    phases = [k * (cell * cfg.dx) for cell in range(cfg.cells)]
    return [math.cos(p) for p in phases], [math.sin(p) for p in phases]


def lattice_frequency(cfg: LatticeConfig, k_mode: int) -> float:
    """kappa * k_eff^2 with the lattice wavenumber k_eff = (2/dx) sin(k dx / 2)."""
    k = 2.0 * math.pi * k_mode / (cfg.cells * cfg.dx)
    k_eff = 2.0 / cfg.dx * math.sin(0.5 * k * cfg.dx)
    return cfg.kappa * k_eff * k_eff


@dataclass(frozen=True)
class DispersionReport:
    k_mode: int
    measured_omega: float
    predicted_omega: float
    rel_error: float
    samples: int


def dispersion_check(cfg: LatticeConfig, k_mode: int) -> DispersionReport:
    """Measure the phase advance per unit time of the k-th Fourier mode of
    psi_e + i psi_o, started as the plane wave exp(i k x), over the whole run,
    and compare against kappa * k_eff^2.

    The plane wave is an eigenvector of the periodic second difference, so
    the run advances only the mode's amplitudes in psi_e and psi_o, by the
    pair map with mu = r lambda = -dt kappa k_eff^2: the projection a ticked
    lattice gives, without its cells, and blind to the growth of the highest
    modes from r = 1/2 on.  The error shrinks with dt (quadratically).
    """
    _check_mode(cfg, k_mode)
    predicted = lattice_frequency(cfg, k_mode)
    if k_mode == 0:
        return DispersionReport(0, 0.0, 0.0, 0.0, 0)
    if predicted == 0:
        raise ValueError(f"the predicted frequency of mode {k_mode} underflows to 0")
    samples = cfg.steps // 2 + 1
    if samples < 3:
        raise ValueError("run too short to measure a frequency; need >= 3 samples")
    mu = -cfg.dt * predicted
    # the exp(i k x) amplitudes of cos(k x) and sin(k x); at k = cells/2,
    # cos(k x) = (-1)^x lies wholly in that mode and sin(k x) = 0
    even, odd = (1.0, 0.0) if 2 * k_mode % cfg.cells == 0 else (0.5, -0.5j)
    series = [even + 1j * odd]
    for _ in range(samples - 1):
        even = even + mu * odd
        odd = odd - mu * even
        series.append(even + 1j * odd)
    # each increment is far below pi, so the phases need no unwrapping
    total_phase = math.fsum(cmath.phase(after * before.conjugate())
                            for before, after in zip(series, series[1:]))
    measured = abs(total_phase) / ((samples - 1) * cfg.dt)
    rel_error = abs(measured - predicted) / predicted
    return DispersionReport(k_mode, measured, predicted, rel_error, samples)
