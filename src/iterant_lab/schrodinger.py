"""Staggered explicit scheme for the free Schrodinger equation on a ring.

One real field would only diffuse; the alternating-sign recursion

    psi(t+1) - psi(t) = (-1)^t * (kappa dt / dx^2) * second difference

becomes wave-like once the even- and odd-tick values are read as two coupled
fields.  ``ticks`` realizes that reading: even ticks update the even field from
the curvature of the odd field (+), odd ticks update the odd field from the
even field (-), which is the standard staggered real/imaginary discretization
of  i d_t psi = kappa d_xx psi  for psi = psi_e + i psi_o.  One even+odd pair
of ticks advances physical time by dt.

This is the only module that uses floating point and the only one that imports
numpy; the CLI and ``verify`` import it when a lattice runs, so no other
command loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import MAX_LATTICE_WORK

# Each Fourier mode advances one tick pair by [[1, mu], [-mu, 1 - mu^2]] with
# mu = r lambda and lambda in [-4, 0]: determinant 1 and trace 2 - mu^2, so
# the scheme stays bounded exactly while r < 1/2.
STABILITY_WARNING_RATIO = 0.5


@dataclass(frozen=True)
class LatticeConfig:
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
        # a tick costs about 4 us of numpy calls at any size and 7 us at 256
        # cells (2-core Xeon, numpy 2.4), so a smaller lattice is counted as
        # 256 cells, and a run of no steps still holds its cells
        if max(self.cells, 256) * max(self.steps, 1) > MAX_LATTICE_WORK:
            raise ValueError(f"{self.cells} cells x {self.steps} steps exceeds the lattice work "
                             f"cap of {MAX_LATTICE_WORK} (fewer than 256 cells count as 256)")

    @property
    def ratio(self) -> float:
        """r = kappa dt / dx^2, the explicit-scheme stability ratio."""
        return self.kappa * self.dt / (self.dx * self.dx)

    @property
    def stability_warning(self) -> bool:
        return self.ratio >= STABILITY_WARNING_RATIO


def second_difference(values: np.ndarray) -> np.ndarray:
    """Periodic stencil (psi(x-dx) - 2 psi(x)) + psi(x+dx), summed in that order
    in every cell, so on float64 arrays it equals
    np.roll(values, 1) - 2.0 * values + np.roll(values, -1) bit for bit.  The
    inner cells are done on slices, in place; the two wrap cells as Python floats."""
    out = 2.0 * values
    inner = out[1:-1]
    np.subtract(values[:-2], inner, out=inner)
    inner += values[2:]
    first, second = values.item(0), values.item(1)
    penult, last = values.item(-2), values.item(-1)
    out[0] = (last - 2.0 * first) + second
    out[-1] = (penult - 2.0 * last) + first
    return out


def ticks(cfg: LatticeConfig, even: np.ndarray, odd: np.ndarray):
    """Yield the (even, odd) field pair at the start and after each pair of
    the cfg.steps ticks; each yielded array is new and is not changed later.

    Even tick:  psi_e += r * stencil(psi_o);  odd tick:  psi_o -= r * stencil(psi_e).
    """
    for values in (even, odd):
        if values.shape != (cfg.cells,):
            raise ValueError(f"field has shape {values.shape}, expected ({cfg.cells},)")
    e, o = even.astype(float), odd.astype(float)
    r = cfg.ratio
    yield e, o
    for tick in range(cfg.steps):
        if tick % 2 == 0:
            e = e + r * second_difference(o)
        else:
            o = o - r * second_difference(e)
            yield e, o


def run(cfg: LatticeConfig, even: np.ndarray, odd: np.ndarray,
        every: int = 1) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pairs 0, every, 2*every, ... of ``ticks``, after all cfg.steps ticks."""
    return [pair for index, pair in enumerate(ticks(cfg, even, odd)) if index % every == 0]


def overflow_quiet():
    """A context in which numpy does not warn of overflow or invalid values,
    for a caller that tests every value it prints with ``finite``."""
    return np.errstate(over="ignore", invalid="ignore")


def finite(values) -> bool:
    """Whether every number in a float, an array or a pair of arrays is finite."""
    return bool(np.all(np.isfinite(values)))


def norm(cfg: LatticeConfig, even: np.ndarray, odd: np.ndarray) -> float:
    """The squared norm sum(psi_e^2 + psi_o^2) dx of one field pair."""
    return float(np.sum(even * even + odd * odd) * cfg.dx)


def gaussian_fields(cfg: LatticeConfig, mu: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-(x - mu)^2 / 2 sigma^2) as the even field, with x - mu measured
    on the ring, so a Gaussian near either end wraps across the seam."""
    if not sigma > 0:
        raise ValueError(f"gaussian width sigma must be positive, got {sigma}")
    ring = cfg.cells * cfg.dx
    d = np.arange(cfg.cells) * cfg.dx - mu
    d -= ring * np.round(d / ring)
    envelope = np.exp(-0.5 * (d / sigma) ** 2)
    return envelope, np.zeros(cfg.cells)


def plane_wave_fields(cfg: LatticeConfig, k_mode: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(i k x) split into its real (even) and imaginary (odd) parts.  A mode
    with |k| over cells // 2 would alias a lower one, so it is refused."""
    if abs(k_mode) > cfg.cells // 2:
        raise ValueError(f"mode {k_mode} does not fit a lattice of {cfg.cells} cells")
    x = np.arange(cfg.cells) * cfg.dx
    k = 2.0 * math.pi * k_mode / (cfg.cells * cfg.dx)
    return np.cos(k * x), np.sin(k * x)


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
    psi_e + i psi_o over the whole run, and compare against kappa * k_eff^2.

    The phase is accumulated step by step (each per-pair increment is far
    below pi, so unwrapping is trivial).  The measurement error shrinks with
    dt (quadratically for plane-wave starts), so halving dt reduces it.
    """
    start = plane_wave_fields(cfg, k_mode)
    predicted = lattice_frequency(cfg, k_mode)
    if k_mode == 0:
        return DispersionReport(0, 0.0, 0.0, 0.0, 0)
    if predicted == 0:
        raise ValueError(f"the predicted frequency of mode {k_mode} underflows to 0")
    x =np.arange(cfg.cells) * cfg.dx
    k = 2.0 * math.pi * k_mode / (cfg.cells * cfg.dx)
    probe = np.exp(-1j * k * x)
    series = np.array([np.sum(probe * (e + 1j * o)) / cfg.cells
                       for e, o in ticks(cfg, *start)])
    if len(series) < 3:
        raise ValueError("run too short to measure a frequency; need >= 3 samples")
    increments = np.angle(series[1:] * series[:-1].conj())
    total_phase = float(np.sum(increments))
    total_time = (len(series) - 1) * cfg.dt
    measured = abs(total_phase) / total_time
    rel_error = abs(measured - predicted) / predicted
    return DispersionReport(k_mode, measured, predicted, rel_error, len(series))

