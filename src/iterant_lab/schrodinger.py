"""Staggered explicit scheme for the free Schrodinger equation on a ring.

One real field would only diffuse; the alternating-sign recursion

    psi(t+1) - psi(t) = (-1)^t * (kappa dt / dx^2) * second difference

becomes wave-like once the even- and odd-tick values are read as two coupled
fields.  ``run`` realizes that reading: even ticks update the even field from
the curvature of the odd field (+), odd ticks update the odd field from the
even field (-), which is the standard staggered real/imaginary discretization
of  i d_t psi = kappa d_xx psi  for psi = psi_e + i psi_o.  One even+odd pair
of ticks advances physical time by dt.

This is the only module that uses floating point; everything is numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STABILITY_WARNING_RATIO = 0.25


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
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")

    @property
    def ratio(self) -> float:
        """r = kappa dt / dx^2, the explicit-scheme stability ratio."""
        return self.kappa * self.dt / (self.dx * self.dx)

    @property
    def stability_warning(self) -> bool:
        return self.ratio > STABILITY_WARNING_RATIO


@dataclass(frozen=True)
class FieldState:
    t_index: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def second_difference(values: np.ndarray) -> np.ndarray:
    """Periodic stencil psi(x-dx) - 2 psi(x) + psi(x+dx)."""
    return np.roll(values, 1) - 2.0 * values + np.roll(values, -1)


def step(state: FieldState, cfg: LatticeConfig) -> FieldState:
    """One tick of the literal alternating-sign recursion on a single field."""
    if state.values.shape != (cfg.cells,):
        raise ValueError(f"field has shape {state.values.shape}, expected ({cfg.cells},)")
    sign = 1.0 if state.t_index % 2 == 0 else -1.0
    new = state.values + sign * cfg.ratio * second_difference(state.values)
    return FieldState(state.t_index + 1, new)


@dataclass
class RunResult:
    """Sampled trajectories of the two coupled fields, one sample per tick pair."""

    cfg: LatticeConfig
    psi_e: list[np.ndarray] = field(default_factory=list)
    psi_o: list[np.ndarray] = field(default_factory=list)

    @property
    def pairs(self) -> int:
        return len(self.psi_e) - 1

    def combined(self, index: int) -> np.ndarray:
        return self.psi_e[index] + 1j * self.psi_o[index]

    def norm(self, index: int) -> float:
        e, o = self.psi_e[index], self.psi_o[index]
        return float(np.sum(e * e + o * o) * self.cfg.dx)


def run(cfg: LatticeConfig, initial_even: FieldState, initial_odd: FieldState) -> RunResult:
    """Alternate the two half-updates for cfg.steps ticks, sampling each pair.

    Even tick:  psi_e += r * stencil(psi_o);  odd tick:  psi_o -= r * stencil(psi_e).
    """
    for state in (initial_even, initial_odd):
        if state.values.shape != (cfg.cells,):
            raise ValueError(f"field has shape {state.values.shape}, expected ({cfg.cells},)")
    e = initial_even.values.astype(float).copy()
    o = initial_odd.values.astype(float).copy()
    r = cfg.ratio
    result = RunResult(cfg)
    result.psi_e.append(e.copy())
    result.psi_o.append(o.copy())
    for tick in range(cfg.steps):
        if tick % 2 == 0:
            e = e + r * second_difference(o)
        else:
            o = o - r * second_difference(e)
            result.psi_e.append(e.copy())
            result.psi_o.append(o.copy())
    return result


def combine(psi_e: np.ndarray, psi_o: np.ndarray) -> np.ndarray:
    if psi_e.shape != psi_o.shape:
        raise ValueError(f"shape mismatch: {psi_e.shape} vs {psi_o.shape}")
    return psi_e + 1j * psi_o


def field_norm(psi_e: np.ndarray, psi_o: np.ndarray, dx: float) -> float:
    return float(np.sum(psi_e * psi_e + psi_o * psi_o) * dx)


def gaussian_fields(cfg: LatticeConfig, mu: float, sigma: float) -> tuple[FieldState, FieldState]:
    if not sigma > 0:
        raise ValueError(f"gaussian width sigma must be positive, got {sigma}")
    x = np.arange(cfg.cells) * cfg.dx
    envelope = np.exp(-0.5 * ((x - mu) / sigma) ** 2)
    return FieldState(0, envelope), FieldState(1, np.zeros(cfg.cells))


def plane_wave_fields(cfg: LatticeConfig, k_mode: int) -> tuple[FieldState, FieldState]:
    """exp(i k x) split into its real (even) and imaginary (odd) parts."""
    x = np.arange(cfg.cells) * cfg.dx
    k = 2.0 * math.pi * k_mode / (cfg.cells * cfg.dx)
    return FieldState(0, np.cos(k * x)), FieldState(1, np.sin(k * x))


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
    if abs(k_mode) > cfg.cells // 2:
        raise ValueError(f"mode {k_mode} does not fit a lattice of {cfg.cells} cells")
    predicted = lattice_frequency(cfg, k_mode)
    if k_mode == 0:
        return DispersionReport(0, 0.0, 0.0, 0.0, 0)
    even, odd = plane_wave_fields(cfg, k_mode)
    result = run(cfg, even, odd)
    x = np.arange(cfg.cells) * cfg.dx
    k = 2.0 * math.pi * k_mode / (cfg.cells * cfg.dx)
    probe = np.exp(-1j * k * x)
    series = np.array(
        [np.sum(probe * result.combined(i)) / cfg.cells for i in range(result.pairs + 1)]
    )
    if len(series) < 3:
        raise ValueError("run too short to measure a frequency; need >= 3 samples")
    increments = np.angle(series[1:] * series[:-1].conj())
    total_phase = float(np.sum(increments))
    total_time = result.pairs * cfg.dt
    measured = abs(total_phase) / total_time
    rel_error = abs(measured - predicted) / predicted
    return DispersionReport(k_mode, measured, predicted, rel_error, len(series))


@dataclass(frozen=True)
class CoupledSystemReport:
    """Defect of the sampled fields against d_t psi_e = +kappa d_xx psi_o and
    d_t psi_o = -kappa d_xx psi_e, with the opposite-endpoint pairing; O(dt)."""

    max_defect_e: float
    max_defect_o: float


def coupled_system_defect(result: RunResult) -> CoupledSystemReport:
    cfg = result.cfg
    scale = cfg.kappa / (cfg.dx * cfg.dx)
    defect_e = 0.0
    defect_o = 0.0
    for i in range(result.pairs):
        de = (result.psi_e[i + 1] - result.psi_e[i]) / cfg.dt
        do = (result.psi_o[i + 1] - result.psi_o[i]) / cfg.dt
        defect_e = max(defect_e, float(np.max(np.abs(de - scale * second_difference(result.psi_o[i + 1])))))
        defect_o = max(defect_o, float(np.max(np.abs(do + scale * second_difference(result.psi_e[i])))))
    return CoupledSystemReport(defect_e, defect_o)
