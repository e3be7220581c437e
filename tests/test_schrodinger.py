import math

import numpy as np
import pytest

from iterant_lab.groups import MAX_LATTICE_WORK
from iterant_lab.schrodinger import (
    FieldState,
    LatticeConfig,
    dispersion_check,
    gaussian_fields,
    lattice_frequency,
    plane_wave_fields,
    run,
    second_difference,
)


def cfg_of(cells=32, dx=1.0, dt=0.1, kappa=1.0, steps=100):
    return LatticeConfig(cells=cells, dx=dx, dt=dt, kappa=kappa, steps=steps)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(cells=1, dx=1.0, dt=0.1, kappa=1.0, steps=1)
    with pytest.raises(ValueError):
        LatticeConfig(cells=8, dx=0.0, dt=0.1, kappa=1.0, steps=1)
    with pytest.raises(ValueError):
        LatticeConfig(cells=8, dx=float("nan"), dt=0.1, kappa=1.0, steps=1)
    with pytest.raises(ValueError, match="steps must not be negative"):
        LatticeConfig(cells=8, dx=1.0, dt=0.1, kappa=1.0, steps=-1)


def test_stability_warning_flag():
    assert not cfg_of(dt=0.49).stability_warning  # r = 0.49 < 1/2
    assert cfg_of(dt=0.5).stability_warning  # r = 0.5, the bound itself


def test_lattice_work_cap():
    LatticeConfig(cells=256, dx=1.0, dt=0.1, kappa=1.0, steps=10_000)  # the largest verify run
    LatticeConfig(cells=1024, dx=1.0, dt=0.1, kappa=1.0, steps=MAX_LATTICE_WORK // 1024)
    for cells, steps in ((1024, MAX_LATTICE_WORK // 1024 + 1), (8, 10**9), (2, 20_000),
                         (MAX_LATTICE_WORK + 1, 0)):  # a run of no steps counts as one
        with pytest.raises(ValueError, match="lattice work cap"):
            LatticeConfig(cells=cells, dx=1.0, dt=0.1, kappa=1.0, steps=steps)


def test_combine():
    cfg = cfg_of(cells=2, steps=0)
    result = run(cfg, FieldState(0, np.array([1.0, 0.0])), FieldState(1, np.array([0.0, 2.0])))
    c = result.combined(0)
    assert c.dtype == complex
    assert c[0] == 1.0 and c[1] == 2.0j


def test_combine_euler_identity():
    cfg = cfg_of(cells=64, steps=0)
    x = np.arange(cfg.cells) * cfg.dx
    k = 2 * math.pi * 5 / (cfg.cells * cfg.dx)
    assert np.allclose(run(cfg, *plane_wave_fields(cfg, 5)).combined(0), np.exp(1j * k * x))


def test_norm_definition():
    cfg = cfg_of(cells=2, dx=0.5, steps=0)
    result = run(cfg, FieldState(0, np.array([3.0, 0.0])), FieldState(1, np.array([0.0, 4.0])))
    assert result.norm(0) == pytest.approx((9 + 16) * 0.5)


def test_run_zero_fields_stay_zero():
    cfg = cfg_of(steps=50)
    zeros = np.zeros(cfg.cells)
    result = run(cfg, FieldState(0, zeros), FieldState(1, zeros))
    assert all(np.all(result.psi_e[i] == 0) for i in range(result.pairs + 1))


def test_run_norm_drift_gaussian():
    cfg = LatticeConfig(cells=128, dx=1.0, dt=0.1, kappa=1.0, steps=1000)
    even, odd = gaussian_fields(cfg, mu=64.0, sigma=8.0)
    result = run(cfg, even, odd)
    drift = abs(result.norm(result.pairs) / result.norm(0) - 1.0)
    assert drift < 0.01


def test_dispersion_zero_mode():
    report = dispersion_check(cfg_of(), 0)
    assert report.measured_omega == 0.0
    assert report.rel_error == 0.0


def test_dispersion_mode_out_of_range():
    with pytest.raises(ValueError):
        dispersion_check(cfg_of(cells=16), 9)


def test_dispersion_reference_case():
    cfg = LatticeConfig(cells=256, dx=1.0, dt=0.05, kappa=1.0, steps=4000)
    report = dispersion_check(cfg, 3)
    assert report.rel_error < 0.02
    assert report.predicted_omega == pytest.approx(lattice_frequency(cfg, 3))


def test_dispersion_converges_with_dt():
    base = LatticeConfig(cells=64, dx=1.0, dt=0.1, kappa=1.0, steps=1000)
    half = LatticeConfig(cells=64, dx=1.0, dt=0.05, kappa=1.0, steps=2000)
    err_base = dispersion_check(base, 3).rel_error
    err_half = dispersion_check(half, 3).rel_error
    assert err_half < 0.6 * err_base


def test_second_difference_annihilates_linears_modulo_wrap():
    values = np.arange(8.0)
    inner = second_difference(values)[1:-1]
    assert np.allclose(inner, 0.0)


def test_run_rejects_wrong_shape():
    cfg = cfg_of()
    with pytest.raises(ValueError):
        run(cfg, FieldState(0, np.zeros(cfg.cells + 1)), FieldState(1, np.zeros(cfg.cells)))


def test_field_state_rejects_non_finite():
    with pytest.raises(ValueError):
        FieldState(0, np.array([1.0, np.nan]))
