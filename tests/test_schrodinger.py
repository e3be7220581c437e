import math
import re
import tracemalloc

import numpy as np
import pytest

from iterant_lab import verify
from iterant_lab.groups import MAX_LATTICE_WORK
from iterant_lab.schrodinger import (
    LatticeConfig,
    dispersion_check,
    gaussian_fields,
    lattice_frequency,
    norm,
    plane_wave_fields,
    run,
    second_difference,
    ticks,
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
    # dx, dt, kappa and r = kappa*dt/dx^2 must be finite and positive
    for dx, dt, kappa, message in [
        (1.0, math.inf, 1.0, "dt must be finite and positive, got inf"),
        (1.0, 1e309, 1.0, "dt must be finite and positive, got inf"),
        (1.0, math.nan, 1.0, "dt must be finite and positive, got nan"),
        (1.0, 0.05, math.inf, "kappa must be finite and positive, got inf"),
        (1.0, 0.05, math.nan, "kappa must be finite and positive, got nan"),
        (1.0, 0.05, 0.0, "kappa must be finite and positive, got 0.0"),
        (1.0, 0.05, -1.0, "kappa must be finite and positive, got -1.0"),
        (math.inf, 0.05, 1.0, "dx must be finite and positive, got inf"),
        (1.0, 10.0, 1e308, "r = kappa*dt/dx^2 must be finite and positive"),  # kappa*dt = inf
        (1e-200, 0.05, 1.0, "r = kappa*dt/dx^2 must be finite and positive"),  # dx^2 = 0
        (1e-170, 0.05, 1.0, "r = kappa*dt/dx^2 must be finite and positive"),
        (1e200, 0.05, 1.0, "r = kappa*dt/dx^2 must be finite and positive"),  # r = 0
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            LatticeConfig(cells=8, dx=dx, dt=dt, kappa=kappa, steps=4)


def test_dispersion_rejects_a_predicted_frequency_that_underflows():
    cfg = LatticeConfig(cells=4096, dx=1.0, dt=1e300, kappa=1e-320, steps=4)
    assert 0 < cfg.ratio < math.inf
    with pytest.raises(ValueError, match="underflows to 0"):
        dispersion_check(cfg, 1)


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
    [(e, o)] = run(cfg, np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    c = e + 1j * o
    assert c.dtype == complex
    assert c[0] == 1.0 and c[1] == 2.0j


def test_combine_euler_identity():
    cfg = cfg_of(cells=64, steps=0)
    x = np.arange(cfg.cells) * cfg.dx
    k = 2 * math.pi * 5 / (cfg.cells * cfg.dx)
    [(e, o)] = run(cfg, *plane_wave_fields(cfg, 5))
    assert np.allclose(e + 1j * o, np.exp(1j * k * x))


def test_norm_definition():
    cfg = cfg_of(cells=2, dx=0.5, steps=0)
    [pair] = run(cfg, np.array([3.0, 0.0]), np.array([0.0, 4.0]))
    assert norm(cfg, *pair) == pytest.approx((9 + 16) * 0.5)


def test_run_zero_fields_stay_zero():
    cfg = cfg_of(steps=50)
    zeros = np.zeros(cfg.cells)
    assert all(np.all(e == 0) for e, _ in run(cfg, zeros, zeros))


def test_run_norm_drift_gaussian():
    cfg = LatticeConfig(cells=128, dx=1.0, dt=0.1, kappa=1.0, steps=1000)
    even, odd = gaussian_fields(cfg, mu=64.0, sigma=8.0)
    pairs = run(cfg, even, odd)
    drift = abs(norm(cfg, *pairs[-1]) / norm(cfg, *pairs[0]) - 1.0)
    assert drift < 0.01


@pytest.mark.parametrize("dx", [1.0, 0.5])
def test_a_gaussian_at_the_seam_wraps_round_the_ring(dx):
    cfg = cfg_of(cells=16, dx=dx)
    even, odd = gaussian_fields(cfg, mu=0.0, sigma=2.0)
    assert even[0] == 1.0 and even[1] == even[15] > 0.5 and even[2] == even[14]
    assert np.all(odd == 0)


@pytest.mark.parametrize("steps", [0, 1, 2, 7, 40])
def test_run_is_the_list_of_the_streamed_pairs(steps):
    cfg = cfg_of(cells=16, steps=steps)
    fields = plane_wave_fields(cfg, 2)
    pairs = run(cfg, *fields)
    assert len(pairs) == steps // 2 + 1
    streamed = list(ticks(cfg, *fields))
    for index in (0, -1):
        assert all(np.array_equal(a, b) for a, b in zip(pairs[index], streamed[index]))
    sampled = run(cfg, *fields, every=3)
    assert len(sampled) == steps // 6 + 1
    assert all(np.array_equal(a, b) for pair, every_third in zip(sampled, streamed[::3])
               for a, b in zip(pair, every_third))


def test_schrodinger_check_holds_one_pair_at_a_time():
    # a stored trajectory of the 10^4-tick norm run alone would take 20 MB
    tracemalloc.start()
    try:
        rows = verify.check_schrodinger(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(row.passed for row in rows)
    assert peak < 1_000_000


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


def _roll_difference(values):
    """The stencil as np.roll writes it, the reference for the slice stencil."""
    return np.roll(values, 1) - 2.0 * values + np.roll(values, -1)


def _roll_ticks(cfg, even, odd):
    """ticks with the np.roll stencil: the same loop, the reference."""
    e, o = even.astype(float), odd.astype(float)
    yield e, o
    for tick in range(cfg.steps):
        if tick % 2 == 0:
            e = e + cfg.ratio * _roll_difference(o)
        else:
            o = o - cfg.ratio * _roll_difference(e)
            yield e, o


@pytest.mark.parametrize("cells", [2, 3, 4, 257])
def test_second_difference_is_the_roll_formula_bit_for_bit(cells):
    rng = np.random.default_rng(cells)
    # magnitudes from 1e-8 to 1e8, so that another order of the sum would round otherwise
    values = rng.standard_normal(cells) * 10.0 ** rng.integers(-8, 9, cells)
    special = values.copy()
    special[rng.permutation(cells)[:2]] = [np.inf, np.nan]
    for field in (values, special, -special, np.zeros(cells)):
        with np.errstate(invalid="ignore"):
            assert np.array_equal(second_difference(field), _roll_difference(field),
                                  equal_nan=True)


def test_ticks_are_the_roll_scheme_bit_for_bit():
    cfg = cfg_of(cells=257, dt=0.2, steps=100)
    rng = np.random.default_rng(3)
    even, odd = rng.standard_normal(cfg.cells), rng.standard_normal(cfg.cells)
    pairs = list(ticks(cfg, even, odd))
    reference = list(_roll_ticks(cfg, even, odd))
    assert len(pairs) == len(reference) == 51
    for (e, o), (ref_e, ref_o) in zip(pairs, reference):
        assert np.array_equal(e, ref_e) and np.array_equal(o, ref_o)
    # each yielded array is new: no two pairs share memory
    arrays = [array for pair in pairs for array in pair]
    assert len({id(array) for array in arrays}) == len(arrays)
    assert not any(np.shares_memory(a, b) for a, b in zip(arrays, arrays[1:]))


def test_run_rejects_wrong_shape():
    cfg = cfg_of()
    with pytest.raises(ValueError):
        run(cfg, np.zeros(cfg.cells + 1), np.zeros(cfg.cells))
