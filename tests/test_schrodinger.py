import cmath
import math
import re
import tracemalloc

import numpy as np  # the reference the list stencil is compared with, bit for bit
import pytest

from iterant_lab import verify
from iterant_lab.groups import MAX_LATTICE_WORK
from iterant_lab.schrodinger import (
    LatticeConfig,
    dispersion_check,
    gaussian_fields,
    lattice_frequency,
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
    LatticeConfig(cells=256, dx=1.0, dt=0.1, kappa=1.0, steps=8000)  # the largest verify run
    LatticeConfig(cells=1024, dx=1.0, dt=0.1, kappa=1.0, steps=MAX_LATTICE_WORK // 1024)
    LatticeConfig(cells=2, dx=1.0, dt=0.1, kappa=1.0, steps=MAX_LATTICE_WORK // 16)
    # fewer than 16 cells count as 16, and a run of no steps counts as one
    for cells, steps in ((1024, MAX_LATTICE_WORK // 1024 + 1), (8, 10**9),
                         (2, MAX_LATTICE_WORK // 16 + 1), (MAX_LATTICE_WORK + 1, 0)):
        with pytest.raises(ValueError, match="lattice work cap"):
            LatticeConfig(cells=cells, dx=1.0, dt=0.1, kappa=1.0, steps=steps)


def test_combine():
    cfg = cfg_of(cells=2, steps=0)
    [(e, o)] = run(cfg, [1.0, 0.0], [0.0, 2.0])
    assert [complex(a, b) for a, b in zip(e, o)] == [1.0, 2.0j]


def test_combine_euler_identity():
    cfg = cfg_of(cells=64, steps=0)
    k = 2 * math.pi * 5 / (cfg.cells * cfg.dx)
    [(e, o)] = run(cfg, *plane_wave_fields(cfg, 5))
    for cell, (a, b) in enumerate(zip(e, o)):
        assert complex(a, b) == pytest.approx(cmath.exp(1j * k * cell * cfg.dx))


def test_run_zero_fields_stay_zero():
    cfg = cfg_of(steps=50)
    zeros = [0.0] * cfg.cells
    assert all(e == zeros for e, _ in run(cfg, zeros, zeros))


def test_run_norm_drift_gaussian():
    def norm(even, odd):
        return math.fsum(a * a + b * b for a, b in zip(even, odd))

    cfg = LatticeConfig(cells=128, dx=1.0, dt=0.1, kappa=1.0, steps=1000)
    even, odd = gaussian_fields(cfg, mu=64.0, sigma=8.0)
    pairs = run(cfg, even, odd)
    drift = abs(norm(*pairs[-1]) / norm(*pairs[0]) - 1.0)
    assert drift < 0.01


@pytest.mark.parametrize("dx", [1.0, 0.5])
def test_a_gaussian_at_the_seam_wraps_round_the_ring(dx):
    cfg = cfg_of(cells=16, dx=dx)
    even, odd = gaussian_fields(cfg, mu=0.0, sigma=2.0)
    assert even[0] == 1.0 and even[1] == even[15] > 0.5 and even[2] == even[14]
    assert odd == [0.0] * 16


@pytest.mark.parametrize("steps", [0, 1, 2, 7, 40])
def test_run_is_the_list_of_the_streamed_pairs(steps):
    cfg = cfg_of(cells=16, steps=steps)
    fields = plane_wave_fields(cfg, 2)
    pairs = run(cfg, *fields)
    assert len(pairs) == steps // 2 + 1
    streamed = list(ticks(cfg, *fields))
    assert (pairs[0], pairs[-1]) == (streamed[0], streamed[-1])
    sampled = run(cfg, *fields, every=3)
    assert len(sampled) == steps // 6 + 1
    assert sampled == streamed[::3]


def test_schrodinger_check_holds_one_pair_at_a_time():
    # every row ticks rings of 6 cells at most
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


def test_dispersion_is_the_projected_lattice_run():
    """The mode's two amplitudes against the lattice: tick every cell, project
    psi_e + i psi_o on exp(i k x) after each pair and add up the phase."""
    for cells, dt, k_mode in ((32, 0.05, 3), (16, 0.2, -5), (8, 0.1, 4), (7, 0.3, -3)):
        cfg = cfg_of(cells=cells, dt=dt, steps=400)
        probe = [cmath.exp(-2j * math.pi * k_mode * x / cells) for x in range(cells)]
        series = [sum(p * complex(a, b) for p, a, b in zip(probe, e, o))
                  for e, o in ticks(cfg, *plane_wave_fields(cfg, k_mode))]
        phase = math.fsum(cmath.phase(after * before.conjugate())
                          for before, after in zip(series, series[1:]))
        report = dispersion_check(cfg, k_mode)
        assert report.samples == len(series) == 201
        assert report.measured_omega == pytest.approx(abs(phase) / (200 * dt), rel=1e-12)


def test_second_difference_annihilates_linears_modulo_wrap():
    inner = second_difference([float(x) for x in range(8)])[1:-1]
    assert inner == [0.0] * 6


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
    """The list stencil against np.roll on the same floats, inf and nan included."""
    rng = np.random.default_rng(cells)
    # magnitudes from 1e-8 to 1e8, so that another order of the sum would round otherwise
    values = rng.standard_normal(cells) * 10.0 ** rng.integers(-8, 9, cells)
    special = values.copy()
    special[rng.permutation(cells)[:2]] = [np.inf, np.nan]
    for field in (values, special, -special, np.zeros(cells)):
        with np.errstate(invalid="ignore"):
            assert np.array_equal(np.array(second_difference(field.tolist())),
                                  _roll_difference(field), equal_nan=True)


def test_ticks_are_the_roll_scheme_bit_for_bit():
    cfg = cfg_of(cells=257, dt=0.2, steps=100)
    rng = np.random.default_rng(3)
    even, odd = rng.standard_normal(cfg.cells), rng.standard_normal(cfg.cells)
    start = (even.tolist(), odd.tolist())
    pairs = list(ticks(cfg, *start))
    reference = list(_roll_ticks(cfg, even, odd))
    assert len(pairs) == len(reference) == 51
    for (e, o), (ref_e, ref_o) in zip(pairs, reference):
        assert e == ref_e.tolist() and o == ref_o.tolist()
    # each yielded list is new, and the start is a copy of the caller's
    fields = [field for pair in pairs for field in pair]
    assert len({id(field) for field in fields}) == len(fields)
    assert not {id(field) for field in start} & {id(field) for field in fields}


def test_run_rejects_wrong_shape():
    cfg = cfg_of()
    with pytest.raises(ValueError):
        run(cfg, [0.0] * (cfg.cells + 1), [0.0] * cfg.cells)
