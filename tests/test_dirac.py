import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iterant_lab import dirac
from iterant_lab.clifford import real_relations
from iterant_lab.dirac import (
    OnShellParams,
    commuting_copy_relations,
    dirac_frame,
    generator_relations,
    majorana_dirac_generators,
    nilpotent_pair,
    relations,
)
from iterant_lab.matrix import SquareMatrix


def identity(n):
    return SquareMatrix.identity(n)


def time_reversed_u(frame, params):
    """The plain U that relations reads off the time-reversed pair."""
    return nilpotent_pair(frame, params, "time_reversed")[0]


def sides(triples) -> dict:
    """The (lhs, rhs) of each (name, lhs, rhs) relation, by name."""
    return {name: (lhs, rhs) for name, lhs, rhs in triples}


def holds(triples) -> dict:
    return {name: lhs == rhs for name, (lhs, rhs) in sides(triples).items()}


def test_frame_1d_relations():
    frame = dirac_frame("1d")
    assert frame.alpha * frame.alpha == identity(2)
    assert frame.beta * frame.beta == identity(2)
    assert frame.alpha.anticommutator(frame.beta).is_zero()


def test_frame_3d_relations():
    frame = dirac_frame("3d")
    one = identity(4)
    for s in frame.sigmas:
        assert s * s == one
        assert frame.alpha.commutator(s).is_zero()
        assert frame.beta.commutator(s).is_zero()
    for i in range(3):
        for j in range(i + 1, 3):
            assert frame.sigmas[i].anticommutator(frame.sigmas[j]).is_zero()
    assert frame.alpha.anticommutator(frame.beta).is_zero()


def test_frame_rejects_unknown_dim():
    with pytest.raises(ValueError):
        dirac_frame("2d")


def test_params_shell_defect():
    assert OnShellParams.of(5, 3, 4).on_shell
    assert OnShellParams.of(1, 1, 1).shell_defect == 1
    assert OnShellParams.of(3, (1, 2, 2), 0).on_shell
    with pytest.raises(ValueError):
        OnShellParams.of(1, (1, 2), 0)


def test_dimension_mismatch():
    frame = dirac_frame("1d")
    with pytest.raises(ValueError):
        time_reversed_u(frame, OnShellParams.of(3, (1, 2, 2), 0))


def test_nilpotent_on_shell():
    frame = dirac_frame("1d")
    u = time_reversed_u(frame, OnShellParams.of(5, 3, 4))
    assert (u * u).is_zero()


def test_nilpotent_off_shell_scalar():
    frame = dirac_frame("1d")
    u = time_reversed_u(frame, OnShellParams.of(1, 1, 1))
    assert u * u == identity(2)  # defect = 1 + 1 - 1
    rng = random.Random(40)
    for _ in range(100):
        params = OnShellParams.of(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
        )
        u = time_reversed_u(frame, params)
        assert u * u == identity(2).scale(params.shell_defect)


def test_nilpotent_3d_massless():
    frame = dirac_frame("3d")
    u = time_reversed_u(frame, OnShellParams.of(3, (1, 2, 2), 0))
    assert (u * u).is_zero()


def test_dagger_squares_vanish():
    frame = dirac_frame("1d")
    params = OnShellParams.of(5, 3, 4)
    for version in dirac.VERSIONS:
        u_dag = nilpotent_pair(frame, params, version)[1]
        assert (u_dag * u_dag).is_zero()


def test_conjugate_version_anticommutator():
    frame = dirac_frame("1d")
    params = OnShellParams.of(5, 3, 4)
    u, u_dag = nilpotent_pair(frame, params, "conjugate")
    assert u * u_dag + u_dag * u == identity(2).scale(98)  # 2 (3+4)^2


def test_time_reversed_anticommutator():
    frame = dirac_frame("1d")
    params = OnShellParams.of(5, 3, 4)
    u, u_dag = nilpotent_pair(frame, params, "time_reversed")
    assert u * u_dag + u_dag * u == identity(2).scale(100)  # 4 E^2


def test_each_version_names_its_relations_after_itself():
    names = list(holds(relations(dirac_frame("1d"), OnShellParams.of(5, 3, 4))))
    kinds = {"conjugate": ("u-squared", "dagger-squared", "anticommutator", "sum-squared",
                           "diff-squared"),
             "time_reversed": ("u-squared", "dagger-squared", "anticommutator", "diff-squared")}
    assert names[:9] == [f"{version}-{kind}" for version in dirac.VERSIONS
                         for kind in kinds[version]]


def test_unknown_version():
    frame = dirac_frame("1d")
    with pytest.raises(ValueError):
        nilpotent_pair(frame, OnShellParams.of(5, 3, 4), "cpt")


def test_sum_difference_identities():
    frame = dirac_frame("1d")
    rng = random.Random(41)
    for _ in range(25):
        a, b = rng.randint(2, 9), rng.randint(1, 9)
        if a == b:
            continue
        e, p, m = a * a + b * b, a * a - b * b, 2 * a * b
        params = OnShellParams.of(e, p, m)
        u, u_dag = nilpotent_pair(frame, params, "conjugate")
        plus, minus = u + u_dag, u - u_dag
        assert plus * plus == identity(2).scale(2 * (p + m) ** 2)
        assert minus * minus == identity(2).scale(-2 * (p + m) ** 2)
        u, u_dag = nilpotent_pair(frame, params, "time_reversed")
        plus, minus = u + u_dag, u - u_dag
        assert plus * plus == identity(2).scale(4 * e * e)
        assert minus * minus == identity(2).scale(-4 * e * e)


def test_majorana_split_example():
    frame = dirac_frame("1d")
    params = OnShellParams.of(5, 3, 4)
    table = sides(relations(frame, params))
    for name in ("split-a-squared", "split-b-squared", "split-anticommute", "split-rebuild"):
        lhs, rhs = table[name]
        assert lhs == rhs, name
    (rebuilt_u, rebuilt_dagger), (u, u_dagger) = table["split-rebuild"]
    assert rebuilt_u == time_reversed_u(frame, params)
    assert (u, u_dagger) == nilpotent_pair(frame, params, "time_reversed")
    assert rebuilt_dagger == u_dagger


_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_TRIPLES = st.tuples(_RATIONALS, _RATIONALS, _RATIONALS)


def _shell_1d(s, t):
    """Euclid's parametrization of E^2 = p^2 + m^2."""
    return OnShellParams.of(s * s + t * t, 2 * s * t, s * s - t * t)


def _shell_3d(x):
    """Stereographic projection onto E^2 = |p|^2 + m^2."""
    norm = sum(c * c for c in x)
    return OnShellParams.of(norm + 1, tuple(2 * c for c in x), norm - 1)


@pytest.mark.parametrize("dim, draws, on_shell", [
    ("1d", st.builds(_shell_1d, _RATIONALS, _RATIONALS), True),
    ("3d", st.builds(_shell_3d, _TRIPLES), True),
    ("1d", st.builds(OnShellParams.of, _RATIONALS, _RATIONALS, _RATIONALS), False),
    ("3d", st.builds(OnShellParams.of, _RATIONALS, _TRIPLES, _RATIONALS), False),
], ids=["1d-on-shell", "3d-on-shell", "1d-off-shell", "3d-off-shell"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_the_time_reversed_pair_holds_the_plain_u(dim, draws, on_shell, data):
    # relations reads its plain U off the time-reversed pair
    params = data.draw(draws)
    assume(params.on_shell == on_shell)
    frame = dirac_frame(dim)
    a, b, p_op = frame.alpha, frame.beta, frame.momentum_operator(params)
    plain = (b * a).scale(params.energy) + b * p_op - a.scale(params.mass)
    assert nilpotent_pair(frame, params, "time_reversed")[0] == plain


def test_majorana_split_zero_energy():
    frame = dirac_frame("1d")
    names = holds(relations(frame, OnShellParams.of(0, 1, 1)))
    assert not any(name.startswith("split-") for name in names)


def test_plane_wave_residual_on_shell():
    frame = dirac_frame("1d")
    for e, p, m in ((5, 3, 4), (1, 1, 0), (13, 5, 12)):
        params = OnShellParams.of(e, p, m)
        (residual, factored), (zero, u) = sides(relations(frame, params))["plane-wave"]
        assert residual.is_zero() and zero.is_zero()
        assert factored == u
        assert params.shell_defect == 0


def test_plane_wave_residual_off_shell_reports():
    frame = dirac_frame("1d")
    params = OnShellParams.of(2, 1, 0)
    (residual, factored), (zero, u) = sides(relations(frame, params))["plane-wave"]
    assert residual != zero
    assert residual == identity(2).scale(-3)  # D ba U = U^2 = (p^2 + m^2 - E^2) 1
    assert params.shell_defect == -3
    assert factored == u


def test_plane_wave_residual_3d():
    frame = dirac_frame("3d")
    (residual, factored), (zero, u) = sides(
        relations(frame, OnShellParams.of(7, (2, 3, 6), 0)))["plane-wave"]
    assert residual == zero
    assert factored == u


def test_pythagorean_sweep_both_versions():
    frame = dirac_frame("1d")
    zero2 = SquareMatrix.zero(2)
    count = 0
    for a in range(2, 9):
        for b in range(1, a):
            e, p, m = a * a + b * b, a * a - b * b, 2 * a * b
            params = OnShellParams.of(e, p, m)
            for version in dirac.VERSIONS:
                u, u_dag = nilpotent_pair(frame, params, version)
                assert u * u == zero2
                assert u_dag * u_dag == zero2
            count += 1
    assert count >= 25


def test_3d_identities():
    frame = dirac_frame("3d")
    one = identity(4)
    for e, p, m in ((5, (1, 2, 2), 4), (13, (3, 4, 0), 12), (25, (12, 9, 12), 16)):
        params = OnShellParams.of(e, p, m)
        p_op = frame.momentum_operator(params)
        u, u_dag = nilpotent_pair(frame, params, "conjugate")
        assert (u * u).is_zero()
        m_term = p_op + one.scale(params.mass)
        assert u * u_dag + u_dag * u == (m_term * m_term).scale(2)
        u, u_dag = nilpotent_pair(frame, params, "time_reversed")
        assert u * u_dag + u_dag * u == one.scale(4 * params.energy ** 2)
        assert p_op * p_op == one.scale(params.momentum_squared)
        table = holds(relations(frame, params))
        assert table["split-a-squared"] and table["split-b-squared"] and table["split-anticommute"]


def test_majorana_dirac_generators():
    gens = majorana_dirac_generators()
    one = identity(4)
    assert list(gens) == ["ax", "ay", "az", "beta_prime"]
    assert gens["ax"] * gens["ax"] == one
    assert gens["beta_prime"] * gens["beta_prime"] == -one
    assert gens["ax"].anticommutator(gens["ay"]).is_zero()
    assert all(holds(real_relations(gens)).values())
    table = holds(generator_relations(gens))
    assert len(table) == 11 and all(table.values())
    assert "beta_prime^2 = -1" in table and "ax ay + ay ax = 0" in table


def test_commuting_copies():
    table = holds(commuting_copy_relations())
    assert list(table) == ["commutators_vanish", "hatted_relations", "plain_relations",
                           "hatted_root_squares_to_minus_one"]
    assert all(table.values())


def test_relation_report_leaves_out_the_split_at_zero_energy():
    frame = dirac_frame("1d")
    on_shell = holds(relations(frame, OnShellParams.of(5, 3, 4)))
    assert all(on_shell.values())
    at_rest = holds(relations(frame, OnShellParams.of(0, 0, 0)))
    assert all(at_rest.values())
    assert set(on_shell) - set(at_rest) == {
        "split-a-squared", "split-b-squared", "split-anticommute", "split-rebuild"}
    off_shell = holds(relations(frame, OnShellParams.of(2, 1, 0)))
    assert not off_shell["time_reversed-u-squared"] and not off_shell["plane-wave"]
