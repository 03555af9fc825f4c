"""Derivative boundary data and the far-field Jacobian against the
finite-difference oracle and against one direct solve per derivative
problem."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscat import forward
from layerscat.errors import ConfigurationError, SolverError
from layerscat.forward import (MediumParams, TransmissionSystem,
                               observation_directions, solve_plane_wave)
from layerscat.frechet import (DirectionColumns, canonical_directions,
                               derivative_boundary_data, derivative_far_field,
                               jacobian, radial_normal_component, real_rows)
from layerscat.geometry import (ParametricCurve, StarlikeShape, discretize,
                                discretize_pair)
from layerscat.inverse import (ShapeState, SolverConfig,
                               finite_difference_check, transmission_slot)

from _oracles import (FullLUSystem, direct_derivative_far_field,
                      radial_normal_component as radial_normal_oracle)


def test_surface_divergence_on_circles():
    g1 = discretize(ParametricCurve.preset("circle", radius=1.0), 16)
    g2 = discretize(ParametricCurve.preset("circle", radius=2.0), 16)
    assert np.max(np.abs(g1.d_ds(np.ones(32)))) < 1e-14
    got = g1.d_ds(np.cos(g1.t))
    assert np.max(np.abs(got + np.sin(g1.t))) < 1e-12
    got2 = g2.d_ds(np.cos(g2.t))
    assert np.max(np.abs(got2 + np.sin(g2.t) / 2.0)) < 1e-12


def test_radial_normal_component_on_circle():
    # on a circle centered at the shape center, e_r = nu exactly
    g = discretize(ParametricCurve.preset("circle", radius=1.7), 16)
    for idx, modes in ((0, 3), (2, 3), (5, 3)):
        got = radial_normal_component(g, (0.0, 0.0), modes)[:, idx]
        if idx == 0:
            expected = np.ones_like(g.t)
        elif idx <= modes:
            expected = np.cos(idx * g.t)
        else:
            expected = np.sin((idx - modes) * g.t)
        assert np.max(np.abs(got - expected)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0, 1, 25]), st.integers(8, 64), st.booleans(),
       st.integers(-2, 2))
def test_radial_normal_component_matches_mode_sums(modes, n, graded, turns):
    # graded nodes of the kite/square pair and equispaced ones, the
    # parameter shifted by whole periods
    pair = ((ParametricCurve.preset("rounded_square"),
             ParametricCurve.preset("kite")) if graded
            else (ParametricCurve.preset("rounded_triangle"),
                  ParametricCurve.preset("apple")))
    for grid in discretize_pair(*pair, n):
        if turns:
            grid = replace(grid, t=grid.t + 2.0 * np.pi * turns)
        center = (0.1, -0.2)
        got = radial_normal_component(grid, center, modes)
        ref = radial_normal_oracle(grid, center, modes)
        assert got.shape == ref.shape == (grid.size, 2 * modes + 1)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_center_shift_normal_component():
    g = discretize(ParametricCurve.preset("apple"), 32)
    dirs = canonical_directions(g, g, (0.1, 0.2), 2, "lambda1", 1.0)
    a1 = dirs.labels.index("a1")
    assert np.array_equal(dirs.h1[:, a1], g.normal[:, 0])


def _directions(g0, g1, *specs):
    """DirectionColumns from (label, h0, h1, dlambda1) columns; None
    stands for a fixed boundary."""
    def column(h, size):
        return np.zeros(size) if h is None else h

    labels, h0, h1, dlam = zip(*specs)
    return DirectionColumns(
        list(labels),
        np.stack([column(h, g0.size) for h in h0], axis=1),
        np.stack([column(h, g1.size) for h in h1], axis=1),
        np.array(dlam, dtype=float))


def _base_setup():
    state = ShapeState(
        gamma0=StarlikeShape((0.0, 0.0), [2.4, 0.15, 0.0, 0.0, 0.0, -0.1, 0.0]),
        gamma1=StarlikeShape((0.1, -0.05), [0.5, 0.0, 0.05, 0.0, 0.04, 0.0, 0.0]),
        lambda1=10.0)
    config = SolverConfig(modes=3, num_incident=1, n_obs=16, n_solve=24,
                          frequencies=(2.0,))
    incident = observation_directions(1)
    obs = observation_directions(16)
    ff, traces, _, system = solve_plane_wave(
        *state.curves(), config.medium(2.0, state.lambda1), incident,
        config.n_solve, obs)
    return state, config, system, system.grid0, system.grid1, ff.T, traces, obs


def test_zero_direction_gives_zero_far_field():
    _, _, system, g0, g1, _, traces, obs = _base_setup()
    null = _directions(g0, g1, ("null", None, None, 0.0))
    cols = derivative_far_field(system, traces, null, obs)
    assert np.max(np.abs(cols)) == 0.0


def test_pure_lambda_direction_populates_only_f4():
    state, _, system, g0, g1, _, traces, obs = _base_setup()
    d = _directions(g0, g1, ("lambda1", None, None, 1.0))
    data = derivative_boundary_data(traces, d, system.params, g0, g1)
    assert np.max(np.abs(data.f1)) == 0.0
    assert np.max(np.abs(data.f2)) == 0.0
    assert np.max(np.abs(data.f3)) == 0.0
    # (dlambda/lambda) du+/dnu = dlambda du-/dnu via the transmission
    # condition
    assert np.allclose(data.f4, traces.dn_u1_minus, rtol=0, atol=1e-14)


def test_derivative_data_linear_in_direction():
    state, _, system, g0, g1, _, traces, obs = _base_setup()
    h = radial_normal_component(g0, (0.0, 0.0), 3)[:, 1]
    d1 = ("x", h, None, 0.5)
    d2 = ("2x", 2.0 * h, None, 1.0)
    b1 = derivative_boundary_data(traces, _directions(g0, g1, d1),
                                  system.params, g0, g1)
    b2 = derivative_boundary_data(traces, _directions(g0, g1, d2),
                                  system.params, g0, g1)
    for f1, f2 in ((b1.f1, b2.f1), (b1.f2, b2.f2), (b1.f4, b2.f4)):
        assert np.allclose(2.0 * f1, f2, rtol=1e-13, atol=1e-13)
    # column scaling through the solve
    cols = derivative_far_field(system, traces, _directions(g0, g1, d1, d2),
                                obs)
    assert np.max(np.abs(2.0 * cols[:, 0] - cols[:, 1])) \
        < 1e-12 * np.max(np.abs(cols[:, 1]))


def test_chain_rule_between_forms():
    # the tau1 = 1/lambda1 slot's column is the lambda1 slot's times
    # d lambda1 / d tau1 = -lambda1^2
    state, config, system, g0, g1, ffs, traces, obs = _base_setup()
    lam = system.params.lambda1
    cols = {}
    for switch in (np.inf, 0.0):
        _, label, dlambda1 = transmission_slot(lam, switch)
        dirs = canonical_directions(g0, g1, state.gamma1.center, 3, label,
                                    dlambda1)
        assert dirs.labels[-1] == label
        cols[label] = derivative_far_field(system, traces, dirs, obs)[:, -1]
    err = np.max(np.abs(cols["tau1"] + lam**2 * cols["lambda1"]))
    assert err < 1e-12 * np.max(np.abs(cols["tau1"]))


def test_jacobian_against_finite_differences_coarse():
    state, config, *_ = _base_setup()
    # lambda1 = 10 is beyond lambda_switch = 1: the tau1 slot
    errors = finite_difference_check(state, config, k0=2.0, step=1e-3)
    assert "tau1" in errors
    assert max(errors.values()) < 1e-2
    # a wider switch exercises the lambda1 slot
    errors_l = finite_difference_check(
        state, replace(config, lambda_switch=1e9), k0=2.0, step=1e-3)
    assert "lambda1" in errors_l
    assert max(errors_l.values()) < 1e-2


def test_finite_difference_step_must_be_positive_and_finite():
    state, config, *_ = _base_setup()
    with pytest.raises(ConfigurationError, match="step must be positive"):
        finite_difference_check(state, config, k0=2.0, step=0.0)


def test_jacobian_against_finite_differences_graded():
    # the buried boundary passes about 0.3 from the interface, so both
    # grids are graded and the map moves with every perturbed iterate
    state = ShapeState(
        gamma0=StarlikeShape((0.0, 0.0), [2.4, 0.15, 0.0, 0.0, 0.0, -0.1, 0.0]),
        gamma1=StarlikeShape((1.4, -0.05), [0.8, 0.0, 0.05, 0.0, 0.04, 0.0, 0.0]),
        lambda1=10.0)
    assert all(g.node_map is not None and g.node_map.centers.size > 0
               for g in discretize_pair(*state.curves(), 32))
    config = SolverConfig(modes=3, num_incident=1, n_obs=16, n_solve=32,
                          frequencies=(2.0,))
    errors = finite_difference_check(state, config, k0=2.0, step=1e-3)
    assert max(errors.values()) <= 1e-2
    config_lam = SolverConfig(modes=3, num_incident=1, n_obs=16, n_solve=32,
                              frequencies=(2.0,), lambda_switch=1e9)
    lam_err = finite_difference_check(state, config_lam, k0=2.0,
                                      step=1e-4)["lambda1"]
    assert lam_err <= 1e-3


def test_jacobian_is_one_solve_in_the_per_pair_layout(monkeypatch):
    # three incident directions: no solve per (incident, direction)
    # column, but one transposed solve with n_obs columns; each column
    # equals the far field of its own derivative problem, solved directly
    # and placed per incident as Re rows then Im rows
    state, config, *_ = _base_setup()
    obs = observation_directions(16)
    ff, traces, _, system = solve_plane_wave(
        *state.curves(), config.medium(2.0, state.lambda1),
        observation_directions(3), config.n_solve, obs)
    g0, g1 = system.grid0, system.grid1
    dirs = canonical_directions(g0, g1, state.gamma1.center, 3, "lambda1",
                                1.0)
    c = len(dirs.labels)
    shapes, raw = [], []
    solve_stacked = TransmissionSystem.solve_stacked
    raw_solve = TransmissionSystem._raw_solve
    monkeypatch.setattr(
        TransmissionSystem, "solve_stacked",
        lambda self, rhs: shapes.append(rhs.shape) or solve_stacked(self, rhs))
    monkeypatch.setattr(
        TransmissionSystem, "_raw_solve",
        lambda self, rhs, transposed=False: raw.append((transposed, rhs.shape))
        or raw_solve(self, rhs, transposed))
    jac, res = jacobian(system, traces, ff.T, np.zeros_like(ff.T), dirs, obs)
    monkeypatch.undo()
    assert shapes == []
    size = 2 * (g0.size + g1.size)
    assert raw and set(raw) == {(True, (size, 16))}
    assert jac.shape == (2 * 3 * 16, c)
    scale = np.max(np.abs(jac))
    for i in range(3):
        tr = type(traces)(**{k: v[:, i] for k, v in vars(traces).items()})
        for j in range(c):
            one = _directions(g0, g1, (dirs.labels[j], dirs.h0[:, j],
                                       dirs.h1[:, j], dirs.dlambda1[j]))
            col = direct_derivative_far_field(system, tr, one, obs)[:, 0]
            rows = jac[2 * 16 * i:2 * 16 * (i + 1), j]
            assert np.max(np.abs(rows - np.concatenate([col.real, col.imag]))) \
                <= 1e-12 * scale
        assert np.array_equal(res[2 * 16 * i:2 * 16 * (i + 1)],
                              np.concatenate([ff[:, i].real, ff[:, i].imag]))


@pytest.mark.parametrize("form", ["lambda", "tau"])
@pytest.mark.parametrize("lambda1", [1e-6, 1.0, 1e4, 1e6])
def test_jacobian_matches_direct_solves(lambda1, form):
    # the graded kite/rounded-square pair, two incident directions, from
    # the sound-hard to the sound-soft stand-in; the far-field rows and
    # the direct solves both pass the backward-error check
    obs = observation_directions(32)
    params = MediumParams.create(k0=1.0, n1=0.64, lambda0=1.2,
                                 lambda1=lambda1)
    ff, traces, _, system = solve_plane_wave(
        ParametricCurve.preset("rounded_square"), ParametricCurve.preset("kite"),
        params, observation_directions(2), 64, obs)
    assert system.grid1.node_map is not None
    # an infinite switch keeps the lambda1 slot, a zero one takes tau1
    got_form, label, dlambda1 = transmission_slot(
        lambda1, np.inf if form == "lambda" else 0.0)
    assert got_form == form
    dirs = canonical_directions(system.grid0, system.grid1, (0.0, 0.0), 5,
                                label, dlambda1)
    c = len(dirs.labels)
    jac, _ = jacobian(system, traces, ff.T, ff.T, dirs, obs)
    direct = direct_derivative_far_field(system, traces, dirs, obs)
    expected = real_rows(direct.reshape(32, 2, c).transpose(1, 0, 2))
    assert np.max(np.abs(jac - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_far_field_rows_raise_when_refinement_fails(monkeypatch):
    # with a zero bound no column passes, in either direction
    _, _, system, g0, g1, _, traces, obs = _base_setup()
    dirs = canonical_directions(g0, g1, (0.0, 0.0), 3, "lambda1", 1.0)
    data = derivative_boundary_data(traces, dirs, system.params, g0, g1)
    monkeypatch.setattr(forward, "BACKWARD_ERROR_MAX", 0.0)
    message = (r"componentwise backward error \S+ of column \d+ exceeds "
               r"0\.000e\+00 after 3 refinements")
    with pytest.raises(SolverError, match=message):
        system.far_field_rows(obs)
    with pytest.raises(SolverError, match=message):
        system.solve(data)


@pytest.mark.parametrize("lambda1", [1e-6, 1.0, 1e5, 1e6, 1e8])
def test_solve_check_accepts_exact_solves_at_any_lambda1(lambda1):
    """The backward-error check accepts backward-stable solves from the
    sound-hard stand-in to far past the sound-soft one, where a residual
    check relative to max|b| failed small derivative columns (here at 1e6
    and 1e8).  Graded rounded-square/kite pair,
    n = 64, k0 = 4, three incident directions, the 315 derivative
    columns of 25 modes and 64 far-field rows, both against the
    equilibrated full LU."""
    obs = observation_directions(64)
    params = MediumParams.create(k0=4.0, n1=0.64, lambda0=1.2,
                                 lambda1=lambda1)
    _, traces, _, system = solve_plane_wave(
        ParametricCurve.preset("rounded_square"), ParametricCurve.preset("kite"),
        params, observation_directions(3), 64, obs)
    g0, g1 = system.grid0, system.grid1
    assert g1.node_map is not None
    dirs = canonical_directions(g0, g1, (0.0, 0.0), 25, "lambda1", 1.0)
    rhs = derivative_boundary_data(traces, dirs, params, g0, g1).stacked(
        params.mu0, params.mu1)
    assert rhs.shape[1] == 315
    oracle = FullLUSystem(g0, g1, params)
    for got, ref in ((system.solve_stacked(rhs), oracle.solve_stacked(rhs)),
                     (system.far_field_rows(obs), oracle.far_field_rows(obs))):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
