"""Norms, the regularized step, discrepancy-based beta, safeguards, and
the iteration invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscat.data_io import synthesize
from layerscat.errors import (ConfigurationError, DataFormatError,
                              GeometryError, StageAbortError)
from layerscat.forward import observation_directions, solve_plane_wave
from layerscat.geometry import ParametricCurve, StarlikeShape, validate_pair
from layerscat.inverse import (ShapeState, SolverConfig, apply_step,
                               choose_beta, classify_boundary, discrete_l2_sq,
                               lm_step, multi_frequency_drive,
                               newton_iteration, penalty_weights,
                               relative_error, resolution_ladder,
                               transmission_slot)

from _oracles import fixed_resolution_newton, hs_norm_sq


def test_hs_norm_examples():
    assert hs_norm_sq([1.0], 1.6) == pytest.approx(2 * np.pi)
    coeffs = np.zeros(5)
    coeffs[1] = 1.0  # cos(theta)
    assert hs_norm_sq(coeffs, 0.0) == pytest.approx(np.pi)
    assert hs_norm_sq(coeffs, 1.0) == pytest.approx(2 * np.pi)


def test_discrete_l2():
    assert discrete_l2_sq(np.zeros(10)) == 0.0
    assert discrete_l2_sq(np.ones(64)) == pytest.approx(2 * np.pi)
    theta = 2 * np.pi * np.arange(64) / 64
    assert discrete_l2_sq(np.exp(1j * theta)) == pytest.approx(2 * np.pi)


def test_penalty_weights_layout():
    w = penalty_weights(2, 1.6)
    assert w.shape == (13,)
    assert w[0] == pytest.approx(2 * np.pi)
    assert w[1] == pytest.approx(np.pi * 2.0**1.6)
    assert w[2] == pytest.approx(np.pi * 5.0**1.6)
    assert w[3] == w[1] and w[4] == w[2]  # sine block mirrors cosine
    assert np.all(w[-3:] == 1.0)
    assert penalty_weights(2, 1.6, include_center=False).shape == (11,)


def test_lm_step_closed_forms():
    rng = np.random.default_rng(0)
    r = rng.standard_normal(6)
    eye = np.eye(6)
    assert np.allclose(lm_step(eye, np.zeros(6), 0.5, np.ones(6)), 0.0)
    got = lm_step(eye, r, 0.25, np.ones(6))
    assert np.allclose(got, -r / 1.25, atol=1e-14)


def test_lm_step_singular_at_zero_beta():
    from layerscat.errors import SolverError

    jac = np.zeros((4, 3))
    with pytest.raises(SolverError):
        lm_step(jac, np.ones(4), 0.0, np.ones(3))


def test_lm_step_against_dense_oracle():
    rng = np.random.default_rng(1)
    jac = rng.standard_normal((10, 6))
    r = rng.standard_normal(10)
    w = rng.uniform(0.5, 2.0, 6)
    beta = 0.1
    got = lm_step(jac, r, beta, w)
    # oracle: augmented least squares [J; sqrt(beta) diag(sqrt(w))]
    aug = np.vstack([jac, np.sqrt(beta) * np.diag(np.sqrt(w))])
    rhs = np.concatenate([-r, np.zeros(6)])
    ref, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    assert np.linalg.norm(got - ref) < 1e-10


def test_choose_beta_identity_case():
    eye = np.eye(4)
    r = np.array([0.5, -0.5, 0.5, -0.5])  # ||r|| = 1
    # residual(beta) = beta/(1+beta) -> beta = 1 at rho = 0.5
    beta, infeasible = choose_beta(eye, r, np.ones(4), 0.5)
    assert not infeasible
    assert beta == pytest.approx(1.0, rel=0.05)
    beta9, _ = choose_beta(eye, r, np.ones(4), 0.9)
    assert beta9 > beta


def test_choose_beta_matches_scan_oracle():
    rng = np.random.default_rng(2)
    jac = rng.standard_normal((12, 5))
    # keep the residual mostly in range(J) so the rho-target is feasible
    r = jac @ rng.standard_normal(5) + 0.05 * rng.standard_normal(12)
    w = np.ones(5)
    rho = 0.6
    beta, infeasible = choose_beta(jac, r, w, rho)
    assert not infeasible
    target = rho * np.linalg.norm(r)
    achieved = np.linalg.norm(jac @ lm_step(jac, r, beta, w) + r)
    assert abs(achieved - target) <= 1e-2 * target
    # brute-force grid scan locates the same beta
    grid = np.logspace(-8, 6, 3000)
    vals = [abs(np.linalg.norm(jac @ lm_step(jac, r, b, w) + r) - target)
            for b in grid]
    beta_scan = grid[int(np.argmin(vals))]
    assert abs(np.log10(beta) - np.log10(beta_scan)) < 0.05


def test_choose_beta_infeasible_flag():
    # rank-deficient J cannot reduce the residual into the target
    jac = np.zeros((4, 3))
    jac[0, 0] = 1.0
    r = np.array([0.0, 1.0, 1.0, 1.0])
    beta, infeasible = choose_beta(jac, r, np.ones(3), 0.5)
    assert infeasible
    assert beta == pytest.approx(1e-12)


def test_relative_error():
    data = np.ones((2, 8), dtype=complex)
    assert relative_error(data, data) == 0.0
    assert relative_error(np.zeros_like(data), data) == pytest.approx(1.0)
    with pytest.raises(DataFormatError):
        relative_error(data, np.zeros_like(data))


def test_classify_boundary():
    assert classify_boundary(2796.0) == "sound_soft"
    assert classify_boundary(-250.0) == "sound_soft"
    assert classify_boundary(4.186e-4) == "sound_hard"
    assert classify_boundary(0.5) == "inconclusive"


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(rho=1.5)
    with pytest.raises(ConfigurationError):
        SolverConfig(tau_stop=0.9)
    with pytest.raises(ConfigurationError):
        SolverConfig(frequencies=(4.0, 2.0))
    cfg = SolverConfig(center_update_iterations=5)
    assert cfg.center_updates_at(4) and not cfg.center_updates_at(5)
    assert SolverConfig().center_updates_at(10**6)


def test_form_switch_keeps_product_one():
    state = ShapeState.initial(r0=2.0, r1=0.8, lambda1=4.0, modes=2)
    assert state.lambda1 * state.tau1 == pytest.approx(1.0)
    assert state.tau1 == 1.0 / state.lambda1
    # tau1 is derived, so a step in either form keeps the two in step
    for form in ("lambda", "tau"):
        new, _, _ = apply_step(state, np.full(2 * 5 + 3, 0.01), form, True, 2)
        assert new.active_form == form
        assert new.tau1 == 1.0 / new.lambda1


def test_transmission_slot():
    assert transmission_slot(0.5, 1.0) == ("lambda", "lambda1", 1.0)
    assert transmission_slot(-1.0, 1.0) == ("lambda", "lambda1", 1.0)
    # tau1 = 1/lambda1: a unit step in tau1 moves lambda1 by -lambda1^2
    assert transmission_slot(-4.0, 1.0) == ("tau", "tau1", -16.0)
    assert transmission_slot(10.0, 1e9) == ("lambda", "lambda1", 1.0)


def test_tau_lambda_equivalence_bitwise():
    # the solver sees lambda1 only: a tau-form step 0.1 -> 0.2 and a
    # lambda-form step 10 -> 5 give the same far field, bit for bit
    state = ShapeState.initial(r0=2.0, r1=1.0, lambda1=10.0, modes=1)
    step = np.zeros(2 * 3 + 3)
    step[-1] = 0.1
    via_tau, _, _ = apply_step(state, step, "tau", True, 1)
    step[-1] = -5.0
    via_lambda, _, _ = apply_step(state, step, "lambda", True, 1)
    assert via_tau.lambda1 == via_lambda.lambda1 == 5.0
    config = SolverConfig()
    obs = observation_directions(16)
    ff_t, ff_l = (solve_plane_wave(*s.curves(), config.medium(2.0, s.lambda1),
                                   np.array([1.0, 0.0]), 24, obs)[0]
                  for s in (via_tau, via_lambda))
    assert np.array_equal(ff_l, ff_t)


def test_apply_step_halves_and_aborts():
    state = ShapeState.initial(r0=2.0, r1=0.8, lambda1=4.0, modes=1)
    n = 2 * 1 + 1
    # a step that would push r1 negative must be halved
    delta = np.zeros(2 * n + 3)
    delta[n] = -0.79
    new, halvings, separation = apply_step(state, delta, "lambda", True, 1)
    assert halvings >= 1
    assert validate_pair(*new.curves()) == separation
    # an absurd step exhausts the halvings
    delta[n] = -1e9
    with pytest.raises(StageAbortError):
        apply_step(state, delta, "lambda", True, 1)


def test_apply_step_nudges_lambda_pole():
    state = ShapeState.initial(r0=2.0, r1=0.8, lambda1=-0.9, modes=1)
    delta = np.zeros(2 * 3 + 3)  # modes = 1, centre updates on
    delta[-1] = -0.1  # lands exactly on the mu1 pole at -1
    new, _, _ = apply_step(state, delta, "lambda", True, 1)
    assert abs(1.0 + new.lambda1) >= 1e-6
    assert new.lambda1 * new.tau1 == pytest.approx(1.0)
    assert np.array_equal(new.gamma1.center, state.gamma1.center)


def test_apply_step_halves_only_on_geometry_errors(monkeypatch):
    import layerscat.inverse as inv

    state = ShapeState.initial(r0=2.0, r1=0.8, lambda1=4.0, modes=1)
    delta = np.zeros(2 * 3 + 3)  # modes = 1, centre updates on
    delta[0] = 0.1
    real_validate = inv.validate_pair
    calls = []

    def reject_once(outer, inner):
        calls.append(outer)
        if len(calls) == 1:
            raise GeometryError("forced rejection")
        return real_validate(outer, inner)

    monkeypatch.setattr(inv, "validate_pair", reject_once)
    new, halvings, separation = apply_step(state, delta, "lambda", True, 1)
    assert halvings == 1 and len(calls) == 2
    assert new.gamma0.coeffs[0] == 2.05
    assert np.array_equal(new.gamma1.center, state.gamma1.center)
    assert separation == pytest.approx(2.05 - 0.8, rel=1e-3)

    def broken(outer, inner):
        raise RuntimeError("not a geometry failure")

    monkeypatch.setattr(inv, "validate_pair", broken)
    with pytest.raises(RuntimeError, match="not a geometry failure"):
        apply_step(state, delta, "lambda", True, 1)


@pytest.mark.parametrize("size,include_center", [(7, True), (9, False),
                                                  (8, True)])
def test_apply_step_rejects_a_step_of_the_wrong_length(size, include_center):
    # modes = 1: 3 + 3 radial entries, 2 centre entries if updated, 1 slot
    state = ShapeState.initial(r0=2.0, r1=0.8, lambda1=4.0, modes=1)
    with pytest.raises(ConfigurationError, match="unknown layout"):
        apply_step(state, np.zeros(size), "lambda", include_center, 1)


def test_penalty_symmetry_of_step():
    # relabeling the cosine/sine pair of one mode with correspondingly
    # permuted Jacobian columns permutes the step the same way
    rng = np.random.default_rng(3)
    modes, s = 2, 1.6
    w = penalty_weights(modes, s)
    jac = rng.standard_normal((20, w.size))
    r = rng.standard_normal(20)
    step = lm_step(jac, r, 0.3, w)
    perm = np.arange(w.size)
    perm[1], perm[1 + modes] = perm[1 + modes], perm[1]  # swap cos1/sin1 of r0
    step_p = lm_step(jac[:, perm], r, 0.3, w[perm])
    assert np.allclose(step_p, step[perm], atol=1e-12)


def _far_fields(state, config, incident, obs):
    """(P, n_obs) far fields of the state at k0 = 2 on the n_solve grid."""
    ff = solve_plane_wave(*state.curves(), config.medium(2.0, state.lambda1),
                          incident, config.n_solve, obs)[0]
    return ff.T


def _tiny_circle_problem(delta=0.0):
    config = SolverConfig(modes=2, num_incident=1, n_obs=16, n_solve=16,
                          n_synth=16, frequencies=(2.0,), max_iterations=3,
                          delta=delta)
    state = ShapeState.initial(r0=2.0, r1=0.8, lambda1=2.0, modes=2)
    incident = observation_directions(1)
    obs = observation_directions(16)
    ffs = _far_fields(state, config, incident, obs)
    return config, state, ffs


def test_fixed_point_stops_immediately():
    # data generated from the state itself at the same resolution:
    # Err ~ 0 at m = 0 and no step is taken
    config, state, ffs = _tiny_circle_problem()
    final, records = newton_iteration(state, ffs, 2.0, config)
    assert len(records) == 1
    assert records[0].stopped == "err_floor"
    assert records[0].err < 1e-8
    assert final.lambda1 == state.lambda1
    assert np.array_equal(final.gamma0.coeffs, state.gamma0.coeffs)


def test_newton_iteration_contracts_by_rho():
    # within one step, the achieved linearized target shows up as an
    # err decrease of roughly rho per iteration on an easy problem
    config, state, _ = _tiny_circle_problem()
    truth = ShapeState.initial(r0=2.2, r1=0.7, lambda1=3.0, modes=2)
    incident = observation_directions(1)
    obs = observation_directions(16)
    data = _far_fields(truth, config, incident, obs)
    final, records = newton_iteration(state, data, 2.0, config)
    errs = [r.err for r in records]
    assert errs[-1] < errs[0]
    # each recorded step should contract close to rho (loose factor two)
    for before, after in zip(errs, errs[1:]):
        assert after < before * (config.rho * 1.7 + 0.1)
    # monotone discrepancy: the chosen beta drives the linearized
    # residual to rho * ||r|| within 1% on every feasible step
    for rec in records:
        if rec.beta is not None and not rec.discrepancy_infeasible:
            assert abs(rec.linearized_ratio - config.rho) <= 1.5e-2 * config.rho


def test_records_carry_the_separation_after_the_step():
    config, state, _ = _tiny_circle_problem()
    truth = ShapeState.initial(r0=2.2, r1=0.7, lambda1=3.0, modes=2)
    incident = observation_directions(1)
    obs = observation_directions(16)
    data = _far_fields(truth, config, incident, obs)
    _, records = newton_iteration(state, data, 2.0, config)
    assert len(records) >= 2
    for rec, after in zip(records, records[1:]):
        moved = ShapeState(gamma0=StarlikeShape((0.0, 0.0), after.r0_coeffs),
                           gamma1=StarlikeShape(after.center1,
                                                after.r1_coeffs),
                           lambda1=after.lambda1)
        assert rec.min_separation == validate_pair(*moved.curves())
    assert records[-1].min_separation is None


def test_multi_frequency_requires_matching_frequencies():
    config, state, ffs = _tiny_circle_problem()

    class FakeDataset:
        frequencies = (3.0,)
        values = ffs[None, :, :]

    with pytest.raises(ConfigurationError):
        multi_frequency_drive(state, FakeDataset(), config)


def test_single_frequency_drive_equals_newton_iteration():
    config, state, ffs = _tiny_circle_problem()
    truth = ShapeState.initial(r0=2.2, r1=0.7, lambda1=3.0, modes=2)
    incident = observation_directions(1)
    obs = observation_directions(16)
    data = _far_fields(truth, config, incident, obs)

    class FakeDataset:
        frequencies = (2.0,)
        values = data[None, :, :]

    final_a, records = newton_iteration(state, data, 2.0, config)
    final_b, trace = multi_frequency_drive(state, FakeDataset(), config)
    assert [r.err for r in trace.iterations] == [r.err for r in records]
    assert final_b.lambda1 == final_a.lambda1
    assert trace.classification == classify_boundary(final_a.lambda1)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.1, 0.9))
def test_choose_beta_residual_matches_rho(rho):
    rng = np.random.default_rng(5)
    jac = rng.standard_normal((15, 4))
    r = rng.standard_normal(15)
    w = np.ones(4)
    beta, infeasible = choose_beta(jac, r, w, rho)
    if not infeasible:
        achieved = np.linalg.norm(jac @ lm_step(jac, r, beta, w) + r)
        assert abs(achieved - rho * np.linalg.norm(r)) <= 1.5e-2 * rho * np.linalg.norm(r)


def test_resolution_ladder_rungs():
    assert resolution_ladder(64, 25) == (32, 40, 48, 64)
    assert resolution_ladder(100, 3) == (32, 40, 48, 64, 80, 96, 100)
    assert resolution_ladder(64, 40) == (48, 64)  # every mode resolved
    assert resolution_ladder(32, 25) == (32,)
    assert resolution_ladder(16, 2) == (16,)


def _counting_solves(monkeypatch):
    import layerscat.inverse as inv

    sizes = []
    real_solve = inv.solve_on_grids

    def counting(grid0, grid1, params, d, obs):
        sizes.append(grid0.n)
        return real_solve(grid0, grid1, params, d, obs)

    monkeypatch.setattr(inv, "solve_on_grids", counting)
    return sizes


def test_one_rung_ladder_matches_fixed_resolution_oracle(monkeypatch):
    # n_solve = 32 leaves one rung: the iteration is the fixed-resolution
    # one bit for bit, with one forward solve per iteration
    config = SolverConfig(modes=3, num_incident=2, n_obs=16, n_solve=32,
                          frequencies=(2.0,), max_iterations=4)
    state = ShapeState.initial(r0=2.0, r1=0.8, lambda1=2.0, modes=3)
    truth = ShapeState.initial(r0=2.2, r1=0.7, lambda1=3.0, modes=3,
                               center1=(0.1, 0.0))
    data = _far_fields(truth, config, observation_directions(2),
                       observation_directions(16))
    expected = fixed_resolution_newton(state, data, 2.0, config)
    sizes = _counting_solves(monkeypatch)
    _, records = newton_iteration(state, data, 2.0, config)
    assert len(records) == len(expected) == 5
    assert [vars(r) for r in records] == [vars(r) for r in expected]
    assert all(r.n_solve == 32 and r.resolution_estimate is None
               for r in records)
    assert sizes == [32] * len(records)


def _fitted_starlike(curve, modes):
    """Starlike coefficients of a preset curve centered at the origin."""
    theta = 2.0 * np.pi * np.arange(4 * modes) / (4 * modes)
    radius = np.hypot(*curve.point(theta).T)
    c = np.fft.rfft(radius) / (4 * modes)
    return np.concatenate([[c[0].real], 2.0 * c[1:modes + 1].real,
                           -2.0 * c[1:modes + 1].imag])


def test_apple_at_k0_8_resolves_with_48_or_more(monkeypatch):
    # near the truth, with exact data, n = 32 is too coarse at k0 = 8:
    # its far field is off by about 1e-3 relative, against a misfit of 1e-3
    config = SolverConfig(frequencies=(8.0,), num_incident=1, modes=25,
                          max_iterations=1)
    truth = (ParametricCurve.preset("rounded_triangle"),
             ParametricCurve.preset("apple"))
    data = synthesize(*truth, 1e6, config).values[0]
    r0 = _fitted_starlike(truth[0], config.modes)
    r0[0] += 3e-4
    state = ShapeState(gamma0=StarlikeShape((0.0, 0.0), r0),
                       gamma1=StarlikeShape((0.0, 0.0),
                                            _fitted_starlike(truth[1], 25)),
                       lambda1=1e6)
    sizes = _counting_solves(monkeypatch)
    _, records = newton_iteration(state, data, 8.0, config)
    assert records[0].err < 2e-3
    assert records[0].n_solve >= 48
    assert sizes[:3] == [32, 40, 48]
    ff32, ff64 = (solve_plane_wave(*state.curves(), config.medium(8.0, 1e6),
                                   observation_directions(1), n,
                                   observation_directions(64))[0]
                  for n in (32, 64))
    assert np.max(np.abs(ff32 - ff64)) > 1e-4 * np.max(np.abs(ff64))
    # a noise-level target lets the same iterate run coarser
    noisy = SolverConfig(frequencies=(8.0,), num_incident=1, modes=25,
                         max_iterations=1, delta=0.03)
    _, coarse = newton_iteration(state, data, 8.0, noisy)
    assert coarse[0].n_solve < records[0].n_solve


def test_resolution_never_drops_within_a_stage(monkeypatch):
    # the hard-kite setup of gate 6, cut short: the iteration starts at
    # n = 32 and the check climbs once err has fallen a hundredfold
    config = SolverConfig(frequencies=(1.0,), num_incident=3,
                          max_iterations=22, center_update_iterations=5)
    data = synthesize(ParametricCurve.preset("rounded_square"),
                      ParametricCurve.preset("kite"), 1e-6, config).values[0]
    state = ShapeState.initial(r0=2.8, r1=1.0, lambda1=1.0,
                               modes=config.modes, center1=(0.5, 0.0))
    sizes = _counting_solves(monkeypatch)
    _, records = newton_iteration(state, data, 1.0, config)
    rungs = [r.n_solve for r in records]
    ladder = resolution_ladder(config.n_solve, config.modes)
    assert all(n in ladder for n in rungs)
    assert rungs == sorted(rungs) and rungs[0] == 32 and rungs[-1] > 32
    assert all(r.resolution_estimate is not None for r in records)
    # one solve per iteration, plus one per rung compared at a check
    assert len(sizes) > len(records)
    assert sizes[0] == 32 and sizes[1] == 40
