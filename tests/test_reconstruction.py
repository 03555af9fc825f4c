"""Slower end-to-end reconstruction behaviors beyond the acceptance
gates: the sound-hard noisy multi-frequency case and stage-abort
continuation after a rejected step or a failed solve."""

import numpy as np

from layerscat.data_io import add_noise, synthesize
from layerscat.errors import SolverError, StageAbortError
from layerscat.geometry import ParametricCurve
from layerscat.inverse import (ShapeState, SolverConfig,
                               multi_frequency_drive)


def test_sound_hard_noisy_multifrequency():
    config = SolverConfig(frequencies=(1.0, 3.0, 5.0, 7.0), num_incident=3,
                          max_iterations=30, delta=0.03,
                          center_update_iterations=5)
    clean = synthesize(ParametricCurve.preset("rounded_square"),
                       ParametricCurve.preset("kite"), 1e-6, config)
    dataset = add_noise(clean, 0.03, seed=1)
    state0 = ShapeState.initial(r0=2.8, r1=1.0, lambda1=1.0,
                                modes=config.modes, center1=(0.5, 0.0))
    state, trace = multi_frequency_drive(state0, dataset, config)
    stops = [r for r in trace.iterations if r.stopped]
    assert len(stops) == 4
    assert all(r.stopped == "discrepancy" for r in stops)
    assert all(r.err <= 0.05 for r in stops)
    assert abs(state.lambda1) <= 1e-1
    assert trace.classification == "sound_hard"
    # the buried center is only moved during the first five iterations
    first_stage = [r for r in trace.iterations if r.k0 == 1.0]
    frozen = [r.center1 for r in first_stage if r.m >= 6]
    assert all(np.array_equal(c, frozen[0]) for c in frozen)


def test_aborted_stage_keeps_state_and_continues(monkeypatch):
    config = SolverConfig(frequencies=(2.0, 4.0), num_incident=1, modes=2,
                          max_iterations=2, n_obs=16, n_solve=16, n_synth=16)
    truth0 = ParametricCurve.preset("circle", radius=2.2)
    truth1 = ParametricCurve.preset("circle", radius=0.7)
    dataset = synthesize(truth0, truth1, 3.0, config)
    state0 = ShapeState.initial(r0=2.0, r1=0.8, lambda1=2.0, modes=2)

    import layerscat.inverse as inv

    real_apply = inv.apply_step
    fail_once = {"armed": True}

    def sabotaged(state, delta, form, include_center, modes):
        if fail_once["armed"]:
            fail_once["armed"] = False
            raise StageAbortError("forced for the continuation test")
        return real_apply(state, delta, form, include_center, modes)

    monkeypatch.setattr(inv, "apply_step", sabotaged)
    state, trace = multi_frequency_drive(state0, dataset, config)
    assert trace.stage_final[0][3] is True      # first stage aborted
    assert trace.stage_final[1][3] is False     # second stage still ran
    ks = {r.k0 for r in trace.iterations}
    assert ks == {2.0, 4.0}


def test_solver_failure_aborts_only_its_stage(monkeypatch):
    config = SolverConfig(frequencies=(2.0, 3.0, 4.0), num_incident=1,
                          modes=2, max_iterations=2, n_obs=16, n_solve=16,
                          n_synth=16)
    dataset = synthesize(ParametricCurve.preset("circle", radius=2.2),
                         ParametricCurve.preset("circle", radius=0.7), 3.0,
                         config)
    state0 = ShapeState.initial(r0=2.0, r1=0.8, lambda1=2.0, modes=2)

    import layerscat.inverse as inv

    real_solve = inv.solve_on_grids
    stage2_solves = []

    def failing(grid0, grid1, params, d, obs):
        # the second forward solve of the k0 = 3 stage fails
        if params.k0 == 3.0:
            stage2_solves.append(params.lambda1)
            if len(stage2_solves) == 2:
                raise SolverError("forced for the abort test")
        return real_solve(grid0, grid1, params, d, obs)

    monkeypatch.setattr(inv, "solve_on_grids", failing)
    state, trace = multi_frequency_drive(state0, dataset, config)
    assert [s[3] for s in trace.stage_final] == [False, True, False]
    stage2 = [r for r in trace.iterations if r.k0 == 3.0]
    assert len(stage2) == 1                  # the partial record is kept
    assert trace.stage_final[1][1] == stage2[0].err
    # the aborted stage hands on the state of its last record
    stage3 = [r for r in trace.iterations if r.k0 == 4.0]
    assert stage3[0].lambda1 == stage2[0].lambda1
    assert stage3[0].r0_coeffs == stage2[0].r0_coeffs
    assert trace.stage_final[2][2] == state.lambda1
