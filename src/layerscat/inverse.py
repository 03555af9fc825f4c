"""Regularized Newton reconstruction from multi-frequency far-field data.

Per frequency, the iteration linearizes the far-field map around the
current starlike iterate, solves the H^s-penalized least-squares step

    min sum_i || J dc + r_i ||^2 + beta dc^T D dc

with beta chosen so the linearized residual equals rho times the current
residual (bracketing + bisection on the monotone residual curve), and
applies the step under geometry safeguards (radius floor, containment,
pole guard) with up to ten halvings.  The unknown for the transmission
constant is lambda1 while |lambda1| <= lambda_switch and tau1 = 1/lambda1
beyond, with both kept in sync after every step.  Frequencies are swept
lowest to highest, each stage starting from the previous stage's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .errors import (ConfigurationError, DataFormatError, GeometryError,
                     SolverError, StageAbortError)
from .forward import (LAMBDA_POLE_GUARD, MediumParams, observation_directions,
                      solve_plane_wave)
from .frechet import canonical_directions, jacobian, real_rows
from .geometry import ParametricCurve, StarlikeShape, validate_pair

STEP_HALVINGS = 10
BETA_MIN = 1e-12
ERR_FLOOR = 1e-8
DISCREPANCY_RTOL = 1e-2


@dataclass
class ShapeState:
    """Current reconstruction iterate: two starlike boundaries and the
    transmission constant in both parametrizations."""

    gamma0: StarlikeShape
    gamma1: StarlikeShape
    lambda1: float
    tau1: float
    active_form: str = "lambda"

    @classmethod
    def initial(cls, r0: float, r1: float, lambda1: float, modes: int,
                center1=(0.0, 0.0)):
        if lambda1 == 0.0:
            raise ConfigurationError("initial lambda1 must be nonzero")
        return cls(
            gamma0=StarlikeShape.circle(r0, (0.0, 0.0), modes),
            gamma1=StarlikeShape.circle(r1, center1, modes),
            lambda1=float(lambda1),
            tau1=1.0 / float(lambda1),
        )

    def curves(self):
        return (ParametricCurve.starlike(self.gamma0),
                ParametricCurve.starlike(self.gamma1))

    def with_form(self, form: str):
        if form not in ("lambda", "tau"):
            raise ConfigurationError(f"unknown form {form!r}")
        return replace(self, active_form=form)

    def validate_geometry(self) -> float:
        """Raise GeometryError unless the pair is valid; return the
        minimum distance between the two boundaries' polylines."""
        c0, c1 = self.curves()
        return validate_pair(c0, c1)


@dataclass
class SolverConfig:
    """All tunables of the forward/inverse pipeline (paper-standard
    defaults)."""

    n1: float = 0.64
    lambda0: float = 1.2
    s: float = 1.6
    modes: int = 25
    rho: float = 0.8
    tau_stop: float = 1.5
    lambda_switch: float = 1.0
    delta: float = 0.0
    max_iterations: int = 25
    frequencies: tuple = (2.0,)
    num_incident: int = 1
    n_obs: int = 64
    n_solve: int = 64
    n_synth: int = 128
    center_update_iterations: int | None = None
    k2: object = "k1"

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError("rho must lie in (0, 1)")
        if self.tau_stop <= 1.0:
            raise ConfigurationError("tau_stop must exceed 1")
        if self.delta < 0.0:
            raise ConfigurationError("delta must be nonnegative")
        freqs = tuple(float(f) for f in self.frequencies)
        if any(b <= a for a, b in zip(freqs, freqs[1:])) or not freqs:
            raise ConfigurationError("frequencies must be strictly increasing")
        self.frequencies = freqs
        for name in ("modes", "max_iterations", "num_incident",
                     "n_obs", "n_solve", "n_synth"):
            if getattr(self, name) < 1 and not (name == "modes" and self.modes == 0):
                raise ConfigurationError(f"{name} must be positive")

    def medium(self, k0: float, lambda1: float) -> MediumParams:
        return MediumParams.create(k0=k0, n1=self.n1, lambda0=self.lambda0,
                                   lambda1=lambda1, k2=self.k2)

    def center_updates_at(self, m: int) -> bool:
        return (self.center_update_iterations is None
                or m < self.center_update_iterations)


@dataclass
class IterationRecord:
    """One row of the reconstruction trace."""

    k0: float
    m: int
    err: float
    lambda1: float
    tau1: float
    form: str
    r0_coeffs: list
    r1_coeffs: list
    center1: list
    beta: float | None = None
    halvings: int = 0
    discrepancy_infeasible: bool = False
    linearized_ratio: float | None = None
    min_separation: float | None = None  # of the geometry after the step
    stopped: str | None = None


@dataclass
class ReconstructionTrace:
    iterations: list = field(default_factory=list)
    stage_final: list = field(default_factory=list)  # (k0, err, lambda1, aborted)
    classification: str = "inconclusive"

    def to_dict(self):
        return {
            "iterations": [vars(r).copy() for r in self.iterations],
            "stage_final": [list(s) for s in self.stage_final],
            "classification": self.classification,
        }


# ---------------------------------------------------------------------------
# Norms and the regularized step
# ---------------------------------------------------------------------------
def hs_norm_sq(coeffs, s: float) -> float:
    """Squared H^s norm of a trig polynomial in the coefficient layout
    (a0, cos block, sin block): 2 pi a0^2 + pi sum (1+l^2)^s (a_l^2+a_{l+M}^2)."""
    c = np.asarray(coeffs, dtype=float)
    m = (c.size - 1) // 2
    l = np.arange(1, m + 1)
    w = (1.0 + l**2) ** s
    return float(2.0 * np.pi * c[0]**2
                 + np.pi * np.sum(w * (c[1:m + 1]**2 + c[m + 1:]**2)))


def discrete_l2_sq(values) -> float:
    """Discrete L^2(S^1) norm squared: (2 pi / n) sum |f_i|^2."""
    v = np.asarray(values)
    return float(2.0 * np.pi / v.shape[-1] * np.sum(np.abs(v) ** 2))


def penalty_weights(modes: int, s: float, include_center: bool = True):
    """Diagonal H^s penalty for the stacked unknown vector."""
    l = np.arange(1, modes + 1)
    w_r = np.concatenate([[2.0 * np.pi],
                          np.pi * (1.0 + l**2) ** s,
                          np.pi * (1.0 + l**2) ** s])
    tail = [1.0, 1.0, 1.0] if include_center else [1.0]
    return np.concatenate([w_r, w_r, tail])


def lm_step(jac, residual, beta: float, weights):
    """Solve the regularized normal equations (J^T J + beta D) dc = -J^T r."""
    jtj = jac.T @ jac
    jtr = jac.T @ residual
    return _lm_core(jtj, jtr, beta, np.asarray(weights, dtype=float))


def _lm_core(jtj, jtr, beta, weights):
    mat = jtj + beta * np.diag(weights)
    try:
        cho = sla.cho_factor(mat)
    except sla.LinAlgError as exc:
        raise SolverError(
            f"normal matrix singular at beta={beta:g}: {exc}") from exc
    return -sla.cho_solve(cho, jtr)


def choose_beta(jac, residual, weights, rho: float):
    """Discrepancy choice of beta: linearized residual = rho * ||r||.

    Returns (beta, infeasible); infeasible means even beta -> 0 leaves
    the linearized residual above the target, in which case the smallest
    usable beta (normally BETA_MIN) is returned and the step is flagged.
    """
    if not 0.0 < rho < 1.0:
        raise ConfigurationError("rho must lie in (0, 1)")
    w = np.asarray(weights, dtype=float)
    jtj = jac.T @ jac
    jtr = jac.T @ residual
    rnorm = float(np.linalg.norm(residual))
    if rnorm == 0.0:
        return BETA_MIN, False
    target = rho * rnorm

    def lin_res(beta):
        dc = _lm_core(jtj, jtr, beta, w)
        return float(np.linalg.norm(jac @ dc + residual))

    # feasibility probe; on a rank-deficient J the normal matrix can be
    # numerically indefinite at the smallest shift, so walk the floor up
    beta_floor = BETA_MIN
    while True:
        try:
            res_floor = lin_res(beta_floor)
            break
        except SolverError:
            beta_floor *= 10.0
            if beta_floor > 1.0:
                raise
    if res_floor > target:
        return beta_floor, True
    lo, hi = beta_floor, 1.0
    while lin_res(hi) < target:
        lo = hi
        hi *= 10.0
        if hi > 1e18:  # pragma: no cover - target < ||r|| guarantees a bracket
            return hi, False
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        res_mid = lin_res(mid)
        if res_mid < target:
            lo = mid
        else:
            hi = mid
        if abs(res_mid - target) <= DISCREPANCY_RTOL * target:
            return mid, False
    return np.sqrt(lo * hi), False


def relative_error(farfields, data) -> float:
    """Mean over incident directions of the relative discrete-L^2 misfit."""
    ff = np.atleast_2d(np.asarray(farfields))
    ud = np.atleast_2d(np.asarray(data))
    errs = []
    for i in range(ud.shape[0]):
        dn = np.sqrt(discrete_l2_sq(ud[i]))
        if dn == 0.0:
            raise DataFormatError(f"data column {i} has zero norm")
        errs.append(np.sqrt(discrete_l2_sq(ff[i] - ud[i])) / dn)
    return float(np.mean(errs))


def classify_boundary(lambda1: float) -> str:
    """Boundary-condition type read off the final transmission constant."""
    if abs(lambda1) >= 100.0:
        return "sound_soft"
    if abs(lambda1) <= 0.01:
        return "sound_hard"
    return "inconclusive"


# ---------------------------------------------------------------------------
# Step application with safeguards
# ---------------------------------------------------------------------------
def _nudge_lambda(lam: float) -> float:
    """Keep lambda1 away from the mu1 pole at -1 and from exactly 0."""
    if abs(1.0 + lam) < LAMBDA_POLE_GUARD:
        lam = lam + 1e-5 if lam >= -1.0 else lam - 1e-5
    if lam == 0.0:
        lam = 1e-12
    return lam


def _candidate_state(state: ShapeState, delta, form: str,
                     include_center: bool, modes: int) -> ShapeState:
    nr = 2 * modes + 1
    c0 = state.gamma0.coeffs + delta[:nr]
    c1 = state.gamma1.coeffs + delta[nr:2 * nr]
    if include_center:
        center1 = state.gamma1.center + delta[2 * nr:2 * nr + 2]
    else:
        center1 = state.gamma1.center
    slot = delta[-1]
    if form == "lambda":
        lam = _nudge_lambda(state.lambda1 + slot)
        tau = 1.0 / lam
    else:
        tau = state.tau1 + slot
        if tau == 0.0:
            tau = 1e-12
        lam = _nudge_lambda(1.0 / tau)
        tau = 1.0 / lam
    return ShapeState(
        gamma0=StarlikeShape((0.0, 0.0), c0),
        gamma1=StarlikeShape(center1, c1),
        lambda1=lam, tau1=tau, active_form=form,
    )


def apply_step(state: ShapeState, delta, form: str, include_center: bool,
               modes: int):
    """Apply the LM update, halving it while the geometry is invalid.

    Returns (new_state, halvings, min_separation), the last the minimum
    distance between the new boundaries; raises StageAbortError after
    STEP_HALVINGS failed halvings.  Only a GeometryError halves the
    step; any other error propagates.
    """
    step = np.asarray(delta, dtype=float)
    for halvings in range(STEP_HALVINGS + 1):
        cand = _candidate_state(state, step, form, include_center, modes)
        try:
            separation = cand.validate_geometry()
        except GeometryError:
            step = 0.5 * step
            continue
        return cand, halvings, separation
    raise StageAbortError(
        f"step rejected after {STEP_HALVINGS} halvings (invalid geometry)")


# ---------------------------------------------------------------------------
# Newton iteration per frequency, multi-frequency driver
# ---------------------------------------------------------------------------
def newton_iteration(state: ShapeState, data, k0: float, config: SolverConfig):
    """Run the regularized Newton iteration at one frequency.

    ``data``: complex (P, n_obs) measured far fields for the incident
    directions 2 pi (i-1)/P.  Returns (final state, iteration records);
    raises StageAbortError with partial progress attached when the step
    safeguard is exhausted.
    """
    data = np.atleast_2d(np.asarray(data, dtype=complex))
    p_inc = data.shape[0]
    if p_inc != config.num_incident:
        raise ConfigurationError(
            f"data has {p_inc} incident columns, config expects "
            f"{config.num_incident}")
    incident_dirs = observation_directions(p_inc)
    obs_dirs = observation_directions(data.shape[1])
    norm_scale = np.sqrt(2.0 * np.pi / data.shape[1])

    records = []
    for m in range(config.max_iterations + 1):
        ff, traces, _, system = solve_plane_wave(
            *state.curves(), config.medium(k0, state.lambda1), incident_dirs,
            config.n_solve, obs_dirs)
        ffs = ff.T
        err = relative_error(ffs, data)
        rec = IterationRecord(
            k0=k0, m=m, err=err, lambda1=state.lambda1, tau1=state.tau1,
            form=state.active_form,
            r0_coeffs=list(state.gamma0.coeffs),
            r1_coeffs=list(state.gamma1.coeffs),
            center1=list(state.gamma1.center),
        )
        records.append(rec)
        if config.delta > 0.0 and err < config.tau_stop * config.delta:
            rec.stopped = "discrepancy"
            break
        if err < ERR_FLOOR:
            rec.stopped = "err_floor"
            break
        if m == config.max_iterations:
            rec.stopped = "max_iterations"
            break

        form = "lambda" if abs(state.lambda1) <= config.lambda_switch else "tau"
        include_center = config.center_updates_at(m)
        dirs = canonical_directions(system.grid0, system.grid1,
                                    state.gamma1.center, config.modes, form,
                                    include_center)
        jac, residual = jacobian(system, traces, ffs, data, dirs, obs_dirs)
        jac = norm_scale * jac
        residual = norm_scale * residual
        weights = penalty_weights(config.modes, config.s, include_center)
        beta, infeasible = choose_beta(jac, residual, weights, config.rho)
        delta_c = lm_step(jac, residual, beta, weights)
        rnorm = float(np.linalg.norm(residual))
        lin_ratio = float(np.linalg.norm(jac @ delta_c + residual)) / rnorm
        try:
            state, halvings, separation = apply_step(
                state, delta_c, form, include_center, config.modes)
        except StageAbortError as exc:
            exc.records = records  # type: ignore[attr-defined]
            exc.state = state  # type: ignore[attr-defined]
            raise
        rec.beta = beta
        rec.halvings = halvings
        rec.discrepancy_infeasible = infeasible
        rec.linearized_ratio = lin_ratio
        rec.min_separation = separation
        state = state.with_form(form)
    return state, records


def _perturbed_state(state: ShapeState, label: str, h: float,
                     modes: int) -> ShapeState:
    c0 = np.array(state.gamma0.coeffs)
    c1 = np.array(state.gamma1.coeffs)
    center1 = np.array(state.gamma1.center)
    lam = state.lambda1
    if label.startswith("r0["):
        c0[int(label[3:-1])] += h
    elif label.startswith("r1["):
        c1[int(label[3:-1])] += h
    elif label == "a1":
        center1[0] += h
    elif label == "a2":
        center1[1] += h
    elif label == "lambda1":
        lam = lam + h
    elif label == "tau1":
        lam = 1.0 / (state.tau1 + h)
    else:  # pragma: no cover - defensive
        raise ConfigurationError(f"unknown direction label {label!r}")
    return ShapeState(gamma0=StarlikeShape((0.0, 0.0), c0),
                      gamma1=StarlikeShape(center1, c1),
                      lambda1=lam, tau1=1.0 / lam,
                      active_form=state.active_form)


def finite_difference_check(state: ShapeState, config: SolverConfig,
                            k0: float, step: float = 1e-3):
    """Relative error of every Jacobian column against central finite
    differences of the full nonlinear forward map.

    Returns {direction label: relative l2 column error}.
    """
    incident = observation_directions(config.num_incident)
    obs = observation_directions(config.n_obs)

    def forward(s: ShapeState):
        return solve_plane_wave(*s.curves(), config.medium(k0, s.lambda1),
                                incident, config.n_solve, obs)

    ff, traces, _, system = forward(state)
    ffs = ff.T
    form = "lambda" if abs(state.lambda1) <= config.lambda_switch else "tau"
    dirs = canonical_directions(system.grid0, system.grid1,
                                state.gamma1.center, config.modes, form,
                                include_center=True)
    jac, _ = jacobian(system, traces, ffs, np.zeros_like(ffs), dirs, obs)
    errors = {}
    for j, label in enumerate(dirs.labels):
        ff_p, ff_m = (forward(_perturbed_state(state, label, h, config.modes))[0]
                      for h in (step, -step))
        fd_real = real_rows((ff_p - ff_m).T / (2.0 * step))
        denom = max(float(np.linalg.norm(fd_real)), 1e-300)
        errors[label] = float(np.linalg.norm(jac[:, j] - fd_real) / denom)
    return errors


def multi_frequency_drive(initial: ShapeState, dataset, config: SolverConfig):
    """Algorithm: sweep the strictly increasing frequencies, feeding each
    stage's final state to the next; aborted stages keep the last good
    state and the remaining frequencies are still attempted.

    ``dataset`` provides .frequencies and .values (Q, P, n_obs).
    Returns (final state, ReconstructionTrace).
    """
    freqs = tuple(float(f) for f in dataset.frequencies)
    if freqs != tuple(config.frequencies):
        raise ConfigurationError(
            f"dataset frequencies {freqs} do not match config "
            f"{tuple(config.frequencies)}")
    initial.validate_geometry()
    state = initial
    trace = ReconstructionTrace()
    for qi, k0 in enumerate(freqs):
        try:
            state, records = newton_iteration(state, dataset.values[qi],
                                              k0, config)
            trace.iterations.extend(records)
            trace.stage_final.append(
                (k0, records[-1].err, state.lambda1, False))
        except StageAbortError as exc:
            partial = getattr(exc, "records", [])
            trace.iterations.extend(partial)
            state = getattr(exc, "state", state)
            err = partial[-1].err if partial else float("nan")
            trace.stage_final.append((k0, err, state.lambda1, True))
    trace.classification = classify_boundary(state.lambda1)
    return state, trace
