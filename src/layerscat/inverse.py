"""Regularized Newton reconstruction from multi-frequency far-field data.

Per frequency, the iteration linearizes the far-field map around the
current starlike iterate, solves the H^s-penalized least-squares step

    min sum_i || J dc + r_i ||^2 + beta dc^T D dc

with beta chosen so the linearized residual equals rho times the current
residual (bracketing + bisection on the monotone residual curve), and
applies the step under geometry safeguards (radius floor, containment,
pole guard) with up to ten halvings.  Only lambda1 is stored; the step
moves lambda1 while |lambda1| <= lambda_switch and tau1 = 1/lambda1
beyond (``transmission_slot``).  Frequencies are swept lowest to
highest, each stage starting from the previous stage's result.

Each stage picks its Nystrom resolution from the ladder RUNGS, capped
by ``n_solve``: the smallest rung whose far field agrees with the next
rung's to RESOLUTION_RTOL times the stage's target max(tau_stop delta,
err).  The check runs at stage start and again whenever err has fallen
tenfold since the last one, and the resolution never goes down within
a stage.  A solver failure inside a stage aborts that stage only.

Each iterate (``ShapeState``) validates its curve pair and grades its
nodes once, and discretizes every rung from those node maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import (ConfigurationError, DataFormatError, GeometryError,
                     SolverError, StageAbortError)
from .forward import (LAMBDA_POLE_GUARD, MediumParams, observation_directions,
                      solve_on_grids, solve_plane_wave)
from .frechet import canonical_directions, jacobian, real_rows
from .geometry import (ParametricCurve, StarlikeShape, _pair_node_maps,
                       discretize, validate_pair)

STEP_HALVINGS = 10
BETA_MIN = 1e-12
ERR_FLOOR = 1e-8
DISCREPANCY_RTOL = 1e-2
# Nystrom resolutions (nodes per half period) a stage may use; see
# resolution_ladder for how n_solve and modes cut the ladder
RUNGS = (32, 40, 48, 64, 80, 96, 128, 160, 192, 256)
RESOLUTION_RTOL = 1e-2
RECHECK_DROP = 0.1


@dataclass(frozen=True)
class ShapeState:
    """Current reconstruction iterate: two starlike boundaries, lambda1,
    and the slot form of the step that made it.  Its ``separation``
    (``validate_pair``) and ``node_maps`` are computed once and live with
    it; ``grids(n)`` are those of ``discretize_pair``, from its maps."""

    gamma0: StarlikeShape
    gamma1: StarlikeShape
    lambda1: float
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
        )

    @property
    def tau1(self) -> float:
        return 1.0 / self.lambda1

    def curves(self):
        return (ParametricCurve.starlike(self.gamma0),
                ParametricCurve.starlike(self.gamma1))

    @cached_property
    def separation(self) -> float:
        return validate_pair(*self.curves())

    @cached_property
    def node_maps(self):
        return _pair_node_maps(*self.curves(), self.separation)

    def grids(self, n: int):
        return tuple(map(discretize, self.curves(), (n, n), self.node_maps))


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
        def number(value, kinds=(int, float)):  # finite, and not a bool
            return (isinstance(value, kinds) and not isinstance(value, bool)
                    and abs(value) < float("inf"))

        for name, value in vars(self).items():
            if name in INT_FIELDS:  # counts, each at least 1 (modes 0 too)
                least = int(name != "modes")
                ok = number(value, int) and value >= least
                want = f"an integer >= {least}"
            elif name == "center_update_iterations":
                ok = value is None or number(value, int)
                want = "null or an integer"
            elif name == "k2":
                ok = value == "k1" or number(value) and value > 0
                want = '"k1" or a positive number'
            elif name == "frequencies":
                ok = isinstance(value, (list, tuple)) and all(map(number, value))
                want = "a list of numbers"
            else:
                ok, want = number(value), "a finite number"
            if not ok:
                raise ConfigurationError(f"{name} must be {want}, got {value!r}")
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

    def medium(self, k0: float, lambda1: float) -> MediumParams:
        return MediumParams.create(k0=k0, n1=self.n1, lambda0=self.lambda0,
                                   lambda1=lambda1, k2=self.k2)

    def center_updates_at(self, m: int) -> bool:
        return (self.center_update_iterations is None
                or m < self.center_update_iterations)


# the fields with an integer default
INT_FIELDS = tuple(f.name for f in fields(SolverConfig)
                   if type(f.default) is int)


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
    n_solve: int | None = None  # the rung of this iteration's forward solve
    # the two-grid far-field estimate that chose the rung (None on a
    # one-rung ladder); at the cap, the last one that failed
    resolution_estimate: float | None = None


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


def transmission_slot(lambda1: float, lambda_switch: float):
    """(form, label, dlambda1 per unit step) of the unknown vector's
    transmission slot: lambda1 up to ``lambda_switch``, else tau1."""
    if abs(lambda1) <= lambda_switch:
        return "lambda", "lambda1", 1.0
    return "tau", "tau1", -lambda1**2


def _candidate_state(state: ShapeState, delta, form: str,
                     include_center: bool, modes: int) -> ShapeState:
    nr = 2 * modes + 1
    size = 2 * nr + 2 * include_center + 1
    if len(delta) != size:
        raise ConfigurationError(
            f"step has {len(delta)} entries, the unknown layout {size}")
    c0 = state.gamma0.coeffs + delta[:nr]
    c1 = state.gamma1.coeffs + delta[nr:2 * nr]
    if include_center:
        center1 = state.gamma1.center + delta[2 * nr:2 * nr + 2]
    else:
        center1 = state.gamma1.center
    slot = delta[-1]
    if form == "lambda":
        lam = state.lambda1 + slot
    else:
        tau = state.tau1 + slot
        lam = 1.0 / (tau if tau != 0.0 else 1e-12)
    return ShapeState(
        gamma0=StarlikeShape((0.0, 0.0), c0),
        gamma1=StarlikeShape(center1, c1),
        lambda1=_nudge_lambda(lam), active_form=form,
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
            separation = cand.separation
        except GeometryError:
            step = 0.5 * step
            continue
        return cand, halvings, separation
    raise StageAbortError(
        f"step rejected after {STEP_HALVINGS} halvings (invalid geometry)")


# ---------------------------------------------------------------------------
# Newton iteration per frequency, multi-frequency driver
# ---------------------------------------------------------------------------
def resolution_ladder(n_cap: int, modes: int):
    """The resolutions a stage may use: the rungs of RUNGS strictly
    between ``modes`` and the cap ``n_cap``, then the cap itself."""
    return tuple(n for n in RUNGS if modes < n < n_cap) + (n_cap,)


def _settle_resolution(solve, data, ladder, rung, solved, err, target):
    """Climb ``ladder`` from ``rung`` to the first rung whose far field
    agrees with the next rung's: max|ff_n - ff_next| / max|ff_next| <=
    RESOLUTION_RTOL max(target, err_next), err_next the misfit at the
    next rung.  ``solved`` and ``err`` are the solve at ``rung`` and its
    misfit; ``solve(n)`` returns the forward solve at n nodes, far field
    first.  Returns (rung, solved, err, estimate), the estimate at the
    cap being the last one that failed."""
    estimate = None
    while rung < len(ladder) - 1:
        finer = solve(ladder[rung + 1])
        err_finer = relative_error(finer[0].T, data)
        estimate = float(np.max(np.abs(solved[0] - finer[0]))
                         / np.max(np.abs(finer[0])))
        if estimate <= RESOLUTION_RTOL * max(target, err_finer):
            break
        rung, solved, err = rung + 1, finer, err_finer
    return rung, solved, err, estimate


def newton_iteration(state: ShapeState, data, k0: float, config: SolverConfig):
    """Run the regularized Newton iteration at one frequency.

    ``data``: complex (P, n_obs) measured far fields for the incident
    directions 2 pi (i-1)/P.  Returns (final state, iteration records);
    raises StageAbortError with partial progress attached when the step
    safeguard is exhausted or a solve fails (SolverError).  The attached
    state is the iterate of the last record.
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
    ladder = resolution_ladder(config.n_solve, config.modes)
    rung, estimate, err_checked = 0, None, None

    def solve(n):
        return solve_on_grids(*state.grids(n),
                              config.medium(k0, state.lambda1),
                              incident_dirs, obs_dirs)

    records = []
    recorded = state
    try:
        for m in range(config.max_iterations + 1):
            solved = solve(ladder[rung])
            err = relative_error(solved[0].T, data)
            if rung < len(ladder) - 1 and (
                    err_checked is None or err < RECHECK_DROP * err_checked):
                rung, solved, err, estimate = _settle_resolution(
                    solve, data, ladder, rung, solved, err,
                    config.tau_stop * config.delta)
                err_checked = err
            ff, traces, _, system = solved
            ffs = ff.T
            rec = IterationRecord(
                k0=k0, m=m, err=err, lambda1=state.lambda1, tau1=state.tau1,
                form=state.active_form,
                r0_coeffs=list(state.gamma0.coeffs),
                r1_coeffs=list(state.gamma1.coeffs),
                center1=list(state.gamma1.center),
                n_solve=ladder[rung], resolution_estimate=estimate,
            )
            records.append(rec)
            recorded = state
            if config.delta > 0.0 and err < config.tau_stop * config.delta:
                rec.stopped = "discrepancy"
                break
            if err < ERR_FLOOR:
                rec.stopped = "err_floor"
                break
            if m == config.max_iterations:
                rec.stopped = "max_iterations"
                break

            form, label, dlambda1 = transmission_slot(state.lambda1,
                                                      config.lambda_switch)
            include_center = config.center_updates_at(m)
            dirs = canonical_directions(system.grid0, system.grid1,
                                        state.gamma1.center, config.modes,
                                        label, dlambda1, include_center)
            jac, residual = jacobian(system, traces, ffs, data, dirs,
                                     obs_dirs)
            jac = norm_scale * jac
            residual = norm_scale * residual
            weights = penalty_weights(config.modes, config.s, include_center)
            beta, infeasible = choose_beta(jac, residual, weights, config.rho)
            delta_c = lm_step(jac, residual, beta, weights)
            rnorm = float(np.linalg.norm(residual))
            lin_ratio = float(np.linalg.norm(jac @ delta_c + residual)) / rnorm
            state, halvings, separation = apply_step(
                state, delta_c, form, include_center, config.modes)
            rec.beta = beta
            rec.halvings = halvings
            rec.discrepancy_infeasible = infeasible
            rec.linearized_ratio = lin_ratio
            rec.min_separation = separation
    except StageAbortError as exc:
        exc.records = records  # type: ignore[attr-defined]
        exc.state = recorded  # type: ignore[attr-defined]
        raise
    except SolverError as exc:
        abort = StageAbortError(f"k0={k0:g}, iteration {len(records)}: {exc}")
        abort.records = records  # type: ignore[attr-defined]
        abort.state = recorded  # type: ignore[attr-defined]
        raise abort from exc
    return state, records


def finite_difference_check(state: ShapeState, config: SolverConfig,
                            k0: float, step: float = 1e-3):
    """Relative error of every Jacobian column against central finite
    differences of the full nonlinear forward map (through the Newton
    step's update).

    Returns {direction label: relative l2 column error}.
    """
    if not 0.0 < step < np.inf:
        raise ConfigurationError(f"step must be positive and finite, got {step}")
    incident = observation_directions(config.num_incident)
    obs = observation_directions(config.n_obs)

    def forward(s: ShapeState):
        return solve_plane_wave(*s.curves(), config.medium(k0, s.lambda1),
                                incident, config.n_solve, obs)

    ff, traces, _, system = forward(state)
    ffs = ff.T
    form, label, dlambda1 = transmission_slot(state.lambda1,
                                              config.lambda_switch)
    dirs = canonical_directions(system.grid0, system.grid1,
                                state.gamma1.center, config.modes, label,
                                dlambda1, include_center=True)
    jac, _ = jacobian(system, traces, ffs, np.zeros_like(ffs), dirs, obs)
    errors = {}
    for j, label in enumerate(dirs.labels):
        e_j = np.eye(len(dirs.labels))[j]
        ff_p, ff_m = (forward(_candidate_state(state, h * e_j, form, True,
                                               config.modes))[0]
                      for h in (step, -step))
        fd_real = real_rows((ff_p - ff_m).T / (2.0 * step))
        denom = max(float(np.linalg.norm(fd_real)), 1e-300)
        errors[label] = float(np.linalg.norm(jac[:, j] - fd_real) / denom)
    return errors


def multi_frequency_drive(initial: ShapeState, dataset, config: SolverConfig):
    """Algorithm: sweep the strictly increasing frequencies, feeding each
    stage's final state to the next; a stage aborted by the step
    safeguard or a solver failure keeps its partial records and the last
    recorded state, and the remaining frequencies are still attempted.

    ``dataset`` provides .frequencies and .values (Q, P, n_obs).
    Returns (final state, ReconstructionTrace).
    """
    freqs = tuple(float(f) for f in dataset.frequencies)
    if freqs != tuple(config.frequencies):
        raise ConfigurationError(
            f"dataset frequencies {freqs} do not match config "
            f"{tuple(config.frequencies)}")
    initial.separation  # GeometryError for an invalid pair
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
