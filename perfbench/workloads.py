"""The benchmark workloads and their output checks.

Each workload has ``setup(seed)`` (timed as set-up), ``op()`` (one
user-visible operation, timed end to end) and returns an ``Outcome``.
The checks read only documented outputs -- the ``trace.json`` file the
``invert`` command writes and the far-field arrays the library returns --
and compare against truth curves written out here, so they do not depend
on how the program computes its answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layerscat as ls
import layerscat.cli

HAUSDORFF_SAMPLES = 512
RECIPROCITY_TOL = 1e-6


# -- truth curves (the presets' published formulas) -------------------------
def _polar(r, t):
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


TRUTH_CURVES = {
    "kite": lambda t: np.stack([np.cos(t) + 0.65 * np.cos(2.0 * t) - 0.65,
                                1.5 * np.sin(t)], axis=-1),
    "rounded_square": lambda t: 1.5 * np.stack(
        [np.cos(t) ** 3 + np.cos(t), np.sin(t) ** 3 + np.sin(t)], axis=-1),
}


def starlike_points(center, coeffs, t):
    """center + r(t)(cos t, sin t), r in the (a0, cos 1..M, sin 1..M) layout."""
    c = np.asarray(coeffs, dtype=float)
    m = (c.size - 1) // 2
    l = np.arange(1, m + 1)
    r = c[0] + np.cos(np.outer(t, l)) @ c[1:m + 1] + np.sin(np.outer(t, l)) @ c[m + 1:]
    return np.asarray(center, dtype=float) + _polar(r, t)


def hausdorff(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass
class Outcome:
    """What one operation produced, and which of its parts failed."""

    attempted: int
    failed: int = 0
    reasons: list = field(default_factory=list)
    wall_s: float = 0.0
    steps: int = 0
    out_err: float = 0.0  # the workload's headline output error
    final_err: float = 0.0
    shape_err_outer: float = 0.0
    shape_err_inner: float = 0.0
    halvings: int = 0
    infeasible: int = 0

    def fail(self, reason):
        self.failed = min(self.attempted, self.failed + 1)
        self.reasons.append(reason)


def check_invert(trace, expect_class, truth_outer, truth_inner, max_final_err):
    """Checks on an ``invert`` trace document; one operation per stage.

    A stage fails when it aborted; the final stage also fails on a wrong
    classification or a final error above ``max_final_err``.
    """
    stages = trace["stage_final"]
    out = Outcome(attempted=max(len(stages), 1))
    if not stages:
        out.fail("no stage finished")
        return out
    records = trace["iterations"]
    for i, (k0, err, _lam, aborted) in enumerate(stages):
        if aborted:
            out.fail(f"k0={k0:g}: stage aborted")
        elif i == len(stages) - 1:
            if trace["classification"] != expect_class:
                out.fail(f"classified {trace['classification']}, "
                         f"truth is {expect_class}")
            elif not err <= max_final_err:
                out.fail(f"final err {err:.3g} > {max_final_err:g}")
    out.steps = len(records)
    out.final_err = float(stages[-1][1])
    out.halvings = sum(int(r.get("halvings") or 0) for r in records)
    out.infeasible = sum(bool(r.get("discrepancy_infeasible")) for r in records)
    if records:
        last = records[-1]
        t = 2.0 * np.pi * np.arange(HAUSDORFF_SAMPLES) / HAUSDORFF_SAMPLES
        out.shape_err_outer = hausdorff(
            starlike_points((0.0, 0.0), last["r0_coeffs"], t),
            TRUTH_CURVES[truth_outer](t))
        out.shape_err_inner = hausdorff(
            starlike_points(last["center1"], last["r1_coeffs"], t),
            TRUTH_CURVES[truth_inner](t))
        out.out_err = max(out.shape_err_outer, out.shape_err_inner)
    return out


def reciprocity_defect(ff):
    """max |u(x, d) - u(-d, -x)| on the incident-aligned sub-grid.

    ``ff`` is (P, n_obs) with both grids rotated by the same angle and
    n_obs a multiple of P, so -d and -x lie on the grids.
    """
    p, n_obs = ff.shape
    step = n_obs // p
    sub = ff[:, ::step]  # sub[i, j] = u(x_j, d_i)
    half = p // 2
    flip = np.roll(np.roll(sub, half, axis=0), half, axis=1).T
    return float(np.max(np.abs(sub - flip)))


# -- workloads ---------------------------------------------------------------
def _cli(argv):
    """Run the ``layerscat`` command in this process; returns (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = layerscat.cli.main(argv)
    return code, buf.getvalue()


class InvertWorkload:
    """``layerscat synth`` as set-up, then ``layerscat invert`` as the
    operation, both through ``layerscat.cli.main``."""

    def __init__(self, config, truth, init, expect_class, max_final_err,
                 tiny=False):
        self.config = config
        self.truth = truth  # (outer, inner, lambda1)
        self.init = init
        self.expect_class = expect_class
        self.max_final_err = max_final_err
        self.overrides = []
        if tiny:
            for kv in ("n_solve=16", "modes=2", "n_synth=32", "n_obs=16",
                       "max_iterations=2"):
                self.overrides += ["--set", kv]

    def setup(self, seed, workdir):
        self.workdir = Path(workdir)
        outer, inner, lam = self.truth
        code, text = _cli(["synth", "--config", self.config,
                           "--seed", str(seed), "--out", str(self.workdir),
                           "--truth-outer", outer, "--truth-inner", inner,
                           "--truth-lambda1", repr(lam)] + self.overrides)
        if code != 0:
            raise RuntimeError(f"synth exited {code}: {text}")

    def op(self):
        workdir = self.workdir
        t0 = time.perf_counter()
        code, _ = _cli(["invert", "--config", self.config,
                        "--out", str(workdir),
                        "--data", str(workdir / "dataset.csv")]
                       + self.init + self.overrides)
        wall = time.perf_counter() - t0
        if code != 0:
            out = Outcome(attempted=1, wall_s=wall)
            out.fail(f"invert exited {code}")
            return out
        trace = json.loads((workdir / "trace.json").read_text(encoding="utf-8"))
        out = check_invert(trace, self.expect_class, *self.truth[:2],
                           self.max_final_err)
        out.wall_s = wall
        return out


class ForwardSweep:
    """Far fields of both gate-2 pairings at two transmission constants
    each, through the library API."""

    PAIRINGS = (("rounded_triangle", "apple", (2.0, 4.0, 6.0, 8.0)),
                ("rounded_square", "kite", (1.0, 3.0, 5.0, 7.0)))
    LAMBDAS = (1e-6, 1e6)

    def __init__(self, n=128, num_incident=16, n_obs=64, tiny=False):
        if tiny:
            n, num_incident, n_obs = 16, 4, 16
        self.n, self.num_incident, self.n_obs = n, num_incident, n_obs

    def setup(self, seed, workdir):
        """Discretize both pairings; the grids are shared by their cases."""
        # the seed turns the incident and observation grids together
        rot = random.Random(seed).random() * 2.0 * np.pi / self.n_obs

        def grid(count):
            ang = rot + 2.0 * np.pi * np.arange(count) / count
            return np.stack([np.cos(ang), np.sin(ang)], axis=-1)

        self.incident, self.obs = grid(self.num_incident), grid(self.n_obs)
        self.cases = []
        for outer, inner, k0s in self.PAIRINGS:
            g0 = ls.discretize(ls.ParametricCurve.preset(outer), self.n)
            g1 = ls.discretize(ls.ParametricCurve.preset(inner), self.n)
            for k0 in k0s:
                for lam in self.LAMBDAS:
                    self.cases.append((
                        f"{inner} in {outer}, k0={k0:g}, lambda1={lam:g}",
                        g0, g1, ls.MediumParams.create(
                            k0=k0, n1=0.64, lambda0=1.2, lambda1=lam)))

    def solve_case(self, g0, g1, params):
        system = ls.assemble_system(g0, g1, params)
        rhs = np.stack([ls.plane_wave_data(g0, g1, params.k0, d)
                        .stacked(params.mu0, params.mu1)
                        for d in self.incident], axis=1)
        psi = system.solve_stacked(rhs)
        return np.stack([system.far_field(ls.DensityVector.from_stacked(
            psi[:, i], g0.size, g1.size), self.obs)
            for i in range(psi.shape[1])])

    def op(self):
        out = Outcome(attempted=len(self.cases), steps=len(self.cases))
        defects = []
        for label, g0, g1, params in self.cases:
            t0 = time.perf_counter()
            try:
                ff = self.solve_case(g0, g1, params)
            except ls.LayerscatError as exc:
                out.fail(f"{label}: {exc}")
                continue
            finally:
                out.wall_s += time.perf_counter() - t0
            if not np.all(np.isfinite(ff)):
                out.fail(f"{label}: non-finite far field")
                continue
            defect = reciprocity_defect(ff)
            defects.append(defect)
            if not defect <= RECIPROCITY_TOL:
                out.fail(f"{label}: reciprocity defect {defect:.3g}")
        out.out_err = float(np.median(defects)) if defects else 0.0
        return out


def make(name, tiny=False):
    """The named workload; ``tiny`` shrinks it for the self-test."""
    if name == "invert_hard_kite":
        # gate 6: exact data, final error at most 1e-2, classified sound-hard
        return InvertWorkload(
            "configs/hard_kite_exact.json", ("rounded_square", "kite", 1e-6),
            ["--init-r0", "2.8", "--init-r1", "1.0", "--init-center", "0.5,0",
             "--init-lambda1", "1"],
            "sound_hard", max_final_err=1e-2, tiny=tiny)
    if name == "forward_sweep":
        return ForwardSweep(tiny=tiny)
    raise KeyError(name)


NAMES = ("invert_hard_kite", "forward_sweep")
