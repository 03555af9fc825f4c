"""Two short inversions against recorded traces: every field of every
iteration record, to 1e-12 relative per field.

One run stays in the lambda1 slot (sound-hard truth, initial lambda1 = 1),
the other steps in the tau1 slot (sound-soft truth, initial lambda1 = 10).
The gates check their runs against bounds only; this pins the values, so
a change meant to leave the numbers alone can show that it does.

The runs take one BLAS thread, in a child process (the thread count is
fixed when BLAS loads): a blocked product sums in another order on more
threads, and over a dozen Newton steps that moves the tau-form lambda1 by
up to 1e-11.  Re-record ``data/golden_traces.json`` only for a change
that is meant to move the traces, with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden_trace.py
--record`` from the root of a checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layerscat
from layerscat.data_io import synthesize
from layerscat.geometry import ParametricCurve
from layerscat.inverse import ShapeState, SolverConfig, multi_frequency_drive

FIXTURE = Path(__file__).parent / "data" / "golden_traces.json"
RTOL = 1e-12

# name: (outer, inner, truth lambda1, k0, initial r0, r1, lambda1, center1)
CASES = {
    "hard_lambda": ("rounded_square", "kite", 1e-6, 1.0,
                    2.8, 1.0, 1.0, (0.5, 0.0)),
    "soft_tau": ("rounded_triangle", "apple", 1e6, 2.0,
                 2.4, 0.5, 10.0, (0.0, 0.0)),
}


def run_case(name):
    outer, inner, truth, k0, r0, r1, lambda1, center1 = CASES[name]
    config = SolverConfig(frequencies=(k0,), num_incident=2, modes=3,
                          n_obs=32, n_solve=32, n_synth=64, max_iterations=12)
    dataset = synthesize(ParametricCurve.preset(outer),
                         ParametricCurve.preset(inner), truth, config)
    state = ShapeState.initial(r0=r0, r1=r1, lambda1=lambda1,
                               modes=config.modes, center1=center1)
    _, trace = multi_frequency_drive(state, dataset, config)
    return trace.to_dict()


@pytest.fixture(scope="module")
def traces():
    """Both runs, through JSON as the trace file stores them, from a
    child process on one BLAS thread with this very package."""
    src = str(Path(layerscat.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, __file__], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def _assert_close(got, want, where):
    if isinstance(want, list) and want and isinstance(want[0], float):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape, where
        scale = np.max(np.abs(want))
        assert np.all(np.abs(got - want) <= RTOL * scale), where
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert abs(got - want) <= RTOL * abs(want), where
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_recorded(traces, name):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    got = traces[name]
    assert got["classification"] == want["classification"]
    assert len(got["stage_final"]) == len(want["stage_final"])
    for i, (g, w) in enumerate(zip(got["stage_final"], want["stage_final"])):
        for j, (gv, wv) in enumerate(zip(g, w)):
            _assert_close(gv, wv, f"stage_final[{i}][{j}]")
    assert len(got["iterations"]) == len(want["iterations"])
    for g, w in zip(got["iterations"], want["iterations"]):
        assert g.keys() == w.keys()
        for key in w:
            _assert_close(g[key], w[key], f"m={w['m']} {key}")
    # the first record carries the initial state's form
    forms = {r["form"] for r in want["iterations"][1:]}
    assert forms == ({"lambda"} if name == "hard_lambda" else {"tau"})


if __name__ == "__main__":
    runs = {name: run_case(name) for name in CASES}
    if sys.argv[1:] == ["--record"]:
        FIXTURE.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    else:
        json.dump(runs, sys.stdout)
