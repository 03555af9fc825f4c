"""Self-test of the benchmark at a tiny size (n_solve=16, modes=2).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that every metric named in
BENCHMARK.json is printed with its unit for each workload in both modes,
that wrong classifications and failed output checks count as failed
operations, that the tracer reports missing targets as absent and undoes
its wrappers, and that the benchmark refuses to run without the program.
Exits 1 if any check fails, 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path("src").resolve()))
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(ok, message):
    if not ok:
        FAILURES.append(message)


def run(args, cwd="."):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_printed_metrics(spec):
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run(["--workload", workload["name"], "--seed", "1",
                        "--seconds", "1", "--trace", str(trace), "--tiny"])
            where = f"{workload['name']} --trace {trace}"
            if done.returncode != 0:
                check(False, f"{where}: exit {done.returncode}: {done.stderr}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = json.loads(lines[-2])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            check(env["failed_frac"] == result["failed"] / result["attempted"],
                  f"{where}: failed_frac disagrees with failed/attempted")
            check(result["correct"] == (result["failed"] == 0),
                  f"{where}: correct disagrees with failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{where}: metrics/units {got} != {want}")
            for name, value in result["metrics"].items():
                check(isinstance(value["value"], (int, float)),
                      f"{where}: {name} is not a number")


def good_trace(classification="sound_hard", err=1e-3, aborted=False):
    record = {"k0": 1.0, "m": 0, "err": err, "stopped": "max_iterations",
              "halvings": 0, "discrepancy_infeasible": False,
              "r0_coeffs": [1.5, 0.0, 0.0], "r1_coeffs": [0.5, 0.0, 0.0],
              "center1": [0.0, 0.0]}
    return {"iterations": [record],
            "stage_final": [[1.0, err, 1e-4, aborted]],
            "classification": classification}


def check_failure_counting():
    def failed(trace):
        return workloads.check_invert(trace, "sound_hard", "rounded_square",
                                      "kite", max_final_err=1e-2).failed

    check(failed(good_trace()) == 0,
          "a correct invert trace counted as failed")
    check(failed(good_trace(classification="sound_soft")) == 1,
          "a wrong classification did not count as failed")
    check(failed(good_trace(classification="inconclusive")) == 1,
          "an inconclusive classification did not count as failed")
    check(failed(good_trace(aborted=True)) == 1,
          "an aborted stage did not count as failed")
    check(failed(good_trace(err=0.02)) == 1,
          "a final error above the gate did not count as failed")

    # reciprocity on a 4x16 grid: u(x, d) = u(-d, -x) holds for f(x . d)
    ang = 2.0 * np.pi * np.arange(16) / 16
    ff = np.cos(np.subtract.outer(ang[::4], ang)) + 0j
    check(workloads.reciprocity_defect(ff) < 1e-12,
          "a reciprocal far field has a reciprocity defect")
    ff[1, 8] += 1e-3
    check(workloads.reciprocity_defect(ff) > workloads.RECIPROCITY_TOL,
          "a non-reciprocal far field passed the reciprocity check")

    sweep = workloads.make("forward_sweep", tiny=True)
    sweep.setup(1, None)
    sweep.solve_case = lambda *case: np.full((4, 16), np.nan + 0j)
    out = sweep.op()
    check(out.failed == out.attempted == len(sweep.cases),
          "non-finite far fields did not count as failed")


def check_tracer_targets():
    geometry = sys.modules["layerscat.geometry"]
    inverse = sys.modules["layerscat.inverse"]
    original = geometry.validate_pair
    gone = [("layerscat.no_such_module", "f", "x.f", None),
            ("layerscat.frechet", "no_such_function", "x.g", None)]
    spans = tracer.Tracer(tracer.TARGETS + gone)
    spans.install()
    try:
        check(inverse.validate_pair is not original,
              "a copied reference to a target was not wrapped")
    finally:
        spans.uninstall()
    check(spans.absent == ["layerscat.no_such_module.f",
                           "layerscat.frechet.no_such_function"],
          f"missing targets reported as {spans.absent}")
    check(geometry.validate_pair is original
          and inverse.validate_pair is original,
          "uninstall did not restore the wrapped functions")


def check_refuses_without_program():
    bare = Path(".perfbench_out") / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", "forward_sweep", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        check(done.returncode != 0, "ran without the program")
        check('"metrics"' not in done.stdout,
              "printed a result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    check_failure_counting()
    check_tracer_targets()
    check_refuses_without_program()
    check_printed_metrics(spec)
    for message in FAILURES:
        print(f"FAIL: {message}")
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
