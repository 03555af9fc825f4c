"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout; without it the script exits with code 2 and prints no
result.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it records the environment.  See README.md here
for the workloads, the metrics and what each should move.
"""

import os

# One BLAS thread, fixed before numpy loads: two threads made ``invert``
# slower on a 2-core machine and changed results in the last digits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path("src").resolve()
OUT = Path(".perfbench_out")
SETUP_REPS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import layerscat.cli; "
                "print(time.perf_counter() - t)")

# (name, unit): end-to-end metrics, printed with --trace 0
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("step_s", "s"),
              ("steps", "count"), ("out_err", "1"), ("peak_rss_mb", "MB")]

# (name, unit): per-layer metrics, printed with --trace 1; the *_s ones
# are self times (see tracer.py)
PER_LAYER = [
    ("geometry.validate_pair_s", "s"),
    ("geometry.validate_calls", "count"),
    ("geometry.validate_accept_ratio", "1"),
    ("geometry.discretize_s", "s"),
    ("specfun.bessel_s", "s"),
    ("specfun.bessel_args", "count"),
    ("specfun.large_arg_frac", "1"),
    ("operators.same_blocks_s", "s"),
    ("operators.cross_blocks_s", "s"),
    ("operators.kernel_entries", "count"),
    ("operators.farfield_s", "s"),
    ("forward.assemble_system_s", "s"),
    ("forward.systems", "count"),
    ("forward.solve_s", "s"),
    ("forward.rhs_columns", "count"),
    ("forward.traces_s", "s"),
    ("forward.other_s", "s"),
    ("frechet.jacobian_s", "s"),
    ("frechet.rhs_build_s", "s"),
    ("frechet.jacobian_solve_s", "s"),
    ("frechet.columns", "count"),
    ("inverse.newton_s", "s"),
    ("inverse.choose_beta_s", "s"),
    ("inverse.lm_step_s", "s"),
    ("inverse.halvings", "count"),
    ("inverse.discrepancy_infeasible", "count"),
    ("inverse.final_err", "1"),
    ("inverse.shape_err_outer", "1"),
    ("inverse.shape_err_inner", "1"),
    ("data_io.synthesize_s", "s"),
    ("data_io.dataset_io_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.covered_frac", "1"),
    ("trace.spans", "count"),
    ("trace.absent", "count"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def environment():
    """Machine and library facts recorded next to every result."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas_name, "blas_version": blas_version,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def import_seconds(count):
    """Import time of the package in fresh interpreters, as a CLI pays it."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_untraced(wl, args, import_s, workdir):
    setups = []
    for _ in range(1 if args.tiny else SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    imports = [import_s] + import_seconds(0 if args.tiny else SETUP_REPS - 1)
    # closed loop: the next operation starts when the last one has ended,
    # and only if it is expected to end within the measuring window
    outcomes, start = [], time.perf_counter()
    while True:
        outcomes.append(wl.op())
        elapsed = time.perf_counter() - start
        if elapsed + _median([o.wall_s for o in outcomes]) > args.seconds:
            break
    metrics = {
        "setup_s": _median(imports) + _median(setups),
        "wall_s": _median([o.wall_s for o in outcomes]),
        "step_s": _median([o.wall_s / o.steps for o in outcomes if o.steps]),
        "steps": _median([o.steps for o in outcomes]),
        "out_err": _median([o.out_err for o in outcomes]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(json.dumps({"ops": len(outcomes), "setup_samples_s": setups,
                      "import_samples_s": imports,
                      "op_wall_s": [o.wall_s for o in outcomes],
                      "steps": [o.steps for o in outcomes],
                      "out_err": [o.out_err for o in outcomes],
                      "final_err": [o.final_err for o in outcomes],
                      "shape_err_outer": [o.shape_err_outer for o in outcomes],
                      "shape_err_inner": [o.shape_err_inner for o in outcomes]}))
    return outcomes, {name: metrics[name] for name, _ in END_TO_END}, END_TO_END


def run_traced(wl, args, workdir):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.window(lambda: wl.setup(args.seed, workdir))
    finally:
        tracer.uninstall()
    untraced = wl.op()
    tracer.install()
    try:
        traced, op_wall = tracer.window(wl.op)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    agg = tracer.metrics()
    counts = agg["counts"]
    calls = counts.get("geometry.validate_pair.calls", 0)
    values = {f"{name}_s": seconds for name, seconds in agg["self_s"].items()}
    values.update(counts)
    values.update({
        "geometry.validate_calls": calls,
        "geometry.validate_accept_ratio": _ratio(
            calls - counts.get("geometry.validate_pair.raised", 0), calls),
        "specfun.large_arg_frac": _ratio(counts.get("specfun.large_args", 0),
                                         counts.get("specfun.bessel_args", 0)),
        "forward.systems": counts.get("forward.assemble_system.calls", 0),
        "inverse.halvings": traced.halvings,
        "inverse.discrepancy_infeasible": traced.infeasible,
        "inverse.final_err": traced.final_err,
        "inverse.shape_err_outer": traced.shape_err_outer,
        "inverse.shape_err_inner": traced.shape_err_inner,
        "trace.overhead_s": op_wall - untraced.wall_s,
        "trace.unaccounted_s": agg["unaccounted_s"][-1],
        "trace.covered_frac": 1.0 - agg["unaccounted_s"][-1] / op_wall,
        "trace.spans": len(tracer.spans),
        "trace.absent": len(tracer.absent),
    })
    metrics = {name: values.get(name, 0) for name, _ in PER_LAYER}
    print(json.dumps({"traced_op_s": op_wall, "untraced_op_s": untraced.wall_s,
                      "setup_unaccounted_s": agg["unaccounted_s"][0],
                      "absent": tracer.absent}))
    return [untraced, traced], metrics, PER_LAYER


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (for selftest.py)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "layerscat" / "__init__.py").is_file():
        print(f"run.py: no program at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import layerscat.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads
    if args.workload not in workloads.NAMES:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, tiny=args.tiny)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            outcomes, metrics, units = run_traced(wl, args, workdir)
        else:
            outcomes, metrics, units = run_untraced(wl, args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    reasons = collections.Counter(r for o in outcomes for r in o.reasons)
    for reason, times in reasons.items():
        print(f"check failed ({times}x): {reason}", file=sys.stderr)
    print(json.dumps({"env": environment(),
                      "failed_frac": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
