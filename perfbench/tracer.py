"""Spans around layerscat's public functions, installed from outside.

The program is not edited: each target is looked up by name and every
reference to it in the loaded ``layerscat`` modules (``from .x import f``
copies included) is swapped for a wrapper that records one span per call
(name, start, end, parent) in memory.  A target that no longer exists is
reported as absent instead of failing the run, so the benchmark keeps
working while later changes delete or rename functions.

Every ``*_s`` metric is a self time (span duration minus its children),
so the metrics and the time outside every span add up to the traced wall
time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np


def _bessel_counts(args, kwargs):
    x = np.asarray(args[0] if args else kwargs["x"])
    return {"specfun.bessel_args": x.size,
            "specfun.large_args": int(np.count_nonzero(np.abs(x) > 8.0))}


def _blocks_name_counts(args, kwargs):
    target, source = args[0], args[1]
    same = target is source
    ops = sys.modules.get("layerscat.operators")
    oversample = 1 if same else getattr(ops, "CROSS_OVERSAMPLE", 1)
    name = "operators.same_blocks" if same else "operators.cross_blocks"
    return name, {"operators.kernel_entries":
                  target.size * source.size * oversample}


def _columns(args, kwargs):
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    shape = getattr(rhs, "shape", (0,))
    return {"forward.rhs_columns": shape[1] if len(shape) == 2 else 1}


def _jacobian_columns(args, kwargs):
    traces, directions = args[1], args[4]
    return {"frechet.columns": len(traces) * len(directions)}


# (module, attribute path, metric the span's self time goes to, counter hook)
# A hook returns {counter: amount} or (span name, {counter: amount}).
TARGETS = [
    ("layerscat.geometry", "validate_pair", "geometry.validate_pair", None),
    ("layerscat.geometry", "discretize", "geometry.discretize", None),
    ("layerscat.specfun", "bessel_j0j1y0y1", "specfun.bessel", _bessel_counts),
    ("layerscat.operators", "assemble_blocks", "operators.blocks",
     _blocks_name_counts),
    ("layerscat.operators", "assemble_farfield", "operators.farfield", None),
    ("layerscat.forward", "assemble_system", "forward.assemble_system", None),
    ("layerscat.forward", "TransmissionSystem.solve_stacked", "forward.solve",
     _columns),
    ("layerscat.forward", "TransmissionSystem.boundary_traces",
     "forward.traces", None),
    ("layerscat.forward", "TransmissionSystem.far_field", "forward.other", None),
    ("layerscat.forward", "plane_wave_data", "forward.other", None),
    ("layerscat.frechet", "jacobian", "frechet.jacobian", _jacobian_columns),
    ("layerscat.frechet", "derivative_far_field", "frechet.jacobian", None),
    ("layerscat.frechet", "canonical_directions", "frechet.jacobian", None),
    ("layerscat.frechet", "derivative_boundary_data", "frechet.rhs_build", None),
    ("layerscat.inverse", "multi_frequency_drive", "inverse.newton", None),
    ("layerscat.inverse", "newton_iteration", "inverse.newton", None),
    ("layerscat.inverse", "apply_step", "inverse.newton", None),
    ("layerscat.inverse", "relative_error", "inverse.newton", None),
    ("layerscat.inverse", "choose_beta", "inverse.choose_beta", None),
    ("layerscat.inverse", "lm_step", "inverse.lm_step", None),
    ("layerscat.data_io", "synthesize", "data_io.synthesize", None),
    ("layerscat.data_io", "read_dataset", "data_io.dataset_io", None),
    ("layerscat.data_io", "write_dataset", "data_io.dataset_io", None),
    ("layerscat.data_io", "read_config", "data_io.dataset_io", None),
    ("layerscat.data_io", "write_trace", "data_io.dataset_io", None),
    ("layerscat.data_io", "write_curve_csv", "data_io.dataset_io", None),
]

# A solve inside a Jacobian span is a Jacobian solve, not a forward solve.
JACOBIAN_SPAN = "frechet.jacobian"


def _resolve(module_name, path):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    owner, attr = obj, None
    for attr in path.split("."):
        owner, obj = obj, getattr(obj, attr, None)
        if obj is None:
            return None, None, None
    return owner, attr, obj


class Tracer:
    """Records spans as flat lists ``[name, start, end, parent, counts]``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._stack = []
        self._undo = []
        self._windows = []

    def _wrapper(self, fn, metric, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            name, counts = metric, None
            if hook is not None:
                try:
                    counts = hook(args, kwargs)
                except (IndexError, KeyError, TypeError, AttributeError):
                    counts = None  # signature changed: time it, count nothing
                if isinstance(counts, tuple):
                    name, counts = counts
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, counts]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[4] = dict(counts or {}, raised=1)
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Swap every reference to each target for a recording wrapper."""
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "layerscat" or name.startswith("layerscat.")]
        for module_name, path, metric, hook in self.targets:
            owner, attr, fn = _resolve(module_name, path)
            if fn is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrapper(fn, metric, hook)
            if "." in path:  # a method: patch the class
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, name, fn))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def window(self, fn):
        """Run ``fn`` as a traced window; returns (result, wall seconds)."""
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            self._windows.append((t0, time.perf_counter()))
        return result, self._windows[-1][1] - t0

    def metrics(self):
        """Self time per metric, counters, and per window the wall time
        that no span covers."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        under_jacobian = [False] * len(spans)
        self_s, counts = {}, {}
        for i, (name, start, end, parent, cnt) in enumerate(spans):
            if parent >= 0:
                under_jacobian[i] = (under_jacobian[parent]
                                     or spans[parent][0] == JACOBIAN_SPAN)
            if name == "forward.solve" and under_jacobian[i]:
                # its columns are already counted as frechet.columns
                name, cnt = "frechet.jacobian_solve", None
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            for key, amount in (cnt or {}).items():
                if key == "raised":
                    key = name + ".raised"
                counts[key] = counts.get(key, 0) + amount
        unaccounted = []
        for t0, t1 in self._windows:
            top = sum(end - start for _, start, end, parent, _ in spans
                      if parent < 0 and t0 <= start <= t1)
            unaccounted.append((t1 - t0) - top)
        return {"self_s": self_s, "counts": counts,
                "unaccounted_s": unaccounted}

    def dump(self, path):
        """Write the raw spans (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {"absent": self.absent,
               "spans": [{"name": n, "start": s - t0, "end": e - t0,
                          "parent": p, "counts": c}
                         for n, s, e, p, c in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
