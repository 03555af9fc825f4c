"""Command-line interface.

Subcommands:

* ``synth``            generate a synthetic far-field dataset from a truth
                       geometry (noise per the config's delta, seeded);
* ``forward``          compute and write far fields for a given geometry
                       at the solver resolution;
* ``invert``           run the multi-frequency reconstruction on a dataset;
* ``check-derivative`` compare analytic Jacobian columns against central
                       finite differences and print the worst error;
* ``export-plot``      expand a trace JSON into per-iteration curve CSVs.

Exit codes: 0 success, 1 input/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import data_io
from .errors import ConfigurationError, DataFormatError, LayerscatError
from .geometry import ParametricCurve, StarlikeShape
from .inverse import (ShapeState, SolverConfig, finite_difference_check,
                      multi_frequency_drive)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_curve(spec: str) -> ParametricCurve:
    """Parse 'apple' or 'circle:2.4' style curve specs."""
    name, _, arg = spec.partition(":")
    if name == "circle":
        if not arg:
            raise ConfigurationError("preset 'circle' needs a radius: circle:R")
        return ParametricCurve.preset("circle", radius=float(arg))
    if arg:
        raise ConfigurationError(f"preset {name!r} takes no parameter")
    return ParametricCurve.preset(name)


def _coerce(field_name: str, value: str):
    if field_name == "frequencies":
        return tuple(float(v) for v in value.split(",") if v)
    if field_name == "center_update_iterations":
        return None if value.lower() in ("none", "null", "always") else int(value)
    if field_name == "k2":
        return value if value == "k1" else float(value)
    if field_name in ("modes", "max_iterations", "num_incident",
                      "n_obs", "n_solve", "n_synth"):
        return int(value)
    return float(value)


def _load_config(args) -> SolverConfig:
    if args.config:
        config = data_io.read_config(args.config)
    else:
        config = SolverConfig()
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        if key not in {f.name for f in dataclasses.fields(SolverConfig)}:
            raise ConfigurationError(f"unknown config key {key!r}")
        overrides[key] = _coerce(key, value)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _initial_state(args, config: SolverConfig) -> ShapeState:
    center = (0.0, 0.0)
    if args.init_center:
        parts = args.init_center.split(",")
        if len(parts) != 2:
            raise ConfigurationError("--init-center expects 'x,y'")
        center = (float(parts[0]), float(parts[1]))
    return ShapeState.initial(r0=args.init_r0, r1=args.init_r1,
                              lambda1=args.init_lambda1,
                              modes=config.modes, center1=center)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_synth(args) -> int:
    config = _load_config(args)
    outer = _parse_curve(args.truth_outer)
    inner = _parse_curve(args.truth_inner)
    dataset = data_io.synthesize(outer, inner, args.truth_lambda1, config)
    if config.delta > 0.0:
        dataset = data_io.add_noise(dataset, config.delta, args.seed)
    out = _out_dir(args)
    path = out / "dataset.csv"
    data_io.write_dataset(dataset, path)
    print(f"wrote {path} ({dataset.values.size} samples, "
          f"delta={dataset.delta}, seed={dataset.seed})")
    return 0


def _cmd_forward(args) -> int:
    config = _load_config(args)
    config = dataclasses.replace(config, n_synth=config.n_solve)
    outer = _parse_curve(args.truth_outer)
    inner = _parse_curve(args.truth_inner)
    dataset = data_io.synthesize(outer, inner, args.truth_lambda1, config)
    out = _out_dir(args)
    path = out / "farfield.csv"
    data_io.write_dataset(dataset, path)
    print(f"wrote {path}")
    return 0


def _cmd_invert(args) -> int:
    config = _load_config(args)
    dataset = data_io.read_dataset(args.data)
    if dataset.values.shape[2] != config.n_obs:
        raise ConfigurationError(
            f"dataset has {dataset.values.shape[2]} observation points, "
            f"config expects {config.n_obs}")
    if dataset.values.shape[1] != config.num_incident:
        raise ConfigurationError(
            f"dataset has {dataset.values.shape[1]} incident directions, "
            f"config expects {config.num_incident}")
    state0 = _initial_state(args, config)
    state, trace = multi_frequency_drive(state0, dataset, config)
    out = _out_dir(args)
    data_io.write_trace(trace, out / "trace.json")
    c0, c1 = state.curves()
    data_io.write_curve_csv(c0, out / "final_outer.csv")
    data_io.write_curve_csv(c1, out / "final_inner.csv")
    for k0, err, lam, aborted in trace.stage_final:
        status = "aborted" if aborted else "ok"
        print(f"k0={k0:g}: Err={err:.4e} lambda1={lam:+.4e} [{status}]")
    print(f"classification: {trace.classification}")
    print(f"wrote {out / 'trace.json'}")
    return 0


def _cmd_check_derivative(args) -> int:
    config = _load_config(args)
    state = _initial_state(args, config)
    errors = finite_difference_check(state, config,
                                     k0=config.frequencies[0],
                                     step=args.step)
    worst = max(errors.items(), key=lambda kv: kv[1])
    for label, err in errors.items():
        print(f"{label:12s} rel err {err:.3e}")
    print(f"max relative column error: {worst[1]:.3e} ({worst[0]})")
    return 0


def _cmd_export_plot(args) -> int:
    doc = data_io.read_trace(args.trace)
    out = _out_dir(args)
    count = 0
    for rec in doc["iterations"]:
        tag = f"k{rec['k0']:g}_m{rec['m']:03d}"
        outer = StarlikeShape((0.0, 0.0), np.array(rec["r0_coeffs"]))
        inner = StarlikeShape(np.array(rec["center1"]),
                              np.array(rec["r1_coeffs"]))
        data_io.write_curve_csv(ParametricCurve.starlike(outer),
                                out / f"{tag}_outer.csv")
        data_io.write_curve_csv(ParametricCurve.starlike(inner),
                                out / f"{tag}_inner.csv")
        count += 2
    print(f"wrote {count} curve files to {out}")
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="solver config JSON path")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--out", help="output directory (default: cwd)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key")


def _add_truth(parser):
    parser.add_argument("--truth-outer", required=True,
                        help="outer truth curve, e.g. rounded_triangle or circle:2.4")
    parser.add_argument("--truth-inner", required=True,
                        help="buried truth curve, e.g. apple")
    parser.add_argument("--truth-lambda1", type=float, required=True,
                        help="truth transmission constant (large ~ sound-soft, "
                             "small ~ sound-hard)")


def _add_initial(parser):
    parser.add_argument("--init-r0", type=float, default=2.4,
                        help="initial interface circle radius")
    parser.add_argument("--init-r1", type=float, default=0.5,
                        help="initial buried circle radius")
    parser.add_argument("--init-center", default=None,
                        help="initial buried center 'x,y' (default origin)")
    parser.add_argument("--init-lambda1", type=float, default=10.0,
                        help="initial transmission constant (nonzero)")


def build_parser() -> _Parser:
    parser = _Parser(prog="layerscat",
                     description="Two-layer transmission scattering: forward "
                                 "solves and far-field shape reconstruction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    _add_common(p)
    _add_truth(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("forward", help="write far fields for a geometry")
    _add_common(p)
    _add_truth(p)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("invert", help="reconstruct from a dataset")
    _add_common(p)
    _add_initial(p)
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("check-derivative",
                       help="finite-difference check of the Jacobian")
    _add_common(p)
    _add_initial(p)
    p.add_argument("--step", type=float, default=1e-3,
                   help="central-difference step")
    p.set_defaults(func=_cmd_check_derivative)

    p = sub.add_parser("export-plot", help="trace JSON -> curve CSVs")
    _add_common(p)
    p.add_argument("--trace", required=True, help="trace JSON path")
    p.set_defaults(func=_cmd_export_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigurationError, DataFormatError, json.JSONDecodeError,
            FileNotFoundError) as exc:
        print(f"layerscat: input error: {exc}", file=sys.stderr)
        return 1
    except LayerscatError as exc:
        print(f"layerscat: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
