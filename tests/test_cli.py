"""End-to-end CLI behavior and exit codes."""

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from layerscat.cli import _load_config, main
from layerscat.data_io import read_config, read_dataset, read_trace
from layerscat.inverse import SolverConfig

from _oracles import write_config


@pytest.fixture()
def small_config_path(tmp_path):
    cfg = SolverConfig(frequencies=(2.0,), num_incident=2, modes=3,
                       max_iterations=3, n_obs=16, n_solve=16, n_synth=24)
    path = tmp_path / "cfg.json"
    write_config(cfg, path)
    return path


def test_synth_deterministic(tmp_path, small_config_path, capsys):
    args = ["synth", "--config", str(small_config_path),
            "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
            "--truth-lambda1", "1e6", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "dataset.csv").read_bytes()
    b = (tmp_path / "b" / "dataset.csv").read_bytes()
    assert a == b


def test_synth_with_noise_uses_seed(tmp_path, small_config_path):
    args = ["synth", "--config", str(small_config_path),
            "--set", "delta=0.03",
            "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
            "--truth-lambda1", "1e6"]
    assert main(args + ["--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--seed", "6", "--out", str(tmp_path / "b")]) == 0
    da = read_dataset(tmp_path / "a" / "dataset.csv")
    db = read_dataset(tmp_path / "b" / "dataset.csv")
    assert da.delta == 0.03 and da.seed == 5
    assert not np.array_equal(da.values, db.values)


def test_invert_and_export_plot(tmp_path, small_config_path, capsys):
    out = tmp_path / "run"
    assert main(["synth", "--config", str(small_config_path),
                 "--truth-outer", "circle:2.2", "--truth-inner", "circle:0.7",
                 "--truth-lambda1", "3.0", "--out", str(out)]) == 0
    assert main(["invert", "--config", str(small_config_path),
                 "--data", str(out / "dataset.csv"),
                 "--init-r0", "2.0", "--init-r1", "0.8",
                 "--init-lambda1", "2.0", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "classification:" in captured
    doc = read_trace(out / "trace.json")
    assert len(doc["iterations"]) >= 1
    # the separation of each step's result; no step, no separation
    stepped = [r for r in doc["iterations"] if r["beta"] is not None]
    assert stepped and all(0.05 <= r["min_separation"] < 2.0 for r in stepped)
    assert all(r["min_separation"] is None
               for r in doc["iterations"] if r["beta"] is None)
    # n_solve = 16 is a one-rung ladder: no two-grid estimate is made
    assert all(r["n_solve"] == 16 and r["resolution_estimate"] is None
               for r in doc["iterations"])
    assert (out / "final_outer.csv").exists()
    assert main(["export-plot", "--trace", str(out / "trace.json"),
                 "--out", str(out / "plots")]) == 0
    n_iter = len(doc["iterations"])
    assert len(list((out / "plots").glob("*.csv"))) == 2 * n_iter


def test_export_plot_reads_trace_without_separation(tmp_path):
    # a trace written before iteration records carried min_separation,
    # n_solve and resolution_estimate
    record = {"k0": 2.0, "m": 0, "err": 0.5, "lambda1": 10.0, "tau1": 0.1,
              "form": "lambda", "r0_coeffs": [2.4, 0.1, 0.0],
              "r1_coeffs": [0.5, 0.0, 0.05], "center1": [0.1, 0.0],
              "beta": 0.125, "halvings": 0, "discrepancy_infeasible": False,
              "linearized_ratio": 0.8, "stopped": None}
    doc = {"iterations": [record, dict(record, m=1, stopped="max_iterations")],
           "stage_final": [[2.0, 0.5, 10.0, False]],
           "classification": "inconclusive"}
    path = tmp_path / "old_trace.json"
    path.write_text(json.dumps(doc))
    assert read_trace(path)["iterations"] == doc["iterations"]
    assert main(["export-plot", "--trace", str(path),
                 "--out", str(tmp_path / "plots")]) == 0
    assert len(list((tmp_path / "plots").glob("*.csv"))) == 4


def test_threads_flag_rejected(tmp_path, small_config_path, capsys):
    assert main(["synth", "--config", str(small_config_path), "--threads", "1",
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "1", "--out", str(tmp_path)]) == 1
    assert "--threads" in capsys.readouterr().err


def test_forward_writes_farfield(tmp_path, small_config_path):
    out = tmp_path / "fwd"
    assert main(["forward", "--config", str(small_config_path),
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "2.0", "--out", str(out)]) == 0
    ds = read_dataset(out / "farfield.csv")
    assert ds.values.shape == (1, 2, 16)
    assert np.all(np.isfinite(ds.values.view(float)))


def test_check_derivative_reports_small_error(tmp_path, small_config_path,
                                              capsys):
    assert main(["check-derivative", "--config", str(small_config_path),
                 "--init-r0", "2.0", "--init-r1", "0.8",
                 "--init-lambda1", "10"]) == 0
    out = capsys.readouterr().out
    assert "max relative column error" in out
    worst = float(out.strip().splitlines()[-1].split()[-2])
    assert worst < 1e-2


def test_unknown_flag_exits_one(capsys):
    assert main(["invert", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_preset_exits_one(capsys):
    assert main(["synth", "--truth-outer", "nope", "--truth-inner", "apple",
                 "--truth-lambda1", "1"]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["synth", "--truth-outer", "circle:abc", "--truth-inner", "apple",
      "--truth-lambda1", "1"], "--truth-outer"),
    (["synth", "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
      "--truth-lambda1", "1", "--set", "n_solve=abc"], "n_solve"),
    (["check-derivative", "--init-center", "a,b"], "--init-center"),
    (["check-derivative", "--init-center", "1,2,3"], "--init-center"),
    (["synth", "--truth-outer", "circle:nan", "--truth-inner", "apple",
      "--truth-lambda1", "1"], "--truth-outer"),
    (["export-plot", "--trace", "TRACE"], "r0_coeffs"),
    (["export-plot", "--trace", "TRACE_BAD"], "'ab'"),
], ids=["circle-radius", "set-value", "init-center-value",
        "init-center-count", "circle-radius-nan", "trace-record-key",
        "trace-record-value"])
def test_unreadable_input_exits_one(tmp_path, capsys, argv, named):
    # each is reported at its parse site, not as a Python exception
    record = {"k0": 2.0, "m": 0, "r1_coeffs": [0.5], "center1": [0.0, 0.0]}
    for name, rec in (("TRACE", record),
                      ("TRACE_BAD", dict(record, r0_coeffs="ab"))):
        (tmp_path / name).write_text(json.dumps(
            {"iterations": [rec], "stage_final": [],
             "classification": "inconclusive"}))
    argv = [str(tmp_path / a) if a.startswith("TRACE") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and named in err and "Traceback" not in err


@pytest.mark.parametrize("doc,named", [
    (5, "JSON object"),
    ({"iterations": 5, "stage_final": [], "classification": "inconclusive"},
     "'iterations' must be a list"),
    ({"iterations": [], "stage_final": {}, "classification": "inconclusive"},
     "'stage_final' must be a list"),
    ({"iterations": [], "stage_final": [], "classification": 5},
     "'classification' must be a str"),
], ids=["document", "iterations", "stage-final", "classification"])
def test_export_plot_rejects_mistyped_trace(tmp_path, capsys, doc, named):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert main(["export-plot", "--trace", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and named in err and "Traceback" not in err


def test_missing_config_key_exits_one(tmp_path, small_config_path, capsys):
    doc = json.loads(Path(small_config_path).read_text())
    doc.pop("rho")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["synth", "--config", str(bad),
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "1"]) == 1
    assert "rho" in capsys.readouterr().err


def test_set_overrides(tmp_path, small_config_path):
    out = tmp_path / "o"
    assert main(["synth", "--config", str(small_config_path),
                 "--set", "n_obs=8", "--set", "frequencies=1.0,2.0",
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "2.0", "--out", str(out)]) == 0
    ds = read_dataset(out / "dataset.csv")
    assert ds.values.shape == (2, 2, 8)
    assert main(["synth", "--set", "bogus_key=1",
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "2.0", "--out", str(out)]) == 1


def test_set_gives_every_field_the_type_of_its_default():
    fields = dataclasses.fields(SolverConfig)
    for f in fields:
        text = (",".join(map(str, f.default)) if isinstance(f.default, tuple)
                else str(f.default))
        config = _load_config(argparse.Namespace(config=None,
                                                 set=[f"{f.name}={text}"]))
        assert type(getattr(config, f.name)) is type(f.default), f.name
        assert getattr(config, f.name) == f.default, f.name
    config = _load_config(argparse.Namespace(
        config=None, set=["center_update_iterations=5", "k2=1.5"]))
    assert config.center_update_iterations == 5
    assert type(config.center_update_iterations) is int
    assert type(config.k2) is float


@pytest.mark.parametrize("outer,inner", [("circle:1", "circle:2"),
                                         ("apple", "kite")])
def test_invalid_truth_geometry_exits_one(tmp_path, small_config_path, capsys,
                                          outer, inner):
    out = tmp_path / "o"
    assert main(["synth", "--config", str(small_config_path),
                 "--truth-outer", outer, "--truth-inner", inner,
                 "--truth-lambda1", "2.0", "--out", str(out)]) == 1
    assert "input error" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


def test_invalid_initial_geometry_exits_one(tmp_path, small_config_path,
                                            capsys):
    out = tmp_path / "o"
    assert main(["synth", "--config", str(small_config_path),
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "2.0", "--out", str(out)]) == 0
    assert main(["invert", "--config", str(small_config_path),
                 "--data", str(out / "dataset.csv"),
                 "--init-r0", "1", "--init-r1", "2", "--out", str(out)]) == 1
    assert "input error" in capsys.readouterr().err
    assert not (out / "trace.json").exists()


def test_non_finite_truth_lambda1_exits_one(tmp_path, small_config_path,
                                            capsys):
    out = tmp_path / "o"
    assert main(["synth", "--config", str(small_config_path),
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "nan", "--out", str(out)]) == 1
    assert "lambda1 must be finite" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


def test_non_finite_initial_lambda1_exits_one(tmp_path, small_config_path,
                                              capsys):
    out = tmp_path / "o"
    assert main(["synth", "--config", str(small_config_path),
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "2.0", "--out", str(out)]) == 0
    assert main(["invert", "--config", str(small_config_path),
                 "--data", str(out / "dataset.csv"),
                 "--init-lambda1", "inf", "--out", str(out)]) == 1
    assert "lambda1 must be finite" in capsys.readouterr().err
    assert not (out / "trace.json").exists()


def test_negative_n1_exits_one(tmp_path, small_config_path, capsys):
    out = tmp_path / "o"
    assert main(["synth", "--config", str(small_config_path),
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "2.0", "--set", "n1=-0.64",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "n1 must be positive" in err
    assert not (out / "dataset.csv").exists()


def _shift_field(column, shift, rows=slice(None)):
    """An edit of dataset rows (lists of CSV fields) that adds ``shift``
    to field ``column`` of the rows ``rows``."""
    def edit(table):
        for row in table[rows]:
            row[column] = repr(float(row[column]) + shift)
    return edit


def _set_field(column, text):
    def edit(table):
        table[0][column] = text
    return edit


@pytest.mark.parametrize("edit,message", [
    (_set_field(4, "inf"), "line 2: non-finite field"),
    (_set_field(5, "nan"), "line 2: non-finite field"),
    (_shift_field(3, 0.1), "observation points are not"),
    (_shift_field(2, 0.1), "incident directions are not"),
    (_shift_field(2, 1e-9), "incident directions are not"),
    # the first row of d_index 2 (rows run k0, d_index, obs) only
    (_shift_field(2, 0.1, slice(16, 17)), "several d_angle_rad"),
], ids=["inf-sample", "nan-sample", "obs-angles-shifted",
        "incident-angles-shifted", "incident-angles-off-by-1e-9",
        "d-index-with-two-angles"])
def test_dataset_the_solver_cannot_use_exits_one(tmp_path, small_config_path,
                                                 capsys, edit, message):
    out = tmp_path / "o"
    assert main(["synth", "--config", str(small_config_path),
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "2.0", "--out", str(out)]) == 0
    path = out / "dataset.csv"
    header, *lines = path.read_text().splitlines()
    table = [line.split(",") for line in lines]
    assert [row[1] for row in table[15:17]] == ["1", "2"]
    edit(table)
    path.write_text("\n".join([header] + [",".join(r) for r in table]) + "\n")
    assert main(["invert", "--config", str(small_config_path),
                 "--data", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and message in err
    assert not (out / "trace.json").exists()


@pytest.mark.parametrize("key,value", [
    ("frequencies", 2.0), ("frequencies", []), ("frequencies", ["2.0"]),
    ("frequencies", [True, 2.0]), ("modes", "25"), ("modes", -1),
    ("rho", "0.8"), ("n_obs", 16.5), ("n_solve", True),
    ("max_iterations", None), ("delta", float("inf")), ("n1", float("nan")),
    ("lambda0", False), ("center_update_iterations", 2.5),
    ("center_update_iterations", "5"), ("k2", "k0"), ("k2", -1.0),
    ("k2", True), ("k2", None)])
def test_config_with_wrong_types_exits_one(tmp_path, small_config_path,
                                           capsys, key, value):
    doc = json.loads(Path(small_config_path).read_text())
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["synth", "--config", str(bad),
                 "--truth-outer", "circle:2.0", "--truth-inner", "circle:0.8",
                 "--truth-lambda1", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and key in err
    assert not (out / "dataset.csv").exists()


def test_configs_and_integral_reals_load():
    for path in sorted(Path(__file__).parents[1].glob("configs/*.json")):
        assert read_config(path).frequencies
    config = SolverConfig(delta=0, n1=1, frequencies=[1, 2.5], k2=3)
    assert config.delta == 0 and config.frequencies == (1.0, 2.5)
