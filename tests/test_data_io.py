"""Dataset generation, the seeded noise model, and all file formats."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscat.data_io import (Dataset, add_noise, read_config, read_dataset,
                               read_trace, splitmix64, standard_normals,
                               synthesize, write_config, write_curve_csv,
                               write_dataset, write_trace)
from layerscat.errors import ConfigurationError, DataFormatError
from layerscat.forward import MediumParams, observation_directions, \
    oracle_concentric_circles
from layerscat.geometry import ParametricCurve
from layerscat.inverse import (ReconstructionTrace, IterationRecord,
                               SolverConfig, discrete_l2_sq)


def _small_config(**kw):
    base = dict(frequencies=(2.0,), num_incident=2, n_obs=16, n_solve=16,
                n_synth=24, modes=2, max_iterations=2)
    base.update(kw)
    return SolverConfig(**base)


def test_splitmix64_is_counter_based():
    a = splitmix64(42, 0, 8)
    b = splitmix64(42, 4, 4)
    assert np.array_equal(a[4:], b)
    assert not np.array_equal(splitmix64(43, 0, 8), a)
    # frozen first outputs for seed 0 (cross-platform determinism)
    first = splitmix64(0, 0, 2)
    assert first[0] == np.uint64(16294208416658607535)
    assert first[1] == np.uint64(7960286522194355700)


def test_standard_normals_moments_and_determinism():
    z1 = standard_normals(7, 0, 4001)
    z2 = standard_normals(7, 0, 4001)
    assert np.array_equal(z1, z2)
    assert abs(np.mean(z1)) < 0.05
    assert abs(np.std(z1) - 1.0) < 0.05


def test_synthesize_matches_concentric_oracle():
    config = _small_config(n_synth=64, n_obs=64, num_incident=1)
    ds = synthesize(ParametricCurve.preset("circle", radius=2.0),
                    ParametricCurve.preset("circle", radius=1.0),
                    lambda1_true=2.0, config=config)
    params = MediumParams.create(k0=2.0, n1=0.64, lambda0=1.2, lambda1=2.0)
    oracle = oracle_concentric_circles(2.0, 1.0, params, np.array([1.0, 0.0]),
                                       observation_directions(64))
    assert np.max(np.abs(ds.values[0, 0] - oracle)) < 1e-6
    assert ds.values.shape == (1, 1, 64)


def test_synthesize_deterministic(tmp_path):
    config = _small_config()
    args = (ParametricCurve.preset("circle", radius=2.0),
            ParametricCurve.preset("circle", radius=0.8), 5.0, config)
    d1, d2 = synthesize(*args), synthesize(*args)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(d1, p1)
    write_dataset(d2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_noise_exact_ratio_and_determinism():
    config = _small_config()
    clean = synthesize(ParametricCurve.preset("circle", radius=2.0),
                       ParametricCurve.preset("circle", radius=0.8),
                       5.0, config)
    noisy = add_noise(clean, 0.03, seed=11)
    for qi in range(clean.values.shape[0]):
        for pi in range(clean.values.shape[1]):
            ratio = np.sqrt(
                discrete_l2_sq(noisy.values[qi, pi] - clean.values[qi, pi])
                / discrete_l2_sq(clean.values[qi, pi]))
            assert abs(ratio - 0.03) < 1e-14
    again = add_noise(clean, 0.03, seed=11)
    assert np.array_equal(noisy.values, again.values)
    other = add_noise(clean, 0.03, seed=12)
    assert not np.array_equal(noisy.values, other.values)
    # zero noise is bitwise the identity
    z = add_noise(clean, 0.0, seed=99)
    assert np.array_equal(z.values, clean.values)


@settings(max_examples=10, deadline=None)
@given(st.floats(1e-4, 0.5), st.integers(0, 2**32))
def test_noise_ratio_property(delta, seed):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((1, 1, 32)) + 1j * rng.standard_normal((1, 1, 32))
    ds = Dataset(frequencies=[1.0], incident_angles=[0.0],
                 obs_angles=2 * np.pi * np.arange(32) / 32, values=values)
    noisy = add_noise(ds, delta, seed)
    ratio = np.sqrt(discrete_l2_sq(noisy.values[0, 0] - values[0, 0])
                    / discrete_l2_sq(values[0, 0]))
    assert abs(ratio - delta) < 1e-13


def test_dataset_roundtrip(tmp_path):
    config = _small_config(frequencies=(1.0, 2.5))
    ds = synthesize(ParametricCurve.preset("circle", radius=2.0),
                    ParametricCurve.preset("circle", radius=0.8), 5.0, config)
    ds = add_noise(ds, 0.05, seed=3)
    path = tmp_path / "data.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.frequencies, ds.frequencies)
    assert np.array_equal(back.obs_angles, ds.obs_angles)
    assert np.array_equal(back.incident_angles, ds.incident_angles)
    assert back.delta == ds.delta and back.seed == ds.seed
    header = path.read_text().splitlines()[0]
    assert header == "k0,d_index,d_angle_rad,obs_angle_rad,re,im"


def test_dataset_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("wrong,header\n1,2\n")
    with pytest.raises(DataFormatError, match="line 1"):
        read_dataset(p)
    p.write_text("k0,d_index,d_angle_rad,obs_angle_rad,re,im\n1,1,0,0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_dataset(p)
    p.write_text("k0,d_index,d_angle_rad,obs_angle_rad,re,im\n"
                 "1,1,0,zero,1,2\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_dataset(p)
    p.write_text("k0,d_index,d_angle_rad,obs_angle_rad,re,im\n"
                 "1,1,0,0,1,2\n1,1,0,0,3,4\n")
    with pytest.raises(DataFormatError):
        read_dataset(p)


def test_config_roundtrip_and_key_errors(tmp_path):
    cfg = SolverConfig(frequencies=(1.0, 3.0, 5.0), modes=7, delta=0.03,
                       center_update_iterations=5)
    path = tmp_path / "cfg.json"
    write_config(cfg, path)
    assert read_config(path) == cfg

    doc = json.loads(path.read_text())
    doc.pop("rho")
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="rho"):
        read_config(bad)

    doc = json.loads(path.read_text())
    doc["extra_knob"] = 1
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="extra_knob"):
        read_config(bad)

    bad.write_text("not json {")
    with pytest.raises(DataFormatError):
        read_config(bad)


def test_trace_roundtrip(tmp_path):
    trace = ReconstructionTrace()
    trace.iterations.append(IterationRecord(
        k0=2.0, m=0, err=0.5, lambda1=10.0, tau1=0.1, form="tau",
        r0_coeffs=[2.4, 0.0], r1_coeffs=[0.5, 0.0], center1=[0.0, 0.0],
        beta=0.125, halvings=1, min_separation=1.25))
    trace.stage_final.append((2.0, 0.5, 10.0, False))
    trace.classification = "sound_soft"
    path = tmp_path / "trace.json"
    write_trace(trace, path)
    doc = read_trace(path)
    assert doc["classification"] == "sound_soft"
    assert doc["iterations"][0]["beta"] == 0.125
    assert doc["iterations"][0]["min_separation"] == 1.25
    assert doc["iterations"][0]["r0_coeffs"] == [2.4, 0.0]
    (tmp_path / "empty.json").write_text("{}")
    with pytest.raises(DataFormatError):
        read_trace(tmp_path / "empty.json")


def test_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(ParametricCurve.preset("circle", radius=2.0), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,x,y"
    assert len(lines) == 257
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 2.0, 0.0]
