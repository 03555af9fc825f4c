"""Synthetic datasets, noise injection, and file formats.

Synthetic far fields are generated on a finer grid (n_synth) than the
inversion uses (n_solve) to avoid the inverse crime.  Noise is complex
Gaussian per (frequency, incident-direction) column, rescaled so the
discrete-L2 perturbation ratio equals delta exactly; all randomness
comes from a cross-platform counter-based generator (SplitMix64 output
function fed by seed + index, mapped to normals via Box-Muller), so a
seed fully determines the dataset bytes.

Files:
* dataset CSV with header ``k0,d_index,d_angle_rad,obs_angle_rad,re,im``
  (one row per sample, 17 significant digits, LF endings) plus a
  ``<name>.meta.json`` sidecar carrying the noise ratio and seed;
* solver config as a flat JSON object with exactly the SolverConfig
  fields (missing or unknown keys are rejected);
* reconstruction traces as JSON with per-iteration arrays, plus
  ``theta,x,y`` curve CSVs sampled at 256 points for plotting.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .forward import observation_directions, solve_on_grids
from .geometry import ParametricCurve, discretize_pair, validate_pair
from .inverse import ReconstructionTrace, SolverConfig, discrete_l2_sq

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, start: int, count: int):
    """Counter-based 64-bit stream: output i is the SplitMix64 mix of
    seed + (start + i + 1) * golden gamma.  Stateless and platform
    independent."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def standard_normals(seed: int, start: int, count: int):
    """Box-Muller normals from the counter stream.

    Consumes 2*ceil(count/2) counter values beginning at ``start``.
    """
    pairs = (count + 1) // 2
    words = splitmix64(seed, start, 2 * pairs)
    u = ((words >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u1, u2 = u[0::2], u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(2.0 * np.pi * u2)
    z[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return z[:count]


@dataclasses.dataclass
class Dataset:
    """Far-field samples indexed (frequency, incident direction,
    observation direction)."""

    frequencies: np.ndarray
    incident_angles: np.ndarray
    obs_angles: np.ndarray
    values: np.ndarray  # complex (Q, P, n_obs)
    delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.incident_angles = np.asarray(self.incident_angles, dtype=float)
        self.obs_angles = np.asarray(self.obs_angles, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        q, p, n = (len(self.frequencies), len(self.incident_angles),
                   len(self.obs_angles))
        if self.values.shape != (q, p, n):
            raise DataFormatError(
                f"far-field array shape {self.values.shape} != {(q, p, n)}")
        if self.delta < 0.0:
            raise DataFormatError("noise ratio must be nonnegative")


def synthesize(curve0: ParametricCurve, curve1: ParametricCurve,
               lambda1_true: float, config: SolverConfig) -> Dataset:
    """Clean synthetic far fields on the fine (n_synth) discretization.

    ``lambda1_true`` is the transmission constant of the truth medium;
    very large / very small values stand in for sound-soft / sound-hard
    buried obstacles.  The truth pair must pass ``validate_pair``
    (GeometryError otherwise).
    """
    validate_pair(curve0, curve1)
    grids = discretize_pair(curve0, curve1, config.n_synth)
    inc = observation_directions(config.num_incident)
    obs = observation_directions(config.n_obs)
    values = np.stack([
        solve_on_grids(*grids, config.medium(k0, lambda1_true), inc, obs)[0].T
        for k0 in config.frequencies])
    ang = 2.0 * np.pi * np.arange(config.num_incident) / config.num_incident
    return Dataset(frequencies=np.asarray(config.frequencies),
                   incident_angles=ang,
                   obs_angles=2.0 * np.pi * np.arange(config.n_obs) / config.n_obs,
                   values=values, delta=0.0, seed=0)


def add_noise(dataset: Dataset, delta: float, seed: int) -> Dataset:
    """Perturb each (frequency, incident) column so that
    ||u_delta - u|| = delta ||u|| exactly in the discrete L2 norm.

    Columns consume the counter stream in (frequency, incident) order,
    2*n_obs normals each, so datasets are reproducible bit for bit.
    """
    if delta < 0.0:
        raise DataFormatError("delta must be nonnegative")
    values = dataset.values.copy()
    if delta > 0.0:
        q, p, n_obs = values.shape
        offset = 0
        for qi in range(q):
            for pi in range(p):
                z = standard_normals(seed, offset, 2 * n_obs)
                offset += 2 * n_obs
                zeta = z[0::2] + 1j * z[1::2]
                u = values[qi, pi]
                ratio = np.sqrt(discrete_l2_sq(u) / discrete_l2_sq(zeta))
                values[qi, pi] = u + delta * zeta * ratio
    return Dataset(frequencies=dataset.frequencies.copy(),
                   incident_angles=dataset.incident_angles.copy(),
                   obs_angles=dataset.obs_angles.copy(),
                   values=values, delta=float(delta), seed=int(seed))


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------
_DATASET_HEADER = "k0,d_index,d_angle_rad,obs_angle_rad,re,im"


def _meta_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".meta.json") if p.suffix != ".csv" \
        else p.with_suffix(".meta.json")


def write_dataset(dataset: Dataset, path):
    """Write the CSV (one row per sample) and the delta/seed sidecar."""
    lines = [_DATASET_HEADER]
    for qi, k0 in enumerate(dataset.frequencies):
        for pi, dang in enumerate(dataset.incident_angles):
            for oi, oang in enumerate(dataset.obs_angles):
                v = dataset.values[qi, pi, oi]
                lines.append(
                    f"{k0:.17g},{pi + 1},{dang:.17g},{oang:.17g},"
                    f"{v.real:.17g},{v.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
    _meta_path(path).write_text(
        json.dumps({"delta": dataset.delta, "seed": dataset.seed}) + "\n",
        encoding="utf-8", newline="\n")


def read_dataset(path) -> Dataset:
    """Parse a dataset CSV (and sidecar, if present) back losslessly."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0].strip() != _DATASET_HEADER:
        raise DataFormatError(
            f"{path}: line 1: expected header {_DATASET_HEADER!r}")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 6:
            raise DataFormatError(
                f"{path}: line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            k0 = float(parts[0])
            d_index = int(parts[1])
            dang, oang, re, im = map(float, parts[2:])
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: line {lineno}: {exc}") from exc
        if not np.all(np.isfinite((k0, dang, oang, re, im))):
            raise DataFormatError(f"{path}: line {lineno}: non-finite field")
        rows.append((k0, d_index, dang, oang, re, im))

    freqs = sorted({r[0] for r in rows})
    d_indices = sorted({r[1] for r in rows})
    d_angles = sorted({r[1:3] for r in rows})  # (d_index, d_angle_rad)
    obs_angles = sorted({r[3] for r in rows})
    q, p, n = len(freqs), len(d_indices), len(obs_angles)
    if len(rows) != q * p * n or d_indices != list(range(1, p + 1)):
        raise DataFormatError(
            f"{path}: rows do not form a full (k0, d_index, obs) grid")
    if len(d_angles) != p:
        raise DataFormatError(f"{path}: a d_index has several d_angle_rad")
    fpos = {f: i for i, f in enumerate(freqs)}
    opos = {a: i for i, a in enumerate(obs_angles)}
    values = np.full((q, p, n), np.nan + 0j)
    for k0, d_index, dang, oang, re, im in rows:
        values[fpos[k0], d_index - 1, opos[oang]] = re + 1j * im
    if np.any(np.isnan(values)):
        raise DataFormatError(f"{path}: duplicate or missing grid entries")

    delta, seed = 0.0, 0
    meta = _meta_path(path)
    if meta.exists():
        try:
            md = json.loads(meta.read_text(encoding="utf-8"))
            delta, seed = float(md["delta"]), int(md["seed"])
        except (ValueError, KeyError) as exc:
            raise DataFormatError(f"{meta}: malformed sidecar: {exc}") from exc
    return Dataset(frequencies=np.array(freqs),
                   incident_angles=np.array([a for _, a in d_angles]),
                   obs_angles=np.array(obs_angles), values=values,
                   delta=delta, seed=seed)


# ---------------------------------------------------------------------------
# Config JSON
# ---------------------------------------------------------------------------
def read_config(path) -> SolverConfig:
    """Load a config document; every SolverConfig key is required and
    unknown keys are rejected."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: config must be a JSON object")
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    missing = known - doc.keys()
    if missing:
        raise ConfigurationError(
            f"{path}: missing required config key(s): {', '.join(sorted(missing))}")
    unknown = doc.keys() - known
    if unknown:
        raise ConfigurationError(
            f"{path}: unknown config key(s): {', '.join(sorted(unknown))}")
    return SolverConfig(**doc)


# ---------------------------------------------------------------------------
# Trace JSON and plot CSVs
# ---------------------------------------------------------------------------
def write_trace(trace: ReconstructionTrace, path):
    Path(path).write_text(json.dumps(trace.to_dict(), indent=1) + "\n",
                          encoding="utf-8", newline="\n")


def read_trace(path) -> dict:
    """Load a trace document: a JSON object with the lists ``iterations``
    and ``stage_final`` and the string ``classification``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: trace must be a JSON object")
    for key, kind in (("iterations", list), ("stage_final", list),
                      ("classification", str)):
        if key not in doc:
            raise DataFormatError(f"{path}: trace missing key {key!r}")
        if not isinstance(doc[key], kind):
            raise DataFormatError(
                f"{path}: trace key {key!r} must be a {kind.__name__}")
    return doc


def write_curve_csv(curve: ParametricCurve, path, samples: int = 256):
    """theta,x,y samples of a closed curve, for plotting."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    pts = curve.point(theta)
    lines = ["theta,x,y"]
    lines += [f"{t:.17g},{p[0]:.17g},{p[1]:.17g}" for t, p in zip(theta, pts)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")
