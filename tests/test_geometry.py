"""Curve evaluation, discretization, spectral differentiation, the
geometry validity checks, closest approaches, and who keeps the pair
analysis: the Newton iterate, not geometry."""

import collections
import functools
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscat import geometry
from layerscat.errors import ConfigurationError, GeometryError
from layerscat.geometry import (CONTAINMENT_MARGIN, GRADING_OFF,
                                GRADING_SAMPLES, VALIDATION_GRID, NodeMap,
                                ParametricCurve, StarlikeShape, discretize,
                                discretize_pair,
                                spectral_derivative, validate_pair)
from layerscat.geometry import (_closest_approaches, _graded_node_maps,
                                _pair_node_maps, _points_in_polygon,
                                _polyline_separation)
from layerscat.inverse import ShapeState

from _oracles import (closest_approaches, curve_is_simple,
                      min_point_polyline_distance, node_map_density,
                      points_in_polygon, polylines_cross,
                      starlike_radius_derivatives)

PRESETS = ("apple", "kite", "rounded_square", "rounded_triangle")


def test_preset_point_values():
    tri = ParametricCurve.preset("rounded_triangle")
    assert np.allclose(tri.point(0.0), [2.3, 0.0], atol=1e-15)
    circ = ParametricCurve.preset("circle", radius=2.4)
    assert np.allclose(circ.point(np.pi / 2), [0.0, 2.4], atol=1e-15)
    kite = ParametricCurve.preset("kite")
    assert np.allclose(kite.point(np.pi), [-1.0, 0.0], atol=1e-14)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError):
        ParametricCurve.preset("pentagon")
    with pytest.raises(ConfigurationError):
        ParametricCurve.preset("circle")  # radius missing
    for radius in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="finite radius"):
            ParametricCurve.preset("circle", radius=radius)


def test_circle_discretization():
    g = discretize(ParametricCurve.preset("circle", radius=1.0), 8)
    assert g.size == 16
    assert np.max(np.abs(g.speed - 1.0)) < 1e-12
    assert np.max(np.abs(g.curvature - 1.0)) < 1e-12


def test_kite_speed_at_zero():
    g = discretize(ParametricCurve.preset("kite"), 32)
    # |x'(0)| = |(-0.65*2*sin0 - sin0, 1.5 cos0)| = 1.5
    assert abs(g.speed[0] - 1.5) < 1e-14


@pytest.mark.parametrize("name", PRESETS)
def test_normals_orthogonal_and_unit(name):
    g = discretize(ParametricCurve.preset(name), 64)
    assert np.max(np.abs(np.sum(g.normal * g.dx, axis=1))) < 1e-12
    assert np.max(np.abs(np.linalg.norm(g.normal, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("name", PRESETS)
def test_spectral_derivative_matches_analytic(name):
    g = discretize(ParametricCurve.preset(name), 64)
    dx = np.stack([spectral_derivative(g.x[:, 0]),
                   spectral_derivative(g.x[:, 1])], axis=-1)
    assert np.max(np.abs(dx - g.dx)) < 1e-10


def test_spectral_derivative_acts_on_columns():
    t = np.pi * np.arange(16) / 8
    cols = np.stack([np.cos(t), np.sin(3 * t), np.exp(1j * t)], axis=1)
    got = spectral_derivative(cols)
    for j in range(3):
        ref = spectral_derivative(cols[:, j])
        assert np.max(np.abs(got[:, j] - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_spectral_derivative_examples():
    t = np.pi * np.arange(16) / 8
    assert np.max(np.abs(spectral_derivative(np.cos(t)) + np.sin(t))) < 1e-12
    assert np.max(np.abs(spectral_derivative(np.ones(16)))) < 1e-14
    assert abs(spectral_derivative(np.sin(3 * t))[0] - 3.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=24),
       st.integers(min_value=0, max_value=3),
       st.floats(-2, 2), st.floats(-2, 2))
def test_spectral_derivative_exact_on_low_degree(n, mode, a, b):
    t = np.pi * np.arange(2 * n) / n
    m = min(mode, n - 1)
    v = a * np.cos(m * t) + b * np.sin(m * t)
    dv = -a * m * np.sin(m * t) + b * m * np.cos(m * t)
    assert np.max(np.abs(spectral_derivative(v) - dv)) < 1e-10


def test_starlike_radius_and_derivatives():
    s = StarlikeShape((0.5, -0.25), [1.0, 0.2, 0.0, -0.1, 0.05])
    theta = np.linspace(0, 2 * np.pi, 7)
    r, rp, rpp = s.radius_derivatives(theta)
    h = 1e-6
    rp_fd = (s.radius(theta + h) - s.radius(theta - h)) / (2 * h)
    assert np.max(np.abs(rp - rp_fd)) < 1e-8
    h = 1e-4
    rpp_fd = (s.radius(theta + h) - 2 * r + s.radius(theta - h)) / h**2
    assert np.max(np.abs(rpp - rpp_fd)) < 1e-6


@pytest.mark.parametrize("shape", [(), (1,), (512,), (3, 4), (0,)])
def test_starlike_radius_matches_mode_loop(shape):
    rng = np.random.default_rng(7)
    coeffs = np.concatenate([[2.0], 0.2 * rng.standard_normal(50)])
    theta = rng.uniform(-np.pi, 3 * np.pi, shape)
    got = StarlikeShape((0.1, 0.2), coeffs).radius_derivatives(theta)
    ref = starlike_radius_derivatives(coeffs, theta)
    for g, r in zip(got, ref):
        assert isinstance(g, np.ndarray) and g.shape == r.shape == shape
        if r.size:
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))
    circle = StarlikeShape.circle(1.5).radius_derivatives(theta)
    assert all(np.array_equal(v, np.full(shape, c))
               for v, c in zip(circle, (1.5, 0.0, 0.0)))


def test_points_in_polygon_matches_all_pairs():
    # vertices and points level with a vertex exercise the half-open
    # straddle rule; the decisions must be bit-identical
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    for _ in range(20):
        coeffs = np.concatenate([[2.0], 0.3 * rng.standard_normal(50)
                                 / np.repeat(np.arange(1, 26), 2) ** 0.5])
        poly = ParametricCurve.starlike(StarlikeShape((0.0, 0.0), coeffs)).point(t)
        pts = rng.uniform(-3.0, 3.0, (512, 2))
        pts[:10] = poly[:10]
        pts[10:20, 1] = poly[20:30, 1]
        assert np.array_equal(_points_in_polygon(pts, poly),
                              points_in_polygon(pts, poly))


def test_starlike_positivity_enforced():
    bad = StarlikeShape((0.0, 0.0), [0.3, 0.4, 0.0])  # dips to -0.1
    with pytest.raises(GeometryError):
        bad.validate()
    nearly = StarlikeShape((0.0, 0.0), [0.06, 0.02, 0.0])  # min 0.04 < floor
    with pytest.raises(GeometryError):
        nearly.validate()
    StarlikeShape((0.0, 0.0), [1.0, 0.3, 0.2]).validate()


def test_pair_grading_of_close_pair():
    # the kite passes 0.184 from the rounded square: both grids are graded
    outer = ParametricCurve.preset("rounded_square")
    inner = ParametricCurve.preset("kite")
    for g, curve in zip(discretize_pair(outer, inner, 128), (outer, inner)):
        assert g.node_map is not None
        assert np.array_equal(g.s, np.pi * np.arange(256) / 128)
        assert not np.allclose(g.t, g.s)
        assert np.allclose(g.x, curve.point(g.t), rtol=0, atol=1e-14)
        # dx, ddx are the s-derivatives of the sampled curve
        dx = np.stack([spectral_derivative(g.x[:, 0]),
                       spectral_derivative(g.x[:, 1])], axis=-1)
        assert np.max(np.abs(dx - g.dx)) < 1e-10
        ddx = np.stack([spectral_derivative(g.dx[:, 0]),
                        spectral_derivative(g.dx[:, 1])], axis=-1)
        assert np.max(np.abs(ddx - g.ddx)) < 1e-8
        # the map is periodic and strictly increasing
        s = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        t, dt, _ = g.node_map.evaluate(s)
        assert t[0] == 0.0 and np.all(dt > 0.0) and np.all(np.diff(t) > 0.0)
        t_next = g.node_map.evaluate(s + 2.0 * np.pi)[0]
        assert np.allclose(t_next, t + 2.0 * np.pi, rtol=0, atol=1e-13)
        assert np.allclose(g.dt, g.node_map.evaluate(g.s)[1], rtol=0,
                           atol=0)


@pytest.mark.parametrize("outer,inner", [
    (ParametricCurve.preset("rounded_triangle"), ParametricCurve.preset("apple")),
    (ParametricCurve.preset("circle", radius=2.0),
     ParametricCurve.preset("circle", radius=1.0)),
])
def test_pair_grids_of_separated_curves_are_equispaced(outer, inner):
    for g, curve in zip(discretize_pair(outer, inner, 64), (outer, inner)):
        ref = discretize(curve, 64)
        assert g.node_map is None
        for name in ("s", "t", "dt", "x", "dx", "ddx", "speed", "normal",
                     "curvature"):
            assert np.array_equal(getattr(g, name), getattr(ref, name)), name


def test_even_coefficient_count_rejected():
    with pytest.raises(ConfigurationError):
        StarlikeShape((0.0, 0.0), [1.0, 0.1])


def test_degenerate_curve_detected():
    # starlike "curve" collapsing to near-zero radius has tiny |x'|
    s = StarlikeShape((0.0, 0.0), [1e-12])
    with pytest.raises(GeometryError):
        discretize(ParametricCurve.starlike(s), 8)
    with pytest.raises(ConfigurationError):
        discretize(ParametricCurve.preset("apple"), 2)


def test_simplicity_check():
    # validate_pair takes the preset polylines as simple without a check
    for name in PRESETS:
        assert curve_is_simple(ParametricCurve.preset(name))
    for radius in (0.05, 1.0, 2.4, -1.5):
        assert curve_is_simple(ParametricCurve.preset("circle", radius=radius))
    # a limacon with an inner loop, r = 0.2 + cos(theta)
    looped = StarlikeShape((0.0, 0.0), [0.2, 1.0, 0.0])
    assert not curve_is_simple(ParametricCurve.starlike(looped))


def test_containment_of_example_pairings():
    validate_pair(ParametricCurve.preset("rounded_triangle"),
                  ParametricCurve.preset("apple"))
    validate_pair(ParametricCurve.preset("rounded_square"),
                  ParametricCurve.preset("kite"))


def test_containment_violations():
    apple = ParametricCurve.preset("apple")
    kite = ParametricCurve.preset("kite")
    inside = "not strictly inside the interface"
    with pytest.raises(GeometryError, match=inside):
        validate_pair(apple, kite)  # kite pokes far outside the apple
    # concentric circles too close for the margin
    with pytest.raises(GeometryError, match="too close"):
        validate_pair(ParametricCurve.preset("circle", radius=1.0),
                      ParametricCurve.preset("circle", radius=0.97))
    # an off-center circle cut by the interface: it reaches x = 1.4, so
    # nodes lie outside and containment rejects it before the crossing
    # test (test_pair_checks_match_all_pairs_oracle[24] covers a
    # rejection by the crossing test alone)
    s = StarlikeShape((0.9, 0.0), [0.5])
    with pytest.raises(GeometryError, match=inside):
        validate_pair(ParametricCurve.preset("circle", radius=1.2),
                      ParametricCurve.starlike(s))


def test_curves_immutable():
    g = discretize(ParametricCurve.preset("apple"), 16)
    with pytest.raises(ValueError):
        g.x[0, 0] = 0.0
    s = StarlikeShape((0.0, 0.0), [1.0])
    with pytest.raises(ValueError):
        s.coeffs[0] = 2.0


def test_non_finite_radius_rejected():
    coeffs = np.array([1.0, 0.1, np.nan, 0.0, 0.2])
    with pytest.raises(GeometryError, match="not finite"):
        StarlikeShape((0.0, 0.0), coeffs).validate()
    with pytest.raises(GeometryError, match="not finite"):
        StarlikeShape((0.0, np.inf), [1.0]).validate()
    with pytest.raises(GeometryError, match="not finite"):
        validate_pair(ParametricCurve.preset("circle", radius=2.0),
                      ParametricCurve.starlike(StarlikeShape((0.0, 0.0),
                                                             coeffs)))


def _random_pair(rng, modes=25):
    """Smooth random starlike pair: outer around the origin, inner at a
    random center; many pairs overlap, touch or dip below the floor."""
    l = np.arange(1, modes + 1, dtype=float)
    decay = np.concatenate([l, l]) ** -1.5
    outer = np.concatenate([[rng.uniform(1.5, 2.5)], rng.uniform(0.0, 0.6)
                            * decay * rng.standard_normal(2 * modes)])
    inner = np.concatenate([[rng.uniform(0.3, 1.2)], rng.uniform(0.0, 0.4)
                            * decay * rng.standard_normal(2 * modes)])
    return (ParametricCurve.starlike(StarlikeShape((0.0, 0.0), outer)),
            ParametricCurve.starlike(StarlikeShape(rng.uniform(-1, 1, 2),
                                                   inner)))


def _spiked_pair(rng, modes=25):
    """Outer circle of radius 2 with a narrow inward spike (a Fejer
    kernel) at a node of the 24-point grid, and an inner circle whose
    24-gon has the spike tip inside, between two of its vertices: at 24
    check points every inner vertex is inside and far enough, but the
    polylines cross."""
    n = modes + 1
    l = np.arange(1, n)
    phi = 2.0 * np.pi * rng.integers(24) / 24
    depth, rho = rng.uniform(0.6, 0.8), rng.uniform(1.45, 1.6)
    w = -depth * 2.0 * (1.0 - l / n) / n
    outer = np.concatenate([[2.0 - depth / n], w * np.cos(l * phi),
                            w * np.sin(l * phi)])
    tip = (2.0 - depth) * np.array([np.cos(phi), np.sin(phi)])
    axis = phi + np.pi / 24
    center = tip - (rho * np.cos(np.pi / 24) - rng.uniform(0.06, 0.1)) * \
        np.array([np.cos(axis), np.sin(axis)])
    inner = np.zeros(2 * modes + 1)
    inner[0] = rho
    return (ParametricCurve.starlike(StarlikeShape((0.0, 0.0), outer)),
            ParametricCurve.starlike(StarlikeShape(center, inner)))


def _all_pairs_check(outer, inner, n_check):
    """(reason, polylines, dmin, crosses) of the brute-force pair checks;
    reason None means accepted, dmin and crosses are None before the
    distance check."""
    for c in (outer, inner):
        try:
            c.shape.validate()
        except GeometryError:
            return "radius dips", None, None, None
    t = np.linspace(0.0, 2.0 * np.pi, n_check, endpoint=False)
    po, pi = outer.point(t), inner.point(t)
    if not np.all(points_in_polygon(pi, po)):
        return "not strictly inside", None, None, None
    dmin = min(min_point_polyline_distance(pi, po),
               min_point_polyline_distance(po, pi))
    crosses = polylines_cross(po, pi)
    if dmin < CONTAINMENT_MARGIN:
        return "too close", (po, pi), dmin, crosses
    if crosses:
        return "intersect", (po, pi), dmin, crosses
    return None, (po, pi), dmin, crosses


def _longest_segment(pts):
    return float(np.max(np.linalg.norm(np.roll(pts, -1, axis=0) - pts,
                                       axis=1)))


@pytest.mark.parametrize("n_check", [VALIDATION_GRID, 24])
def test_pair_checks_match_all_pairs_oracle(n_check, monkeypatch):
    # validate_pair checks on the VALIDATION_GRID
    monkeypatch.setattr(geometry, "VALIDATION_GRID", n_check)
    rng = np.random.default_rng(20121122)
    pairs = [_random_pair(rng) for _ in range(200)]
    pairs += [_spiked_pair(rng) for _ in range(10)]
    seen = collections.Counter()
    long_segment_accepts = 0
    for outer, inner in pairs:
        reason, polylines, dmin, crosses = _all_pairs_check(outer, inner,
                                                            n_check)
        seen[reason] += 1
        if reason is None:
            assert validate_pair(outer, inner) == dmin
        else:
            with pytest.raises(GeometryError, match=reason):
                validate_pair(outer, inner)
        if polylines is not None:
            assert _polyline_separation(*polylines) == (dmin, crosses)
            # accepted although a segment is at least twice the separation
            if reason is None and 2.0 * dmin <= min(
                    _longest_segment(p) for p in polylines):
                long_segment_accepts += 1
    assert seen[None] >= 50 and sum(seen.values()) - seen[None] >= 50, seen
    assert seen["too close"] >= 1, seen
    if n_check == 24:
        # the margin is below L / 2, so a crossing can hide behind it
        assert seen["intersect"] >= 1 and long_segment_accepts >= 1, seen


@pytest.mark.parametrize("q", [
    # d_v = 0.14, but the two crossings' endpoints are at least 2.76
    # apart: more than d_v + L / 2 and L / 2, less than L = 4
    [(1.9, -2.0), (2.1, -2.0), (2.1, 2.0), (3.9, 3.9), (1.9, 2.0)],
    # only the crossed square edge's end vertex (4, 0) is within L of q
    [(3.7, -2.0), (3.9, -2.0), (3.9, 2.0), (3.7, 2.0)],
])
def test_separation_finds_crossings_with_far_endpoints(q):
    square = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])
    q = np.array(q)
    assert polylines_cross(square, q)
    for p1, p2 in ((square, q), (q, square)):
        dmin, crosses = _polyline_separation(p1, p2)
        assert crosses is True
        assert dmin == min(min_point_polyline_distance(p1, p2),
                           min_point_polyline_distance(p2, p1))


# ---------------------------------------------------------------------------
# The trig-polynomial evaluator against per-mode sums
# ---------------------------------------------------------------------------
ITERATES = json.loads((Path(__file__).parent / "data"
                       / "hard_kite_iterates.json").read_text())["iterates"]


def _iterate_pair(m):
    """The curve pair of gate 6's Newton iterate m (tests/data)."""
    it = next(i for i in ITERATES if i["m"] == m)
    return (ParametricCurve.starlike(StarlikeShape((0.0, 0.0), it["r0_coeffs"])),
            ParametricCurve.starlike(StarlikeShape(it["center1"],
                                                   it["r1_coeffs"])))


@functools.lru_cache(maxsize=None)
def _graded_nodes():
    """Node parameters of both graded grids of the kite/square pair."""
    g0, g1 = discretize_pair(ParametricCurve.preset("rounded_square"),
                             ParametricCurve.preset("kite"), 64)
    return np.concatenate([g0.t, g1.t])


def _angles(rng, periods):
    """Graded node values shifted by ``periods`` turns, and uniform
    angles over several periods."""
    return np.concatenate([_graded_nodes() + 2.0 * np.pi * periods,
                           rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 200)])


def _assert_close(got, ref, rtol=1e-13):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0, 1, 25]), st.integers(0, 2**32 - 1),
       st.integers(-2, 2))
def test_radius_derivatives_match_mode_sums(modes, seed, periods):
    rng = np.random.default_rng(seed)
    l = np.tile(np.arange(1, modes + 1), 2)
    coeffs = np.concatenate([[rng.uniform(0.5, 3.0)],
                             rng.standard_normal(2 * modes) / l])
    shape = StarlikeShape(rng.uniform(-1.0, 1.0, 2), coeffs)
    theta = _angles(rng, periods)
    got = shape.radius_derivatives(theta)
    for g, r in zip(got, starlike_radius_derivatives(coeffs, theta)):
        _assert_close(g, r)
    assert np.array_equal(shape.radius(theta), got[0])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0, 1, 25]), st.integers(0, 3),
       st.integers(0, 2**32 - 1), st.integers(-2, 2))
def test_node_map_density_matches_mode_sums(modes, bumps, seed, periods):
    rng = np.random.default_rng(seed)
    base = 0.3 * rng.standard_normal(2 * modes) / np.tile(
        np.arange(1, modes + 1), 2)
    node_map = NodeMap(np.concatenate([[1.0], base[:modes]]), base[modes:],
                       rng.uniform(0.0, 2.0 * np.pi, bumps),
                       rng.uniform(0.02, 1.0, bumps),
                       rng.uniform(0.0, 2.0, bumps))
    t = _angles(rng, periods)
    for g, r in zip(node_map.density(t), node_map_density(node_map, t)):
        _assert_close(g, r)
    assert node_map.density(np.zeros(3))[0].tolist() == [0.0] * 3


def test_node_map_first_guess_table_is_built_once(monkeypatch):
    # only a map's first evaluate builds the 257-point table, one density
    # call on the 257 points
    maps = discretize_pair(ParametricCurve.preset("rounded_square"),
                           ParametricCurve.preset("kite"), 32)
    maps = [g.node_map for g in maps]
    fresh = [NodeMap(m.base_cos, m.base_sin, m.centers, m.widths, m.weights)
             for m in maps]
    calls = []
    density = NodeMap.density

    def counted(self, t):
        calls.append(np.size(t))
        return density(self, t)

    monkeypatch.setattr(NodeMap, "density", counted)
    s = np.pi * np.arange(256) / 64
    for node_map in fresh:
        calls.clear()
        first = node_map.evaluate(s)
        assert calls.count(257) == 1
        per_first = len(calls)
        calls.clear()
        second = node_map.evaluate(s)
        assert 257 not in calls and len(calls) == per_first - 1
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        table = np.linspace(0.0, 2.0 * np.pi, 257)
        assert np.array_equal(node_map._guess, density(node_map, table)[0])
    # an already used map gives the values of a fresh copy, bit for bit
    for used, new in zip(maps, fresh):
        for a, b in zip(used.evaluate(s + 0.1), new.evaluate(s + 0.1)):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Closest approaches against the one-candidate-at-a-time Newton loop
# ---------------------------------------------------------------------------
def _sample_distances(outer, inner):
    grid = 2.0 * np.pi * np.arange(GRADING_SAMPLES) / GRADING_SAMPLES
    p, q = outer.point(grid), inner.point(grid)
    return np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)


CLOSE_PAIRS = {
    "kite/rounded_square": lambda: (ParametricCurve.preset("rounded_square"),
                                    ParametricCurve.preset("kite")),
    "apple/rounded_triangle": lambda: (
        ParametricCurve.preset("rounded_triangle"),
        ParametricCurve.preset("apple")),
    **{f"iterate {m}": functools.partial(_iterate_pair, m)
       for m in (0, 12, 21, 30)},
    # samples of the outer circle away from the closest approach start
    # searches whose Newton steps exceed the 4 pi / m limit
    "offset circles": lambda: _offset_circles(1.6, 0.3),
}


def _offset_circles(radius, shift):
    return (ParametricCurve.starlike(StarlikeShape((0.0, 0.0), [2.0])),
            ParametricCurve.starlike(StarlikeShape((shift, 0.0), [radius])))


def _tied(dist):
    """``dist`` with the next row's minimum lowered to the smallest
    sampled distance: two neighbouring samples then start searches that
    end at the same closest approach."""
    dist = dist.copy()
    rows = np.min(dist, axis=1)
    j = int(np.argmin(rows))
    k = (j + 1) % dist.shape[0]
    dist[k, np.argmin(dist[k])] = rows[j]
    return dist


@pytest.mark.parametrize("tie", [False, True])
@pytest.mark.parametrize("name", CLOSE_PAIRS)
def test_closest_approaches_match_scalar_newton(name, tie):
    outer, inner = CLOSE_PAIRS[name]()
    dist = _sample_distances(outer, inner)
    tables = (_tied(dist), _tied(dist.T)) if tie else (dist, dist.T)
    for (curve, other), d in zip(((outer, inner), (inner, outer)), tables):
        got = _closest_approaches(curve, other, d)
        ref = closest_approaches(curve, other, d)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert np.max(np.abs(np.subtract(g, r))) <= 1e-12, (g, r)


# ---------------------------------------------------------------------------
# One pair analysis per Newton iterate, none kept by geometry
# ---------------------------------------------------------------------------
@pytest.fixture
def table_builds(monkeypatch):
    """Count the distance-table builds (full pair analyses)."""
    calls = []

    def counted(outer, inner):
        calls.append(None)  # holds no curve, so retention stays visible
        return _graded_node_maps(outer, inner)

    monkeypatch.setattr(geometry, "_graded_node_maps", counted)
    return calls


def _iterate_state(m):
    """Gate 6's Newton iterate m as a ShapeState."""
    outer, inner = _iterate_pair(m)
    return ShapeState(outer.shape, inner.shape, lambda1=1e-3)


def test_states_own_their_analyses_and_discretize_pair_does_not(
        table_builds):
    # two iterates alternate, as the resolution checks of two geometries
    calls = [(_iterate_state(21), 32), (_iterate_state(30), 48)] * 2
    grids = [state.grids(n) for state, n in calls]
    assert len(table_builds) == 2
    # the same calls through discretize_pair analyse every time, and give
    # the states' grids bit for bit
    table_builds.clear()
    for (state, n), ref in zip(calls, grids):
        for got, want in zip(discretize_pair(*state.curves(), n), ref):
            for name in ("t", "dt", "x", "dx", "ddx"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
    assert len(table_builds) == 4


def test_state_node_maps_are_freed_with_the_state(table_builds):
    state = _iterate_state(21)
    maps = state.node_maps
    assert maps[0] is not None and len(table_builds) == 1
    assert state.node_maps is maps and len(table_builds) == 1
    alive = weakref.ref(maps[0])
    del state, maps
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("n_check", [VALIDATION_GRID, 24])
def test_discretize_pair_ignores_validate_pair(n_check, monkeypatch):
    # no separation from validate_pair reaches the grading shortcut, not
    # even one measured on a coarse (24-point) validation grid
    monkeypatch.setattr(geometry, "VALIDATION_GRID", n_check)
    pairs = [_iterate_pair(21), CLOSE_PAIRS["kite/rounded_square"](),
             (ParametricCurve.preset("circle", radius=2.0),
              ParametricCurve.preset("circle", radius=1.0))]
    fresh = [discretize_pair(*pair, 32) for pair in pairs]
    for pair, ref in zip(pairs, fresh):
        for other in pairs:
            validate_pair(*other)
            for got, want in zip(discretize_pair(*pair, 32), ref):
                for name in ("t", "dt", "x", "dx", "ddx"):
                    assert np.array_equal(getattr(got, name),
                                          getattr(want, name))


@pytest.mark.parametrize("offset,skipped", [(0.51, False), (0.49, True)])
def test_separation_skip_matches_full_analysis(table_builds, offset, skipped):
    # a circle of radius 1 shifted by ``offset`` inside a circle of radius
    # 2 with a small wobble: separation about 2 - 1 - offset
    coeffs = np.zeros(51)
    coeffs[0], coeffs[3], coeffs[28] = 2.0, 0.002, -0.001
    outer = ParametricCurve.starlike(StarlikeShape((0.0, 0.0), coeffs))
    inner = ParametricCurve.starlike(StarlikeShape((offset, 0.0), [1.0]))
    separation = validate_pair(outer, inner)
    assert abs(separation - (1.0 - offset)) < 5e-3
    assert (separation >= GRADING_OFF) == skipped
    maps = _pair_node_maps(outer, inner, separation)
    assert len(table_builds) == (0 if skipped else 1)
    full = _graded_node_maps(outer, inner)
    assert (maps == (None, None)) == (full == (None, None)) == skipped
    for got, ref in zip(maps, full):
        if ref is not None:
            for name in ("base_cos", "base_sin", "centers", "widths",
                         "weights"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))


def test_one_table_build_per_newton_iterate(table_builds, monkeypatch):
    # gate 6's setup from its iterate 21 (separation 0.42, graded), cut
    # to two steps on a ladder with a resolution check at the start
    from layerscat.data_io import synthesize
    from layerscat.inverse import SolverConfig, newton_iteration

    grid_calls = []
    grids = ShapeState.grids

    def counted(state, n):
        grid_calls.append(n)
        return grids(state, n)

    config = SolverConfig(frequencies=(1.0,), num_incident=3,
                          max_iterations=2, n_synth=64)
    dataset = synthesize(ParametricCurve.preset("rounded_square"),
                         ParametricCurve.preset("kite"), 1e-6, config)
    table_builds.clear()
    monkeypatch.setattr(ShapeState, "grids", counted)
    state = _iterate_state(21)
    _, records = newton_iteration(state, dataset.values[0], 1.0, config)
    assert records[0].resolution_estimate is not None  # the ladder ran
    assert len(grid_calls) > len(records)
    assert 1 <= len(table_builds) <= len(records)
