"""Curve evaluation, discretization, spectral differentiation, the
geometry validity checks, closest approaches, and the one-pair memo of
the pair analysis."""

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
                                ParametricCurve, StarlikeShape, curve_is_simple,
                                discretize, discretize_pair,
                                spectral_derivative, validate_pair)
from layerscat.geometry import (_closest_approaches, _graded_node_maps,
                                _pair_node_maps, _points_in_polygon,
                                _points_in_star, _polyline_separation)

from _oracles import (closest_approaches, min_point_polyline_distance,
                      node_map_density, points_in_polygon, polylines_cross,
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
    for name in PRESETS:
        assert curve_is_simple(ParametricCurve.preset(name))


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
    """(reason, polylines, dmin) of the brute-force pair checks; reason
    None means accepted, dmin is None before the distance check."""
    for c in (outer, inner):
        try:
            c.shape.validate()
        except GeometryError:
            return "radius dips", None, None
    t = np.linspace(0.0, 2.0 * np.pi, n_check, endpoint=False)
    po, pi = outer.point(t), inner.point(t)
    if not np.all(points_in_polygon(pi, po)):
        return "not strictly inside", None, None
    dmin = min(min_point_polyline_distance(pi, po),
               min_point_polyline_distance(po, pi))
    if dmin < CONTAINMENT_MARGIN:
        return "too close", (po, pi), dmin
    if polylines_cross(po, pi):
        return "intersect", (po, pi), dmin
    return None, (po, pi), dmin


@pytest.mark.parametrize("n_check", [VALIDATION_GRID, 24])
def test_pair_checks_match_all_pairs_oracle(n_check):
    rng = np.random.default_rng(20121122)
    pairs = [_random_pair(rng) for _ in range(200)]
    pairs += [_spiked_pair(rng) for _ in range(10)]
    seen = collections.Counter()
    fallback_accepts = 0
    for outer, inner in pairs:
        reason, polylines, dmin = _all_pairs_check(outer, inner, n_check)
        seen[reason] += 1
        if reason is None:
            assert validate_pair(outer, inner, n_check=n_check) == dmin
        else:
            with pytest.raises(GeometryError, match=reason):
                validate_pair(outer, inner, n_check=n_check)
        if polylines is not None:
            sep, l_outer, l_inner = _polyline_separation(*polylines)
            assert sep == dmin
            if reason is None and 2.0 * dmin <= min(l_outer, l_inner):
                fallback_accepts += 1
    assert seen[None] >= 50 and sum(seen.values()) - seen[None] >= 50, seen
    assert seen["too close"] >= 1, seen
    if n_check == 24:
        # the margin is below L_max / 2, so the crossing test runs
        assert seen["intersect"] >= 1 and fallback_accepts >= 1, seen


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


def test_points_in_star_matches_ray_casting():
    # random points, and points on the rays through the vertices (sector
    # borders) away from the vertices themselves
    rng = np.random.default_rng(5)
    for n_check in (VALIDATION_GRID, 24):
        t = np.linspace(0.0, 2.0 * np.pi, n_check, endpoint=False)
        for _ in range(20):
            outer, _ = _random_pair(rng)
            center = rng.uniform(-0.2, 0.2, 2)
            shape = StarlikeShape(center, outer.shape.coeffs)
            r = shape.radius(t)
            poly = center + r[:, None] * np.stack([np.cos(t), np.sin(t)], -1)
            pts = rng.uniform(-3.0, 3.0, (600, 2))
            scale = rng.choice([0.5, 0.9, 1.1, 2.0], n_check)
            pts[:n_check] = center + (scale * r)[:, None] * np.stack(
                [np.cos(t), np.sin(t)], -1)
            assert np.array_equal(_points_in_star(pts, center, poly),
                                  points_in_polygon(pts, poly))


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
# One pair analysis per curve pair
# ---------------------------------------------------------------------------
@pytest.fixture
def table_builds(monkeypatch):
    """Count the distance-table builds (full pair analyses) from a
    cleared memo."""
    calls = []

    def counted(outer, inner):
        calls.append(None)  # holds no curve, so retention stays visible
        return _graded_node_maps(outer, inner)

    monkeypatch.setattr(geometry, "_graded_node_maps", counted)
    monkeypatch.setattr(geometry, "_last_pair", None)
    return calls


def test_same_shapes_hit_the_memo_and_new_shapes_miss(table_builds):
    outer, inner = _iterate_pair(30)
    maps = _pair_node_maps(outer, inner)
    assert len(table_builds) == 1 and maps[0] is not None
    # new ParametricCurve wrappers of the same shapes, as ShapeState.curves
    # builds them for every solve
    again = _pair_node_maps(ParametricCurve.starlike(outer.shape),
                            ParametricCurve.starlike(inner.shape))
    assert len(table_builds) == 1
    assert again[0] is maps[0] and again[1] is maps[1]
    # an equal but new shape is a new curve pair
    copy = StarlikeShape(inner.shape.center, inner.shape.coeffs)
    fresh = _pair_node_maps(outer, ParametricCurve.starlike(copy))
    assert len(table_builds) == 2 and fresh[1] is not maps[1]
    assert np.array_equal(fresh[1].weights, maps[1].weights)
    # presets are keyed by the curve object
    square, kite = (ParametricCurve.preset("rounded_square"),
                    ParametricCurve.preset("kite"))
    _pair_node_maps(square, kite)
    _pair_node_maps(square, kite)
    assert len(table_builds) == 3
    _pair_node_maps(square, ParametricCurve.preset("kite"))
    assert len(table_builds) == 4


def test_memo_retains_at_most_one_pair(table_builds):
    outer, inner = _iterate_pair(21)
    alive = weakref.ref(inner.shape)
    validate_pair(outer, inner)
    _pair_node_maps(outer, inner)
    other = _iterate_pair(30)
    _pair_node_maps(*other)
    assert all(a is b for a, b in zip(geometry._last_pair.key,
                                      (other[0].shape, other[1].shape)))
    del outer, inner
    gc.collect()
    assert alive() is None
    # a rejected pair leaves the slot alone
    bad = ParametricCurve.starlike(StarlikeShape((0.0, 0.0), [0.3, 0.4, 0.0]))
    with pytest.raises(GeometryError):
        validate_pair(other[0], bad)
    assert all(a is b for a, b in zip(geometry._last_pair.key,
                                      (other[0].shape, other[1].shape)))


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
    maps = _pair_node_maps(outer, inner)
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
    from layerscat.inverse import (ShapeState, SolverConfig,
                                   newton_iteration)

    pair_calls = []
    discretize_pair = geometry.discretize_pair

    def counted(outer, inner, n):
        pair_calls.append(n)
        return discretize_pair(outer, inner, n)

    config = SolverConfig(frequencies=(1.0,), num_incident=3,
                          max_iterations=2, n_synth=64)
    dataset = synthesize(ParametricCurve.preset("rounded_square"),
                         ParametricCurve.preset("kite"), 1e-6, config)
    table_builds.clear()
    import layerscat.forward as forward
    monkeypatch.setattr(forward, "discretize_pair", counted)
    it = next(i for i in ITERATES if i["m"] == 21)
    state = ShapeState(StarlikeShape((0.0, 0.0), it["r0_coeffs"]),
                       StarlikeShape(it["center1"], it["r1_coeffs"]),
                       lambda1=1e-3, tau1=1e3)
    state.validate_geometry()
    _, records = newton_iteration(state, dataset.values[0], 1.0, config)
    assert records[0].resolution_estimate is not None  # the ladder ran
    assert len(pair_calls) > len(records)
    assert 1 <= len(table_builds) <= len(records)
