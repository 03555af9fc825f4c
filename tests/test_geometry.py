"""Curve evaluation, discretization, spectral differentiation, and the
geometry validity checks."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscat.errors import ConfigurationError, GeometryError
from layerscat.geometry import (CONTAINMENT_MARGIN, VALIDATION_GRID,
                                ParametricCurve, StarlikeShape, curve_is_simple,
                                discretize, discretize_pair,
                                spectral_derivative, validate_pair)
from layerscat.geometry import _points_in_polygon, _polyline_separation

from _oracles import (min_point_polyline_distance, points_in_polygon,
                      polylines_cross, starlike_radius_derivatives)

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
