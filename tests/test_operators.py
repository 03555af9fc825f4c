"""Operator blocks against circle eigenvalue oracles, brute-force
references, and the jump relations."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special as ssp

import layerscat.forward as forward
import layerscat.operators as operators
from layerscat.forward import (MediumParams, assemble_system,
                               observation_directions, plane_wave_data)
from layerscat.geometry import (ParametricCurve, StarlikeShape, discretize,
                                discretize_pair)
from layerscat.operators import (CROSS_PANEL_ENTRIES, _cross_oversample,
                                 _decimate, _differences, _log_4sin2,
                                 assemble_blocks, assemble_farfield)

from _oracles import (circle_double_layer_offset, circle_eigenvalues,
                      cross_blocks_fixed_q, evaluate_potential, hankel1_01,
                      kinds, trig_interpolation_matrix)


@pytest.mark.parametrize("radius,k,n", [(1.0, 2.0, 32), (2.4, 2.0, 32),
                                         (1.0, 1.6, 64), (0.5, 3.2, 32)])
def test_same_curve_blocks_match_circle_eigenvalues(radius, k, n):
    g = discretize(ParametricCurve.preset("circle", radius=radius), n)
    blocks = kinds(assemble_blocks(g, g, k))
    for m in range(0, 13):
        vec = np.exp(1j * m * g.t)
        s_eig, k_eig, t_eig = circle_eigenvalues(radius, k, m)
        for kind, eig in (("S", s_eig), ("K", k_eig), ("KT", k_eig),
                          ("T", t_eig)):
            err = np.max(np.abs(blocks[kind] @ vec - eig * vec))
            assert err < 1e-11, (kind, m, err)


def test_single_layer_constant_density_identity():
    # S[1] on the unit circle = (i pi / 2) J0(k) H0(k) at every node
    k = 2.0
    g = discretize(ParametricCurve.preset("circle", radius=1.0), 32)
    val = kinds(assemble_blocks(g, g, k))["S"] @ np.ones(g.size)
    expected = 0.5j * np.pi * ssp.jv(0, k) * ssp.hankel1(0, k)
    assert np.max(np.abs(val - expected)) < 1e-12


def test_double_layer_laplace_limit():
    # K[1] -> -1/2 as k -> 0 (Gauss identity), extrapolated in k^2
    g = discretize(ParametricCurve.preset("apple"), 64)
    ones = np.ones(g.size)
    vals = {}
    for k in (2e-3, 1e-3):
        vals[k] = kinds(assemble_blocks(g, g, k))["K"] @ ones
    assert np.max(np.abs(vals[1e-3] + 0.5)) < 1e-4
    # Richardson in k^2 sharpens the limit by two orders
    extrap = (4 * vals[1e-3] - vals[2e-3]) / 3.0
    assert np.max(np.abs(extrap + 0.5)) < 1e-6


def test_cross_block_against_brute_force():
    # well-separated circles; reference = trapezoid on a very fine grid
    k = 2.0
    g_t = discretize(ParametricCurve.preset("circle", radius=2.4), 24)
    g_s = discretize(ParametricCurve.preset("circle", radius=0.5), 16)
    block = kinds(assemble_blocks(g_t, g_s, k))["S"]
    dens = np.exp(np.cos(g_s.t))
    g_fine = discretize(ParametricCurve.preset("circle", radius=0.5), 2048)
    diff = g_t.x[:, None, :] - g_fine.x[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    ref_kernel = 0.25j * ssp.hankel1(0, k * r) * g_fine.speed[None, :]
    ref = (np.pi / 2048) * ref_kernel @ np.exp(np.cos(g_fine.t))
    assert np.max(np.abs(block @ dens - ref)) < 1e-12


def test_cross_block_on_graded_grids_against_brute_force():
    # the kite passes 0.184 from the rounded square, so both grids are
    # graded; the oversampled source grid must carry the kite's node map
    k = 2.0
    g_t, g_s = discretize_pair(ParametricCurve.preset("rounded_square"),
                               ParametricCurve.preset("kite"), 32)
    assert g_s.node_map is not None
    dens = np.exp(np.cos(g_s.t))
    g_fine = discretize(ParametricCurve.preset("kite"), 2048)
    diff = g_t.x[:, None, :] - g_fine.x[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    fine_dens = np.exp(np.cos(g_fine.t))
    blocks = kinds(assemble_blocks(g_t, g_s, k))
    h0, h1 = ssp.hankel1(0, k * r), ssp.hankel1(1, k * r)
    # (x - y) . nu at the source point y and at the target point x
    q = np.sum(diff * g_fine.normal[None, :, :], axis=-1)
    p = np.sum(diff * g_t.normal[:, None, :], axis=-1)
    nu_dot = g_t.normal @ g_fine.normal.T
    kernels = {
        "S": 0.25j * h0,
        "K": 0.25j * k * h1 * q / r,
        "KT": -0.25j * k * h1 * p / r,
        # d/dnu(x) of the K kernel, with d/dr (H1(kr)/r) = k H0/r - 2 H1/r^2
        "T": 0.25j * k * (k * h0 * p * q / r**2 - 2.0 * h1 * p * q / r**3
                          + h1 * nu_dot / r),
    }
    for kind, kern in kernels.items():
        ref = (np.pi / 2048) * (kern * g_fine.speed[None, :]) @ fine_dens
        err = np.max(np.abs(blocks[kind] @ dens - ref))
        assert err < 1e-12, (kind, err)


def test_block_shapes_and_finiteness():
    g0 = discretize(ParametricCurve.preset("rounded_triangle"), 16)
    g1 = discretize(ParametricCurve.preset("apple"), 12)
    b = blocks = kinds(assemble_blocks(g0, g1, 2.0))
    assert list(blocks) == ["S", "K", "KT", "T"]
    for b in blocks.values():
        assert b.shape == (32, 24)
        assert np.all(np.isfinite(b.view(float)))


def test_close_curves_warn():
    g0 = discretize(ParametricCurve.preset("circle", radius=1.0), 16)
    g1 = discretize(ParametricCurve.preset("circle", radius=0.97), 16)
    with pytest.warns(RuntimeWarning):
        assemble_blocks(g0, g1, 1.0)


@pytest.mark.parametrize("name,k,tol", [
    ("rounded_triangle", 2.0, 1e-11),
    ("rounded_triangle", 8.0, 1e-11),
    ("kite", 8.0, 1e-9),
    ("rounded_square", 8.0, 1e-8),
    ("apple", 6.4, 1e-7),
])
def test_same_curve_spectral_self_convergence(name, k, tol):
    # doubling the grid changes nothing above the density-resolution
    # floor of each shape (the apple's analyticity strip is narrowest)
    curve = ParametricCurve.preset(name)
    vals = {}
    for n in (64, 128):
        g = discretize(curve, n)
        dens = np.exp(np.cos(g.t)) + 1j * np.sin(2 * g.t)
        blocks = kinds(assemble_blocks(g, g, k))
        vals[n] = {kind: blocks[kind] @ dens for kind in blocks}
    for kind in vals[64]:
        err = np.max(np.abs(vals[128][kind][::2] - vals[64][kind]))
        assert err < tol, (kind, err)


def test_farfield_operator_constant_density():
    k0 = 2.0
    g = discretize(ParametricCurve.preset("circle", radius=1.0), 32)
    dirs = np.stack([np.cos([0.0, 1.3]), np.sin([0.0, 1.3])], axis=-1)
    pref = np.exp(0.25j * np.pi) / np.sqrt(8 * np.pi * k0)
    ones = np.ones(g.size)
    s_inf, k_inf = assemble_farfield(g, k0, dirs)
    assert np.max(np.abs(s_inf @ ones
                         - pref * 2 * np.pi * ssp.jv(0, k0))) < 1e-13
    # Jacobi-Anger: integral of -i k (xhat.nu) e^{-ik xhat.y} over the
    # unit circle equals -2 pi k J1(k)
    assert np.max(np.abs(k_inf @ ones
                         - pref * (-2 * np.pi) * k0 * ssp.jv(1, k0))) < 1e-13
    assert np.max(np.abs(s_inf @ np.zeros(g.size))) == 0.0


def test_farfield_prefactor_row():
    # one row must be exactly the prefactor times the phase samples
    k0 = 1.7
    g = discretize(ParametricCurve.preset("circle", radius=1.0), 8)
    d = np.array([[1.0, 0.0]])
    s_inf, k_inf = assemble_farfield(g, k0, d)
    pref = np.exp(0.25j * np.pi) / np.sqrt(8 * np.pi * k0)
    manual = pref * (np.pi / 8) * np.exp(-1j * k0 * g.x[:, 0]) * g.speed
    assert np.max(np.abs(s_inf[0] - manual)) < 1e-15
    # K_inf's row adds the normal derivative -i k0 (xhat . nu) of the phase
    manual_k = (-1j * k0) * g.normal[:, 0] * manual
    assert np.max(np.abs(k_inf[0] - manual_k)) < 1e-15


def test_double_layer_jump_relation():
    # D(x + h nu) - D(x - h nu) = phi + 2 h (T phi) + O(h^2); after
    # removing the known 2hT term, Richardson over h in
    # {0.8, 0.4, 0.2, 0.1} eliminates h^2..h^4 and recovers the jump phi
    k = 2.0
    radius = 1.0
    g = discretize(ParametricCurve.preset("circle", radius=radius), 64)
    m = 1
    phi = np.exp(1j * m * g.t)
    x0 = g.x[5]
    nu0 = g.normal[5]
    t_eig = circle_eigenvalues(radius, k, m)[2]

    def jump(h):
        up = evaluate_potential(g, k, x0 + h * nu0, phi, "double")[0]
        dn = evaluate_potential(g, k, x0 - h * nu0, phi, "double")[0]
        return up - dn - 2 * h * t_eig * phi[5]

    hs = np.array([0.8, 0.4, 0.2, 0.1])
    vals = np.array([jump(h) for h in hs])
    vander = np.stack([np.ones(4), hs**2, hs**3, hs**4], axis=1)
    extrap = np.linalg.solve(vander, vals)[0]
    assert abs(extrap - phi[5]) < 1e-4
    # cross-check the off-boundary values themselves against the
    # addition-theorem closed form
    val = evaluate_potential(g, k, x0 + 0.4 * nu0, phi, "double")[0]
    ref = circle_double_layer_offset(radius, k, m, 1.4) * np.exp(1j * m * g.t[5])
    assert abs(val - ref) < 1e-8


@pytest.mark.parametrize("n", [8, 32])
def test_decimation_is_the_transposed_interpolation(n):
    # folding fine-grid rows back onto 2n nodes equals multiplying by the
    # interpolation matrix from 2n to 2nq nodes, Nyquist split included
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((2, 5, 8 * n))
    expected = rows @ trig_interpolation_matrix(n, 4)
    got = _decimate(rows, n)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_log_term_is_cached_and_exact():
    g = discretize(ParametricCurve.preset("kite"), 16)
    sdiff = g.s[:, None] - g.s[None, :]
    direct = np.log(4.0 * np.sin(0.5 * sdiff) ** 2 + np.eye(g.size))
    np.fill_diagonal(direct, 0.0)
    cached = _log_4sin2(16)
    assert np.array_equal(cached, direct)
    assert cached is _log_4sin2(16) and not cached.flags.writeable


# ---------------------------------------------------------------------------
# Cross-curve oversampling chosen per block, against the fixed q = 4 oracle
# ---------------------------------------------------------------------------
ITERATES = {it["m"]: it for it in json.loads(
    (Path(__file__).parent / "data" / "hard_kite_iterates.json").read_text())
    ["iterates"]}


def _curves(name):
    """(outer, inner) curves of a named setup: two presets "outer/inner",
    gate 5's and gate 6's initial circles, or gate 6's iterate "m<k>"."""
    if name.startswith("m"):
        it = ITERATES[int(name[1:])]
        return (ParametricCurve.starlike(StarlikeShape((0.0, 0.0),
                                                       it["r0_coeffs"])),
                ParametricCurve.starlike(StarlikeShape(it["center1"],
                                                       it["r1_coeffs"])))
    if name == "init5":
        return (ParametricCurve.starlike(StarlikeShape.circle(2.4)),
                ParametricCurve.starlike(StarlikeShape.circle(0.5)))
    if name == "init6":
        return (ParametricCurve.starlike(StarlikeShape.circle(2.8)),
                ParametricCurve.starlike(StarlikeShape.circle(1.0,
                                                              (0.5, 0.0))))
    outer, inner = name.split("/")
    return ParametricCurve.preset(outer), ParametricCurve.preset(inner)


TRI, SQUARE = "rounded_triangle/apple", "rounded_square/kite"
# (setup, n, graded, k0): the rows of the per-block probe, both pairings of
# the forward benchmark at n = 128, and the forward solves of gates 2, 5, 6
CROSS_CASES = sorted(set(
    [(TRI, 32, False, 8.0), (SQUARE, 64, True, 7.0), ("m12", 32, True, 1.0),
     ("m21", 32, True, 1.0), ("m21", 64, True, 1.0), ("m30", 48, True, 1.0)]
    + [(TRI, 128, False, k0) for k0 in (2.0, 4.0, 6.0, 8.0)]
    + [(SQUARE, 128, False, k0) for k0 in (1.0, 3.0, 5.0, 7.0)]
    + [(TRI, 64, True, k0) for k0 in (2.0, 4.0, 6.0, 8.0)]
    + [(SQUARE, n, True, k0) for n in (64, 128) for k0 in (1.0, 3.0, 5.0, 7.0)]
    + [("init5", n, True, 2.0) for n in (32, 48, 64)]
    + [(name, n, True, 1.0) for name in ("init6", "m0", "m12", "m21", "m30")
       for n in (32, 48, 64)]))


def _far_fields(g0, g1, k0):
    """Far fields (3 incident, 64 observation directions) at lambda1 =
    1e-6 and 1e6 (the sound-hard and sound-soft stand-ins) from fresh
    blocks."""
    obs = observation_directions(64)
    out = []
    for lambda1 in (1e-6, 1e6):
        forward._last_blocks = None
        params = MediumParams.create(k0=k0, n1=0.64, lambda0=1.2,
                                     lambda1=lambda1)
        system = assemble_system(g0, g1, params)
        dens = system.solve(plane_wave_data(g0, g1, k0,
                                            observation_directions(3)))
        out.append(system.far_field(dens, obs))
    return np.stack(out)


@pytest.mark.parametrize("setup,n,graded,k0", CROSS_CASES)
def test_cross_blocks_match_fixed_q_oracle(monkeypatch, setup, n, graded, k0):
    outer, inner = _curves(setup)
    g0, g1 = (discretize_pair(outer, inner, n) if graded
              else (discretize(outer, n), discretize(inner, n)))
    assemble = forward.assemble_blocks
    same_curve = {}  # assembled once, shared by both runs

    def blocks(target, source, k):
        if target is not source:
            return assemble(target, source, k)
        key = (id(target), k)
        if key not in same_curve:
            same_curve[key] = assemble(target, source, k)
        return same_curve[key]

    def oracle_blocks(target, source, k):
        if target is source:
            return blocks(target, source, k)
        return cross_blocks_fixed_q(target, source, k)

    monkeypatch.setattr(forward, "assemble_blocks", blocks)
    got = _far_fields(g0, g1, k0)
    monkeypatch.setattr(forward, "assemble_blocks", oracle_blocks)
    ref = _far_fields(g0, g1, k0)
    forward._last_blocks = None
    err = (np.max(np.abs(got - ref), axis=(1, 2))
           / np.max(np.abs(ref), axis=(1, 2)))
    assert np.all(err <= 1e-12), err


def test_plain_block_is_the_source_grid_trapezoid(monkeypatch):
    # 2.4 / 0.5 circles are far apart for their spacing: q = 1 both ways,
    # no fine grid and no folding
    g0 = discretize(ParametricCurve.preset("circle", radius=2.4), 32)
    g1 = discretize(ParametricCurve.preset("circle", radius=0.5), 32)
    calls = []
    monkeypatch.setattr(operators, "discretize",
                        lambda *a: calls.append(a) or discretize(*a))
    k = 1.6
    for target, source in ((g0, g1), (g1, g0)):
        assert _cross_oversample(source, k, *_differences(target, source)) == 1
        blocks = kinds(assemble_blocks(target, source, k))
        diff = target.x[:, None, :] - source.x[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        h0, _ = hankel1_01(k * r)
        trap = 0.25j * h0 * (np.pi / source.n) * source.speed[None, :]
        assert (np.max(np.abs(blocks["S"] - trap))
                <= 1e-15 * np.max(np.abs(trap)))
        ref = kinds(cross_blocks_fixed_q(target, source, k, q=1))
        for kind, block in blocks.items():
            assert (np.max(np.abs(block - ref[kind]))
                    <= 1e-13 * np.max(np.abs(ref[kind]))), kind
    assert calls == []


@pytest.mark.parametrize("outer,inner,q01,q10", [
    ("rounded_triangle", "apple", 1, 1), ("rounded_square", "kite", 1, 3)])
def test_forward_benchmark_block_oversampling(outer, inner, q01, q10):
    # the pairs of the forward benchmark at n = 128 and every k0 it takes;
    # the square's side passes 1.99 source spacings from the kite, so its
    # block keeps q = 3 (q * ratio >= CROSS_DEPTH = 5.5)
    g0 = discretize(ParametricCurve.preset(outer), 128)
    g1 = discretize(ParametricCurve.preset(inner), 128)
    for k0 in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
        k1 = 0.8 * k0
        assert _cross_oversample(g1, k1, *_differences(g0, g1)) == q01
        assert _cross_oversample(g0, k1, *_differences(g1, g0)) == q10


def test_close_under_resolved_and_coarse_blocks_keep_more_nodes():
    circle = ParametricCurve.preset("circle", radius=1.0)
    # may come within the containment margin between source nodes
    g0 = discretize(circle, 16)
    g1 = discretize(ParametricCurve.preset("circle", radius=0.97), 16)
    assert _cross_oversample(g1, 1.0, *_differences(g0, g1)) == 4
    # the source's speed spectrum has not decayed (gate 6's iterate 21)
    g0, g1 = discretize_pair(*_curves("m21"), 32)
    assert _cross_oversample(g1, 1.0, *_differences(g0, g1)) == 4
    # far apart but few nodes per wavelength: q = 1 only for k max|dy| <= 0.75
    g0, g1 = discretize_pair(*_curves("init5"), 32)
    spacing = np.max(g0.speed) * np.pi / 32
    diffs = _differences(g1, g0)
    assert _cross_oversample(g0, 0.74 / spacing, *diffs) == 1
    assert _cross_oversample(g0, 0.76 / spacing, *diffs) == 2
    assert operators.CROSS_OVERSAMPLE == 4


# ---------------------------------------------------------------------------
# Cross blocks assembled in panels of target rows
# ---------------------------------------------------------------------------
@pytest.fixture
def panels(monkeypatch):
    """Count the target-row panels each cross block is evaluated in (the
    ``_kernels`` calls whose target and source grids differ)."""
    counts = []
    kernels = operators._kernels

    def counted(target, source, k, dx, dy, r, rows=slice(None)):
        if target is not source:
            counts.append(((id(target), id(source)), rows))
        return kernels(target, source, k, dx, dy, r, rows)

    monkeypatch.setattr(operators, "_kernels", counted)
    return counts


@pytest.mark.parametrize("setup,q", [("square->kite", 3), ("m21", 4),
                                     ("triangle->apple", 1)])
def test_cross_block_panels_are_exact(monkeypatch, panels, setup, q):
    # the forward benchmark's square -> kite block and gate 6's graded
    # iterate 21 (outer <- inner) at n = 128, and a plain (q = 1)
    # triangle -> apple block at n = 192, whose kept source-grid
    # differences are sliced per panel, span several panels, and equal
    # the one-panel assembly bit for bit
    if setup == "m21":
        target, source = discretize_pair(*_curves("m21"), 128)
        assert source.node_map is not None
    else:
        names = {"square->kite": ("rounded_square", "kite", 128),
                 "triangle->apple": ("rounded_triangle", "apple", 192)}
        outer, inner, n = names[setup]
        source = discretize(ParametricCurve.preset(outer), n)
        target = discretize(ParametricCurve.preset(inner), n)
    k = 0.8
    assert _cross_oversample(source, k, *_differences(target, source)) == q
    panelled = assemble_blocks(target, source, k)
    assert len(panels) >= 2
    panels.clear()
    monkeypatch.setattr(operators, "CROSS_PANEL_ENTRIES",
                        target.size * source.size * q)
    whole = assemble_blocks(target, source, k)
    assert len(panels) == 1
    assert panelled.tobytes() == whole.tobytes()
    for kind, block in kinds(panelled).items():
        assert block.tobytes() == kinds(whole)[kind].tobytes()


def test_inversion_blocks_are_one_panel(panels):
    # gate 6's resolutions stop at n = 64, where even a q = 4 block fits
    # the panel budget
    target, source = discretize_pair(*_curves("m21"), 64)
    assert target.size * source.size * 4 == CROSS_PANEL_ENTRIES
    assemble_blocks(target, source, 0.8)
    assert len(panels) == 1


def test_close_curves_warn_once_per_panelled_block(monkeypatch, panels):
    g0 = discretize(ParametricCurve.preset("circle", radius=1.0), 128)
    g1 = discretize(ParametricCurve.preset("circle", radius=0.97), 128)

    def close_warnings():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assemble_blocks(g0, g1, 1.0)
            assemble_blocks(g1, g0, 1.0)
        return [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]

    got = close_warnings()
    assert len({pair for pair, _ in panels}) == 2 and len(panels) >= 4
    assert len(got) == 2 and all("apart" in message for message in got)
    # the distance it names is the whole block's
    monkeypatch.setattr(operators, "CROSS_PANEL_ENTRIES", 2**30)
    assert close_warnings() == got
