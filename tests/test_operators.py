"""Operator blocks against circle eigenvalue oracles, brute-force
references, and the jump relations."""

import numpy as np
import pytest
from scipy import special as ssp

from layerscat.geometry import ParametricCurve, discretize, discretize_pair
from layerscat.errors import SolverError
from layerscat.operators import (_decimate, _log_4sin2, assemble_blocks,
                                 assemble_farfield)

from _oracles import (circle_double_layer_offset, circle_eigenvalues,
                      evaluate_potential, trig_interpolation_matrix)


@pytest.mark.parametrize("radius,k,n", [(1.0, 2.0, 32), (2.4, 2.0, 32),
                                         (1.0, 1.6, 64), (0.5, 3.2, 32)])
def test_same_curve_blocks_match_circle_eigenvalues(radius, k, n):
    g = discretize(ParametricCurve.preset("circle", radius=radius), n)
    blocks = assemble_blocks(g, g, k)
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
    val = assemble_blocks(g, g, k, ("S",))["S"] @ np.ones(g.size)
    expected = 0.5j * np.pi * ssp.jv(0, k) * ssp.hankel1(0, k)
    assert np.max(np.abs(val - expected)) < 1e-12


def test_double_layer_laplace_limit():
    # K[1] -> -1/2 as k -> 0 (Gauss identity), extrapolated in k^2
    g = discretize(ParametricCurve.preset("apple"), 64)
    ones = np.ones(g.size)
    vals = {}
    for k in (2e-3, 1e-3):
        vals[k] = assemble_blocks(g, g, k, ("K",))["K"] @ ones
    assert np.max(np.abs(vals[1e-3] + 0.5)) < 1e-4
    # Richardson in k^2 sharpens the limit by two orders
    extrap = (4 * vals[1e-3] - vals[2e-3]) / 3.0
    assert np.max(np.abs(extrap + 0.5)) < 1e-6


def test_cross_block_against_brute_force():
    # well-separated circles; reference = trapezoid on a very fine grid
    k = 2.0
    g_t = discretize(ParametricCurve.preset("circle", radius=2.4), 24)
    g_s = discretize(ParametricCurve.preset("circle", radius=0.5), 16)
    block = assemble_blocks(g_t, g_s, k, ("S",))["S"]
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
    blocks = assemble_blocks(g_t, g_s, k)
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
    b = assemble_blocks(g0, g1, 2.0, ("K",))["K"]
    assert b.shape == (32, 24)
    assert np.all(np.isfinite(b.view(float)))


def test_close_curves_warn():
    g0 = discretize(ParametricCurve.preset("circle", radius=1.0), 16)
    g1 = discretize(ParametricCurve.preset("circle", radius=0.97), 16)
    with pytest.warns(RuntimeWarning):
        assemble_blocks(g0, g1, 1.0, ("S",))


def test_unknown_kind_raises():
    g = discretize(ParametricCurve.preset("circle", radius=1.0), 8)
    with pytest.raises(SolverError, match="unknown operator kind"):
        assemble_blocks(g, g, 1.0, ("S", "D"))


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
        blocks = assemble_blocks(g, g, k)
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
    s_inf = assemble_farfield(g, k0, dirs, "S_inf")
    assert np.max(np.abs(s_inf @ ones
                         - pref * 2 * np.pi * ssp.jv(0, k0))) < 1e-13
    k_inf = assemble_farfield(g, k0, dirs, "K_inf")
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
    s_inf = assemble_farfield(g, k0, d, "S_inf")
    pref = np.exp(0.25j * np.pi) / np.sqrt(8 * np.pi * k0)
    manual = pref * (np.pi / 8) * np.exp(-1j * k0 * g.x[:, 0]) * g.speed
    assert np.max(np.abs(s_inf[0] - manual)) < 1e-15


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
