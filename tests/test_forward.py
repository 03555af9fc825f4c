"""Forward transmission solver: oracle equivalence, linearity,
reciprocity, trace consistency, and the reuse of operator blocks across
systems, the two-thread build of a block set, concurrent solves, and the
backward-error check of every solve."""

import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import layerscat.forward as forward
from layerscat.errors import ConfigurationError, SolverError
from layerscat.forward import (BoundaryData, MediumParams, TransmissionSystem,
                               assemble_system, observation_directions,
                               oracle_concentric_circles, plane_wave_data,
                               solve_plane_wave)
from layerscat.geometry import (ParametricCurve, StarlikeShape, discretize,
                                discretize_pair)

from _oracles import (FullLUSystem, dense_matrix, kinds, serial_block_set,
                      transmission_matrix)


def _params(k0=2.0, lambda1=2.0, **kw):
    return MediumParams.create(k0=k0, n1=0.64, lambda0=1.2,
                               lambda1=lambda1, **kw)


def test_medium_params_create():
    p = _params()
    assert p.k1 == pytest.approx(2.0 * 0.8)
    assert p.k2 == p.k1
    assert p.lambda1 == 2.0
    assert p.mu0 == pytest.approx(2.0 / 2.2)
    assert p.mu1 == pytest.approx(2.0 / 3.0)
    with pytest.raises(ConfigurationError, match="nonzero"):
        MediumParams.create(k0=2.0, n1=0.64, lambda0=1.2, lambda1=0.0)
    with pytest.raises(ConfigurationError, match="nonzero"):
        MediumParams(k0=2.0, k1=1.6, k2=1.6, lambda0=1.2, lambda1=0.0)
    with pytest.raises(ConfigurationError):
        MediumParams.create(k0=2.0, n1=0.64, lambda0=1.2, lambda1=-1.0 + 1e-9)
    with pytest.raises(ConfigurationError):
        MediumParams.create(k0=-1.0, n1=0.64, lambda0=1.2, lambda1=1.0)
    for lambda0 in (0.0, -1.0 + 1e-9, -2.0):
        with pytest.raises(ConfigurationError,
                           match="lambda0 must be positive"):
            MediumParams.create(k0=2.0, n1=0.64, lambda0=lambda0,
                                lambda1=2.0)


def _exact_reciprocal(mu):
    """v with v * mu == 1.0 in floating point, next to 1/mu."""
    v = 1.0 / mu
    for _ in range(8):
        if v * mu == 1.0:
            return v
        v = np.nextafter(v, np.inf if v * mu < 1.0 else 0.0)
    raise AssertionError(f"no exact reciprocal of {mu!r} near 1/mu")


@pytest.mark.parametrize("lambda1", [2.0, 1e6])
@pytest.mark.parametrize("block", [0, 2])  # a psi1 and a psi3 column
def test_singular_system_raises_solver_error(monkeypatch, block, lambda1):
    """LAPACK only flags an exact zero pivot; the system must fail typed.
    A zero psi1 column makes the interface block A00 singular, a zero psi3
    column the Schur complement S, and the error names a column of that
    factor in the numbering of the whole system.  The columns are zeroed
    in the operator groups, where one group entry v must cancel the
    identity exactly: the psi1 column takes lambda0 = 1, so mu0 = 1, and
    the psi3 column a v with v * mu1 == 1.0."""
    g0 = discretize(ParametricCurve.preset("rounded_triangle"), 8)
    g1 = discretize(ParametricCurve.preset("apple"), 8)
    if block == 0:
        params = MediumParams.create(k0=2.0, n1=0.64, lambda0=1.0,
                                     lambda1=lambda1)
    else:
        params = _params(lambda1=lambda1, k2=1.3)
    blocks = forward.assemble_blocks

    def zero_column(target, source, k):
        g = blocks(target, source, k).copy()
        if block == 0 and target is source is g0:
            # column 0 of A00: e0 - mu0 * 1 from G0k1's K entry, mu0 = 1
            g[:, 0] = 0.0
            g[0, 0] = 1.0 if k == params.k1 else 0.0
        elif block == 2 and target is g0 and source is g1:
            g[:, 0] = 0.0  # B01's psi3 column, and so C's
        elif block == 2 and target is source is g1:
            # column 0 of A11: e0 - mu1 * v from G1k2's K entry
            g[:, 0] = 0.0
            g[0, 0] = _exact_reciprocal(params.mu1) if k == params.k2 else 0.0
        return g

    monkeypatch.setattr(forward, "_last_blocks", None)
    monkeypatch.setattr(forward, "assemble_blocks", zero_column)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="singular") as info:
            assemble_system(g0, g1, params)
    reported = int(str(info.value).rsplit(" ", 1)[1])
    assert (reported >= 2 * g0.size) == (block == 2)
    assert reported < 2 * (g0.size + g1.size)


@pytest.mark.parametrize("lambda1,equilibrated", [(2.0, False), (1e6, True)])
def test_solves_match_dense_solve_of_the_system_and_its_transpose(
        lambda1, equilibrated):
    # solve_stacked and far_field_rows against dense solves of D_r^-1
    # (I+A) D_c^-1 and its transpose, with the scales of the full-LU
    # oracle (identities at lambda1 = 2); at lambda1 = 1e6 a dense solve
    # of the unscaled matrix is itself off by 4e-11
    g0 = discretize(ParametricCurve.preset("rounded_triangle"), 24)
    g1 = discretize(ParametricCurve.preset("apple"), 20)
    system = assemble_system(g0, g1, _params(k0=3.0, lambda1=lambda1))
    oracle = FullLUSystem(g0, g1, system.params)
    col, row = oracle._col_scale, oracle._row_scale
    assert np.any(col != 1.0) == equilibrated
    dense = dense_matrix(system)
    scaled = dense / row[:, None] / col[None, :]
    rng = np.random.default_rng(3)
    size = dense.shape[0]
    rhs = rng.standard_normal((size, 4)) + 1j * rng.standard_normal((size, 4))
    ref = np.linalg.solve(scaled, rhs / row[:, None]) / col[:, None]
    got = system.solve_stacked(rhs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    obs = observation_directions(16)
    s_mat, k_mat = system.farfield_maps(obs)
    g = np.zeros((size, obs.shape[0]), dtype=complex)
    g[:g0.size] = system.params.lambda0 * k_mat.T
    g[g0.size:2 * g0.size] = s_mat.T
    ref_rows = (np.linalg.solve(scaled.T, g / col[:, None]) / row[:, None]).T
    rows = system.far_field_rows(obs)
    assert np.max(np.abs(rows - ref_rows)) <= 1e-12 * np.max(np.abs(ref_rows))


def test_system_size_and_lambda1_one_block():
    g0 = discretize(ParametricCurve.preset("circle", radius=2.0), 32)
    g1 = discretize(ParametricCurve.preset("circle", radius=1.0), 32)
    system = assemble_system(g0, g1, _params(lambda1=1.0))
    dense = dense_matrix(system)
    assert dense.shape == (256, 256)
    # lambda1 = 1 with k2 = k1 makes the (3,3) block vanish: the
    # diagonal block of I+A there is exactly the identity
    n0 = g0.size
    blk = dense[2 * n0:2 * n0 + g1.size, 2 * n0:2 * n0 + g1.size]
    assert np.max(np.abs(blk - np.eye(g1.size))) == 0.0
    assert np.isfinite(np.linalg.cond(dense))


def test_far_field_matches_concentric_oracle():
    obs = observation_directions(64)
    d = np.array([1.0, 0.0])
    ff, traces, dens, system = solve_plane_wave(
        ParametricCurve.preset("circle", radius=2.0),
        ParametricCurve.preset("circle", radius=1.0),
        _params(), d, 64, obs)
    oracle = oracle_concentric_circles(2.0, 1.0, _params(), d, obs, modes=40)
    assert np.max(np.abs(ff - oracle)) < 1e-6
    # discrete residual invariant
    data = plane_wave_data(system.grid0, system.grid1, 2.0, d)
    rhs = data.stacked(system.params.mu0, system.params.mu1)
    psi = np.concatenate([dens.psi1, dens.psi2, dens.psi3, dens.psi4])
    res = np.max(np.abs(dense_matrix(system) @ psi - rhs))
    assert res <= 1e-10 * np.max(np.abs(rhs))


def test_oracle_properties():
    obs = observation_directions(16)
    p = _params()
    d = np.array([1.0, 0.0])
    a = oracle_concentric_circles(2.0, 1.0, p, d, obs, modes=40)
    b = oracle_concentric_circles(2.0, 1.0, p, d, obs, modes=60)
    assert np.max(np.abs(a - b)) < 1e-10
    # rotating the incidence rotates the far field
    rot = 2.0 * np.pi * 3 / 16
    d2 = np.array([np.cos(rot), np.sin(rot)])
    c = oracle_concentric_circles(2.0, 1.0, p, d2, obs, modes=40)
    assert np.max(np.abs(np.roll(a, 3) - c)) < 1e-10
    with pytest.raises(ConfigurationError):
        oracle_concentric_circles(1.0, 2.0, p, d, obs)


def test_traces_match_oracle_and_transmission_conditions():
    from scipy import special as ssp

    obs = observation_directions(8)
    d = np.array([1.0, 0.0])
    p = _params()
    ff, traces, dens, system = solve_plane_wave(
        ParametricCurve.preset("circle", radius=2.0),
        ParametricCurve.preset("circle", radius=1.0), p, d, 48, obs)
    # mode-matched interior trace on the interface
    theta = system.grid0.t
    u_ref = np.zeros_like(theta, dtype=complex)
    dn_ref = np.zeros_like(theta, dtype=complex)
    for m in range(-40, 41):
        alpha = (1j) ** m
        z00, z10 = p.k0 * 2.0, p.k1 * 2.0
        z11, z21 = p.k1 * 1.0, p.k2 * 1.0
        mat = np.array([
            [ssp.hankel1(m, z00), -ssp.jv(m, z10), -ssp.yv(m, z10), 0],
            [p.k0 * ssp.h1vp(m, z00), -p.lambda0 * p.k1 * ssp.jvp(m, z10),
             -p.lambda0 * p.k1 * ssp.yvp(m, z10), 0],
            [0, ssp.jv(m, z11), ssp.yv(m, z11), -ssp.jv(m, z21)],
            [0, p.k1 * ssp.jvp(m, z11), p.k1 * ssp.yvp(m, z11),
             -p.lambda1 * p.k2 * ssp.jvp(m, z21)]], dtype=complex)
        rhs = np.array([-alpha * ssp.jv(m, z00),
                        -alpha * p.k0 * ssp.jvp(m, z00), 0, 0], dtype=complex)
        _, b, c, _ = np.linalg.solve(mat, rhs)
        u_ref += (b * ssp.jv(m, z10) + c * ssp.yv(m, z10)) * np.exp(1j * m * theta)
        dn_ref += p.k1 * (b * ssp.jvp(m, z10)
                          + c * ssp.yvp(m, z10)) * np.exp(1j * m * theta)
    assert np.max(np.abs(traces.u0 - u_ref)) < 1e-6
    assert np.max(np.abs(traces.dn_u0_minus - dn_ref)) < 1e-6
    # transmission conditions hold identically by construction
    assert np.array_equal(traces.dn_u0_plus, p.lambda0 * traces.dn_u0_minus)
    assert np.array_equal(traces.dn_u1_plus, p.lambda1 * traces.dn_u1_minus)


def test_zero_data_and_linearity():
    g0 = discretize(ParametricCurve.preset("circle", radius=2.0), 16)
    g1 = discretize(ParametricCurve.preset("circle", radius=1.0), 16)
    system = assemble_system(g0, g1, _params())
    zero = BoundaryData(np.zeros(32, complex), np.zeros(32, complex),
                        np.zeros(32, complex), np.zeros(32, complex))
    dz = system.solve(zero)
    assert np.max(np.abs(dz.psi1)) == 0.0 and np.max(np.abs(dz.psi4)) == 0.0
    data = plane_wave_data(g0, g1, 2.0, np.array([0.0, 1.0]))
    scaled = BoundaryData(3.0 * data.f1, 3.0 * data.f2, 3.0 * data.f3,
                          3.0 * data.f4)
    d1, d3 = system.solve(data), system.solve(scaled)
    assert np.max(np.abs(3.0 * d1.psi2 - d3.psi2)) < 1e-12 * np.max(np.abs(d3.psi2))


def test_reciprocity_example1_geometry():
    dirs = observation_directions(8)
    g0 = discretize(ParametricCurve.preset("rounded_triangle"), 64)
    g1 = discretize(ParametricCurve.preset("apple"), 64)
    system = assemble_system(g0, g1, _params(lambda1=10.0))
    ff = np.zeros((8, 8), dtype=complex)  # [obs, incident]
    for i in range(8):
        dens = system.solve(plane_wave_data(g0, g1, 2.0, dirs[i]))
        ff[:, i] = system.far_field(dens, dirs)
    err = max(abs(ff[i, j] - ff[(j + 4) % 8, (i + 4) % 8])
              for i in range(8) for j in range(8))
    assert err < 1e-6


def test_dirichlet_and_neumann_limit_trends():
    obs = observation_directions(32)
    d = np.array([1.0, 0.0])
    c0 = ParametricCurve.preset("rounded_triangle")
    c1 = ParametricCurve.preset("apple")
    ffs = {}
    for lam in (1e2, 1e4, 1e6, 1e-2, 1e-3, 1e-4):
        ffs[lam], _, _, _ = solve_plane_wave(c0, c1, _params(lambda1=lam),
                                             d, 32, obs)

    def dist(a, b):
        return float(np.linalg.norm(ffs[a] - ffs[b]))

    assert dist(1e6, 1e4) < dist(1e4, 1e2)
    assert dist(1e-4, 1e-3) < dist(1e-3, 1e-2)


def test_incident_directions_layout():
    inc = observation_directions(4)
    assert np.allclose(inc, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)


def test_plane_wave_columns_match_single_directions():
    obs = observation_directions(16)
    dirs = observation_directions(3)
    c0, c1 = (ParametricCurve.preset("rounded_triangle"),
              ParametricCurve.preset("apple"))
    ff, traces, dens, system = solve_plane_wave(c0, c1, _params(), dirs, 24,
                                                obs)
    assert ff.shape == (16, 3) and traces.duds1.shape == (48, 3)
    data = plane_wave_data(system.grid0, system.grid1, 2.0, dirs)
    for i, d in enumerate(dirs):
        one = plane_wave_data(system.grid0, system.grid1, 2.0, d)
        for got, ref in zip(vars(data).values(), vars(one).values()):
            assert ref.shape == (48,)
            assert np.max(np.abs(got[:, i] - ref)) <= 1e-14 * np.max(np.abs(ref))
        ff1, tr1, _, _ = solve_plane_wave(c0, c1, _params(), d, 24, obs)
        assert ff1.shape == (16,)
        assert np.max(np.abs(ff[:, i] - ff1)) <= 1e-13 * np.max(np.abs(ff1))
        for got, ref in zip(vars(traces).values(), vars(tr1).values()):
            assert np.max(np.abs(got[:, i] - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- operator blocks shared across systems ----------------------------------
@pytest.fixture
def block_calls(monkeypatch):
    """Empty the block memo and record every ``assemble_blocks`` call the
    forward solver makes."""
    calls = []
    assemble = forward.assemble_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    forward._last_blocks = None
    monkeypatch.setattr(forward, "assemble_blocks", counted)
    yield calls
    forward._last_blocks = None


def _pair(n=12):
    return (discretize(ParametricCurve.preset("rounded_triangle"), n),
            discretize(ParametricCurve.preset("apple"), n))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lambda1", [1e-6, 1e6])
def test_block_reuse_is_exact(block_calls, lambda1):
    """Another lambda1 on the same grids and k assembles no block, and the
    system equals one built from freshly assembled blocks and a fresh
    interface factorization bit for bit, at the sound-hard and the
    sound-soft stand-in."""
    g0, g1 = _pair()
    first = assemble_system(g0, g1, _params(lambda1=2.0))
    assert len(block_calls) == 5
    block_calls.clear()
    reused = assemble_system(g0, g1, _params(lambda1=lambda1))
    assert block_calls == []
    assert reused.blocks is first.blocks
    forward._last_blocks = None
    fresh = assemble_system(g0, g1, _params(lambda1=lambda1))
    assert len(block_calls) == 5 and fresh.blocks is not reused.blocks

    data = plane_wave_data(g0, g1, 2.0, observation_directions(3))
    rhs = data.stacked(fresh.params.mu0, fresh.params.mu1)
    obs = observation_directions(8)
    assert _same_bits(dense_matrix(reused), dense_matrix(fresh))
    psi_r, psi_f = reused.solve_stacked(rhs), fresh.solve_stacked(rhs)
    assert _same_bits(psi_r, psi_f)
    dens_r, dens_f = reused.solve(data), fresh.solve(data)
    assert _same_bits(reused.far_field(dens_r, obs),
                      fresh.far_field(dens_f, obs))
    for got, ref in zip(vars(reused.boundary_traces(dens_r)).values(),
                        vars(fresh.boundary_traces(dens_f)).values()):
        assert _same_bits(got, ref)


@pytest.mark.parametrize("change", ["k0", "n1", "k2", "grid"])
def test_block_reuse_misses(block_calls, change):
    """A new k0, k1 (through n1) or k2, or a new grid object with the same
    content, assembles every block again."""
    g0, g1 = _pair()
    first = assemble_system(g0, g1, _params())
    block_calls.clear()
    params, calls = _params(), 5
    if change == "k0":
        params = _params(k0=2.5)
    elif change == "n1":
        params = MediumParams.create(k0=2.0, n1=0.81, lambda0=1.2,
                                     lambda1=2.0)
    elif change == "k2":
        params, calls = _params(k2=1.3), 6
    else:
        g0 = discretize(g0.curve, g0.n)
    system = assemble_system(g0, g1, params)
    assert len(block_calls) == calls
    groups = {(t is s, k) for t, s, k in block_calls}
    assert groups == ({(True, params.k0), (True, params.k1),
                       (True, params.k2), (False, params.k1)})
    assert system.blocks is not first.blocks


def test_shared_blocks_and_grids_are_read_only(block_calls):
    g0, g1 = _pair()
    system = assemble_system(g0, g1, _params())
    for group in system.blocks.values():
        for block in (group, *kinds(group).values()):
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        g0.n = 8
    with pytest.raises(FrozenInstanceError):
        g1.x = np.zeros_like(g1.x)
    # the cross-curve blocks rediscretize the source grid's curve
    with pytest.raises(FrozenInstanceError):
        g1.curve.kind = "kite"
    with pytest.raises(FrozenInstanceError):
        StarlikeShape.circle(1.0).coeffs = np.ones(3)


def test_block_memo_drops_old_blocks_before_assembling(block_calls,
                                                       monkeypatch):
    """A miss frees the stored block set before the first new block is
    built, so two sets are never alive at once."""
    g0, g1 = _pair()
    system = assemble_system(g0, g1, _params())
    old = weakref.ref(system.blocks["0k0"])
    del system
    assert old() is not None  # held by the memo alone
    alive_at_first_call = []
    counted = forward.assemble_blocks

    def probe(*args, **kwargs):
        if not alive_at_first_call:
            alive_at_first_call.append(old() is not None)
        return counted(*args, **kwargs)

    monkeypatch.setattr(forward, "assemble_blocks", probe)
    assemble_system(g0, g1, _params(k0=3.0))
    assert alive_at_first_call == [False]


def test_block_calls_per_grid_pair_and_k0(block_calls):
    """A sweep shaped like the forward benchmark (one grid pair, two k0,
    two lambda1 each) assembles the blocks once per (grid pair, k0)."""
    g0, g1 = _pair()
    systems = [assemble_system(g0, g1, _params(k0=k0, lambda1=lam))
               for k0 in (1.0, 3.0) for lam in (1e-6, 1e6)]
    assert len(systems) == 4
    assert len(block_calls) == 2 * 5


def test_close_pair_warns_only_when_blocks_are_assembled(block_calls):
    g0 = discretize(ParametricCurve.preset("circle", radius=1.0), 16)
    g1 = discretize(ParametricCurve.preset("circle", radius=0.97), 16)
    with pytest.warns(RuntimeWarning, match="apart"):
        assemble_system(g0, g1, _params(k0=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_system(g0, g1, _params(k0=1.0, lambda1=5.0))
    assert len(block_calls) == 5


@pytest.mark.parametrize("n1", [-0.64, 0.0, np.nan, np.inf])
def test_medium_params_reject_bad_n1_before_its_square_root(n1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's sqrt would warn first
        with pytest.raises(ConfigurationError, match="n1 must be positive"):
            MediumParams.create(k0=2.0, n1=n1, lambda0=1.2, lambda1=2.0)


@pytest.mark.parametrize("field", ["k0", "k1", "k2", "lambda0", "lambda1"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_medium_params_reject_non_finite(field, value):
    good = dict(k0=2.0, k1=1.6, k2=1.6, lambda0=1.2, lambda1=2.0)
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        MediumParams(**{**good, field: value})
    if field in ("k0", "lambda0", "lambda1"):
        with pytest.raises(ConfigurationError, match="finite"):
            MediumParams.create(**{"k0": 2.0, "n1": 0.64, "lambda0": 1.2,
                                   "lambda1": 2.0, field: value})


@pytest.mark.parametrize("lambda1", [1e-6, 2.0, 1e4, 1e6, 1e8])
def test_block_factorization_matches_full_lu_oracle(block_calls, lambda1):
    """Solves, far-field rows and traces of the block factorization equal
    those of one (equilibrated) LU of the whole matrix to 1e-12, from the
    sound-hard to the sound-soft stand-in, on the graded kite/square
    pair."""
    g0, g1 = discretize_pair(ParametricCurve.preset("rounded_square"),
                             ParametricCurve.preset("kite"), 32)
    assert g1.node_map is not None
    params = _params(k0=3.0, lambda1=lambda1)
    system = assemble_system(g0, g1, params)
    oracle = FullLUSystem(g0, g1, params)
    assert oracle.blocks is system.blocks

    def close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    data = plane_wave_data(g0, g1, 3.0, observation_directions(3))
    # the raw solves too: refinement would hide an inexact factorization
    rhs = data.stacked(params.mu0, params.mu1)
    assert close(system._raw_solve(rhs), oracle._raw_solve(rhs))
    assert close(system._raw_solve(rhs, True), oracle._raw_solve(rhs, True))
    dens, dens_ref = system.solve(data), oracle.solve(data)
    for got, ref in zip(vars(dens).values(), vars(dens_ref).values()):
        assert close(got, ref)
    for got, ref in zip(vars(system.boundary_traces(dens)).values(),
                        vars(oracle.boundary_traces(dens_ref)).values()):
        assert close(got, ref)
    obs = observation_directions(16)
    assert close(system.far_field_rows(obs), oracle.far_field_rows(obs))


def test_forward_sweep_pairing_memory(block_calls):
    """Both lambda1 systems of one forward-benchmark pairing (n = 128, 16
    plane waves each), assembled and solved under tracemalloc: the dense
    (I+A) is never formed and the cross blocks are evaluated in panels,
    so the traced peak stays below 43 MB (about 54 MB with the assembled
    matrix and whole-block kernels, 34 MB without), and the block set
    with its interface factorization keeps below 30 MB (28 MB; 32 MB
    when X = A00^-1 B01 was kept too)."""
    g0 = discretize(ParametricCurve.preset("rounded_square"), 128)
    g1 = discretize(ParametricCurve.preset("kite"), 128)
    incident, obs = observation_directions(16), observation_directions(64)
    assemble_system(g0, g1, _params(k0=7.0))  # fills the per-n caches
    forward._last_blocks = None
    block_calls.clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for lambda1 in (1e-6, 1e6):
            system = assemble_system(g0, g1, _params(k0=7.0, lambda1=lambda1))
            dens = system.solve(plane_wave_data(g0, g1, 7.0, incident))
            assert np.all(np.isfinite(system.far_field(dens, obs)))
            del system, dens
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(block_calls) == 5
    mb = 2.0**20
    assert (peak - base) / mb < 43.0
    assert (current - base) / mb < 30.0


@pytest.mark.parametrize("k2", ["k1", 1.3])
@pytest.mark.parametrize("lambda1", [1e-6, 1.0, 2.0, 1e6])
def test_group_terms_make_the_transmission_matrix(k2, lambda1):
    """The dense (I+A) and the products with (I+A) and (I+A)^T, all taken
    from the operator groups, equal the block system written out kind by
    kind; with k2 = k1 A11 is one block-diagonal term of one group."""
    g0, g1 = discretize(ParametricCurve.preset("rounded_triangle"), 12), \
        discretize(ParametricCurve.preset("apple"), 10)
    system = assemble_system(g0, g1, _params(lambda1=lambda1, k2=k2))
    assert (len(system._terms) == 5) == (k2 == "k1")
    ref = transmission_matrix(system)
    dense = dense_matrix(system)
    assert np.max(np.abs(dense - ref)) <= 1e-14 * np.max(np.abs(ref))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((ref.shape[0], 3)) + 1j * rng.standard_normal(
        (ref.shape[0], 3))
    for got, want in ((system._apply(x), ref @ x),
                      (system._apply(x, transposed=True), ref.T @ x)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.fixture
def factorizations(monkeypatch):
    """Record the order of every LU factorization the forward solver
    runs."""
    sizes = []
    getrf = forward.zgetrf

    def counted(a, **kwargs):
        sizes.append(a.shape[0])
        return getrf(a, **kwargs)

    monkeypatch.setattr(forward, "zgetrf", counted)
    return sizes


def test_new_lambda1_factors_only_the_schur_complement(block_calls,
                                                       factorizations):
    """The first system on a block set factors the interface block
    (order 2 n0) and S (order 2 n1); a further lambda1 assembles no block
    and factors S alone.  lambda0 is part of the block-set key, so a new
    lambda0 assembles and factors everything again, bit-identical to a
    system built on an empty memo."""
    g0, g1 = discretize(ParametricCurve.preset("rounded_triangle"), 12), \
        discretize(ParametricCurve.preset("apple"), 10)
    first = assemble_system(g0, g1, _params(lambda1=1e-6))
    assert len(block_calls) == 5
    assert factorizations == [2 * g0.size, 2 * g1.size]
    block_calls.clear(), factorizations.clear()
    again = assemble_system(g0, g1, _params(lambda1=1e6))
    assert block_calls == [] and factorizations == [2 * g1.size]
    assert again._block_set is first._block_set
    block_calls.clear(), factorizations.clear()
    params = MediumParams.create(k0=2.0, n1=0.64, lambda0=1.5, lambda1=1e6)
    other = assemble_system(g0, g1, params)
    assert len(block_calls) == 5
    assert factorizations == [2 * g0.size, 2 * g1.size]
    assert other._block_set is not first._block_set
    assert forward._last_blocks is other._block_set
    forward._last_blocks = None
    fresh = assemble_system(g0, g1, params)

    data = plane_wave_data(g0, g1, 2.0, observation_directions(3))
    rhs, obs = data.stacked(params.mu0, params.mu1), observation_directions(8)
    assert _same_bits(other.solve_stacked(rhs), fresh.solve_stacked(rhs))
    assert _same_bits(other.far_field(other.solve(data), obs),
                      fresh.far_field(fresh.solve(data), obs))
    assert _same_bits(other.far_field_rows(obs), fresh.far_field_rows(obs))


def test_interface_factorization_is_freed_with_its_blocks(block_calls,
                                                          monkeypatch):
    """A miss drops the stored interface factorization together with the
    blocks, before the first new block is built."""
    g0, g1 = _pair()
    system = assemble_system(g0, g1, _params())
    old = weakref.ref(system._block_set.c)
    del system
    assert old() is not None  # held by the memo alone
    alive_at_first_call = []
    counted = forward.assemble_blocks

    def probe(*args, **kwargs):
        if not alive_at_first_call:
            alive_at_first_call.append(old() is not None)
        return counted(*args, **kwargs)

    monkeypatch.setattr(forward, "assemble_blocks", probe)
    assemble_system(g0, g1, _params(k0=3.0))
    assert alive_at_first_call == [False]


# -- the two-thread build of a block set -----------------------------------
def _sweep_grids(n=128):
    """The forward benchmark's square/kite pairing, at n = 128."""
    return (discretize(ParametricCurve.preset("rounded_square"), n),
            discretize(ParametricCurve.preset("kite"), n))


def test_only_large_block_sets_start_a_helper_thread(block_calls,
                                                     monkeypatch):
    """The forward benchmark's grids (n = 128) are built on two threads,
    the inversion's coarser ones on the calling thread alone."""
    started = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(True)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(forward, "ThreadPoolExecutor", Counted)
    for n, helpers in ((64, 0), (128, 1)):
        started.clear()
        assemble_system(*_sweep_grids(n), _params())
        assert len(started) == helpers


@pytest.mark.parametrize("n,k0,k2", [(128, 1.0, "k1"), (128, 7.0, "k1"),
                                     (128, 7.0, 4.0), (12, 2.0, 1.3)])
def test_threaded_build_matches_serial_build(block_calls, n, k0, k2):
    """The block set, on two threads at n = 128 and on one at n = 12,
    equals the one-thread reference build bit for bit: every group, the
    LU factors and pivots of A00^T, and C."""
    g0, g1 = _sweep_grids(n)
    params = _params(k0=k0, lambda1=1e6, k2=k2)
    block_set = assemble_system(g0, g1, params)._block_set
    assert len(block_calls) == (5 if k2 == "k1" else 6)
    blocks, (lu, piv), c = serial_block_set(g0, g1, params)
    assert block_set.blocks.keys() == blocks.keys()
    for name, group in blocks.items():
        assert _same_bits(block_set.blocks[name], group), name
    assert ((block_set.blocks["1k2"] is block_set.blocks["1k1"])
            == (k2 == "k1"))
    assert _same_bits(block_set.lu[0], lu)
    assert _same_bits(block_set.lu[1], piv)
    assert _same_bits(block_set.c, c)


@pytest.mark.parametrize("threaded", [True, False])
def test_close_pair_warnings_name_the_forward_solver(block_calls, monkeypatch,
                                                     threaded):
    """Each cross group's close-curves warning is issued on the calling
    thread from its own line of forward.py, so the default filter shows
    both, and an error filter raises out of ``assemble_system`` with no
    block set stored; on two threads and on one."""
    if threaded:
        monkeypatch.setattr(forward, "THREADED_BUILD_MIN_NODES", 0)
    g0 = discretize(ParametricCurve.preset("circle", radius=1.0), 16)
    g1 = discretize(ParametricCurve.preset("circle", radius=0.97), 16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assemble_system(g0, g1, _params(k0=1.0))
    close = [w for w in caught if "apart" in str(w.message)]
    assert len(close) == 2
    assert all(w.category is RuntimeWarning for w in close)
    assert all(Path(w.filename).name == "forward.py" for w in close)
    assert close[0].lineno != close[1].lineno
    forward._last_blocks = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="apart"):
            assemble_system(g0, g1, _params(k0=1.0))
    assert forward._last_blocks is None


@pytest.mark.parametrize("threaded", [True, False])
@pytest.mark.parametrize("failing", ["0k0", "0k1", "1k1", "01", "10"])
def test_failed_build_stores_nothing_and_leaves_no_thread(monkeypatch,
                                                          failing, threaded):
    """A group that fails on either thread fails ``assemble_system`` with
    its own error; no block set is stored, the old one included, and the
    helper thread is gone."""
    if threaded:
        monkeypatch.setattr(forward, "THREADED_BUILD_MIN_NODES", 0)
    g0, g1 = _pair()
    params = _params()
    names = {(g0, g0, params.k0): "0k0", (g0, g0, params.k1): "0k1",
             (g1, g1, params.k1): "1k1", (g0, g1, params.k1): "01",
             (g1, g0, params.k1): "10"}
    error = SolverError(f"injected failure of {failing}")
    assemble = forward.assemble_blocks

    def failing_group(target, source, k):
        if names[(target, source, k)] == failing:
            raise error
        return assemble(target, source, k)

    forward._last_blocks = None
    before = threading.active_count()
    assemble_system(g0, g1, _params(k0=3.0))
    assert forward._last_blocks is not None
    assert threading.active_count() == before
    monkeypatch.setattr(forward, "assemble_blocks", failing_group)
    with pytest.raises(SolverError) as info:
        assemble_system(g0, g1, params)
    assert info.value is error
    assert forward._last_blocks is None
    assert threading.active_count() == before


def test_two_threads_solve_two_systems_at_once():
    """Solves with an LU may run on two threads at once, although both
    systems share one block set and so LU(A00) and its pivots (which
    scipy's zgetrs shifts in place during a call): on the forward
    benchmark's pairing at n = 32, each system solved on its own thread
    with (I+A) and with (I+A)^T gives its serial results bit for bit."""
    g0, g1 = _sweep_grids(32)
    incident, obs = observation_directions(16), observation_directions(64)
    systems = [assemble_system(g0, g1, _params(k0=7.0, lambda1=lambda1))
               for lambda1 in (1e-6, 1e6)]
    rhs = [plane_wave_data(g0, g1, 7.0, incident).stacked(s.params.mu0,
                                                          s.params.mu1)
           for s in systems]
    assert systems[0]._block_set is systems[1]._block_set

    def solves(i):
        return systems[i].solve_stacked(rhs[i]), systems[i].far_field_rows(obs)

    serial = [solves(i) for i in (0, 1)]
    start = threading.Barrier(2)

    def repeated(i):
        start.wait()
        return [solves(i) for _ in range(20)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(repeated, (0, 1)))
    for ref, runs in zip(serial, concurrent):
        for psi, rows in runs:
            assert _same_bits(psi, ref[0]) and _same_bits(rows, ref[1])


# -- the backward-error check of every solve -------------------------------
@pytest.mark.parametrize("transposed", [False, True])
def test_corrupted_factor_fails_the_check(transposed):
    """One U-diagonal entry of LU(S) doubled: each refinement then cuts
    the error only by half, so the check still fails after three
    refinements, in ``solve_stacked`` and ``far_field_rows`` alike."""
    g0, g1 = _pair()
    system = assemble_system(g0, g1, _params())
    system._schur_lu[0][3, 3] *= 2.0
    message = r"componentwise backward error \S+ of column \d+ exceeds .* " \
        r"after 3 refinements"
    data = plane_wave_data(g0, g1, 2.0, observation_directions(3))
    with pytest.raises(SolverError, match=message):
        if transposed:
            system.far_field_rows(observation_directions(8))
        else:
            system.solve(data)


def test_zero_column_has_zero_backward_error(monkeypatch):
    """A zero right-hand side has the zero solution, with omega = 0 (not
    0/0), so even a zero bound accepts it, in both directions."""
    g0, g1 = _pair()
    system = assemble_system(g0, g1, _params())
    monkeypatch.setattr(forward, "BACKWARD_ERROR_MAX", 0.0)
    zero = np.zeros((2 * (g0.size + g1.size), 2), dtype=complex)
    for transposed in (False, True):
        assert np.all(system._refined(zero, transposed) == 0.0)
