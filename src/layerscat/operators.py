"""Discrete boundary integral operators between the two curves.

Assembles dense Nystrom matrices for the single layer S, double layer K,
its transpose KT, and the hypersingular T, at any wavenumber, plus the
far-field maps.  Same-curve blocks use the logarithmic-singularity rule
on the standard kernel splitting

    M(t, tau) = M1(t, tau) ln(4 sin^2((t - tau)/2)) + M2(t, tau)

with closed-form diagonal limits; the same-curve T additionally uses the
finite-part cotangent rule through the decomposition

    T = 1/|x'| [ (1/2) H + d/dt ( S_reg d/dtau ) ] + k^2 nu . S [nu .]

obtained from the Maue identity, where H is the cotangent operator and
S_reg is the parametric single-layer kernel with its constant
logarithmic part removed.  Cross-curve kernels are smooth and use the
trapezoid rule on a 4x-oversampled source grid (the density is carried
there by exact trigonometric interpolation, so the fine-grid weights
fold back onto the source grid by an FFT truncation): the two curves
may pass within a fraction of a wavelength of each other, and plain
same-grid trapezoid stalls near 1e-4 in that regime.  All entries absorb
the arc-length factor |x'(tau)| pi/n.

Every kernel is i H a with a Hankel function H = J + iY and a real
factor a, so blocks are assembled as separate real and imaginary parts
(-Y a and J a) and combined once at the end.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .errors import SolverError
from .geometry import CONTAINMENT_MARGIN, DiscretizedBoundary, discretize
from .quadrature import hypersingular_weight_matrix, log_weight_matrix
from .specfun import EULER_GAMMA, bessel_j0j1y0y1

BLOCK_KINDS = ("S", "K", "KT", "T")
FARFIELD_KINDS = ("S_inf", "K_inf")
CROSS_OVERSAMPLE = 4


@lru_cache(maxsize=16)
def _log_4sin2(n: int):
    """ln(4 sin^2((s_i - s_j)/2)) on the 2n-node grid s_j = pi j / n, with
    a zero diagonal.  Read-only, cached per n."""
    n2 = 2 * n
    s = np.pi * np.arange(n2) / n
    sdiff = s[:, None] - s[None, :]
    mat = np.log(4.0 * np.sin(0.5 * sdiff) ** 2 + np.eye(n2))
    np.fill_diagonal(mat, 0.0)
    mat.setflags(write=False)
    return mat


class _PairData:
    """Geometry and kernel evaluations shared by all blocks of one
    (target, source, k) combination; all real (see module docstring)."""

    def __init__(self, target: DiscretizedBoundary, source: DiscretizedBoundary,
                 k: float):
        self.target = target
        self.source = source
        self.k = k
        self.same = target is source
        if self.same:
            self.fine = source
        else:
            # the fine grid must carry the source grid's node map, or the
            # interpolated density would sit at the wrong curve points
            self.fine = discretize(source.curve, source.n * CROSS_OVERSAMPLE,
                                   source.node_map)
        fine = self.fine
        dx = target.x[:, 0, None] - fine.x[None, :, 0]  # (2m, 2nq)
        dy = target.x[:, 1, None] - fine.x[None, :, 1]
        r = np.sqrt(dx * dx + dy * dy)
        if self.same:
            np.fill_diagonal(r, 1.0)  # placeholder; diagonals are analytic
        self.r = r
        # nu . (x(t) - x(tau)) / r with the target's and the source's normal
        self.p_tgt = (dx * target.normal[:, 0, None]
                      + dy * target.normal[:, 1, None]) / r
        self.p_src = (dx * fine.normal[None, :, 0]
                      + dy * fine.normal[None, :, 1]) / r
        self.j0, self.j1, self.y0, self.y1 = bessel_j0j1y0y1(k * r)
        if self.same:
            # the limits at r = 0, which the logarithmic split takes on
            # the diagonal
            np.fill_diagonal(self.j0, 1.0)
            np.fill_diagonal(self.j1, 0.0)
            self.log_4sin2 = _log_4sin2(target.n)


def _single_layer_diag(grid: DiscretizedBoundary, k: float):
    """Real part of the diagonal of the smooth part of the arc-length
    single-layer kernel (its imaginary part is speed / 4)."""
    return (-(EULER_GAMMA + np.log(0.5 * k * grid.speed)) * grid.speed
            / (2.0 * np.pi))


def _same_curve_matrices(pd: _PairData, kinds):
    """{kind: stacked (real, imaginary) parts} of the same-curve blocks."""
    g = pd.target
    n = g.n
    k = pd.k
    rmat = log_weight_matrix(n)
    trap = np.pi / n
    speed_row = g.speed[None, :]
    s_diag = _single_layer_diag(g, k)
    k_diag = -g.curvature * g.speed / (4.0 * np.pi)

    def log_rule(j, y, a, diag):
        # i (J + iY) a = M1 ln(4 sin^2((t - tau)/2)) + M2 with real
        # M1 = -J a / pi and M2 = (-Y a - M1 ln 4 sin^2) + i J a; `diag` is
        # the real part of M2's closed-form diagonal (J takes its r = 0
        # limit there, so the imaginary part needs no fix)
        m1 = (-1.0 / np.pi) * j * a
        m2 = -y * a - m1 * pd.log_4sin2
        np.fill_diagonal(m2, diag)
        return np.stack([rmat * m1 + trap * m2, trap * j * a])

    out = {}
    if "S" in kinds:
        out["S"] = log_rule(pd.j0, pd.y0, 0.25 * speed_row, s_diag)
    if "K" in kinds:
        out["K"] = log_rule(pd.j1, pd.y1, (0.25 * k) * pd.p_src * speed_row,
                            k_diag)
    if "KT" in kinds:
        out["KT"] = log_rule(pd.j1, pd.y1, (-0.25 * k) * pd.p_tgt * speed_row,
                             k_diag)
    if "T" in kinds:
        # parametric single layer (no arc-length factor) minus its
        # constant-coefficient log part
        p_sharp = log_rule(pd.j0, pd.y0, 0.25, s_diag / g.speed)
        p_sharp[0] += rmat / (4.0 * np.pi)
        nu_dot = g.normal @ g.normal.T
        q_block = log_rule(pd.j0, pd.y0, (0.25 * k * k) * nu_dot * speed_row,
                           k * k * s_diag)
        dmat = _spectral_diff_matrix(n)
        t_block = dmat @ p_sharp @ dmat
        t_block[0] += 0.5 * hypersingular_weight_matrix(n)
        out["T"] = t_block / g.speed[:, None] + q_block

    return out


@lru_cache(maxsize=16)
def _spectral_diff_matrix(n: int):
    """Trigonometric differentiation matrix on the 2n-node grid.

    D[i, j] = (1/2) (-1)^(i-j) cot(pi (i-j) / (2n)), zero diagonal;
    identical to FFT differentiation with the Nyquist mode dropped.
    Read-only, cached per n.
    """
    m2 = 2 * n
    idx = np.arange(m2)
    d = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore"):
        mat = 0.5 * (-1.0) ** d / np.tan(np.pi * d / m2)
    np.fill_diagonal(mat, 0.0)
    mat.setflags(write=False)
    return mat


def _cross_curve_matrices(pd: _PairData, kinds):
    """{kind: stacked (real, imaginary) parts} of the cross-curve blocks."""
    gt, gf = pd.target, pd.fine
    k = pd.k
    dmin = float(np.min(pd.r))
    if dmin < CONTAINMENT_MARGIN:
        warnings.warn(
            f"curves are {dmin:.3g} apart (< {CONTAINMENT_MARGIN}); "
            "cross-curve quadrature is poorly resolved",
            RuntimeWarning,
            stacklevel=3,
        )
    # trapezoid weight pi/n times arc length times the 1/4 of (i/4) H
    w = (0.25 * np.pi / gf.n) * gf.speed
    parts = np.empty((2,) + pd.r.shape)  # fine-grid (real, imaginary) parts
    re, im = parts
    out = {}
    for kind in kinds:
        # the kernel is i (H0 a0 + H1 a1) with real factors a0, a1
        if kind == "S":
            terms = [(pd.j0, pd.y0, w)]
        elif kind == "K":
            terms = [(pd.j1, pd.y1, (k * w) * pd.p_src)]
        elif kind == "KT":
            terms = [(pd.j1, pd.y1, (-k * w) * pd.p_tgt)]
        else:
            pp = pd.p_tgt * pd.p_src
            nu_dot = gt.normal @ gf.normal.T
            terms = [(pd.j0, pd.y0, (k * k * w) * pp),
                     (pd.j1, pd.y1, (k * w) * (nu_dot - 2.0 * pp) / pd.r)]
        (j, y, a), *rest = terms
        np.multiply(y, a, out=re)
        np.multiply(j, a, out=im)
        for j, y, a in rest:
            re += y * a
            im += j * a
        np.negative(re, out=re)
        out[kind] = _decimate(parts, pd.source.n)
    return out


def _decimate(fine_rows, n: int):
    """Map rows of fine-grid quadrature weights to the 2n-node source
    grid: the transpose of trigonometric interpolation from 2n nodes,
    i.e. keep the row's Fourier modes up to n (the Nyquist mode split
    evenly between +-n, as interpolation does) and transform back on 2n
    nodes.  Acts along the last axis."""
    spec = np.fft.rfft(fine_rows, axis=-1)[..., :n + 1]
    return np.fft.irfft(spec, 2 * n, axis=-1)


def assemble_blocks(target: DiscretizedBoundary, source: DiscretizedBoundary,
                    k: float, kinds=BLOCK_KINDS):
    """Assemble several S/K/KT/T blocks (see module docstring) for one
    (target, source, k) pair, sharing kernel evaluations.  Returns
    {kind: dense matrix mapping source-grid densities to target-grid
    values}."""
    for kind in kinds:
        if kind not in BLOCK_KINDS:
            raise SolverError(f"unknown operator kind {kind!r}")
    pd = _PairData(target, source, k)
    if pd.same:
        parts = _same_curve_matrices(pd, kinds)
    else:
        parts = _cross_curve_matrices(pd, kinds)
    blocks = {}
    for kind, (re, im) in parts.items():
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise SolverError(f"non-finite entries in {kind} block at k={k}")
        blocks[kind] = re + 1j * im
    return blocks


def assemble_farfield(source: DiscretizedBoundary, k0: float, directions,
                      kind: str):
    """Far-field map of a layer density on the interface, one row per
    observation direction (``directions``: (n_obs, 2) unit vectors).

    ``S_inf`` integrates exp(-i k0 xhat.y); ``K_inf`` integrates its
    normal derivative -i k0 (xhat.nu(y)) exp(-i k0 xhat.y).  Both carry
    the prefactor exp(i pi/4)/sqrt(8 pi k0).
    """
    if kind not in FARFIELD_KINDS:
        raise SolverError(f"unknown far-field kind {kind!r}")
    dirs = np.asarray(directions, dtype=float)
    if np.max(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0)) > 1e-12:
        raise SolverError("observation directions must be unit vectors")
    pref = np.exp(0.25j * np.pi) / np.sqrt(8.0 * np.pi * k0)
    phase = np.exp(-1j * k0 * (dirs @ source.x.T))  # (n_obs, 2n)
    trap = np.pi / source.n
    if kind == "S_inf":
        mat = pref * trap * phase * source.speed[None, :]
    else:
        xn = dirs @ source.normal.T  # (n_obs, 2n)
        mat = pref * trap * (-1j * k0) * xn * phase * source.speed[None, :]
    if not np.all(np.isfinite(mat)):
        raise SolverError(f"non-finite entries in {kind} operator")
    return mat
