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
trapezoid rule on a q-times oversampled source grid (the density is
carried there by exact trigonometric interpolation, so the fine-grid
weights fold back onto the source grid by an FFT truncation; at q = 1
the fine grid is the source grid and nothing is folded).  The trapezoid
error for a near-singular periodic integrand decays like exp(-2 N d),
with N fine nodes and d the distance of the kernel's nearest complex
singularity from the real parameter axis (Trefethen & Weideman, SIAM
Rev. 56, 2014; Barnett, SIAM J. Sci. Comput. 36, 2014), so each block
takes its q from the pair, on the source grid, before the fine grid is
built:

* q = CROSS_OVERSAMPLE = 4, the cap, if the curves may come within
  CONTAINMENT_MARGIN between source nodes (min_j (min_i |x_i - y_j|
  - |y'_j| pi/n) below it), or if the source is under-resolved:
  max |rfft(speed)[n/2:]| > CROSS_TAIL_MAX max |rfft(speed)|;
* else, with ``ratio`` the least d over target nodes in units of the
  source node step pi/n (d from the quadratic model of |x - y(s)|^2 at
  the source node next to each closest point, which sees whether the
  source curves toward the target or away from it),
  q = 1 if ratio >= CROSS_PLAIN_RATIO and k max|y'| pi/n <=
  CROSS_PLAIN_KH (the plain grid must also resolve the wave), else the
  least q in {2, 3} with q ratio >= CROSS_DEPTH, else 4.

The constants (1e-5, 6.5, 0.75, 5.5) were calibrated on 610 blocks
(presets, circles, gate iterates and random starlike pairs, n 16-128,
k0 up to 9): with them every block's far field stays within 1e-12
relative of q = 8 wherever q = 4 does.  In that data q = 1 fell short
up to ratio 4.6 and at k max|y'| pi/n from 1.1, and q = 2 or 3 up to
q ratio 4.6 (close concentric circles, where the whole curve is near).
All entries absorb the arc-length factor |x'(tau)| pi/n.

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

CROSS_OVERSAMPLE = 4  # the cap on a cross block's oversampling q
CROSS_TAIL_MAX = 1e-5
CROSS_PLAIN_RATIO = 6.5
CROSS_PLAIN_KH = 0.75
CROSS_DEPTH = 5.5


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
        dx, dy, r = _differences(target, source)
        if self.same:
            self.fine = source
            np.fill_diagonal(r, 1.0)  # placeholder; diagonals are analytic
        else:
            q = _cross_oversample(source, k, dx, dy, r)
            self.fine = source
            if q > 1:
                # the fine grid must carry the source grid's node map, or
                # the interpolated density would sit at the wrong points
                self.fine = discretize(source.curve, source.n * q,
                                       source.node_map)
                dx, dy, r = _differences(target, self.fine)
        fine = self.fine
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


def _differences(target: DiscretizedBoundary, source: DiscretizedBoundary):
    """x(t_i) - y(tau_j) by components, and its length, as (2m, 2n')."""
    dx = target.x[:, 0, None] - source.x[None, :, 0]
    dy = target.x[:, 1, None] - source.x[None, :, 1]
    return dx, dy, np.sqrt(dx * dx + dy * dy)


def _cross_oversample(source: DiscretizedBoundary, k: float, dx, dy, r):
    """The oversampling q of a cross block at wavenumber k from the
    target-source differences ``dx``, ``dy`` and distances ``r`` on the
    source grid (see module docstring)."""
    h = np.pi / source.n
    spacing = source.speed * h
    if np.min(np.min(r, axis=0) - spacing) < CONTAINMENT_MARGIN:
        # the close-curves warning is decided on the capped grid
        return CROSS_OVERSAMPLE
    spec = np.abs(np.fft.rfft(source.speed))
    if np.max(spec[source.n // 2:]) > CROSS_TAIL_MAX * np.max(spec):
        return CROSS_OVERSAMPLE
    # |x - y(s_j + z)|^2 = r^2 - 2 a z + b z^2 + O(z^3); at the node next
    # to a closest point (|a| <= b h) its complex root lies
    # sqrt(r^2 b - a^2) / b off the real axis
    a = dx * source.dx[:, 0] + dy * source.dx[:, 1]
    b = source.speed**2 - (dx * source.ddx[:, 0] + dy * source.ddx[:, 1])
    foot = (b > 0.0) & (np.abs(a) <= b * h)
    depth = np.sqrt(np.maximum(r[foot]**2 * b[foot] - a[foot]**2, 0.0)) / b[foot]
    ratio = np.min(depth, initial=np.inf) / h
    if ratio >= CROSS_PLAIN_RATIO and k * np.max(spacing) <= CROSS_PLAIN_KH:
        return 1
    for q in range(2, CROSS_OVERSAMPLE):
        if q * ratio >= CROSS_DEPTH:
            return q
    return CROSS_OVERSAMPLE


def _single_layer_diag(grid: DiscretizedBoundary, k: float):
    """Real part of the diagonal of the smooth part of the arc-length
    single-layer kernel (its imaginary part is speed / 4)."""
    return (-(EULER_GAMMA + np.log(0.5 * k * grid.speed)) * grid.speed
            / (2.0 * np.pi))


def _same_curve_matrices(pd: _PairData):
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

    out = {
        "S": log_rule(pd.j0, pd.y0, 0.25 * speed_row, s_diag),
        "K": log_rule(pd.j1, pd.y1, (0.25 * k) * pd.p_src * speed_row, k_diag),
        "KT": log_rule(pd.j1, pd.y1, (-0.25 * k) * pd.p_tgt * speed_row,
                       k_diag),
    }
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


def _cross_curve_matrices(pd: _PairData):
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
    fold = gf is not pd.source
    parts = np.empty((2,) + pd.r.shape)  # fine-grid (real, imaginary) parts
    out = {}
    for kind in ("S", "K", "KT", "T"):
        if not fold and out:
            parts = np.empty_like(parts)  # kept as the block itself
        re, im = parts
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
        out[kind] = _decimate(parts, pd.source.n) if fold else parts
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
                    k: float):
    """Assemble the S/K/KT/T blocks (see module docstring) of one
    (target, source, k) pair, sharing kernel evaluations.  Returns
    {kind: dense matrix mapping source-grid densities to target-grid
    values}."""
    pd = _PairData(target, source, k)
    if pd.same:
        parts = _same_curve_matrices(pd)
    else:
        parts = _cross_curve_matrices(pd)
    blocks = {}
    for kind, (re, im) in parts.items():
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise SolverError(f"non-finite entries in {kind} block at k={k}")
        blocks[kind] = re + 1j * im
    return blocks


def assemble_farfield(source: DiscretizedBoundary, k0: float, directions):
    """Far-field maps (S_inf, K_inf) of layer densities on the interface,
    one row per observation direction (``directions``: (n_obs, 2) unit
    vectors).

    ``S_inf`` integrates exp(-i k0 xhat.y); ``K_inf`` integrates its
    normal derivative -i k0 (xhat.nu(y)) exp(-i k0 xhat.y).  Both carry
    the prefactor exp(i pi/4)/sqrt(8 pi k0).
    """
    dirs = np.asarray(directions, dtype=float)
    if np.max(np.abs(np.linalg.norm(dirs, axis=-1) - 1.0)) > 1e-12:
        raise SolverError("observation directions must be unit vectors")
    pref = np.exp(0.25j * np.pi) / np.sqrt(8.0 * np.pi * k0)
    phase = np.exp(-1j * k0 * (dirs @ source.x.T))  # (n_obs, 2n)
    trap = np.pi / source.n
    s_inf = pref * trap * phase * source.speed[None, :]
    xn = dirs @ source.normal.T  # (n_obs, 2n)
    k_inf = pref * trap * (-1j * k0) * xn * phase * source.speed[None, :]
    for kind, mat in (("S_inf", s_inf), ("K_inf", k_inf)):
        if not np.all(np.isfinite(mat)):
            raise SolverError(f"non-finite entries in {kind} operator")
    return s_inf, k_inf
