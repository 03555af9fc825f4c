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
factor a, so the real and imaginary parts (-Y a and J a) are computed
apart and written straight into the one C-order group matrix
G = [[K, S], [T, KT]] that holds the four blocks of a (target, source,
k); each kind is one quadrant of it (``_quadrant``).  ``_kernels`` gives
the normal projections and J0, J1, Y0, Y1 from given differences; only
``assemble_blocks`` tells same-curve from cross-curve pairs.
``_same_curve_group`` owns the r = 0 placeholder and the diagonal
limits, ``_cross_curve_group`` the block's q, fine grid and close-curves
warning.  It evaluates a panel of target rows at a time, at most
CROSS_PANEL_ENTRIES fine-grid entries each, which bounds the kernel
arrays alive at once; rows are independent, so the blocks do not depend
on the panels.
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
# fine-grid entries per row panel of a cross block: bounds the kernel
# arrays a cross block holds at once
CROSS_PANEL_ENTRIES = 2**16

KINDS = ("S", "K", "KT", "T")
# each kind's quadrant (block row, block column) in a group matrix
# [[K, S], [T, KT]]
_QUADRANTS = {"S": (0, 1), "K": (0, 0), "KT": (1, 1), "T": (1, 0)}


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


def _kernels(target: DiscretizedBoundary, source: DiscretizedBoundary,
             k: float, dx, dy, r, rows=slice(None)):
    """The normal projections nu(x) . (x - y) / r and nu(y) . (x - y) / r,
    and J0, J1, Y0, Y1 at k r, for the target rows ``rows`` against the
    source grid, from their differences ``dx``, ``dy`` and distances
    ``r``; all real (see module docstring)."""
    p_tgt = (dx * target.normal[rows, 0, None]
             + dy * target.normal[rows, 1, None]) / r
    p_src = (dx * source.normal[None, :, 0]
             + dy * source.normal[None, :, 1]) / r
    return (p_tgt, p_src, *bessel_j0j1y0y1(k * r))


def _differences(target: DiscretizedBoundary, source: DiscretizedBoundary,
                 rows=slice(None)):
    """x(t_i) - y(tau_j) by components for the target rows ``rows``, and
    its length, as (rows, 2n')."""
    dx = target.x[rows, 0, None] - source.x[None, :, 0]
    dy = target.x[rows, 1, None] - source.x[None, :, 1]
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


def _same_curve_group(grid: DiscretizedBoundary, k: float, g):
    """Write the same-curve blocks of ``grid`` at wavenumber ``k`` into the
    group matrix ``g``."""
    n = grid.n
    dx, dy, r = _differences(grid, grid)
    np.fill_diagonal(r, 1.0)  # placeholder; diagonals are analytic
    p_tgt, p_src, j0, j1, y0, y1 = _kernels(grid, grid, k, dx, dy, r)
    del dx, dy, r
    # the limits at r = 0, which the logarithmic split takes on the diagonal
    np.fill_diagonal(j0, 1.0)
    np.fill_diagonal(j1, 0.0)
    rmat = log_weight_matrix(n)
    log_4sin2 = _log_4sin2(n)
    trap = np.pi / n
    speed_row = grid.speed[None, :]
    # the real part of the diagonal of the smooth part of the arc-length
    # single-layer kernel (its imaginary part is speed / 4)
    s_diag = (-(EULER_GAMMA + np.log(0.5 * k * grid.speed)) * grid.speed
              / (2.0 * np.pi))
    k_diag = -grid.curvature * grid.speed / (4.0 * np.pi)

    def log_rule(j, y, a, diag, out=None):
        # i (J + iY) a = M1 ln(4 sin^2((t - tau)/2)) + M2 with real
        # M1 = -J a / pi and M2 = (-Y a - M1 ln 4 sin^2) + i J a; `diag` is
        # the real part of M2's closed-form diagonal (J takes its r = 0
        # limit there, so the imaginary part needs no fix).  Writes the
        # (real, imaginary) parts into ``out``, or into a new stacked pair
        m1 = (-1.0 / np.pi) * j * a
        m2 = -y * a - m1 * log_4sin2
        np.fill_diagonal(m2, diag)
        if out is None:
            out = np.empty((2,) + m1.shape)
        re, im = out
        np.multiply(rmat, m1, out=re)
        re += trap * m2
        np.multiply(trap * j, a, out=im)
        im += 0.0  # +0.0 where J a is a negative zero, as re + 1j * im gave
        return out

    log_rule(j0, y0, 0.25 * speed_row, s_diag, _parts(g, "S"))
    log_rule(j1, y1, (0.25 * k) * p_src * speed_row, k_diag, _parts(g, "K"))
    log_rule(j1, y1, (-0.25 * k) * p_tgt * speed_row, k_diag, _parts(g, "KT"))
    # parametric single layer (no arc-length factor) minus its
    # constant-coefficient log part
    p_sharp = log_rule(j0, y0, 0.25, s_diag / grid.speed)
    p_sharp[0] += rmat / (4.0 * np.pi)
    nu_dot = grid.normal @ grid.normal.T
    q_block = log_rule(j0, y0, (0.25 * k * k) * nu_dot * speed_row,
                       k * k * s_diag)
    dmat = _spectral_diff_matrix(n)
    t_block = dmat @ p_sharp @ dmat
    t_block[0] += 0.5 * hypersingular_weight_matrix(n)
    for part, t_part, q_part in zip(_parts(g, "T"), t_block, q_block):
        np.divide(t_part, grid.speed[:, None], out=part)
        part += q_part


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


def _cross_curve_group(target: DiscretizedBoundary,
                       source: DiscretizedBoundary, k: float, g):
    """Write the cross-curve blocks of (``target``, ``source``) at wavenumber
    ``k`` into the group matrix ``g``, one panel of target rows at a time
    (see ``CROSS_PANEL_ENTRIES``)."""
    diffs = _differences(target, source)
    q = _cross_oversample(source, k, *diffs)
    fine = source
    if q > 1:
        diffs = None
        # the fine grid must carry the source grid's node map, or the
        # interpolated density would sit at the wrong points
        fine = discretize(source.curve, source.n * q, source.node_map)
    m = target.size
    # balanced panels of at least two rows: numpy multiplies a one-row
    # matrix by another BLAS path, which rounds nu_dot differently
    count = max(1, min(m // 2, -(-m * fine.size // CROSS_PANEL_ENTRIES)))
    edges = [m * i // count for i in range(count + 1)]
    # trapezoid weight pi/n times arc length times the 1/4 of (i/4) H
    w = (0.25 * np.pi / fine.n) * fine.speed
    dmin = np.inf
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = slice(lo, hi)
        dx, dy, r = (_differences(target, fine, rows) if q > 1
                     else (d[rows] for d in diffs))
        p_tgt, p_src, j0, j1, y0, y1 = _kernels(target, fine, k, dx, dy, r,
                                                rows)
        del dx, dy
        dmin = min(dmin, float(np.min(r)))
        if q > 1:
            parts = np.empty((2,) + r.shape)  # fine-grid (real, imaginary)
        for kind in KINDS:
            dest = _parts(g, kind, rows)
            re, im = parts if q > 1 else dest
            # the kernel is i (H0 a0 + H1 a1) with real factors a0, a1
            if kind == "S":
                terms = [(j0, y0, w)]
            elif kind == "K":
                terms = [(j1, y1, (k * w) * p_src)]
            elif kind == "KT":
                terms = [(j1, y1, (-k * w) * p_tgt)]
            else:
                pp = p_tgt * p_src
                nu_dot = target.normal[rows] @ fine.normal.T
                terms = [(j0, y0, (k * k * w) * pp),
                         (j1, y1, (k * w) * (nu_dot - 2.0 * pp) / r)]
            (j, y, a), *rest = terms
            np.multiply(y, a, out=re)
            np.multiply(j, a, out=im)
            for j, y, a in rest:
                re += y * a
                im += j * a
            np.negative(re, out=re)
            if q > 1:
                for part, folded in zip(dest, _decimate(parts, source.n)):
                    part[...] = folded
    if dmin < CONTAINMENT_MARGIN:
        warnings.warn(
            f"curves are {dmin:.3g} apart (< {CONTAINMENT_MARGIN}); "
            "cross-curve quadrature is poorly resolved",
            RuntimeWarning,
            stacklevel=3,
        )


def _decimate(fine_rows, n: int):
    """Map rows of fine-grid quadrature weights to the 2n-node source
    grid: the transpose of trigonometric interpolation from 2n nodes,
    i.e. keep the row's Fourier modes up to n (the Nyquist mode split
    evenly between +-n, as interpolation does) and transform back on 2n
    nodes.  Acts along the last axis."""
    spec = np.fft.rfft(fine_rows, axis=-1)[..., :n + 1]
    return np.fft.irfft(spec, 2 * n, axis=-1)


def _quadrant(g, kind):
    """``kind``'s quadrant of the group matrix ``g``, as a view."""
    m, n = g.shape[0] // 2, g.shape[1] // 2
    i, j = _QUADRANTS[kind]
    return g[i * m:(i + 1) * m, j * n:(j + 1) * n]


def _parts(g, kind, rows=slice(None)):
    """The (real, imaginary) views of the rows ``rows`` of ``kind``'s
    quadrant of the group matrix ``g``."""
    block = _quadrant(g, kind)[rows]
    return block.real, block.imag


def assemble_blocks(target: DiscretizedBoundary, source: DiscretizedBoundary,
                    k: float) -> np.ndarray:
    """Assemble the S/K/KT/T blocks (see module docstring) of one
    (target, source, k) pair, sharing kernel evaluations.  Returns their
    read-only group matrix [[K, S], [T, KT]], of shape (2m, 2n) for m
    target and n source nodes: each kind maps source-grid densities to
    target-grid values."""
    g = np.empty((2 * target.size, 2 * source.size), dtype=complex)
    if target is source:
        _same_curve_group(target, k, g)
    else:
        _cross_curve_group(target, source, k, g)
    g.setflags(write=False)
    for kind in KINDS:
        if not np.all(np.isfinite(_quadrant(g, kind))):
            raise SolverError(f"non-finite entries in {kind} block at k={k}")
    return g


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
