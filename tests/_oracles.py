"""Independent reference computations used across the test suite.

Everything here deliberately avoids the package's own numerics:
extended-precision ascending series (mpmath) for the cylinder functions,
scipy.special for circle-operator eigenvalues, brute-force quadrature
where a reference integral is needed, and all-pairs polyline distance
and crossing tests for the geometry safeguard.
"""

import mpmath as mp
import numpy as np
from scipy import special as ssp

mp.mp.dps = 50


def series_j0j1y0y1(x: float):
    """Ascending-series evaluation of J0, J1, Y0, Y1 in extended
    precision.

    Term count and working precision scale with the argument: the
    series' largest term grows like (x/2)^{2k}/(k!)^2, so the digit
    budget must absorb that cancellation before rounding to float.
    """
    mp.mp.dps = max(50, int(0.55 * x) + 40)
    xm = mp.mpf(x)
    q = (xm / 2) ** 2
    terms = max(30, int(3 * x) + 40)

    j0 = mp.mpf(1)
    j1s = mp.mpf(1)
    y0s = mp.mpf(0)
    y1s = mp.mpf(1)
    t0 = mp.mpf(1)
    t1 = mp.mpf(1)
    h = mp.mpf(0)
    for k in range(1, terms + 1):
        t0 = -t0 * q / (k * k)
        t1 = -t1 * q / (k * (k + 1))
        h += mp.mpf(1) / k
        j0 += t0
        j1s += t1
        y0s -= t0 * h
        y1s += t1 * (2 * h + mp.mpf(1) / (k + 1))
    j1 = (xm / 2) * j1s
    log_term = mp.log(xm / 2) + mp.euler
    y0 = (2 / mp.pi) * (log_term * j0 + y0s)
    y1 = (2 / mp.pi) * (log_term * j1 - 1 / xm) - (xm / (2 * mp.pi)) * y1s
    return float(j0), float(j1), float(y0), float(y1)


def circle_eigenvalues(radius: float, k: float, m: int):
    """Fourier eigenvalues of the boundary operators on a circle.

    Derived from the addition theorem plus the jump relations; the K/KT
    value is the average of the exterior and interior double-layer
    limits.  Returns (S_m, K_m, T_m) as complex numbers.
    """
    z = k * radius
    s = 0.5j * np.pi * radius * ssp.jv(m, z) * ssp.hankel1(m, z)
    kk = 0.25j * np.pi * radius * k * (
        ssp.jvp(m, z) * ssp.hankel1(m, z) + ssp.jv(m, z) * ssp.h1vp(m, z))
    t = 0.5j * np.pi * radius * k * k * ssp.jvp(m, z) * ssp.h1vp(m, z)
    return s, kk, t


def circle_double_layer_offset(radius: float, k: float, m: int, rho: float):
    """Double-layer potential of density e^{im theta} on a circle,
    evaluated at radius rho (off the boundary, either side)."""
    z = k * radius
    if rho > radius:
        return 0.5j * np.pi * radius * k * ssp.jvp(m, z) * ssp.hankel1(m, k * rho)
    return 0.5j * np.pi * radius * k * ssp.h1vp(m, z) * ssp.jv(m, k * rho)


def min_point_polyline_distance(points, poly):
    """Minimum distance from the points to the closed polyline through
    ``poly``: every point against every segment, as (Np, Nv) arrays."""
    a = poly  # (Nv, 2)
    b = np.roll(poly, -1, axis=0)
    ab = b - a  # (Nv, 2)
    ab2 = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    ap = points[:, None, :] - a[None, :, :]  # (Np, Nv, 2)
    s = np.clip(np.sum(ap * ab[None, :, :], axis=2) / ab2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + s[:, :, None] * ab[None, :, :]
    d = np.linalg.norm(points[:, None, :] - closest, axis=2)
    return float(np.min(d))


def polylines_cross(p, q):
    """Any proper crossing between a segment of the closed polyline
    through ``p`` and one through ``q``, testing all segment pairs."""
    a, b = p[:, None, :], np.roll(p, -1, axis=0)[:, None, :]  # (Np, 1, 2)
    c, d = q[None, :, :], np.roll(q, -1, axis=0)[None, :, :]  # (1, Nq, 2)

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    d1 = cross(b - a, c - a)
    d2 = cross(b - a, d - a)
    d3 = cross(d - c, a - c)
    d4 = cross(d - c, b - c)
    return bool(np.any((d1 * d2 < 0) & (d3 * d4 < 0)))
