"""Reference computations and test-only helpers used across the suite.

The references avoid the numerics they check: extended-precision
ascending series (mpmath) for the cylinder functions, scipy.special for
circle-operator eigenvalues, brute-force quadrature where a reference
integral is needed, all-pairs polyline distance, crossing and
containment tests for the geometry safeguard, a loop over Fourier modes
for starlike radii, and the direct Jacobian path (one solve per
derivative problem) for the far-field-rows Jacobian.  The Hankel,
fundamental-solution, potential and trapezoid helpers are built on the
package's Bessel functions and grids; only the tests use them.
"""

import mpmath as mp
import numpy as np
from scipy import special as ssp

from layerscat.errors import (ConfigurationError, DomainError,
                              SingularityError, SolverError)
from layerscat.forward import DensityVector
from layerscat.frechet import derivative_boundary_data
from layerscat.specfun import bessel_j0j1y0y1

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


def points_in_polygon(points, poly):
    """Ray-casting containment with the crossing abscissa of every
    (point, edge) pair, as (Np, Nv) arrays; only straddling pairs
    count."""
    x, y = points[:, 0, None], points[:, 1, None]  # (Np, 1)
    x1, y1 = poly[None, :, 0], poly[None, :, 1]  # (1, Nv)
    x2, y2 = np.roll(poly[:, 0], -1)[None, :], np.roll(poly[:, 1], -1)[None, :]
    straddles = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at_y = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    crossings = np.sum(straddles & (x_at_y > x), axis=1)
    return crossings % 2 == 1


def starlike_radius_derivatives(coeffs, theta):
    """(r, r', r'') of a starlike shape's radius, one Fourier mode at a
    time, in the coefficient layout of ``StarlikeShape``."""
    theta = np.asarray(theta, dtype=float)
    m = (len(coeffs) - 1) // 2
    r = np.full_like(theta, coeffs[0])
    rp = np.zeros_like(theta)
    rpp = np.zeros_like(theta)
    for l in range(1, m + 1):
        c, s = np.cos(l * theta), np.sin(l * theta)
        ac, as_ = coeffs[l], coeffs[l + m]
        r += ac * c + as_ * s
        rp += l * (-ac * s + as_ * c)
        rpp += l * l * (-ac * c - as_ * s)
    return r, rp, rpp


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


def direct_derivative_far_field(system, traces, directions, obs_directions,
                                check=True):
    """Far fields of the derivative problems the direct way: solve every
    (incident, direction) column with ``solve_stacked`` and apply the
    far-field map to the densities.  Same columns as
    ``frechet.derivative_far_field``.

    ``check=False`` takes the same factorization and three refinement
    steps without the residual check, which near-zero columns of a
    strongly equilibrated system (|lambda1| ~ 1e6) can fail at roundoff
    level.
    """
    data = derivative_boundary_data(traces, directions, system.params,
                                    system.grid0, system.grid1)
    if check:
        return system.far_field(system.solve(data), obs_directions)
    b = data.stacked(system.params.mu0, system.params.mu1)
    x = system._raw_solve(b)
    for _ in range(3):
        x = x + system._raw_solve(b - system.matrix @ x)
    dens = DensityVector.from_stacked(x, system.grid0.size, system.grid1.size)
    return system.far_field(dens, obs_directions)


def hankel1_01(x):
    """First-kind Hankel functions (H0^(1), H1^(1)) at positive real x,
    as J + iY from the package's J0, J1, Y0, Y1 (complex scalars for 0-d
    input)."""
    j0, j1, y0, y1 = bessel_j0j1y0y1(x)
    return j0 + 1j * y0, j1 + 1j * y1


def fundamental_solution(k, x, y):
    """Helmholtz fundamental solution (i/4) H0^(1)(k |x - y|).

    ``x``, ``y`` are points with a trailing axis of length 2 that
    broadcast against each other.  Raises DomainError if k <= 0 and
    SingularityError if any distance is below 1e-14.
    """
    if not k > 0.0:
        raise DomainError(f"wavenumber must be positive, got {k}")
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    if np.any(dist < 1e-14):
        raise SingularityError("fundamental solution evaluated at coincident points")
    h0, _ = hankel1_01(k * dist)
    return 0.25j * h0


def evaluate_potential(source, k, points, density, layer):
    """Single- or double-layer potential of ``density`` on the
    discretized ``source`` at off-boundary points (plain trapezoid;
    accurate only away from the source curve)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diff = pts[:, None, :] - source.x[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    j0, j1, y0, y1 = bessel_j0j1y0y1(k * r)
    trap = np.pi / source.n
    if layer == "single":
        kern = 0.25j * (j0 + 1j * y0)
    elif layer == "double":
        q = np.sum(diff * source.normal[None, :, :], axis=-1)
        kern = 0.25j * k * (j1 + 1j * y1) * q / r
    else:
        raise SolverError(f"unknown layer {layer!r}")
    return (kern * source.speed[None, :]) @ np.asarray(density) * trap


def trapezoid(values):
    """(pi/n) sum of the 2n samples (spectrally accurate on analytic f)."""
    v = np.asarray(values)
    m2 = v.shape[-1]
    if m2 % 2 != 0:
        raise ConfigurationError("trapezoid expects 2n samples")
    return (np.pi / (m2 // 2)) * np.sum(v, axis=-1)
