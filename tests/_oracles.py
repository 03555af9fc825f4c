"""Reference computations and test-only helpers used across the suite.

The references avoid the numerics they check: extended-precision
ascending series (mpmath) for the cylinder functions, scipy.special for
circle-operator eigenvalues, brute-force quadrature where a reference
integral is needed, all-pairs polyline distance, crossing and
containment tests for the geometry safeguard, a cosine and a sine per
Fourier mode for starlike radii, node-map densities and the radial
normal components, a one-candidate-at-a-time Newton loop for the
closest approaches of a curve pair, the direct Jacobian path (one solve per
derivative problem) for the far-field-rows Jacobian, the Dirichlet
kernel for the cross-block decimation, and a Newton loop at one fixed
resolution for the resolution ladder.  The Hankel,
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


def node_map_density(node_map, t):
    """(int_0^t rho, rho, rho') of a ``NodeMap``, with a cosine and a
    sine per (point, mode) for the trigonometric base."""
    t = np.asarray(t, dtype=float)
    m = np.arange(1, node_map.base_cos.size)
    mt = np.multiply.outer(t, m)
    c, sn = np.cos(mt), np.sin(mt)
    a, b = node_map.base_cos[1:], node_map.base_sin
    integral = node_map.base_cos[0] * t + sn @ (a / m) - (c - 1.0) @ (b / m)
    rho = node_map.base_cos[0] + c @ a + sn @ b
    drho = sn @ (-m * a) + c @ (m * b)
    for c0, eta, w in zip(node_map.centers, node_map.widths, node_map.weights):
        r = np.exp(-eta)
        u = t - c0
        den = 1.0 - 2.0 * r * np.cos(u) + r * r
        half = 0.5 * w * eta
        integral = integral + half * (
            t + 2.0 * np.arctan(r * np.sin(u) / (1.0 - r * np.cos(u)))
            + 2.0 * np.arctan(r * np.sin(c0) / (1.0 - r * np.cos(c0))))
        rho = rho + half * (1.0 - r * r) / den
        drho = drho - half * (1.0 - r * r) * 2.0 * r * np.sin(u) / den**2
    return integral, rho, drho


def radial_normal_component(grid, center, modes):
    """``frechet.radial_normal_component`` with a cosine and a sine per
    (node, mode)."""
    r = np.linalg.norm(grid.x - np.asarray(center)[None, :], axis=1)
    lt = np.outer(grid.t, np.arange(1, modes + 1))
    basis = np.hstack([np.ones((grid.size, 1)), np.cos(lt), np.sin(lt)])
    return basis * r[:, None] / grid.speed[:, None] * grid.dt[:, None]


def closest_approaches(curve, other, dist):
    """``geometry._closest_approaches`` one candidate at a time, with a
    2x2 Newton solve per step on one-point curve evaluations."""
    from layerscat.geometry import GRADING_OFF

    m = dist.shape[0]
    grid = 2.0 * np.pi * np.arange(m) / m
    nearest = np.argmin(dist, axis=1)
    d = dist[np.arange(m), nearest]
    h = m // 32
    cand = ((d <= np.roll(d, 1)) & (d <= np.roll(d, -1))
            & (d < np.roll(d, h) - 1e-9) & (d < np.roll(d, -h) - 1e-9)
            & (d < GRADING_OFF))
    found = []
    for j in np.flatnonzero(cand):
        t, tau = grid[j], grid[nearest[j]]
        for _ in range(20):
            x, dx, ddx = (v[0] for v in curve.evaluate(np.array([t])))
            y, dy, ddy = (v[0] for v in other.evaluate(np.array([tau])))
            r = x - y
            grad = np.array([r @ dx, -(r @ dy)])
            hess = np.array([[dx @ dx + r @ ddx, -(dx @ dy)],
                             [-(dx @ dy), dy @ dy - r @ ddy]])
            if np.linalg.det(hess) <= 0.0 or hess[0, 0] <= 0.0:
                break
            step = np.linalg.solve(hess, grad)
            if np.max(np.abs(step)) > 4.0 * np.pi / m:
                break
            t, tau = t - step[0], tau - step[1]
            if np.max(np.abs(step)) < 1e-13:
                break
        x, dx, _ = (v[0] for v in curve.evaluate(np.array([t])))
        dval = float(np.linalg.norm(x - other.point(np.array([tau]))[0]))
        t = float(np.mod(t, 2.0 * np.pi))
        if dval < GRADING_OFF and all(
                abs(np.angle(np.exp(1j * (t - f[0])))) > 1e-6 for f in found):
            found.append((t, dval, float(np.linalg.norm(dx))))
    return found


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


def trig_interpolation_matrix(n, q):
    """Values at the 2nq fine nodes of the trigonometric interpolant of
    values at the 2n nodes pi j / n, from the Dirichlet kernel summed
    mode by mode (the Nyquist mode as a cosine split evenly between
    +-n).  Shape (2nq, 2n)."""
    t = np.pi * np.arange(2 * n * q) / (n * q)
    s = np.pi * np.arange(2 * n) / n
    d = t[:, None] - s[None, :]
    mat = 1.0 + np.cos(n * d)
    for m in range(1, n):
        mat += 2.0 * np.cos(m * d)
    return mat / (2 * n)


def fixed_resolution_newton(state, data, k0, config):
    """The Newton iteration of ``inverse.newton_iteration`` with every
    forward solve at ``config.n_solve``, written out step by step from
    the package's public pieces.  Returns the iteration records."""
    from layerscat.forward import observation_directions, solve_plane_wave
    from layerscat.frechet import canonical_directions, jacobian
    from layerscat.inverse import (ERR_FLOOR, IterationRecord, apply_step,
                                   choose_beta, lm_step, penalty_weights,
                                   relative_error)

    data = np.atleast_2d(np.asarray(data, dtype=complex))
    incident = observation_directions(data.shape[0])
    obs = observation_directions(data.shape[1])
    scale = np.sqrt(2.0 * np.pi / data.shape[1])
    records = []
    for m in range(config.max_iterations + 1):
        ff, traces, _, system = solve_plane_wave(
            *state.curves(), config.medium(k0, state.lambda1), incident,
            config.n_solve, obs)
        err = relative_error(ff.T, data)
        rec = IterationRecord(
            k0=k0, m=m, err=err, lambda1=state.lambda1, tau1=state.tau1,
            form=state.active_form, r0_coeffs=list(state.gamma0.coeffs),
            r1_coeffs=list(state.gamma1.coeffs),
            center1=list(state.gamma1.center), n_solve=config.n_solve)
        records.append(rec)
        if config.delta > 0.0 and err < config.tau_stop * config.delta:
            rec.stopped = "discrepancy"
            break
        if err < ERR_FLOOR:
            rec.stopped = "err_floor"
            break
        if m == config.max_iterations:
            rec.stopped = "max_iterations"
            break
        form = "lambda" if abs(state.lambda1) <= config.lambda_switch else "tau"
        center = config.center_updates_at(m)
        dirs = canonical_directions(system.grid0, system.grid1,
                                    state.gamma1.center, config.modes, form,
                                    center)
        jac, residual = jacobian(system, traces, ff.T, data, dirs, obs)
        jac, residual = scale * jac, scale * residual
        weights = penalty_weights(config.modes, config.s, center)
        rec.beta, rec.discrepancy_infeasible = choose_beta(
            jac, residual, weights, config.rho)
        step = lm_step(jac, residual, rec.beta, weights)
        rec.linearized_ratio = float(np.linalg.norm(jac @ step + residual)
                                     / np.linalg.norm(residual))
        state, rec.halvings, rec.min_separation = apply_step(
            state, step, form, center, config.modes)
        state = state.with_form(form)
    return records
