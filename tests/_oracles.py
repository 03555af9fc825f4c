"""Reference computations and test-only helpers used across the suite.

The references avoid the numerics they check: extended-precision
ascending series (mpmath) for the cylinder functions, scipy.special for
circle-operator eigenvalues, brute-force quadrature where a reference
integral is needed, all-pairs polyline distance, crossing and
containment tests for the geometry safeguard, a cosine and a sine per
Fourier mode for starlike radii, node-map densities and the radial
normal components, an all-pairs self-crossing test for one closed
curve, a one-candidate-at-a-time Newton loop for the
closest approaches of a curve pair, the direct Jacobian path (one solve per
derivative problem) for the far-field-rows Jacobian, one equilibrated LU
of the whole transmission matrix for its block factorization, the block
set built on one thread (groups in order, then LU(A00), X and C) for the
two-thread build, the Dirichlet
kernel for the cross-block decimation, the cross-curve blocks at one
fixed oversampling for every pair, and a Newton loop at one fixed
resolution for the resolution ladder.  The Hankel,
fundamental-solution, potential and trapezoid helpers are built on the
package's Bessel functions and grids, and the H^s norm and the config
writer on its coefficient layout and config fields; only the tests use
them.  ``kinds`` names the S/K/KT/T quadrants of an operator group
matrix.
"""

import dataclasses
import functools
import json
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import scipy.linalg as sla
from scipy import special as ssp
from scipy.linalg.lapack import zgetrf, zgetrs

from layerscat.errors import ConfigurationError, DomainError, SolverError
from layerscat.forward import DensityVector, TransmissionSystem
from layerscat.frechet import derivative_boundary_data
from layerscat.geometry import discretize
from layerscat.operators import KINDS, _quadrant, assemble_blocks
from layerscat.specfun import bessel_j0j1y0y1

mp.mp.dps = 50


class SingularityError(DomainError):
    """Kernel evaluated at (numerically) coincident points."""


def hs_norm_sq(coeffs, s: float) -> float:
    """Squared H^s norm of a trig polynomial in the coefficient layout
    (a0, cos block, sin block): 2 pi a0^2 + pi sum (1+l^2)^s (a_l^2+a_{l+M}^2)."""
    c = np.asarray(coeffs, dtype=float)
    m = (c.size - 1) // 2
    l = np.arange(1, m + 1)
    w = (1.0 + l**2) ** s
    return float(2.0 * np.pi * c[0]**2
                 + np.pi * np.sum(w * (c[1:m + 1]**2 + c[m + 1:]**2)))


def write_config(config, path):
    """Write a ``SolverConfig`` as the config JSON that ``read_config``
    loads."""
    doc = dataclasses.asdict(config)
    doc["frequencies"] = list(config.frequencies)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8",
                          newline="\n")


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


def _crossings(p, q):
    """(Np, Nq) mask of the proper crossings between the segments of the
    closed polylines through ``p`` and ``q``, all pairs tested."""
    a, b = p[:, None, :], np.roll(p, -1, axis=0)[:, None, :]  # (Np, 1, 2)
    c, d = q[None, :, :], np.roll(q, -1, axis=0)[None, :, :]  # (1, Nq, 2)

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    d1 = cross(b - a, c - a)
    d2 = cross(b - a, d - a)
    d3 = cross(d - c, a - c)
    d4 = cross(d - c, b - c)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def polylines_cross(p, q):
    """Any proper crossing between a segment of the closed polyline
    through ``p`` and one through ``q``, testing all segment pairs."""
    return bool(np.any(_crossings(p, q)))


def curve_is_simple(curve, n_check=512):
    """No proper crossing between two segments of the curve's closed
    polyline at ``n_check`` equispaced parameters, all pairs tested
    except a segment with itself and its two neighbours."""
    pts = curve.point(np.linspace(0.0, 2.0 * np.pi, n_check, endpoint=False))
    gap = np.abs(np.subtract.outer(np.arange(n_check), np.arange(n_check)))
    ignore = (gap <= 1) | (gap == n_check - 1)
    return not np.any(_crossings(pts, pts) & ~ignore)


def direct_derivative_far_field(system, traces, directions, obs_directions,
                                check=True):
    """Far fields of the derivative problems the direct way: solve every
    (incident, direction) column with ``solve_stacked`` and apply the
    far-field map to the densities.  Same columns as
    ``frechet.derivative_far_field``.

    ``check=False`` takes the same factorization and three refinement
    steps without the residual check, which near-zero columns of a
    system at |lambda1| ~ 1e6 can fail at roundoff level.
    """
    data = derivative_boundary_data(traces, directions, system.params,
                                    system.grid0, system.grid1)
    if check:
        return system.far_field(system.solve(data), obs_directions)
    b = data.stacked(system.params.mu0, system.params.mu1)
    dense = system._dense()
    x = system._raw_solve(b)
    for _ in range(3):
        x = x + system._raw_solve(b - dense @ x)
    dens = DensityVector.from_stacked(x, system.grid0.size, system.grid1.size)
    return system.far_field(dens, obs_directions)


def transmission_matrix(system):
    """(I+A) written out block by block from the operator kinds, as the
    4x4 block system reads: rows and columns psi1, psi2 (interface),
    psi3, psi4 (buried curve)."""
    p = system.params
    mu0, mu1, la0, la1 = p.mu0, p.mu1, p.lambda0, p.lambda1

    def b(group, kind):
        return kinds(system.blocks[group])[kind]

    rows = [
        [mu0 * (la0 * b("0k0", "K") - b("0k1", "K")),
         mu0 * (b("0k0", "S") - b("0k1", "S")),
         -mu0 * la1 * b("01", "K"), -mu0 * b("01", "S")],
        [-mu0 * la0 * (b("0k0", "T") - b("0k1", "T")),
         -mu0 * (b("0k0", "KT") - la0 * b("0k1", "KT")),
         mu0 * la0 * la1 * b("01", "T"), mu0 * la0 * b("01", "KT")],
        [mu1 * b("10", "K"), mu1 * b("10", "S"),
         mu1 * (la1 * b("1k1", "K") - b("1k2", "K")),
         mu1 * (b("1k1", "S") - b("1k2", "S"))],
        [-mu1 * b("10", "T"), -mu1 * b("10", "KT"),
         -mu1 * la1 * (b("1k1", "T") - b("1k2", "T")),
         -mu1 * (b("1k1", "KT") - la1 * b("1k2", "KT"))],
    ]
    a = np.block(rows)
    return a + np.eye(a.shape[0])


class FullLUSystem(TransmissionSystem):
    """The transmission system factored the direct way: one LU of the
    whole (I+A)^T, assembled densely by the package's ``_dense``, taken
    of D_r^-1 (I+A) D_c^-1 (largest entry of each column, then of each
    row, scaled to one) when |lambda1| > 1e3.  Operator groups,
    refinement, residual checks (weighted by the same column scale in
    ``far_field_rows``), far fields and traces are the package's."""

    def _factor(self):
        m = self._dense()
        n = m.shape[0]
        if abs(self.params.lambda1) > 1e3:
            col = np.max(np.abs(m), axis=0)
            col[col == 0.0] = 1.0
            work = m / col[None, :]
            row = np.max(np.abs(work), axis=1)
            row[row == 0.0] = 1.0
            work /= row[:, None]
        else:
            col, row, work = np.ones(n), np.ones(n), m
        self._col_scale, self._row_scale = col, row
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            self._lu = sla.lu_factor(work.T, overwrite_a=work is not m)
        zero = np.flatnonzero(np.diagonal(self._lu[0]) == 0.0)
        if zero.size:
            raise SolverError(
                f"transmission system singular: zero pivot in column {zero[0]}")

    def _raw_solve(self, rhs, transposed=False):
        if transposed:
            # (I+A) = D_r S D_c, so (I+A)^T y = g is S^T (D_r y) = g / D_c
            y = sla.lu_solve(self._lu, rhs / self._col_scale[:, None])
            return y / self._row_scale[:, None]
        y = sla.lu_solve(self._lu, rhs / self._row_scale[:, None], trans=1)
        return y / self._col_scale[:, None]


def serial_block_set(grid0, grid1, params):
    """The block set of (grid0, grid1, params) built on the calling thread
    alone: the six groups in order, A00 = I + its 0k0 and 0k1 terms
    quadrant by quadrant, LU(A00^T) in place, X = A00^-1 B01 and C = B10
    X, with the operations of the one-thread build.  Returns (groups,
    (lu, piv), C)."""
    p = params
    blocks = {"0k0": assemble_blocks(grid0, grid0, p.k0),
              "0k1": assemble_blocks(grid0, grid0, p.k1),
              "1k1": assemble_blocks(grid1, grid1, p.k1)}
    blocks["1k2"] = (blocks["1k1"] if p.k2 == p.k1
                     else assemble_blocks(grid1, grid1, p.k2))
    blocks["01"] = assemble_blocks(grid0, grid1, p.k1)
    blocks["10"] = assemble_blocks(grid1, grid0, p.k1)
    n0 = 2 * grid0.size
    m = n0 // 2
    mu0, la0 = p.mu0, p.lambda0
    a00 = np.zeros((n0, n0), dtype=complex)
    for name, row_scales, col_scales in (("0k0", (mu0, -mu0), (la0, 1.0)),
                                         ("0k1", (-mu0, mu0 * la0),
                                          (1.0, 1.0))):
        for i, a in enumerate(row_scales):
            for j, b in enumerate(col_scales):
                quad = (slice(i * m, (i + 1) * m), slice(j * m, (j + 1) * m))
                a00[quad] += np.multiply(blocks[name][quad], a * b)
    a00[np.diag_indices(n0)] += 1.0
    lu, piv, _ = zgetrf(a00.T, overwrite_a=1)

    def scale_halves(v, a, b, out):
        half = v.shape[0] // 2
        np.multiply(v[:half], a, out=out[:half])
        np.multiply(v[half:], b, out=out[half:])
        return out

    g01 = blocks["01"]
    x = scale_halves(g01, -mu0, mu0 * la0,
                     np.empty(g01.shape[::-1], dtype=complex).T)
    x, _ = zgetrs(lu, piv, x, trans=1, overwrite_b=1)
    c = blocks["10"] @ x
    return blocks, (lu, piv), scale_halves(c, 1.0, -1.0, c)


def kinds(g):
    """{kind: view of its quadrant} of the operator group matrix ``g``."""
    return {kind: _quadrant(g, kind) for kind in KINDS}


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


@functools.lru_cache(maxsize=8)
def trig_interpolation_matrix(n, q):
    """Values at the 2nq fine nodes of the trigonometric interpolant of
    values at the 2n nodes pi j / n, from the Dirichlet kernel summed
    mode by mode (the Nyquist mode as a cosine split evenly between
    +-n).  Shape (2nq, 2n); cached per (n, q), read-only."""
    t = np.pi * np.arange(2 * n * q) / (n * q)
    s = np.pi * np.arange(2 * n) / n
    d = t[:, None] - s[None, :]
    mat = 1.0 + np.cos(n * d)
    for m in range(1, n):
        mat += 2.0 * np.cos(m * d)
    mat /= 2 * n
    mat.setflags(write=False)
    return mat


def cross_blocks_fixed_q(target, source, k, q=4):
    """The group matrix [[K, S], [T, KT]] of the cross-curve blocks by the
    trapezoid rule on a q-times oversampled source grid (carrying the
    source's node map), folded back onto the 2n source nodes with the
    transposed interpolation matrix: one fixed q for every pair, as the
    operators were assembled before q was chosen per block."""
    fine = discretize(source.curve, source.n * q, source.node_map)
    diff = target.x[:, None, :] - fine.x[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    h0, h1 = hankel1_01(k * r)
    p_tgt = np.sum(diff * target.normal[:, None, :], axis=-1) / r
    p_src = np.sum(diff * fine.normal[None, :, :], axis=-1) / r
    nu_dot = target.normal @ fine.normal.T
    kernels = {
        "S": 0.25j * h0,
        "K": 0.25j * k * h1 * p_src,
        "KT": -0.25j * k * h1 * p_tgt,
        "T": 0.25j * k * (k * h0 * p_tgt * p_src
                          + h1 * (nu_dot - 2.0 * p_tgt * p_src) / r),
    }
    fold = trig_interpolation_matrix(source.n, q)
    w = (np.pi / fine.n) * fine.speed
    b = {kind: (kern * w) @ fold for kind, kern in kernels.items()}
    return np.block([[b["K"], b["S"]], [b["T"], b["KT"]]])


def fixed_resolution_newton(state, data, k0, config):
    """The Newton iteration of ``inverse.newton_iteration`` with every
    forward solve at ``config.n_solve``, written out step by step from
    the package's public pieces.  Returns the iteration records."""
    from layerscat.forward import observation_directions, solve_plane_wave
    from layerscat.frechet import canonical_directions, jacobian
    from layerscat.inverse import (ERR_FLOOR, IterationRecord, apply_step,
                                   choose_beta, lm_step, penalty_weights,
                                   relative_error, transmission_slot)

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
        form, label, dlambda1 = transmission_slot(state.lambda1,
                                                  config.lambda_switch)
        center = config.center_updates_at(m)
        dirs = canonical_directions(system.grid0, system.grid1,
                                    state.gamma1.center, config.modes, label,
                                    dlambda1, center)
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
    return records
