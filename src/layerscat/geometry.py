"""Closed analytic boundary curves and their spectral discretization.

Two curve families:

* starlike trig-polynomial shapes ``center + r(theta)(cos theta, sin theta)``
  with ``r`` a degree-M trigonometric polynomial -- the reconstruction
  space of the inverse solver;
* named preset shapes used as synthetic-data truth geometry (circle,
  apple, kite, rounded_square, rounded_triangle).

All evaluation is vectorized over the parameter; derivatives are closed
form, never finite differences.  Trigonometric polynomials (starlike
radii, node-map densities) take cos(l theta) and sin(l theta) from one
complex exponential per point (``_harmonics``).  Geometry values are
immutable after construction.

A valid curve pair has the buried polyline strictly inside the
interface's, at least CONTAINMENT_MARGIN away.  ``validate_pair``
decides it from one search for close vertex pairs and one ray cast:
the distance minimum needs only vertex pairs within d_v + L / 2 (d_v the
smallest vertex distance, L the longest segment), a crossing has two
endpoints within L of each other, and without a crossing all buried
vertices share one side, so one vertex is cast unless the polylines cross.

``validate_pair`` and ``discretize_pair`` keep nothing between calls: a
caller that discretizes one pair at several n keeps its node maps, as
the Newton iterate (``inverse.ShapeState``) does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GeometryError

RADIUS_FLOOR = 0.05
CONTAINMENT_MARGIN = 0.05
SPEED_FLOOR = 1e-10
VALIDATION_GRID = 512

# Node grading of close curve pairs (see ``_pair_node_maps``)
GRADING_OFF = 0.5
GRADING_FULL = 0.25
GRADING_SAMPLES = 256
GRADING_MODES = 24
GRADING_SMOOTHING = 6.0
GRADING_PEAK = 1.5
GRADING_REACH = 1.6

PRESET_NAMES = ("circle", "apple", "kite", "rounded_square", "rounded_triangle")


def _readonly(a):
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


_GUESS_T = _readonly(np.linspace(0.0, 2.0 * np.pi, 257))


def _harmonics(theta, m):
    """exp(i l theta) for l = 1..m, shape (m,) + theta.shape: the real
    and imaginary parts are cos(l theta) and sin(l theta).

    One complex exponential per angle; the powers follow by
    multiplication, doubling the count of known powers at each step.
    Power l carries an error of O(l) ulps, against the l |theta| ulps of
    rounding l theta before a cosine.
    """
    z = np.exp(1j * np.asarray(theta, dtype=float))
    out = np.empty((m,) + z.shape, dtype=complex)
    if m:
        out[0] = z
    k = 1
    while k < m:
        n = min(k, m - k)
        np.multiply(out[:n], out[k - 1], out=out[k:k + n])  # z^(l+k)
        k += n
    return out


@dataclass(frozen=True)
class StarlikeShape:
    """Starlike boundary: center + r(theta) (cos theta, sin theta).

    ``coeffs`` holds 2M+1 reals laid out as (a_0, a_1..a_M cosine,
    a_{M+1}..a_{2M} sine) so that

        r(theta) = a_0 + sum_l [a_l cos(l theta) + a_{l+M} sin(l theta)].
    """

    center: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(
            np.asarray(self.center, dtype=float).reshape(2)))
        coeffs = np.asarray(self.coeffs, dtype=float).ravel()
        if coeffs.size % 2 != 1:
            raise ConfigurationError(
                f"starlike coefficient count must be odd (2M+1), got {coeffs.size}"
            )
        object.__setattr__(self, "coeffs", _readonly(coeffs))

    @property
    def modes(self) -> int:
        return (self.coeffs.size - 1) // 2

    @classmethod
    def circle(cls, radius, center=(0.0, 0.0), modes=0):
        coeffs = np.zeros(2 * modes + 1)
        coeffs[0] = radius
        return cls(np.asarray(center, dtype=float), coeffs)

    def _radius_at(self, z):
        """r from the harmonics z = ``_harmonics(theta, M)`` of flat
        theta, as a_0 + Re sum_l w_l z_l with w_l = a_l - i a_{l+M};
        returns (r, w)."""
        m = self.modes
        w = self.coeffs[1:m + 1] - 1j * self.coeffs[m + 1:]
        return self.coeffs[0] + (w @ z).real, w

    def radius(self, theta):
        """r at the given angles, without its derivatives."""
        theta = np.asarray(theta, dtype=float)
        r, _ = self._radius_at(_harmonics(theta.ravel(), self.modes))
        return r.reshape(theta.shape)

    def radius_derivatives(self, theta):
        """Return (r, r', r'') at the given angles; r is ``radius``'s to
        the bit."""
        theta = np.asarray(theta, dtype=float)
        z = _harmonics(theta.ravel(), self.modes)
        r, w = self._radius_at(z)
        l = np.arange(1, self.modes + 1)
        rp, rpp = (np.stack([1j * l * w, -l * l * w]) @ z).real
        return tuple(v.reshape(theta.shape) for v in (r, rp, rpp))

    def validate(self):
        """Raise GeometryError unless the center and r(theta) are finite
        and r(theta) >= RADIUS_FLOOR on a dense grid; return its radii."""
        theta = np.linspace(0.0, 2.0 * np.pi, VALIDATION_GRID, endpoint=False)
        r = self.radius(theta)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(self.center))):
            raise GeometryError(
                f"starlike curve is not finite (center {tuple(self.center)})")
        rmin = float(np.min(r))
        if rmin < RADIUS_FLOOR:
            raise GeometryError(
                f"starlike radius dips to {rmin:.4g} < floor {RADIUS_FLOOR} "
                f"(center {tuple(self.center)})"
            )
        return r


def _polar_xyz(center, r, rp, rpp, theta):
    """Point/derivative arrays for x = center + r(theta)(cos, sin)."""
    c, s = np.cos(theta), np.sin(theta)
    e = np.stack([c, s], axis=-1)
    ep = np.stack([-s, c], axis=-1)
    x = center + r[..., None] * e
    dx = rp[..., None] * e + r[..., None] * ep
    ddx = (rpp - r)[..., None] * e + 2.0 * rp[..., None] * ep
    return x, dx, ddx


def _apple_radius(theta):
    u = 0.5 + 0.4 * np.cos(theta) + 0.1 * np.sin(2.0 * theta)
    v = 1.0 + 0.7 * np.cos(theta)
    up = -0.4 * np.sin(theta) + 0.2 * np.cos(2.0 * theta)
    vp = -0.7 * np.sin(theta)
    upp = -0.4 * np.cos(theta) - 0.4 * np.sin(2.0 * theta)
    vpp = -0.7 * np.cos(theta)
    r = u / v
    rp = (up * v - u * vp) / v**2
    rpp = (upp * v - u * vpp) / v**2 - 2.0 * vp * (up * v - u * vp) / v**3
    return r, rp, rpp


@dataclass(frozen=True)
class ParametricCurve:
    """A closed analytic 2pi-periodic boundary curve.

    ``kind`` is ``"starlike"`` (with ``shape`` set) or one of the preset
    names.  Preset curves are origin-centered with the standard
    parameters; ``"circle"`` additionally takes ``radius``.
    """

    kind: str
    shape: StarlikeShape | None = None
    radius_param: float | None = None

    def __post_init__(self):
        if self.kind == "starlike":
            if self.shape is None:
                raise ConfigurationError("starlike curve requires a StarlikeShape")
        elif self.kind not in PRESET_NAMES:
            raise ConfigurationError(
                f"unknown preset curve {self.kind!r}; expected one of {PRESET_NAMES}"
            )
        elif self.kind == "circle" and not (self.radius_param is not None
                                            and np.isfinite(self.radius_param)):
            raise ConfigurationError("preset 'circle' requires a finite radius")

    @classmethod
    def starlike(cls, shape: StarlikeShape):
        return cls(kind="starlike", shape=shape)

    @classmethod
    def preset(cls, name: str, radius: float | None = None):
        return cls(kind=name, radius_param=radius)

    def evaluate(self, t):
        """Return (x, x', x'') arrays of shape t.shape + (2,)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "starlike":
            r, rp, rpp = self.shape.radius_derivatives(t)
            return _polar_xyz(self.shape.center, r, rp, rpp, t)
        if self.kind == "circle":
            r0 = float(self.radius_param)
            z = np.zeros_like(t)
            return _polar_xyz(np.zeros(2), np.full_like(t, r0), z, z, t)
        if self.kind == "apple":
            r, rp, rpp = _apple_radius(t)
            return _polar_xyz(np.zeros(2), r, rp, rpp, t)
        if self.kind == "rounded_triangle":
            r = 2.0 + 0.3 * np.cos(3.0 * t)
            rp = -0.9 * np.sin(3.0 * t)
            rpp = -2.7 * np.cos(3.0 * t)
            return _polar_xyz(np.zeros(2), r, rp, rpp, t)
        if self.kind == "kite":
            c, s = np.cos(t), np.sin(t)
            c2, s2 = np.cos(2.0 * t), np.sin(2.0 * t)
            x = np.stack([c + 0.65 * c2 - 0.65, 1.5 * s], axis=-1)
            dx = np.stack([-s - 1.3 * s2, 1.5 * c], axis=-1)
            ddx = np.stack([-c - 2.6 * c2, -1.5 * s], axis=-1)
            return x, dx, ddx
        # rounded_square
        c, s = np.cos(t), np.sin(t)
        x = 1.5 * np.stack([c**3 + c, s**3 + s], axis=-1)
        dx = 1.5 * np.stack([-s * (3.0 * c**2 + 1.0), c * (3.0 * s**2 + 1.0)], axis=-1)
        ddx = 1.5 * np.stack(
            [-c * (3.0 * c**2 + 1.0) + 6.0 * c * s**2,
             -s * (3.0 * s**2 + 1.0) + 6.0 * s * c**2],
            axis=-1,
        )
        return x, dx, ddx

    def point(self, t):
        return self.evaluate(t)[0]


@dataclass(frozen=True, eq=False)
class NodeMap:
    """Smooth, periodic, monotone change of parameter s -> t(s).

    The nodes s_j stay equispaced, so every periodic quadrature rule
    applies unchanged to the reparametrized curve s -> x(t(s)); the map
    only moves the nodes along the curve, with density (in t)

        rho(t) = base(t) + sum_i weight_i (eta_i / 2) P(eta_i, t - center_i),

    where ``base`` is the trigonometric polynomial with coefficients
    ``base_cos`` (m = 0..L) and ``base_sin`` (m = 1..L), and
    P(eta, u) = (1 - r^2) / (1 - 2 r cos u + r^2), r = exp(-eta), is the
    Poisson kernel, whose poles sit at center_i +- i eta_i.  The map is
    the exact inverse of s(t) = 2 pi int_0^t rho / int_0^2pi rho, so
    t(0) = 0 and t'(s) = 1 / rho(t) up to normalization.
    """

    base_cos: np.ndarray
    base_sin: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    weights: np.ndarray

    @cached_property
    def _guess(self):
        """int_0^t rho on _GUESS_T: the first-guess table of ``evaluate``,
        built once per map."""
        return _readonly(self.density(_GUESS_T)[0])

    @property
    def total(self) -> float:
        """int_0^2pi rho."""
        return float(2.0 * np.pi * self.base_cos[0]
                     + np.pi * np.sum(self.weights * self.widths))

    def density(self, t):
        """Return (int_0^t rho, rho(t), rho'(t))."""
        t = np.asarray(t, dtype=float)
        m = np.arange(1, self.base_cos.size)
        coef = self.base_cos[1:] - 1j * self.base_sin
        z = _harmonics(t.ravel(), m.size)
        rho, drho = (np.stack([coef, 1j * m * coef]) @ z).real
        # int_0^t (a cos + b sin)(m tau) = Re[(a - i b)(exp(i m t) - 1) / (i m)],
        # exactly 0 at t = 0
        integral = (self.base_cos[0] * t
                    + ((coef / (1j * m)) @ (z - 1.0)).real.reshape(t.shape))
        rho = self.base_cos[0] + rho.reshape(t.shape)
        drho = drho.reshape(t.shape)
        for c0, eta, w in zip(self.centers, self.widths, self.weights):
            r = np.exp(-eta)
            e_u = np.exp(1j * (t - c0))
            cos_u, sin_u = e_u.real, e_u.imag
            den = 1.0 - 2.0 * r * cos_u + r * r
            half = 0.5 * w * eta
            integral = integral + half * (
                t + 2.0 * np.arctan(r * sin_u / (1.0 - r * cos_u))
                + 2.0 * np.arctan(r * np.sin(c0) / (1.0 - r * np.cos(c0))))
            rho = rho + half * (1.0 - r * r) / den
            drho = drho - half * (1.0 - r * r) * 2.0 * r * sin_u / den**2
        return integral, rho, drho

    def evaluate(self, s):
        """Return (t, t', t'') at the given values of s.

        t(s) solves s(t) = s by Newton's method from a piecewise-linear
        first guess, safeguarded by bisection on the bracket [0, 2 pi]
        of each period.
        """
        s = np.asarray(s, dtype=float)
        period = np.floor(s / (2.0 * np.pi))
        scale = self.total / (2.0 * np.pi)
        target = (s - 2.0 * np.pi * period) * scale
        t = np.interp(target, self._guess, _GUESS_T)
        lo = np.zeros_like(target)
        hi = np.full_like(target, 2.0 * np.pi)
        for _ in range(100):
            value, rho, _ = self.density(t)
            resid = value - target
            lo = np.where(resid <= 0.0, t, lo)
            hi = np.where(resid >= 0.0, t, hi)
            step = t - resid / rho
            step = np.where((step < lo) | (step > hi), 0.5 * (lo + hi), step)
            done = np.max(np.abs(step - t)) <= 1e-14
            t = step
            if done:
                break
        _, rho, drho = self.density(t)
        dt = scale / rho
        return t + 2.0 * np.pi * period, dt, -scale * scale * drho / rho**3


@dataclass(frozen=True, eq=False)
class DiscretizedBoundary:
    """Pointwise curve data at the 2n Nystrom nodes.

    The quadrature nodes ``s`` = pi j / n are equispaced; the curve
    parameter at the nodes is ``t`` = t(s_j), equal to ``s`` unless a
    ``node_map`` grades the nodes, and ``dt`` holds t'(s_j).  ``dx`` and
    ``ddx`` are derivatives with respect to s, so ``speed`` = |dx/ds|
    absorbs both the arc-length factor and the map's Jacobian in all
    quadratures.  Normals are outward unit vectors for the
    counterclockwise preset and starlike parametrizations.  Frozen, with
    read-only arrays and a frozen curve, so a grid object fixes its
    content (the cross-curve blocks rediscretize ``curve``): the forward
    solver reuses operator blocks by grid identity.
    """

    curve: ParametricCurve
    n: int
    s: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    dt: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    dx: np.ndarray = field(repr=False)
    ddx: np.ndarray = field(repr=False)
    speed: np.ndarray = field(repr=False)
    normal: np.ndarray = field(repr=False)
    curvature: np.ndarray = field(repr=False)
    node_map: NodeMap | None = None

    @property
    def size(self) -> int:
        return 2 * self.n

    def d_ds(self, values):
        """Arc-length derivative of nodal values, column by column."""
        return (spectral_derivative(values).T / self.speed).T


def discretize(curve: ParametricCurve, n: int,
               node_map: NodeMap | None = None) -> DiscretizedBoundary:
    """Sample the curve at the 2n Nystrom nodes s_j = pi j / n.

    Without ``node_map`` the nodes are t_j = s_j; with it they are
    t(s_j) and all derivatives are taken with respect to s.  Raises
    GeometryError if the parametrization degenerates (|x'| < 1e-10 at
    any node).
    """
    if n < 4:
        raise ConfigurationError(f"need n >= 4 nodes per half period, got {n}")
    s = np.pi * np.arange(2 * n) / n
    if node_map is None:
        t, dt = s, np.ones_like(s)
        x, dx, ddx = curve.evaluate(t)
    else:
        t, dt, ddt = node_map.evaluate(s)
        x, xt, xtt = curve.evaluate(t)
        dx = xt * dt[:, None]
        ddx = xtt * (dt * dt)[:, None] + xt * ddt[:, None]
    speed = np.hypot(dx[:, 0], dx[:, 1])
    if np.min(speed) < SPEED_FLOOR:
        raise GeometryError(
            f"degenerate curve: |x'| = {np.min(speed):.3g} at a node"
        )
    normal = np.stack([dx[:, 1], -dx[:, 0]], axis=-1) / speed[:, None]
    curvature = (dx[:, 0] * ddx[:, 1] - dx[:, 1] * ddx[:, 0]) / speed**3
    for a in (s, t, dt, x, dx, ddx, speed, normal, curvature):
        a.setflags(write=False)
    return DiscretizedBoundary(
        curve=curve, n=n, s=s, t=t, dt=dt, x=x, dx=dx, ddx=ddx,
        speed=speed, normal=normal, curvature=curvature, node_map=node_map,
    )


# ---------------------------------------------------------------------------
# Node grading for close curve pairs
# ---------------------------------------------------------------------------
def _grading_strength(d):
    """C^1 ramp from 1 (separation <= GRADING_FULL) to exactly 0
    (separation >= GRADING_OFF)."""
    u = np.clip((GRADING_OFF - d) / (GRADING_OFF - GRADING_FULL), 0.0, 1.0)
    return float(u * u * (3.0 - 2.0 * u))


def _closest_approaches(curve: ParametricCurve, other: ParametricCurve,
                        dist):
    """Local minima of the distance from x(t) to the other curve.

    ``dist[j, k]`` = |x(t_j) - y(t_k)| on GRADING_SAMPLES equispaced
    parameters.  Returns (t_i, d_i, |x'(t_i)|) for every strict local
    minimum closer than GRADING_OFF, refined by Newton's method on
    |x(t) - y(tau)|^2 / 2 from the best sample pair.  All candidates
    iterate together; each stops on its own after 20 steps, on a Hessian
    that is not positive definite or a step longer than 4 pi / m (both
    leave it where it is), or after a step below 1e-13.  A minimum within
    1e-6 of an earlier one is dropped.  Flat stretches (concentric
    circles) have no strict minimum and give none.
    """
    m = dist.shape[0]
    grid = 2.0 * np.pi * np.arange(m) / m
    nearest = np.argmin(dist, axis=1)
    d = dist[np.arange(m), nearest]
    h = m // 32
    cand = np.flatnonzero(
        (d <= np.roll(d, 1)) & (d <= np.roll(d, -1))
        & (d < np.roll(d, h) - 1e-9) & (d < np.roll(d, -h) - 1e-9)
        & (d < GRADING_OFF))
    if cand.size == 0:
        return []
    t, tau = grid[cand], grid[nearest[cand]]
    active = np.arange(cand.size)
    for _ in range(20):
        x, dx, ddx = curve.evaluate(t[active])
        y, dy, ddy = other.evaluate(tau[active])
        r = x - y
        g_t, g_tau = np.sum(r * dx, axis=1), -np.sum(r * dy, axis=1)
        h_tt = np.sum(dx * dx, axis=1) + np.sum(r * ddx, axis=1)
        h_ttau = -np.sum(dx * dy, axis=1)
        h_tautau = np.sum(dy * dy, axis=1) - np.sum(r * ddy, axis=1)
        det = h_tt * h_tautau - h_ttau * h_ttau
        move = (det > 0.0) & (h_tt > 0.0)
        safe = np.where(move, det, 1.0)
        step_t = (h_tautau * g_t - h_ttau * g_tau) / safe
        step_tau = (h_tt * g_tau - h_ttau * g_t) / safe
        size = np.maximum(np.abs(step_t), np.abs(step_tau))
        move &= size <= 4.0 * np.pi / m
        t[active[move]] -= step_t[move]
        tau[active[move]] -= step_tau[move]
        active = active[move & (size >= 1e-13)]
        if active.size == 0:
            break
    x, dx, _ = curve.evaluate(t)
    dval = np.hypot(*(x - other.point(tau)).T)
    speed = np.hypot(*dx.T)
    t = np.mod(t, 2.0 * np.pi)
    found = []
    for ti, di, si in zip(t, dval, speed):
        if di < GRADING_OFF and all(
                abs(np.angle(np.exp(1j * (ti - f[0])))) > 1e-6 for f in found):
            found.append((float(ti), float(di), float(si)))
    return found


def _node_map(curve: ParametricCurve, approaches, strength):
    """Grading map of one curve (see ``_pair_node_maps``)."""
    m = GRADING_SAMPLES
    grid = 2.0 * np.pi * np.arange(m) / m
    dx = curve.evaluate(grid)[1]
    coef = np.fft.rfft(np.hypot(dx[:, 0], dx[:, 1]))[:GRADING_MODES + 1]
    modes = np.arange(GRADING_MODES + 1)
    coef = coef * np.exp(-modes**2 / (2.0 * GRADING_SMOOTHING)) / coef[0].real
    base_cos = strength * 2.0 * coef.real
    base_cos[0] = 1.0
    base_sin = -strength * 2.0 * coef.imag[1:]
    centers = _readonly([t for t, _, _ in approaches])
    widths = _readonly([GRADING_REACH * d / speed for _, d, speed in approaches])
    base_cos, base_sin = _readonly(base_cos), _readonly(base_sin)
    base_at = NodeMap(base_cos, base_sin, centers[:0], widths[:0],
                      widths[:0]).density(centers)[1]
    weights = [GRADING_PEAK * _grading_strength(d) * b
               for (_, d, _), b in zip(approaches, base_at)]
    return NodeMap(base_cos, base_sin, centers, widths, _readonly(weights))


def _pair_node_maps(outer: ParametricCurve, inner: ParametricCurve,
                    separation: float | None = None):
    """Node maps that grade both curves toward their closest approach.

    The layer densities of a close pair are analytic only in a strip of
    width about separation / |x'| around the real parameter axis, so
    equispaced nodes converge slowly there.  Each curve gets the
    density (in its parameter t) of ``NodeMap``:

    * a base that follows the Gaussian-smoothed speed |x'(t)|, so that
      the nodes stay close to arc-length spaced and no stretch of the
      curve is starved of nodes per wavelength;
    * at every closest-approach point t_i (separation d_i) a Poisson
      bump of peak GRADING_PEAK times the base, whose poles sit at
      t_i +- i GRADING_REACH d_i / |x'(t_i)|, near the densities' own
      singularities.

    The bumps and the base fade in continuously as the separation drops
    from GRADING_OFF to GRADING_FULL.  Returns (outer map, inner map);
    both are None, the identity, when the curves are at least
    GRADING_OFF apart.

    Given the pair's ``validate_pair`` separation at GRADING_OFF or more,
    the maps are the identity without the sampled distance table: the
    GRADING_SAMPLES samples are vertices of the VALIDATION_GRID
    polylines, so no sampled distance falls below the separation and no
    sample starts a closest-approach search (roundoff slack 1e-12).
    """
    if separation is not None and separation >= GRADING_OFF * (1.0 + 1e-12):
        return None, None
    return _graded_node_maps(outer, inner)


def _graded_node_maps(outer: ParametricCurve, inner: ParametricCurve):
    """The full analysis of ``_pair_node_maps``, from the sampled
    distance table."""
    grid = 2.0 * np.pi * np.arange(GRADING_SAMPLES) / GRADING_SAMPLES
    p, q = outer.point(grid), inner.point(grid)
    dist = np.hypot(p[:, None, 0] - q[None, :, 0], p[:, None, 1] - q[None, :, 1])
    found = (_closest_approaches(outer, inner, dist),
             _closest_approaches(inner, outer, dist.T))
    dmin = min((d for f in found for _, d, _ in f), default=np.inf)
    strength = _grading_strength(dmin)
    if strength == 0.0:
        return None, None
    return (_node_map(outer, found[0], strength),
            _node_map(inner, found[1], strength))


def discretize_pair(outer: ParametricCurve, inner: ParametricCurve, n: int):
    """Discretize the interface and the buried boundary with 2n nodes
    each, graded toward their closest approach by ``_pair_node_maps``
    (equispaced for well-separated curves), analysed on every call."""
    map0, map1 = _pair_node_maps(outer, inner)
    return discretize(outer, n, map0), discretize(inner, n, map1)


def spectral_derivative(values):
    """Derivative of the trigonometric interpolant at the 2n nodes,
    along axis 0 (each column of a 2-D array separately).

    Exact for trigonometric polynomials of degree < n; the Nyquist mode
    contributes zero derivative at the nodes.
    """
    v = np.asarray(values)
    m2 = v.shape[0]
    if m2 % 2 != 0:
        raise ConfigurationError("spectral_derivative expects an even sample count")
    freq = np.fft.fftfreq(m2, d=1.0 / m2)  # integer wavenumbers
    freq[m2 // 2] = 0.0  # Nyquist derivative vanishes at the nodes
    freq = freq.reshape((m2,) + (1,) * (v.ndim - 1))
    dv = np.fft.ifft(1j * freq * np.fft.fft(v, axis=0), axis=0)
    if np.isrealobj(v):
        return dv.real
    return dv


# ---------------------------------------------------------------------------
# Validation of curves and curve pairs
# ---------------------------------------------------------------------------
def _checked_polyline(curve: ParametricCurve):
    """Validate one curve and return its polyline on the VALIDATION_GRID.

    A starlike curve must pass ``StarlikeShape.validate``, whose radii
    double as the polyline's.  The presets are fixed simple curves (the
    circle for any nonzero radius), so theirs is taken as it is.
    """
    t = np.linspace(0.0, 2.0 * np.pi, VALIDATION_GRID, endpoint=False)
    if curve.kind != "starlike":
        return curve.point(t)
    r = curve.shape.validate()
    # the points of ``_polar_xyz``, without the derivatives
    return curve.shape.center + r[:, None] * np.stack([np.cos(t), np.sin(t)],
                                                      axis=-1)


def _points_in_polygon(points, poly):
    """Ray-casting (crossing-number) containment test, vectorized.

    The crossing abscissa is computed only on the (point, edge) pairs
    whose edge straddles the point's ordinate, the only pairs that can
    count; there y1 != y2, so the division is safe.
    """
    x, y = points[:, 0], points[:, 1]
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    i, j = np.nonzero((y1[None, :] > y[:, None]) != (y2[None, :] > y[:, None]))
    x_at_y = x1[j] + (y[i] - y1[j]) * (x2[j] - x1[j]) / (y2[j] - y1[j])
    crossings = np.bincount(i[x_at_y > x[i]], minlength=points.shape[0])
    return crossings % 2 == 1


def _point_segment_distances(points, a, ab, ab2):
    """|p - c| row by row, c the point of segment a + s ab closest to p."""
    ap = points - a
    s = np.clip((ap[:, 0] * ab[:, 0] + ap[:, 1] * ab[:, 1]) / ab2, 0.0, 1.0)
    diff = points - (a + s[:, None] * ab)
    return np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])


def _cross(u, v):
    """z-component of u x v, row by row."""
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _polyline_separation(p, q):
    """(dmin, crosses) of the closed polylines p and q: their minimum
    (vertex, segment) distance, bit for bit the all-pairs value, and
    whether two of their segments properly cross.  One search for close
    vertex pairs serves both; ``validate_pair`` gives the reach.
    """
    ab_p, ab_q = np.roll(p, -1, axis=0) - p, np.roll(q, -1, axis=0) - q
    ab2_p, ab2_q = (np.maximum(np.sum(ab * ab, axis=1), 1e-300)
                    for ab in (ab_p, ab_q))
    l_max = float(np.sqrt(max(np.max(ab2_p), np.max(ab2_q))))
    pp, qq = np.sum(p * p, axis=1), np.sum(q * q, axis=1)
    # squared vertex distances |p_i - q_j|^2 = |p_i|^2 + |q_j|^2 - 2 p_i.q_j;
    # the slack covers the roundoff of this form
    gram = p @ q.T
    gram *= -2.0
    gram += pp[:, None]
    gram += qq
    slack = 1e-12 * (np.max(pp) + np.max(qq))
    d_v = np.sqrt(max(float(np.min(gram)), 0.0) + slack)
    reach = max(d_v + 0.5 * l_max, l_max)**2 + slack
    i, j = np.divmod(np.flatnonzero(gram <= reach), q.shape[0])
    dmin = np.inf
    for pts, at, poly, end, ab, ab2 in ((p, i, q, j, ab_q, ab2_q),
                                        (q, j, p, i, ab_p, ab2_p)):
        # vertex ``end`` of poly ends its segments end - 1 and end
        at, seg = np.concatenate([at, at]), np.concatenate([end, end - 1])
        d = _point_segment_distances(pts[at], poly[seg], ab[seg], ab2[seg])
        dmin = min(dmin, float(np.min(d)))
    near = gram[i, j] <= l_max * l_max + slack
    if not np.any(near):
        return dmin, False
    i, j = i[near], j[near]
    # segments i - 1 and i of p (segment s runs from vertex s to s + 1)
    # against segments j - 1 and j of q
    s, t = np.concatenate([i, i, i - 1, i - 1]), np.concatenate([j, j - 1] * 2)
    a, ab, b = p[s], ab_p[s], p[(s + 1) % p.shape[0]]
    c, cd, d = q[t], ab_q[t], q[(t + 1) % q.shape[0]]
    return dmin, bool(np.any((_cross(ab, c - a) * _cross(ab, d - a) < 0)
                             & (_cross(cd, a - c) * _cross(cd, b - c) < 0)))


def validate_pair(outer: ParametricCurve, inner: ParametricCurve) -> float:
    """Check the buried curve lies strictly inside the outer one and
    return the minimum distance between their polylines.

    Raises GeometryError if a starlike radius is not finite or dips
    below RADIUS_FLOOR, an inner vertex is outside the outer polygon
    (ray casting), the polylines come closer than CONTAINMENT_MARGIN, or
    they cross.  With L the longest segment of either polyline, all
    three polyline checks are exact:

    * distance reach: the (vertex, segment) minimum is at most the
      smallest vertex distance d_v, and the point of a segment closest
      to a vertex lies within half its length of an endpoint, so only
      vertex pairs within d_v + L / 2 (plus a roundoff slack) count;
    * crossing lemma: if AB crosses CD at X, an endpoint of each lies
      within half its segment of X, so two endpoints lie within L of
      each other; the two segments at each end of every such vertex
      pair are tested;
    * one-parity containment: without a proper crossing the inner
      polyline can change sides of the outer one only by touching it,
      at distance 0, which fails the margin anyway; so all inner
      vertices share one crossing parity, and one is ray-cast unless
      the polylines cross.
    """
    pts_outer = _checked_polyline(outer)
    pts_inner = _checked_polyline(inner)
    dmin, crosses = _polyline_separation(pts_outer, pts_inner)
    if not np.all(_points_in_polygon(pts_inner if crosses else pts_inner[:1],
                                     pts_outer)):
        raise GeometryError("buried boundary is not strictly inside the interface")
    if dmin < CONTAINMENT_MARGIN:
        raise GeometryError(
            f"boundaries too close: min distance {dmin:.4g} < margin "
            f"{CONTAINMENT_MARGIN}"
        )
    if crosses:
        raise GeometryError("interface and buried boundary polylines intersect")
    return dmin
