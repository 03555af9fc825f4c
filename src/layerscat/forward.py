"""Forward solver for the two-layer transmission scattering problem.

The scattered/total field is represented by combined single- and
double-layer potentials on both boundaries with densities
psi = (psi1, psi2, psi3, psi4); the jump relations turn the transmission
conditions into a 4x4 block system (I + A) psi = R that is assembled
densely.  With the interface unknowns (psi1, psi2) first,

    I + A = [[A00, B01 D], [mu1 B10, A11]],    D = diag(lambda1 I, I),

where A00 depends on lambda0, k0 and k1 only, and B01, B10 are free of
lambda1.  The system is factored by block elimination around A00: LU(A00),
X = A00^-1 B01 and C = B10 X once per block set and lambda0, then per
system one LU of the buried-curve Schur complement S = A11 - mu1 C D.
mu1 lambda1 and mu1 enter S as products, so S is well scaled at any
lambda1 and no equilibration is needed.  Every matrix is built in C
order, which is LAPACK's layout of its transpose, so both LUs are taken
of the transposes with no copy.  The factorization serves every incident
direction and the far-field rows that the Jacobian needs, by block
substitution; the residual checks use the assembled matrix.

The medium stores one transmission constant, lambda1 (finite, nonzero).
The S/K/KT/T operator blocks depend on the grids and the wavenumbers
only; lambda1 enters just their scalar combination and S.  The blocks of
the last assembly, and the factorization of A00 on them, are therefore
kept and reused while the same grid objects (compared by identity), the
same (k0, k1, k2) and, for the factorization, the same lambda0 recur, as
when one geometry is solved at several lambda1; a new grid object always
reassembles, and so does every Newton iterate.  The blocks are shared,
read-only arrays.  The close-curves warning comes only from an assembly
that actually runs.

The far field of the exterior representation is

    u_inf = lambda0 (K_inf psi1) + (S_inf psi2),

i.e. the double-layer density pairs with the far-field kernel containing
the normal derivative.  Where only far fields are wanted, as for the
derivative problems, W = G (I + A)^-1 with G = [lambda0 K_inf, S_inf,
0, 0] maps any right-hand side to its far field, and W^T takes one
solve with (I + A)^T and n_obs columns.  A separation-of-variables
solution on concentric circles provides an independent cross-check of
the whole chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import special as ssp
from scipy.linalg.lapack import zgetrf, zgetrs

from .errors import ConfigurationError, SolverError
from .geometry import DiscretizedBoundary, ParametricCurve, discretize_pair
from .operators import assemble_blocks, assemble_farfield

LAMBDA_POLE_GUARD = 1e-6
CHECK_WEIGHT_THRESHOLD = 1e3
RESIDUAL_RTOL = 1e-10


@dataclass
class MediumParams:
    """Wavenumbers and transmission constants of the three-region medium.

    ``k1 = k0 sqrt(n1)``; ``k2`` is a free modeling parameter (equal to
    k1 by default).
    """

    k0: float
    k1: float
    k2: float
    lambda0: float
    lambda1: float

    def __post_init__(self):
        for name in ("k0", "k1", "k2", "lambda0", "lambda1"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if min(self.k0, self.k1, self.k2) <= 0.0:
            raise ConfigurationError("wavenumbers must be positive")
        if self.lambda0 <= 0.0:
            raise ConfigurationError("lambda0 must be positive")
        if self.lambda1 == 0.0:
            raise ConfigurationError("lambda1 must be nonzero")
        if abs(1.0 + self.lambda0) < LAMBDA_POLE_GUARD:
            raise ConfigurationError("lambda0 too close to -1 (mu0 pole)")
        if abs(1.0 + self.lambda1) < LAMBDA_POLE_GUARD:
            raise ConfigurationError("lambda1 too close to -1 (mu1 pole)")

    @classmethod
    def create(cls, k0, n1, lambda0, lambda1, k2="k1"):
        """Build params from the configuration quantities.

        ``lambda1`` must be finite and nonzero; ``k2`` is the string
        ``"k1"`` or an explicit positive wavenumber.
        """
        k1 = k0 * np.sqrt(n1)
        if isinstance(k2, str):
            if k2 != "k1":
                raise ConfigurationError(f"unknown k2 rule {k2!r}")
            k2_val = k1
        else:
            k2_val = float(k2)
        return cls(k0=float(k0), k1=float(k1), k2=float(k2_val),
                   lambda0=float(lambda0), lambda1=float(lambda1))

    @property
    def mu0(self) -> float:
        return 2.0 / (1.0 + self.lambda0)

    @property
    def mu1(self) -> float:
        return 2.0 / (1.0 + self.lambda1)


# The three containers below hold one column of nodal values per field,
# shape (size,), or several side by side, shape (size, P); every
# operation on them acts column by column along axis 0.
@dataclass
class BoundaryData:
    """Transmission-jump data (f1, f2 on the interface; f3, f4 on the
    buried boundary)."""

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    f4: np.ndarray

    def stacked(self, mu0, mu1):
        return np.concatenate([mu0 * self.f1, -mu0 * self.f2,
                               mu1 * self.f3, -mu1 * self.f4])


@dataclass
class DensityVector:
    """Layer densities at the quadrature nodes: psi1/psi2 on the
    interface, psi3/psi4 on the buried boundary."""

    psi1: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    psi4: np.ndarray

    @classmethod
    def from_stacked(cls, vec, n0_size, n1_size):
        return cls(psi1=vec[:n0_size],
                   psi2=vec[n0_size:2 * n0_size],
                   psi3=vec[2 * n0_size:2 * n0_size + n1_size],
                   psi4=vec[2 * n0_size + n1_size:])


@dataclass
class BoundaryTraces:
    """Interior and exterior traces of the total field on both curves,
    with tangential derivatives for the shape-derivative data."""

    u0: np.ndarray          # Dirichlet trace on the interface (u+ = u-)
    dn_u0_minus: np.ndarray
    dn_u0_plus: np.ndarray
    duds0: np.ndarray
    u1: np.ndarray          # Dirichlet trace on the buried boundary
    dn_u1_minus: np.ndarray
    dn_u1_plus: np.ndarray
    duds1: np.ndarray


class _InterfaceFactor(NamedTuple):
    """The lambda1-free part of the block factorization, for one lambda0:
    the LU factors of A00^T, X = A00^-1 B01 and C = B10 X."""

    lambda0: float
    lu: tuple
    x: np.ndarray
    c: np.ndarray


@dataclass(eq=False)
class _BlockSet:
    """The operator blocks of one assembly, keyed by its grids (by
    identity) and wavenumbers, and the interface factorization of the
    last system factored on them."""

    grid0: DiscretizedBoundary
    grid1: DiscretizedBoundary
    ks: tuple
    blocks: dict
    interface: _InterfaceFactor | None = None


# The block set of the last assembly, or None.  One slot: systems on the
# same grid objects and wavenumbers, such as one geometry at several
# lambda1, share one block set and its interface factorization, and at
# most one set outlives the systems that use it.
_last_blocks = None


def _operator_blocks(grid0: DiscretizedBoundary, grid1: DiscretizedBoundary,
                     params: MediumParams) -> _BlockSet:
    """The block set of the system: that of the last assembly when its
    grids are these very objects and its (k0, k1, k2) are equal, else
    assembled anew.  The arrays are shared between systems and read-only."""
    global _last_blocks
    ks = (params.k0, params.k1, params.k2)
    if _last_blocks is not None:
        last = _last_blocks
        if last.grid0 is grid0 and last.grid1 is grid1 and last.ks == ks:
            return last
        # drop the old set before building the new one, so that two sets
        # are never alive at once
        _last_blocks = last = None
    k0, k1, k2 = ks
    b0_k0 = assemble_blocks(grid0, grid0, k0)
    b0_k1 = assemble_blocks(grid0, grid0, k1)
    b1_k1 = assemble_blocks(grid1, grid1, k1)
    if k2 == k1:
        b1_k2 = b1_k1
    else:
        b1_k2 = assemble_blocks(grid1, grid1, k2)
    c01 = assemble_blocks(grid0, grid1, k1)
    c10 = assemble_blocks(grid1, grid0, k1)
    blocks = {"0k0": b0_k0, "0k1": b0_k1, "1k1": b1_k1, "1k2": b1_k2,
              "01": c01, "10": c10}
    for group in blocks.values():
        for arr in group.values():
            arr.setflags(write=False)
    _last_blocks = _BlockSet(grid0, grid1, ks, blocks)
    return _last_blocks


def _lu_of_transpose(mat, first_column):
    """LU factors (lu, piv) of mat^T, computed in place in the C-order
    ``mat``, whose Fortran layout is mat^T.  LAPACK only flags an exact
    zero pivot, so U's diagonal is checked; ``first_column`` is the index
    of mat's first column in the full system, which the error names."""
    lu, piv, _ = zgetrf(mat.T, overwrite_a=1)
    zero = np.flatnonzero(np.diagonal(lu) == 0.0)
    if zero.size:
        raise SolverError("transmission system singular: zero pivot in "
                          f"column {first_column + zero[0]}")
    return lu, piv


def _lu_solve(factors, b, trans):
    """Solve with the LU factors of M^T: M x = b for ``trans=1``, M^T x = b
    for ``trans=0``."""
    x, _ = zgetrs(*factors, b, trans=trans)
    return x


def _factor_interface(a00, blocks, params: MediumParams) -> _InterfaceFactor:
    """Factor the interface block ``a00`` of (I+A) and eliminate it from
    the cross-curve coupling, from lambda1-free inputs only, so that a
    reused factorization is bit-identical to a fresh one."""
    mu0, la0 = params.mu0, params.lambda0
    lu = _lu_of_transpose(a00.copy(), 0)
    c01, c10 = blocks["01"], blocks["10"]
    h0, h1 = c01["K"].shape
    # B01 = [[-mu0 K, -mu0 S], [mu0 lambda0 T, mu0 lambda0 KT]] of the 01
    # blocks, written in Fortran order so that the solve overwrites it
    x = np.empty((2 * h1, 2 * h0), dtype=complex).T
    np.multiply(c01["K"], -mu0, out=x[:h0, :h1])
    np.multiply(c01["S"], -mu0, out=x[:h0, h1:])
    np.multiply(c01["T"], mu0 * la0, out=x[h0:, :h1])
    np.multiply(c01["KT"], mu0 * la0, out=x[h0:, h1:])
    x, _ = zgetrs(*lu, x, trans=1, overwrite_b=1)
    # C = B10 X with B10 = [[K, S], [-T, -KT]] of the 10 blocks
    c = np.empty((2 * h1, 2 * h1), dtype=complex)
    np.matmul(c10["K"], x[:h0], out=c[:h1])
    c[:h1] += c10["S"] @ x[h0:]
    np.matmul(c10["T"], x[:h0], out=c[h1:])
    c[h1:] += c10["KT"] @ x[h0:]
    np.negative(c[h1:], out=c[h1:])
    return _InterfaceFactor(la0, lu, x, c)


def _combine(out, scale, x, y=None, x_weight=None, y_weight=None):
    """Write scale * x, or scale * (x_weight * x - y_weight * y) with
    either weight left out, into ``out``: no temporaries, and the order
    of operations of that expression."""
    if y is None:
        np.multiply(x, scale, out=out)
        return
    if x_weight is not None:
        np.multiply(x, x_weight, out=out)
        np.subtract(out, y, out=out)
    elif y_weight is not None:
        np.multiply(y, y_weight, out=out)
        np.subtract(x, out, out=out)
    else:
        np.subtract(x, y, out=out)
    out *= scale


class TransmissionSystem:
    """Assembled and factored discrete system for one geometry/medium."""

    def __init__(self, grid0: DiscretizedBoundary, grid1: DiscretizedBoundary,
                 params: MediumParams):
        self.grid0 = grid0
        self.grid1 = grid1
        self.params = params
        self._ff_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._assemble()
        self._factor()

    def _assemble(self):
        p = self.params
        g0, g1 = self.grid0, self.grid1
        self._block_set = _operator_blocks(g0, g1, p)
        self.blocks = self._block_set.blocks

        def m(group, kind):
            return self.blocks[group][kind]

        mu0, mu1, la0, la1 = p.mu0, p.mu1, p.lambda0, p.lambda1
        cuts = np.cumsum([0, g0.size, g0.size, g1.size, g1.size])
        a = np.empty((cuts[-1], cuts[-1]), dtype=complex)

        def at(i, j):
            return a[cuts[i]:cuts[i + 1], cuts[j]:cuts[j + 1]]

        _combine(at(0, 0), mu0, m("0k0", "K"), m("0k1", "K"), x_weight=la0)
        _combine(at(0, 1), mu0, m("0k0", "S"), m("0k1", "S"))
        _combine(at(0, 2), -mu0 * la1, m("01", "K"))
        _combine(at(0, 3), -mu0, m("01", "S"))
        _combine(at(1, 0), -mu0 * la0, m("0k0", "T"), m("0k1", "T"))
        _combine(at(1, 1), -mu0, m("0k0", "KT"), m("0k1", "KT"), y_weight=la0)
        _combine(at(1, 2), mu0 * la0 * la1, m("01", "T"))
        _combine(at(1, 3), mu0 * la0, m("01", "KT"))
        _combine(at(2, 0), mu1, m("10", "K"))
        _combine(at(2, 1), mu1, m("10", "S"))
        _combine(at(2, 2), mu1, m("1k1", "K"), m("1k2", "K"), x_weight=la1)
        _combine(at(2, 3), mu1, m("1k1", "S"), m("1k2", "S"))
        _combine(at(3, 0), -mu1, m("10", "T"))
        _combine(at(3, 1), -mu1, m("10", "KT"))
        _combine(at(3, 2), -mu1 * la1, m("1k1", "T"), m("1k2", "T"))
        _combine(at(3, 3), -mu1, m("1k1", "KT"), m("1k2", "KT"), y_weight=la1)
        a.reshape(-1)[::a.shape[0] + 1] += 1.0
        self.matrix = a

    def _factor(self):
        p = self.params
        n0, n1 = 2 * self.grid0.size, self.grid1.size
        a = self.matrix
        block_set = self._block_set
        iface = block_set.interface
        if iface is None or iface.lambda0 != p.lambda0:
            block_set.interface = None  # one interface factorization per set
            iface = _factor_interface(a[:n0, :n0], self.blocks, p)
            block_set.interface = iface
        self._interface = iface
        # S = A11 - mu1 C D, written into one new array
        weight = np.full(2 * n1, -p.mu1)
        weight[:n1] = -(p.mu1 * p.lambda1)
        schur = np.multiply(iface.c, weight)
        schur += a[n0:, n0:]
        self._schur_lu = _lu_of_transpose(schur, n0)

    def _scale_psi3(self, v):
        """D v: the psi3 rows of ``v`` times lambda1, in place."""
        v[:self.grid1.size] *= self.params.lambda1
        return v

    def _raw_solve(self, rhs):
        """(I+A)^-1 rhs by block substitution: x1 = S^-1 (b1 - A10 A00^-1
        b0), then x0 = A00^-1 b0 - X D x1."""
        n0 = 2 * self.grid0.size
        iface = self._interface
        x = np.empty(rhs.shape, dtype=complex)
        z0 = _lu_solve(iface.lu, rhs[:n0], 1)
        x[n0:] = x1 = _lu_solve(self._schur_lu,
                                rhs[n0:] - self.matrix[n0:, :n0] @ z0, 1)
        # X is Fortran-ordered, and BLAS multiplies by the C-ordered X^T
        # faster than by X
        np.subtract(z0, (self._scale_psi3(x1).T @ iface.x.T).T, out=x[:n0])
        return x

    def _raw_solve_transposed(self, rhs):
        """(I+A)^-T rhs by block substitution: y1 = S^-T (g1 - D X^T g0),
        then y0 = A00^-T (g0 - A10^T y1)."""
        n0 = 2 * self.grid0.size
        iface = self._interface
        y = np.empty(rhs.shape, dtype=complex)
        g0 = rhs[:n0]
        y[n0:] = y1 = _lu_solve(
            self._schur_lu, rhs[n0:] - self._scale_psi3(iface.x.T @ g0), 0)
        # likewise the C-ordered A10 rather than A10^T
        a10_y1 = (y1.T @ self.matrix[n0:, :n0]).T
        y[:n0] = _lu_solve(iface.lu, g0 - a10_y1, 0)
        return y

    @cached_property
    def _col_scale(self):
        """The weight of ``far_field_rows``' residual check: the largest
        entry of each column of (I+A) when |lambda1| exceeds
        CHECK_WEIGHT_THRESHOLD, else ones.  The psi3 columns grow with
        lambda1, so the equations of the transposed system that they hold
        are measured against their own size."""
        if abs(self.params.lambda1) <= CHECK_WEIGHT_THRESHOLD:
            return np.ones(self.matrix.shape[0])
        col = np.max(np.abs(self.matrix), axis=0)
        col[col == 0.0] = 1.0
        return col

    def _refined(self, b, raw_solve, matvec, weight=None):
        """Solve matvec(x) = b by ``raw_solve`` with at most three
        refinement steps.  Every column must end with max|res| <=
        RESIDUAL_RTOL max|b|, both divided elementwise by ``weight`` when
        it is given."""
        def size(v):
            v = np.abs(v) if weight is None else np.abs(v) / weight[:, None]
            return np.max(v, axis=0)

        x = raw_solve(b)
        scale = size(b)
        scale[scale == 0.0] = 1.0
        for refinements in range(4):  # at most three refinement steps
            res = b - matvec(x)
            res_size = size(res)
            ok = np.all(res_size <= RESIDUAL_RTOL * scale)
            if ok or refinements == 3:
                break
            x = x + raw_solve(res)
        if not ok:
            cond = np.linalg.cond(self.matrix, 1)
            raise SolverError(
                f"discrete residual {np.max(res_size):.3e} exceeds "
                f"{RESIDUAL_RTOL:g} * ||R||; condition estimate {cond:.3e}"
            )
        return x

    def solve_stacked(self, rhs):
        """Solve (I+A) x = rhs with iterative refinement; rhs may hold
        several right-hand sides as columns."""
        rhs = np.asarray(rhs, dtype=complex)
        single = rhs.ndim == 1
        b = rhs[:, None] if single else rhs
        x = self._refined(b, self._raw_solve, lambda v: self.matrix @ v)
        return x[:, 0] if single else x

    def solve(self, data: BoundaryData) -> DensityVector:
        """Solve the block system for boundary data with one or several
        columns."""
        rhs = data.stacked(self.params.mu0, self.params.mu1)
        x = self.solve_stacked(rhs)
        return DensityVector.from_stacked(x, self.grid0.size, self.grid1.size)

    # -- far field ---------------------------------------------------------
    def farfield_maps(self, directions):
        key = np.asarray(directions, dtype=float).tobytes()
        if key not in self._ff_cache:
            self._ff_cache[key] = assemble_farfield(self.grid0, self.params.k0,
                                                    directions)
        return self._ff_cache[key]

    def far_field(self, densities: DensityVector, directions):
        """u_inf on the observation directions (n_obs, 2), one column per
        density column."""
        s_mat, k_mat = self.farfield_maps(directions)
        return self.params.lambda0 * (k_mat @ densities.psi1) + s_mat @ densities.psi2

    def far_field_rows(self, directions):
        """The rows W = G (I+A)^-1, shape (n_obs, N), that map a stacked
        right-hand side straight to the far field of its solution:
        ``far_field(solve(data))`` = W ``data.stacked(mu0, mu1)``.

        G = [lambda0 K_inf, S_inf, 0, 0] is the far-field map on the
        densities, and W^T comes from one solve with the transposed
        system on the existing factorization, n_obs columns in all.  Its
        refinement check divides residual and right-hand side by the
        largest entry of each column of (I+A) once |lambda1| exceeds
        CHECK_WEIGHT_THRESHOLD, and below that is the check of
        ``solve_stacked``.
        """
        s_mat, k_mat = self.farfield_maps(directions)
        g = np.zeros((self.matrix.shape[0], s_mat.shape[0]), dtype=complex)
        n0 = self.grid0.size
        g[:n0] = self.params.lambda0 * k_mat.T
        g[n0:2 * n0] = s_mat.T
        wt = self._refined(g, self._raw_solve_transposed,
                           lambda v: self.matrix.T @ v, self._col_scale)
        return wt.T

    # -- boundary traces ---------------------------------------------------
    def boundary_traces(self, densities: DensityVector) -> BoundaryTraces:
        """Traces of the total field for a plane-wave (homogeneous f3, f4)
        solve, via interior representations and exact jump constants."""
        p = self.params

        def m(group, kind):
            return self.blocks[group][kind]

        ps1, ps2, ps3, ps4 = (densities.psi1, densities.psi2,
                              densities.psi3, densities.psi4)
        u0 = (m("0k1", "K") @ ps1 - 0.5 * ps1 + m("0k1", "S") @ ps2
              + p.lambda1 * (m("01", "K") @ ps3) + m("01", "S") @ ps4)
        dn0 = (m("0k1", "T") @ ps1 + m("0k1", "KT") @ ps2 + 0.5 * ps2
               + p.lambda1 * (m("01", "T") @ ps3) + m("01", "KT") @ ps4)
        u1 = m("1k2", "K") @ ps3 - 0.5 * ps3 + m("1k2", "S") @ ps4
        dn1 = m("1k2", "T") @ ps3 + m("1k2", "KT") @ ps4 + 0.5 * ps4
        return BoundaryTraces(
            u0=u0, dn_u0_minus=dn0, dn_u0_plus=p.lambda0 * dn0,
            duds0=self.grid0.d_ds(u0),
            u1=u1, dn_u1_minus=dn1, dn_u1_plus=p.lambda1 * dn1,
            duds1=self.grid1.d_ds(u1),
        )


def assemble_system(grid0: DiscretizedBoundary, grid1: DiscretizedBoundary,
                    params: MediumParams) -> TransmissionSystem:
    """Assemble and factor the 4-block transmission system."""
    return TransmissionSystem(grid0, grid1, params)


def plane_wave_data(grid0: DiscretizedBoundary, grid1: DiscretizedBoundary,
                    k0: float, d) -> BoundaryData:
    """Boundary data (-u^i, -du^i/dnu, 0, 0) of the incident plane wave
    with direction ``d``, shape (2,), or one column per row of ``d``,
    shape (P, 2)."""
    d = np.asarray(d, dtype=float)
    ui = np.exp(1j * k0 * (grid0.x @ d.T))
    dn_ui = 1j * k0 * (grid0.normal @ d.T) * ui
    zero = np.zeros((grid1.size,) + ui.shape[1:], dtype=complex)
    return BoundaryData(f1=-ui, f2=-dn_ui, f3=zero, f4=zero.copy())


def observation_directions(n_obs: int):
    """Unit directions at angles 2 pi (i-1)/n_obs (observation and
    incident directions alike)."""
    ang = 2.0 * np.pi * np.arange(n_obs) / n_obs
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def solve_plane_wave(curve0: ParametricCurve, curve1: ParametricCurve,
                     params: MediumParams, d, n: int, obs_directions):
    """The forward pipeline: discretize, assemble, solve, far field.

    ``d`` is one incident direction, shape (2,), or P of them, shape
    (P, 2).  Returns (far field, boundary traces, densities, system) with
    one column per incident direction, so the far field has shape
    (n_obs,) or (n_obs, P); the factored system serves further
    right-hand sides on the same geometry.
    """
    grid0, grid1 = discretize_pair(curve0, curve1, n)
    system = assemble_system(grid0, grid1, params)
    dens = system.solve(plane_wave_data(grid0, grid1, params.k0, d))
    ff = system.far_field(dens, obs_directions)
    traces = system.boundary_traces(dens)
    return ff, traces, dens, system


def oracle_concentric_circles(radius0: float, radius1: float,
                              params: MediumParams, d, obs_directions,
                              modes: int = 40):
    """Separation-of-variables far field for origin-centered circles.

    Independent of the integral-equation path: per Fourier mode a 4x4
    system enforces the two transmission conditions; the scattered field
    is summed over ``modes`` modes each side.

    Returns far-field samples on the observation directions.
    """
    if radius1 >= radius0:
        raise ConfigurationError("buried circle must be strictly inside")
    p = params
    d = np.asarray(d, dtype=float)
    theta_d = np.arctan2(d[1], d[0])
    obs = np.asarray(obs_directions, dtype=float)
    theta_obs = np.arctan2(obs[:, 1], obs[:, 0])

    u_inf = np.zeros(len(obs), dtype=complex)
    pref = np.sqrt(2.0 / (np.pi * p.k0)) * np.exp(-0.25j * np.pi)
    for m in range(-modes, modes + 1):
        alpha = (1j) ** m * np.exp(-1j * m * theta_d)
        z00, z10 = p.k0 * radius0, p.k1 * radius0
        z11, z21 = p.k1 * radius1, p.k2 * radius1
        mat = np.array([
            [ssp.hankel1(m, z00), -ssp.jv(m, z10), -ssp.yv(m, z10), 0.0],
            [p.k0 * ssp.h1vp(m, z00), -p.lambda0 * p.k1 * ssp.jvp(m, z10),
             -p.lambda0 * p.k1 * ssp.yvp(m, z10), 0.0],
            [0.0, ssp.jv(m, z11), ssp.yv(m, z11), -ssp.jv(m, z21)],
            [0.0, p.k1 * ssp.jvp(m, z11), p.k1 * ssp.yvp(m, z11),
             -p.lambda1 * p.k2 * ssp.jvp(m, z21)],
        ], dtype=complex)
        rhs = np.array([-alpha * ssp.jv(m, z00),
                        -alpha * p.k0 * ssp.jvp(m, z00), 0.0, 0.0],
                       dtype=complex)
        try:
            coef = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"oracle mode system singular at m={m}") from exc
        a_m = coef[0]
        u_inf += a_m * (-1j) ** m * np.exp(1j * m * theta_obs)
    return pref * u_inf
