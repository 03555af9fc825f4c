"""Forward solver for the two-layer transmission scattering problem.

The scattered/total field is represented by combined single- and
double-layer potentials on both boundaries with densities
psi = (psi1, psi2, psi3, psi4); the jump relations turn the transmission
conditions into a 4x4 block system (I + A) psi = R.  The operators come
as six groups, one C-order matrix G = [[K, S], [T, KT]] per (target,
source, wavenumber): 0k0, 0k1 (interface, k0 and k1), 1k1, 1k2 (buried
curve, k1 and k2; one group when k2 = k1), 01 and 10 (cross-curve, k1).
With the interface unknowns (psi1, psi2) first,

    I + A = [[A00, B01 D], [mu1 B10, A11]],    D = diag(lambda1 I, I),

and every piece is a group with scalar quadrant weights:

    A00 = I + mu0 diag(I, -I) G0k0 diag(lambda0 I, I)
            - mu0 diag(I, -lambda0 I) G0k1,
    B01 = diag(-mu0 I, mu0 lambda0 I) G01,    B10 = diag(I, -I) G10,

and A11 likewise from G1k1, G1k2 with mu1 and lambda1.  A00 depends on
lambda0, k0 and k1 only, and B01, B10 are free of lambda1.  (I+A) is
never assembled: the system is factored by block elimination around
A00, LU(A00) (built in one array and factored in place) and C = B10 X,
X = A00^-1 B01, once per block set, with X freed once C is formed; then
per system one LU of the buried-curve Schur complement S = A11 - mu1 C
D, built in place.  mu1 lambda1 and mu1 enter S as products, so S is
well scaled at any lambda1 and no equilibration is needed.  Every
matrix is built in C order, which is LAPACK's layout of its transpose,
so both LUs are taken of the transposes with no copy.  The
factorization serves every incident direction and the far-field rows
that the Jacobian needs, by block substitution (two solves with A00 per
solve; the transposed solve takes the same three steps with the
transposed factors and the roles of B01 and B10 swapped).  Every solve,
at any lambda1, is checked by its componentwise backward error max_i
|r_i| / (|I+A| |x| + |b|)_i, with r and the bound on |I+A| |x| (I plus
each term with |G| and its weights in absolute value) from one product
per group each.

The medium stores one transmission constant, lambda1 (finite, nonzero).
The operator groups depend on the grids and the wavenumbers only, and
A00 on lambda0 too, a fixed property of the medium; lambda1 enters just
the groups' scalar weights and S.  The groups of the last assembly and
the factorization of A00 on them are therefore kept as one block set,
keyed by the grid objects (compared by identity) and (k0, k1, k2,
lambda0), and reused while that key recurs, as when one geometry is
solved at several lambda1; any other key, a new grid object included,
reassembles, and so does every Newton iterate.  The groups are shared,
read-only arrays.  The close-curves warning comes only from an assembly
that actually runs.

A block set whose interface grid has at least THREADED_BUILD_MIN_NODES
nodes is built on two threads (smaller ones, as in the inversion, in the
same steps on the calling thread alone).  One helper thread, started by
the build and joined before it returns, assembles 1k1 (and 1k2), then
01, then 10, while the calling thread assembles 0k0 and 0k1, factors
A00, and forms X once 01 is ready and C once 10 is.  numpy,
scipy.special and LAPACK release the interpreter lock, so the two
overlap.  Each group is computed whole by one thread, and every
factorization and product keeps its inputs, so the set is the same bit
for bit as a one-thread build; the BLAS thread count stays whatever the
caller pinned.  Every solve with an LU (``_lu_solve``) hands zgetrs its
own copy of the pivots, which scipy's wrapper shifts in place during
the call: two concurrent calls on one shared pivot array abort the
process ("double free or corruption"), and with copies two threads may
solve at once.  The close-curves warning of a group built on the helper
is issued on the calling thread, from the line that takes the group.
The set is stored only once all its groups and factors exist, so a
failed build leaves no set behind.

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

import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special as ssp
from scipy.linalg.lapack import zgetrf, zgetrs

from .errors import ConfigurationError, SolverError
from .geometry import DiscretizedBoundary, ParametricCurve, discretize_pair
from .operators import assemble_blocks, assemble_farfield, held_warnings

LAMBDA_POLE_GUARD = 1e-6
# the largest componentwise backward error a solve keeps: 25 times the
# largest of an unrefined solve from lambda1 = 1e-6 to 1e8 (41 epsilons)
BACKWARD_ERROR_MAX = 1024 * np.finfo(float).eps
# the least interface nodes (2 n) of a block set built on two threads:
# on the inversion's grids (n = 32 to 64) the groups are too small to
# gain, and threading them made the hard-kite inversion about 20 %
# slower on a 2-core machine
THREADED_BUILD_MIN_NODES = 256


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
        if abs(1.0 + self.lambda1) < LAMBDA_POLE_GUARD:
            raise ConfigurationError("lambda1 too close to -1 (mu1 pole)")

    @classmethod
    def create(cls, k0, n1, lambda0, lambda1, k2="k1"):
        """Build params from the configuration quantities.

        ``n1`` must be positive and finite, ``lambda1`` finite and
        nonzero; ``k2`` is the string ``"k1"`` or an explicit positive
        wavenumber.
        """
        if not (np.isfinite(n1) and n1 > 0.0):
            raise ConfigurationError(f"n1 must be positive and finite, got {n1}")
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


@dataclass(eq=False)
class _BlockSet:
    """The operator groups of one assembly under its ``key`` = (grid0,
    grid1, k0, k1, k2, lambda0), where grids compare by identity, and the
    lambda1-free part of every factorization on them: ``lu``, the LU
    factors of A00^T, and ``c``, C = B10 A00^-1 B01."""

    key: tuple
    blocks: dict
    lu: tuple
    c: np.ndarray


# The block set of the last assembly, or None: module state, so that
# callers that drop each system (one geometry at several lambda1, one
# assemble_system call each) share one block set and its interface
# factorization.  At most one set outlives the systems that use it.
_last_blocks = None


def _operator_blocks(grid0: DiscretizedBoundary, grid1: DiscretizedBoundary,
                     params: MediumParams) -> _BlockSet:
    """The block set of the system: that of the last assembly when its
    grids are these very objects and its (k0, k1, k2, lambda0) are
    equal, else built anew.  The groups are shared between systems and
    read-only."""
    global _last_blocks
    # DiscretizedBoundary compares by identity
    key = (grid0, grid1, params.k0, params.k1, params.k2, params.lambda0)
    if _last_blocks is not None and _last_blocks.key == key:
        return _last_blocks
    # drop the old set before building the new one, so that two sets are
    # never alive at once; a failed build leaves the slot empty
    _last_blocks = None
    _last_blocks = _build_block_set(key, grid0, grid1, params)
    return _last_blocks


class _Inline:
    """Runs each submitted call at once, on the calling thread: the
    helper of a block set built on one thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def _held_group(target, source, k):
    """``assemble_blocks`` for the helper: (group, the messages of its
    close-curves warnings)."""
    with held_warnings() as messages:
        return assemble_blocks(target, source, k), messages


def _take(future):
    """The group of a ``_held_group`` future, once done, with its
    close-curves warnings issued from the caller's line."""
    group, messages = future.result()
    for message in messages:
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return group


def _build_block_set(key, grid0: DiscretizedBoundary,
                     grid1: DiscretizedBoundary,
                     params: MediumParams) -> _BlockSet:
    """Assemble the six groups and factor the interface block, on two
    threads when the interface grid has at least THREADED_BUILD_MIN_NODES
    nodes (see module docstring): the helper assembles 1k1 (and 1k2), 01
    and 10 in that order, while this thread assembles 0k0 and 0k1, builds
    and factors A00, forms X = A00^-1 B01 once 01 is ready, and C = B10 X
    once 10 is.
    The buried-curve groups go first so that their whole-group kernel
    arrays overlap those of 0k0 and 0k1, and only the cross blocks' small
    row panels overlap the factors.  The helper is joined, and its
    pending groups cancelled, before this returns or raises.  On smaller
    grids the helper's groups are assembled as they are submitted, on
    this thread."""
    p = params
    k0, k1, k2 = p.k0, p.k1, p.k2
    helper = (ThreadPoolExecutor(max_workers=1)
              if grid0.size >= THREADED_BUILD_MIN_NODES else _Inline())
    try:
        pending = {"1k1": helper.submit(_held_group, grid1, grid1, k1)}
        if k2 != k1:
            pending["1k2"] = helper.submit(_held_group, grid1, grid1, k2)
        pending["01"] = helper.submit(_held_group, grid0, grid1, k1)
        pending["10"] = helper.submit(_held_group, grid1, grid0, k1)
        g0k0 = assemble_blocks(grid0, grid0, k0)
        g0k1 = assemble_blocks(grid0, grid0, k1)
        n0 = 2 * grid0.size
        a00 = _add_block(_system_terms(p), {"0k0": g0k0, "0k1": g0k1}, 0, 0,
                         np.zeros((n0, n0), dtype=complex))
        lu = _lu_of_transpose(a00, 0)
        # X = A00^-1 B01 with B01 = diag(-mu0 I, mu0 lambda0 I) G01, written
        # in Fortran order so that the solve overwrites it; C = B10 X with
        # B10 = diag(I, -I) G10.  X is dropped once C is formed
        g01 = _take(pending["01"])
        x = np.empty(g01.shape[::-1], dtype=complex).T
        _scale_halves(g01, (-p.mu0, p.mu0 * p.lambda0), x)
        x = _lu_solve(lu, x, 1)
        g10 = _take(pending["10"])
        c = _scale_halves(g10 @ x, (1.0, -1.0))
        del x
        g1k1 = _take(pending["1k1"])
        g1k2 = _take(pending["1k2"]) if "1k2" in pending else g1k1
    finally:
        helper.shutdown(cancel_futures=True)
    blocks = {"0k0": g0k0, "0k1": g0k1, "1k1": g1k1, "1k2": g1k2,
              "01": g01, "10": g10}
    return _BlockSet(key, blocks, lu, c)


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


def _lu_solve(lu, b, trans):
    """M^-1 b (trans=0) or M^-T b (trans=1) by zgetrs from the LU factors
    (lu, piv) of M, in place in ``b`` when it is a Fortran-ordered
    complex array.  scipy's zgetrs shifts ``piv`` to one-based in place
    for the call, so two threads sharing it corrupt the heap; each call
    gets its own copy."""
    x, _ = zgetrs(lu[0], lu[1].copy(), b, trans=trans, overwrite_b=1)
    return x


def _scale_halves(v, scales, out=None):
    """diag(a I, b I) v for ``scales`` = (a, b), written into ``out`` (by
    default in place in ``v``)."""
    out = v if out is None else out
    half = v.shape[0] // 2
    np.multiply(v[:half], scales[0], out=out[:half])
    np.multiply(v[half:], scales[1], out=out[half:])
    return out


class _Term(NamedTuple):
    """One operator group's place in (I+A) - I: diag(a I, b I) G diag(c I,
    d I) at (row, col) of the 2x2 partition interface/buried, with G's K
    and KT quadrants alone where ``diagonal``."""

    row: int
    col: int
    row_scales: tuple  # (a, b)
    col_scales: tuple  # (c, d)
    diagonal: bool = False


def _system_terms(params: MediumParams) -> dict:
    """{group name: _Term} of (I+A) - I.  With k2 = k1 both terms of A11
    take one group, and its S and T quadrants cancel exactly, so the two
    make one block-diagonal term."""
    mu0, mu1 = params.mu0, params.mu1
    la0, la1 = params.lambda0, params.lambda1
    terms = {"0k0": _Term(0, 0, (mu0, -mu0), (la0, 1.0)),
             "0k1": _Term(0, 0, (-mu0, mu0 * la0), (1.0, 1.0)),
             "01": _Term(0, 1, (-mu0, mu0 * la0), (la1, 1.0)),
             "10": _Term(1, 0, (mu1, -mu1), (1.0, 1.0)),
             "1k1": _Term(1, 1, (mu1, -mu1), (la1, 1.0)),
             "1k2": _Term(1, 1, (-mu1, mu1 * la1), (1.0, 1.0))}
    if params.k2 == params.k1:
        del terms["1k2"]
        kappa = mu1 * la1 - mu1
        terms["1k1"] = _Term(1, 1, (kappa, kappa), (1.0, 1.0), True)
    return terms


def _add_block(terms, blocks, row, col, out):
    """Add block (row, col) of (I+A) to ``out``, one quadrant of one group
    at a time, from the ``terms`` of the ``blocks`` they name."""
    scratch = None
    for name, term in terms.items():
        if (term.row, term.col) != (row, col):
            continue
        g = blocks[name]
        m, n = g.shape[0] // 2, g.shape[1] // 2
        for i, a in enumerate(term.row_scales):
            for j, b in enumerate(term.col_scales):
                if term.diagonal and i != j:
                    continue
                quad = (slice(i * m, (i + 1) * m), slice(j * n, (j + 1) * n))
                if scratch is None:
                    scratch = np.empty((m, n), dtype=complex)
                np.multiply(g[quad], a * b, out=scratch)
                out[quad] += scratch
    if row == col:
        diag = np.arange(out.shape[0])
        out[diag, diag] += 1.0
    return out


class TransmissionSystem:
    """The factored discrete system for one geometry/medium.

    (I+A) is never assembled: it is the identity plus one term per
    operator group (``_system_terms``), and every product, block and
    residual is taken from the groups."""

    def __init__(self, grid0: DiscretizedBoundary, grid1: DiscretizedBoundary,
                 params: MediumParams):
        self.grid0 = grid0
        self.grid1 = grid1
        self.params = params
        self._ff_cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._block_set = _operator_blocks(grid0, grid1, params)
        self.blocks = self._block_set.blocks
        self._terms = _system_terms(params)
        self._factor()

    def _cut(self, block):
        """The rows or columns of block 0 (interface) or 1 (buried) in the
        stacked unknowns."""
        n0 = 2 * self.grid0.size
        return slice(0, n0) if block == 0 else slice(n0, None)

    def _product(self, name, v, transposed=False, scratch=None):
        """The product of group ``name``'s term of A with ``v`` (or of its
        transpose, the term of A^T): one product with the group, or with
        each of its K and KT quadrants for a diagonal term.  Given a real
        ``scratch`` buffer, the term is taken with |G|, formed there, and
        its weights in absolute value."""
        term = self._terms[name]
        g, row_scales, col_scales = (self.blocks[name], term.row_scales,
                                     term.col_scales)
        if scratch is not None:
            g = np.abs(g, out=scratch[:g.size].reshape(g.shape))
            row_scales, col_scales = (tuple(map(abs, s))
                                      for s in (row_scales, col_scales))
        if transposed:
            g, row_scales, col_scales = g.T, col_scales, row_scales
        if col_scales != (1.0, 1.0):
            v = _scale_halves(v, col_scales, np.empty_like(v))
        if not term.diagonal:
            return _scale_halves(g @ v, row_scales)
        m = g.shape[0] // 2
        u = np.empty(v.shape, dtype=np.result_type(g, v))
        np.matmul(g[:m, :m], v[:m], out=u[:m])
        np.matmul(g[m:, m:], v[m:], out=u[m:])
        return _scale_halves(u, row_scales)

    def _apply(self, x, transposed=False, absolute=False):
        """(I+A) x, or (I+A)^T x, from one product per group.  With
        ``absolute``, (I + sum of |term|) |x| instead, an entrywise bound
        on |I+A| |x| (or |I+A|^T |x|), each |G| formed in turn in one
        scratch buffer."""
        x = np.abs(x) if absolute else x
        scratch = (np.empty(max(g.size for g in self.blocks.values()))
                   if absolute else None)
        out = x.copy()
        for name, term in self._terms.items():
            r, c = (term.col, term.row) if transposed else (term.row, term.col)
            out[self._cut(r)] += self._product(name, x[self._cut(c)],
                                               transposed, scratch)
        return out

    def _factor(self):
        """Build and factor the Schur complement S = A11 - mu1 C D in
        place; A00's factors and C come with the block set."""
        p = self.params
        # S = A11 - mu1 C D, built in one new array
        n1 = self.grid1.size
        weight = np.full(2 * n1, -p.mu1)
        weight[:n1] = -(p.mu1 * p.lambda1)
        schur = _add_block(self._terms, self.blocks, 1, 1,
                           np.multiply(self._block_set.c, weight))
        self._schur_lu = _lu_of_transpose(schur, 2 * self.grid0.size)

    def _raw_solve(self, rhs, transposed=False):
        """(I+A)^-1 rhs by block substitution: x1 = S^-1 (b1 - A10 A00^-1
        b0), then x0 = A00^-1 (b0 - A01 x1).  With ``transposed``,
        (I+A)^-T rhs by the same steps with A00^-T, S^-T, A01^T in place
        of A10 and A10^T in place of A01.  The LUs are of the transposes,
        so LAPACK's trans=1 solves with the matrices themselves."""
        trans, first, second = ((0, "01", "10") if transposed
                                else (1, "10", "01"))
        lu0 = self._block_set.lu
        b0, b1 = rhs[self._cut(0)], rhs[self._cut(1)]
        x = np.empty(rhs.shape, dtype=complex)
        z0 = _lu_solve(lu0, b0.copy(order="F"), trans)
        x[self._cut(1)] = x1 = _lu_solve(
            self._schur_lu, b1 - self._product(first, z0, transposed), trans)
        x[self._cut(0)] = _lu_solve(
            lu0, b0 - self._product(second, x1, transposed), trans)
        return x

    def _refined(self, b, transposed=False):
        """Solve (I+A) x = b, or (I+A)^T x = b when ``transposed``, by
        ``_raw_solve``, refined at most three times while the
        componentwise backward error omega = max_i |r_i| / (|I+A| |x| +
        |b|)_i of any column exceeds BACKWARD_ERROR_MAX (Oettli and
        Prager, 1964; Higham, Accuracy and Stability of Numerical
        Algorithms, 2002, section 7); a zero row of the denominator has r
        = 0 and adds nothing.  Raises SolverError with the worst omega,
        its column and the refinement count if one is still above."""
        x = self._raw_solve(b, transposed)
        for refinements in range(4):
            res = b - self._apply(x, transposed)
            bound = self._apply(x, transposed, absolute=True) + np.abs(b)
            omega = np.max(np.abs(res) / np.where(bound > 0.0, bound, 1.0),
                           axis=0)
            worst = np.argmax(omega)
            if omega[worst] <= BACKWARD_ERROR_MAX:
                return x
            if refinements < 3:
                x = x + self._raw_solve(res, transposed)
        raise SolverError(
            f"componentwise backward error {omega[worst]:.3e} of column "
            f"{worst} exceeds {BACKWARD_ERROR_MAX:.3e} after "
            f"{refinements} refinements")

    def solve_stacked(self, rhs):
        """Solve (I+A) x = rhs with iterative refinement; rhs may hold
        several right-hand sides as columns."""
        rhs = np.asarray(rhs, dtype=complex)
        single = rhs.ndim == 1
        b = rhs[:, None] if single else rhs
        x = self._refined(b)
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
        system on the existing factorization, n_obs columns in all, under
        the backward-error check of ``solve_stacked``.
        """
        s_mat, k_mat = self.farfield_maps(directions)
        size = 2 * (self.grid0.size + self.grid1.size)
        g = np.zeros((size, s_mat.shape[0]), dtype=complex)
        n0 = self.grid0.size
        g[:n0] = self.params.lambda0 * k_mat.T
        g[n0:2 * n0] = s_mat.T
        wt = self._refined(g, True)
        return wt.T

    # -- boundary traces ---------------------------------------------------
    def boundary_traces(self, densities: DensityVector) -> BoundaryTraces:
        """Traces of the total field for a plane-wave (homogeneous f3, f4)
        solve, via interior representations and exact jump constants."""
        p = self.params
        ps1, ps2, ps3, ps4 = (densities.psi1, densities.psi2,
                              densities.psi3, densities.psi4)
        n0, n1 = self.grid0.size, self.grid1.size
        # the interior (k1) field on the interface and the k2 field on the
        # buried curve: G0k1 (psi1; psi2) + G01 (lambda1 psi3; psi4) and
        # G1k2 (psi3; psi4), plus the jump terms
        x1 = np.concatenate([ps3, ps4])
        v0 = (self.blocks["0k1"] @ np.concatenate([ps1, ps2])
              + self.blocks["01"] @ _scale_halves(x1, (p.lambda1, 1.0),
                                                  np.empty_like(x1)))
        v1 = self.blocks["1k2"] @ x1
        u0 = v0[:n0] - 0.5 * ps1
        dn0 = v0[n0:] + 0.5 * ps2
        u1 = v1[:n1] - 0.5 * ps3
        dn1 = v1[n1:] + 0.5 * ps4
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
    return solve_on_grids(*discretize_pair(curve0, curve1, n), params, d,
                          obs_directions)


def solve_on_grids(grid0: DiscretizedBoundary, grid1: DiscretizedBoundary,
                   params: MediumParams, d, obs_directions):
    """``solve_plane_wave`` after discretization, on given grids."""
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
