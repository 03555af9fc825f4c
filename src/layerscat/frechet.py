"""Shape and constant derivatives of the far-field map.

Each directional derivative of the far field solves the same
transmission system as the base problem, with boundary data built from
the base solution's traces:

    f1 = -(h0)_nu (du+/dnu - du-/dnu)            on the interface,
    f2 = (k0^2 - lambda0 k1^2)(h0)_nu u
         + Div[(h0)_nu ((grad u+)_t - lambda0 (grad u-)_t)],
    f3, f4 analogously on the buried boundary, f4 with the extra
    transmission-constant term (dlambda1/lambda1) du+/dnu.

Because the Dirichlet trace is continuous across each boundary, the
tangential-gradient difference collapses to (1 - lambda) du/ds, and the
constant term to dlambda1 du-/dnu (a slot in tau1 = 1/lambda1 is just
dlambda1 = -lambda1^2); only normal components of the perturbation
fields enter.  The directions are therefore held as columns, and the
Jacobian builds the data B of every (incident direction, perturbation
direction) pair at once.  Only the far fields of those problems are
needed, never their densities, so the Jacobian is W B with the
far-field rows W = G (I + A)^-1 of the base system: one transposed
solve with n_obs columns on the base factorization, however many pairs
there are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import BoundaryData, BoundaryTraces, MediumParams, TransmissionSystem
from .geometry import DiscretizedBoundary, _harmonics


@dataclass
class DirectionColumns:
    """Perturbation directions of the unknown vector, one column each.

    ``h0``/``h1`` (2 n0 x c and 2 n1 x c) hold the normal component of
    the induced field on the interface and on the buried boundary (zero
    where a direction leaves that boundary fixed); ``dlambda1`` (c,)
    holds the change of lambda1 per unit of each direction.
    """

    labels: list
    h0: np.ndarray
    h1: np.ndarray
    dlambda1: np.ndarray


def radial_normal_component(grid: DiscretizedBoundary, center, modes: int):
    """(h)_nu at the nodes for the radial perturbations b_j(theta) e_r,
    one column per j in the coefficient layout (constant, cos 1..M,
    sin 1..M).

    For a starlike curve about ``center``, e_r . nu = r/|dx/dtheta|, so
    the normal component is b_j(theta) r(theta)/|dx/dtheta|.  The polar
    angle theta is the curve parameter ``grid.t`` at the nodes, and
    |dx/dtheta| = |dx/ds| / theta'(s) on graded grids.
    """
    r = np.linalg.norm(grid.x - np.asarray(center)[None, :], axis=1)
    z = _harmonics(grid.t, modes)
    basis = np.hstack([np.ones((grid.size, 1)), z.real.T, z.imag.T])
    return basis * r[:, None] / grid.speed[:, None] * grid.dt[:, None]


def canonical_directions(grid0: DiscretizedBoundary, grid1: DiscretizedBoundary,
                         center1, modes: int, label: str, dlambda1: float,
                         include_center: bool = True) -> DirectionColumns:
    """The ordered basis directions of the unknown vector.

    Order: interface radial coefficients (2M+1), buried radial
    coefficients (2M+1), buried center shifts (a1, a2; optional), then
    the transmission-constant slot ``label``, whose unit step changes
    lambda1 by ``dlambda1``.
    """
    nr = 2 * modes + 1
    labels = ([f"r0[{j}]" for j in range(nr)] + [f"r1[{j}]" for j in range(nr)]
              + (["a1", "a2"] if include_center else []) + [label])
    c = len(labels)
    h0 = np.zeros((grid0.size, c))
    h0[:, :nr] = radial_normal_component(grid0, (0.0, 0.0), modes)
    h1 = np.zeros((grid1.size, c))
    h1[:, nr:2 * nr] = radial_normal_component(grid1, center1, modes)
    if include_center:
        h1[:, 2 * nr:2 * nr + 2] = grid1.normal
    slot = np.zeros(c)
    slot[-1] = dlambda1
    return DirectionColumns(labels, h0, h1, slot)


def derivative_boundary_data(traces: BoundaryTraces,
                             directions: DirectionColumns,
                             params: MediumParams,
                             grid0: DiscretizedBoundary,
                             grid1: DiscretizedBoundary) -> BoundaryData:
    """Boundary data of the derivative transmission problems.

    One column per (incident, direction) pair, incident-major: column
    i c + j pairs the traces' column i with direction j.
    """
    p = params
    dirs = directions

    def pairs(h, trace):
        # (size, c) with (size, P) -> (size, P c)
        trace = trace.reshape(trace.shape[0], -1)
        return (h[:, None, :] * trace[:, :, None]).reshape(h.shape[0], -1)

    h0, h1 = dirs.h0, dirs.h1
    f1 = pairs(-(p.lambda0 - 1.0) * h0, traces.dn_u0_minus)
    f2 = (pairs((p.k0**2 - p.lambda0 * p.k1**2) * h0, traces.u0)
          + (1.0 - p.lambda0) * grid0.d_ds(pairs(h0, traces.duds0)))
    f3 = pairs(-(p.lambda1 - 1.0) * h1, traces.dn_u1_minus)
    # du+/dnu = lambda1 du-/dnu reduces (dlambda/lambda) du+/dnu to
    # dlambda du-/dnu
    constant = np.broadcast_to(dirs.dlambda1, h1.shape)
    f4 = (pairs((p.k1**2 - p.lambda1 * p.k2**2) * h1, traces.u1)
          + (1.0 - p.lambda1) * grid1.d_ds(pairs(h1, traces.duds1))
          + pairs(constant, traces.dn_u1_minus))
    return BoundaryData(f1=f1, f2=f2, f3=f3, f4=f4)


def derivative_far_field(system: TransmissionSystem, traces: BoundaryTraces,
                         directions: DirectionColumns, obs_directions):
    """Far fields of the derivative problems, complex (n_obs, P c) with
    the columns of ``derivative_boundary_data``: the system's far-field
    rows applied to their stacked data."""
    data = derivative_boundary_data(traces, directions, system.params,
                                    system.grid0, system.grid1)
    p = system.params
    return system.far_field_rows(obs_directions) @ data.stacked(p.mu0, p.mu1)


def real_rows(z):
    """Complex (P, n_obs, ...) values in the real LM row layout: per
    incident, all Re rows then all Im rows."""
    return np.stack([z.real, z.imag], axis=1).reshape((-1,) + z.shape[2:])


def jacobian(system: TransmissionSystem, traces: BoundaryTraces,
             farfields, data, directions: DirectionColumns, obs_directions):
    """Real Jacobian and residual of the stacked far-field misfit.

    ``traces``: base-solution traces, one column per incident direction;
    ``farfields``/``data``: complex (P, n_obs).  Rows are unweighted
    (the caller applies the discrete-norm scale).  Returns (J, residual)
    with J of shape (2 P n_obs, n_directions).
    """
    cols = derivative_far_field(system, traces, directions, obs_directions)
    per_incident = cols.reshape(cols.shape[0], -1, len(directions.labels))
    jac = real_rows(per_incident.transpose(1, 0, 2))
    res = real_rows(np.asarray(farfields) - data)
    return jac, res
