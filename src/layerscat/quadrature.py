"""Spectral quadrature rules on the periodic grid t_j = pi j / n.

Smooth periodic integrands take the plain trapezoid weight pi/n, which
the operators apply inline.  The two singular rules here have explicit
trigonometric weights:

* the logarithmic-singularity rule with weights R_j(t) for integrands
  ln(4 sin^2((t-tau)/2)) f(tau);
* the hypersingular (finite-part) rule with weights T_j(t) for
  (1/2pi) integral cot((tau-t)/2) f'(tau) dtau,

both exact on trigonometric polynomials of degree < n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError


def log_weights(n: int, t: float):
    """Weights R_j(t), j = 0..2n-1, of the logarithmic rule at target t.

        R_j(t) = -(2 pi / n) sum_{m=1}^{n-1} cos(m (t - t_j)) / m
                 - (pi / n^2) cos(n (t - t_j))
    """
    if n < 1:
        raise ConfigurationError("log_weights requires n >= 1")
    tj = np.pi * np.arange(2 * n) / n
    diff = t - tj  # (2n,)
    w = -(np.pi / n**2) * np.cos(n * diff)
    if n > 1:
        m = np.arange(1, n)  # (n-1,)
        w = w - (2.0 * np.pi / n) * np.sum(
            np.cos(np.outer(m, diff)) / m[:, None], axis=0
        )
    return w


def hypersingular_weights(n: int, t: float):
    """Weights T_j(t) of the finite-part cotangent rule at target t.

        T_j(t) = -(1/n) sum_{m=1}^{n-1} m cos(m (t - t_j))
                 - (1/2) cos(n (t - t_j))

    The rule maps nodal samples of f to (1/2pi) integral
    cot((tau-t)/2) f'(tau) dtau; on cos(m tau) with m < n it returns
    -m cos(m t) exactly.
    """
    if n < 1:
        raise ConfigurationError("hypersingular_weights requires n >= 1")
    tj = np.pi * np.arange(2 * n) / n
    diff = t - tj
    w = -0.5 * np.cos(n * diff)
    if n > 1:
        m = np.arange(1, n)
        w = w - (1.0 / n) * np.sum(m[:, None] * np.cos(np.outer(m, diff)), axis=0)
    return w


def _node_matrix(base_row):
    """Circulant matrix M[i, j] = base_row[(i - j) mod 2n].

    Valid because both weight families depend only on t_i - t_j and are
    even in that difference.  Read-only, because callers cache it.
    """
    m2 = base_row.shape[0]
    idx = (np.arange(m2)[:, None] - np.arange(m2)[None, :]) % m2
    mat = base_row[idx]
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=16)
def log_weight_matrix(n: int):
    """Matrix of R_j(t_i) for collocation at the nodes (O(n) storage build;
    read-only, cached per n)."""
    return _node_matrix(log_weights(n, 0.0))


@lru_cache(maxsize=16)
def hypersingular_weight_matrix(n: int):
    """Matrix of T_j(t_i) for collocation at the nodes (read-only, cached
    per n)."""
    return _node_matrix(hypersingular_weights(n, 0.0))
