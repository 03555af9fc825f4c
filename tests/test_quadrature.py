"""The quadrature rules (and the trapezoid helper of the test oracles)
and their exactness identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerscat.quadrature import (hypersingular_weight_matrix,
                                  hypersingular_weights, log_weight_matrix,
                                  log_weights)

from _oracles import trapezoid


def test_log_weights_n1():
    w = log_weights(1, 0.0)
    assert np.allclose(w, [-np.pi, np.pi], atol=1e-15)


def test_log_rule_constant_annihilation():
    # the rule integrates ln(4 sin^2((t-tau)/2)) * 1, which vanishes
    for n in (1, 8, 16, 32):
        for t in (0.0, 0.33, 2.0):
            assert abs(np.sum(log_weights(n, t))) < 1e-11


def test_log_rule_cosine_integral():
    # integral of ln(4 sin^2(tau/2)) cos(m tau) = -2 pi / m
    w = log_weights(1, 0.0)
    tj = np.pi * np.arange(2)
    assert abs(w @ np.cos(tj) - (-2 * np.pi)) < 1e-14
    for n in (8, 16, 32):
        tj = np.pi * np.arange(2 * n) / n
        for m in range(1, n):
            got = log_weights(n, 0.7) @ np.cos(m * (tj))
            assert abs(got - (-2 * np.pi / m) * np.cos(m * 0.7)) < 1e-11


def test_hypersingular_rule_identities():
    for n in (8, 16, 32):
        tj = np.pi * np.arange(2 * n) / n
        t = 1.1
        w = hypersingular_weights(n, t)
        assert abs(np.sum(w)) < 1e-11                      # constants -> 0
        for m in range(1, n):
            got = w @ np.cos(m * tj)
            assert abs(got - (-m * np.cos(m * t))) < 1e-11


def test_trapezoid_basics():
    assert trapezoid(np.ones(32)) == pytest.approx(2 * np.pi)
    t = np.pi * np.arange(16) / 8
    assert abs(trapezoid(np.cos(t))) < 1e-14


def test_trapezoid_spectral_convergence():
    def f(t):
        return np.exp(np.sin(t))

    t32 = np.pi * np.arange(64) / 32
    t64 = np.pi * np.arange(128) / 64
    assert abs(trapezoid(f(t32)) - trapezoid(f(t64))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=8))
def test_trapezoid_exact_on_trig_polys(n, m):
    if m >= 2 * n:
        return
    t = np.pi * np.arange(2 * n) / n
    assert abs(trapezoid(np.cos(m * t))) < 1e-12 * n
    assert abs(trapezoid(np.sin(m * t))) < 1e-12 * n


def test_node_matrices_are_translation_invariant():
    n = 12
    rmat = log_weight_matrix(n)
    tmat = hypersingular_weight_matrix(n)
    tj = np.pi * np.arange(2 * n) / n
    for i in (0, 3, 17):
        assert np.allclose(rmat[i], log_weights(n, tj[i]), atol=1e-13)
        assert np.allclose(tmat[i], hypersingular_weights(n, tj[i]), atol=1e-13)
    # dependence only on (i - j) mod 2n
    assert rmat[3, 5] == rmat[10, 12]
    assert rmat[0, 5] == rmat[5, 10]


def test_weight_matrices_are_cached_read_only():
    # one shared array per n: a caller writing into it would corrupt
    # every later assembly
    for build in (log_weight_matrix, hypersingular_weight_matrix):
        mat = build(10)
        assert build(10) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0
