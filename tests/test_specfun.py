"""Bessel/Hankel evaluation (scipy.special behind the layerscat entry
points) against the extended-precision series oracle and the classical
identities."""

import numpy as np
import pytest

from layerscat.errors import DomainError, SingularityError
from layerscat.specfun import bessel_j0j1y0y1

from _oracles import fundamental_solution, hankel1_01, series_j0j1y0y1

# relative accuracy target, measured against the oscillation amplitude
# near the functions' zeros
RTOL = 1e-12


def _check_point(x):
    ref = series_j0j1y0y1(x)
    got = bessel_j0j1y0y1(x)
    for name, r, g in zip("J0 J1 Y0 Y1".split(), ref, got):
        scale = max(abs(r), 0.05)
        assert abs(g - r) <= RTOL * scale, f"{name}({x}): {g} vs {r}"


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.1, 1.0, 2.5, 5.0, 7.99, 8.0,
                               8.01, 12.0, 25.0, 57.3, 101.0, 199.5])
def test_accuracy_against_series_oracle(x):
    _check_point(x)


def test_accuracy_sweep_log_grid():
    for x in np.logspace(-3, np.log10(200.0), 45):
        _check_point(float(x))


def test_small_argument_limits():
    j0, j1, _, _ = bessel_j0j1y0y1(1e-8)
    assert abs(j0 - 1.0) < 1e-8
    assert abs(j1) < 1e-8


def test_reference_values_at_one():
    # frozen from the series oracle at 50 digits
    j0, j1, y0, y1 = bessel_j0j1y0y1(1.0)
    assert abs(j0 - 0.7651976865579666) < 1e-13
    assert abs(y0 - 0.08825696421567696) < 1e-13
    h0, _ = hankel1_01(1.0)
    assert abs(h0 - (0.7651976865579666 + 0.08825696421567696j)) < 2e-13


def test_wronskian_identity():
    x = np.logspace(-3, 2, 60)
    j0, j1, y0, y1 = bessel_j0j1y0y1(x)
    w = j1 * y0 - j0 * y1
    ref = 2.0 / (np.pi * x)
    assert np.max(np.abs(w - ref) / ref) < 1e-11


def test_hankel_derivative_relation():
    # H0' = -H1, checked by central differences
    x = np.linspace(0.5, 30.0, 23)
    h = 1e-6
    h0p, _ = hankel1_01(x + h)
    h0m, _ = hankel1_01(x - h)
    _, h1 = hankel1_01(x)
    fd = (h0p - h0m) / (2 * h)
    assert np.max(np.abs(fd + h1) / np.abs(h1)) < 1e-6


def test_vector_shapes_and_domain():
    arr = np.array([[0.5, 2.0], [10.0, 100.0]])
    j0, j1, y0, y1 = bessel_j0j1y0y1(arr)
    assert j0.shape == arr.shape
    with pytest.raises(DomainError):
        bessel_j0j1y0y1(0.0)
    with pytest.raises(DomainError):
        bessel_j0j1y0y1(np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        bessel_j0j1y0y1(np.nan)


def test_fundamental_solution():
    ref = series_j0j1y0y1(1.0)
    expected = 0.25j * (ref[0] + 1j * ref[2])
    x, y = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    # k=1, |x-y|=1
    assert abs(fundamental_solution(1.0, x, y) - expected) < 1e-13
    # symmetry and scale invariance of the argument
    a, b = np.array([0.3, -0.4]), np.array([-0.2, 0.9])
    assert fundamental_solution(2.0, a, b) == fundamental_solution(2.0, b, a)
    assert abs(fundamental_solution(2.0, x, np.array([0.5, 0.0]))
               - fundamental_solution(1.0, x, y)) < 1e-15
    with pytest.raises(SingularityError):
        fundamental_solution(1.0, x, x + 1e-16)
    with pytest.raises(DomainError):
        fundamental_solution(-1.0, x, y)
