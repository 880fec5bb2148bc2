"""Adaptive integrator checks against integrals with known values."""

import math

import numpy as np
import pytest

from oracles import quadrature_2d
from wellprobe.quadrature import QuadratureError, quadrature


@pytest.mark.parametrize(
    "f, lo, hi, exact",
    [
        (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
        (np.sin, 0.0, math.pi, 2.0),
        (np.exp, 0.0, 1.0, math.e - 1.0),
        (lambda x: np.cos(40.0 * math.pi * x) ** 2, 0.0, 1.0, 0.5),
        (lambda x: 1.0 / (x * x + 1e-4), -1.0, 1.0, 200.0 * math.atan(100.0)),
        (lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, 5.0 / 18.0),
    ],
)
def test_known_integrals(f, lo, hi, exact):
    value = quadrature(f, lo, hi, tol=1e-12)
    assert value == pytest.approx(exact, rel=1e-10, abs=1e-12)


def test_integrand_receives_arrays():
    seen = []

    def f(x):
        seen.append(x)
        return x

    quadrature(f, 0.0, 2.0)
    assert all(isinstance(chunk, np.ndarray) for chunk in seen)


def test_large_magnitude_does_not_spin():
    # absolute tolerance far below the round-off floor of the partial sums;
    # the unavoidable-error guard must accept instead of subdividing forever
    value = quadrature(lambda x: 1e8 * x, 0.0, 1.0, tol=1e-10)
    assert value == pytest.approx(5e7, rel=1e-12)


def test_budget_exhaustion_reports_estimate():
    f = lambda x: 1.0 / (x * x + 1e-8)
    with pytest.raises(QuadratureError) as info:
        quadrature(f, -1.0, 1.0, tol=1e-14, max_intervals=4)
    err = info.value
    # the payload carries the best partial estimate and its error bound
    assert math.isfinite(err.estimate) and err.estimate > 0.0
    assert err.error > 0.0


def test_non_finite_integrand_rejected():
    def f(x):
        return np.where(x < 0.5, np.nan, 1.0)

    with pytest.raises(ValueError):
        quadrature(f, 0.0, 1.0)


def test_divergent_integrand_exhausts_budget():
    with pytest.raises(QuadratureError):
        quadrature(lambda x: 1.0 / x, 0.0, 1.0, max_intervals=64)


def test_zero_width_interval():
    assert quadrature(np.exp, 1.5, 1.5) == 0.0


@pytest.mark.parametrize(
    "f, xr, yr, exact",
    [
        (lambda x, y: x * y, (0.0, 1.0), (0.0, 1.0), 0.25),
        (lambda x, y: np.sin(x) * np.sin(y), (0.0, math.pi), (0.0, math.pi), 4.0),
        (lambda x, y: np.exp(x + 2.0 * y), (0.0, 1.0), (0.0, 0.5), (math.e - 1.0) * (math.e - 1.0) / 2.0),
    ],
)
def test_known_2d_integrals(f, xr, yr, exact):
    value = quadrature_2d(f, xr, yr, tol=1e-10)
    assert value == pytest.approx(exact, rel=1e-8)
