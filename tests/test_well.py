"""Box eigenbasis: energies, wavefunctions, and width-derivative overlaps.

The closed-form overlaps are the load-bearing part of the whole package,
so they are checked against adaptive quadrature of the explicit
wavefunction products, not just against each other.
"""

import math

import numpy as np
import pytest

from wellprobe.quadrature import quadrature
from wellprobe.well import (
    WellConfig,
    build_overlap_table,
    d_eigen_energy,
    d_eigen_wavefunction,
    eigen_energy,
    eigen_wavefunction,
    overlap_dpsi_dpsi,
    overlap_psi_dpsi,
)

WIDTHS = [0.5, 1.0, 2.3]
PAIR_SAMPLE = [(1, 1), (1, 2), (1, 3), (2, 5), (3, 3), (7, 12), (24, 25)]


def test_config_validation():
    with pytest.raises(ValueError):
        WellConfig(width=0.0)
    with pytest.raises(ValueError):
        WellConfig(width=-1.0)
    with pytest.raises(ValueError):
        WellConfig(width=1.0, truncation=0)
    assert WellConfig().truncation == 50


@pytest.mark.parametrize("width", [math.inf, math.nan])
def test_config_rejects_non_finite_width(width):
    with pytest.raises(ValueError):
        WellConfig(width=width)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("a", WIDTHS)
def test_energy_and_derivative(n, a):
    cfg = WellConfig(width=a)
    assert eigen_energy(n, cfg) == pytest.approx((n * math.pi) ** 2 / (2 * a * a), rel=1e-14)
    h = 1e-6 * a
    fd = (eigen_energy(n, WellConfig(a + h)) - eigen_energy(n, WellConfig(a - h))) / (2 * h)
    assert d_eigen_energy(n, cfg) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("a", WIDTHS)
def test_eigenfunctions_orthonormal(a):
    cfg = WellConfig(width=a)
    for m, n in [(1, 1), (3, 3), (1, 2), (2, 5)]:
        ip = quadrature(
            lambda x: eigen_wavefunction(m, cfg, x) * eigen_wavefunction(n, cfg, x),
            0.0,
            a,
            tol=1e-12,
        )
        assert ip == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


def test_wavefunction_zero_outside_box():
    cfg = WellConfig(width=1.5)
    x = np.array([-0.3, -1e-9, 1.5 + 1e-9, 2.0])
    assert np.all(eigen_wavefunction(2, cfg, x) == 0.0)
    assert np.all(d_eigen_wavefunction(2, cfg, x) == 0.0)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("a", [1.0, 2.3])
def test_wavefunction_width_derivative_matches_fd(n, a):
    h = 1e-5 * a
    x = np.linspace(1e-3 * a, a - 1e-3 * a, 57)
    fd = (eigen_wavefunction(n, WellConfig(a + h), x) - eigen_wavefunction(n, WellConfig(a - h), x)) / (2 * h)
    got = d_eigen_wavefunction(n, WellConfig(a), x)
    assert np.max(np.abs(got - fd)) < 1e-7


@pytest.mark.parametrize("a", WIDTHS)
def test_overlap_closed_values(a):
    cfg = WellConfig(width=a)
    # first-derivative overlaps: antisymmetric, zero on the diagonal
    assert overlap_psi_dpsi(1, 1, cfg) == 0.0
    assert overlap_psi_dpsi(1, 2, cfg) == pytest.approx(4.0 / (3.0 * a), rel=1e-14)
    assert overlap_psi_dpsi(1, 3, cfg) == pytest.approx(-3.0 / (4.0 * a), rel=1e-14)
    assert overlap_psi_dpsi(3, 1, cfg) == pytest.approx(3.0 / (4.0 * a), rel=1e-14)
    # double-derivative overlaps: symmetric, nonzero diagonal
    assert overlap_dpsi_dpsi(1, 1, cfg) == pytest.approx((math.pi**2 / 3.0 + 0.25) / a**2, rel=1e-14)
    assert overlap_dpsi_dpsi(1, 2, cfg) == pytest.approx(-40.0 / (9.0 * a * a), rel=1e-14)
    assert overlap_dpsi_dpsi(2, 1, cfg) == overlap_dpsi_dpsi(1, 2, cfg)


@pytest.mark.parametrize("m, n", PAIR_SAMPLE)
@pytest.mark.parametrize("a", WIDTHS)
def test_overlaps_match_quadrature(m, n, a):
    cfg = WellConfig(width=a)
    b_quad = quadrature(
        lambda x: eigen_wavefunction(m, cfg, x) * d_eigen_wavefunction(n, cfg, x),
        0.0,
        a,
        tol=1e-11,
    )
    c_quad = quadrature(
        lambda x: d_eigen_wavefunction(m, cfg, x) * d_eigen_wavefunction(n, cfg, x),
        0.0,
        a,
        tol=1e-11,
    )
    assert overlap_psi_dpsi(m, n, cfg) == pytest.approx(b_quad, abs=1e-9, rel=1e-9)
    assert overlap_dpsi_dpsi(m, n, cfg) == pytest.approx(c_quad, abs=1e-9, rel=1e-9)


def test_table_matches_scalar_entries():
    cfg = WellConfig(width=1.7, truncation=12)
    table = build_overlap_table(cfg)
    worst = 0.0
    for i in range(1, 13):
        for j in range(1, 13):
            worst = max(worst, abs(table.psi_dpsi[i - 1, j - 1] - overlap_psi_dpsi(i, j, cfg)))
            worst = max(worst, abs(table.dpsi_dpsi[i - 1, j - 1] - overlap_dpsi_dpsi(i, j, cfg)))
    assert worst < 1e-13


def test_table_symmetries_are_exact():
    table = build_overlap_table(WellConfig(width=0.8, truncation=40))
    assert np.array_equal(table.psi_dpsi, -table.psi_dpsi.T)
    assert np.array_equal(table.dpsi_dpsi, table.dpsi_dpsi.T)
    assert np.all(np.diag(table.psi_dpsi) == 0.0)
    assert table.psi_dpsi.shape == (40, 40)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "50", None])
def test_non_integral_truncation_rejected(bad):
    with pytest.raises(ValueError, match="whole number"):
        WellConfig(width=1.0, truncation=bad)


def test_numpy_integer_truncation_accepted():
    assert WellConfig(width=1.0, truncation=np.int64(7)).truncation == 7
    assert WellConfig(width=1.0, truncation=np.uint16(7)).truncation == 7
