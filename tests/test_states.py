"""Probe-state families: expansion coefficients, profiles, derivatives."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellprobe.quadrature import quadrature
from wellprobe.states import (
    Custom,
    Eigen,
    Parabolic,
    Polynomial,
    Superposition,
    TruncationWarning,
    _poly_profile,
    _unit_overlaps,
    amplitudes,
    d_wavefunction,
    mean_energy,
    nbar,
    wavefunction,
)
from wellprobe.well import (
    WellConfig,
    _overlap_products,
    d_eigen_wavefunction,
    eigen_wavefunction,
    overlap_dpsi_dpsi,
    overlap_psi_dpsi,
)

CFG = WellConfig(width=1.0, truncation=50)

# lowest expansion coefficient of the parabolic profile, 8*sqrt(15)/pi^3
PARABOLIC_F1 = 0.9992772459953336


def test_state_validation():
    with pytest.raises(ValueError):
        Eigen(0)
    with pytest.raises(ValueError):
        Superposition(2, 2, 0.3)
    with pytest.raises(ValueError):
        Polynomial(0)
    with pytest.raises(ValueError):
        Custom((0.5, 0.5))  # norm 1/sqrt(2), not unit
    Custom((3.0 / 5.0, 4.0 / 5.0))


def test_custom_longer_than_basis_rejected():
    cfg = WellConfig(width=1.0, truncation=3)
    coeff = tuple([0.5] * 4)
    with pytest.raises(ValueError):
        amplitudes(Custom(coeff), cfg)


def test_eigen_amplitudes_are_basis_vectors():
    vec = amplitudes(Eigen(3), CFG)
    expect = np.zeros(50)
    expect[2] = 1.0
    assert np.array_equal(vec.coefficients, expect)
    assert vec.truncation_loss == 0.0


def test_superposition_amplitudes():
    vec = amplitudes(Superposition(1, 3, 0.3), CFG)
    assert vec.coefficients[0] == pytest.approx(math.cos(0.3), rel=1e-15)
    assert vec.coefficients[2] == pytest.approx(math.sin(0.3), rel=1e-15)
    assert np.count_nonzero(vec.coefficients) == 2


def test_eigen_above_truncation_warns():
    cfg = WellConfig(width=1.0, truncation=4)
    with pytest.warns(TruncationWarning):
        amplitudes(Eigen(9), cfg)


def test_parabolic_coefficients():
    vec = amplitudes(Parabolic(), CFG)
    assert vec.coefficients[0] == pytest.approx(PARABOLIC_F1, rel=1e-12)
    # even levels are absent by symmetry, odd ones fall off as 1/n^3
    assert np.all(vec.coefficients[1::2] == 0.0)
    assert vec.coefficients[2] == pytest.approx(PARABOLIC_F1 / 27.0, rel=1e-9)
    assert vec.truncation_loss < 1e-6


def test_polynomial_amplitudes_match_projection():
    """Coefficients must be plain overlaps with the eigenfunctions."""
    state = Polynomial(2)
    vec = amplitudes(state, CFG)
    for n in (1, 2, 3, 6):
        proj = quadrature(
            lambda x, n=n: math.sqrt(2.0) * np.sin(n * math.pi * x) * wavefunction(state, CFG, x),
            0.0,
            1.0,
            tol=1e-12,
        )
        assert vec.coefficients[n - 1] == pytest.approx(proj, abs=1e-10)


def test_parseval_and_truncation_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = amplitudes(Polynomial(1), CFG)
    assert vec.truncation_loss < 1e-8
    with pytest.warns(TruncationWarning):
        sharp = amplitudes(Polynomial(7), CFG)
    assert 1e-6 < sharp.truncation_loss < 1e-5


@pytest.mark.parametrize("state", [Polynomial(1), Polynomial(3), Parabolic(), Superposition(1, 2, 0.7)])
@pytest.mark.parametrize("a", [1.0, 2.3])
def test_profiles_normalized(state, a):
    cfg = WellConfig(width=a, truncation=50)
    norm = quadrature(lambda x: wavefunction(state, cfg, x) ** 2, 0.0, a, tol=1e-12)
    assert norm == pytest.approx(1.0, rel=1e-10)


def test_polynomial_one_is_the_parabola():
    a = 1.6
    cfg = WellConfig(width=a, truncation=50)
    x = np.linspace(0.0, a, 211)
    assert np.max(np.abs(wavefunction(Polynomial(1), cfg, x) - wavefunction(Parabolic(), cfg, x))) < 1e-13
    assert np.max(np.abs(d_wavefunction(Polynomial(1), cfg, x) - d_wavefunction(Parabolic(), cfg, x))) < 1e-13


@pytest.mark.parametrize(
    "state",
    [Eigen(2), Superposition(1, 3, 0.3), Polynomial(2), Parabolic(), Custom((0.6, 0.8))],
)
@pytest.mark.parametrize("a", [1.0, 0.7])
def test_width_derivative_matches_fd(state, a):
    cfg = WellConfig(width=a, truncation=50)
    h = 1e-5 * a
    x = np.linspace(1e-3 * a, a * (1.0 - 1e-3), 41)
    up = wavefunction(state, WellConfig(width=a + h, truncation=50), x)
    dn = wavefunction(state, WellConfig(width=a - h, truncation=50), x)
    got = d_wavefunction(state, cfg, x)
    assert np.max(np.abs(got - (up - dn) / (2 * h))) < 1e-7


@pytest.mark.parametrize(
    "state, levels",
    [
        (Eigen(3), [(3, 1.0)]),
        (Superposition(1, 4, 0.7), [(1, math.cos(0.7)), (4, math.sin(0.7))]),
        (Custom((0.6, 0.0, -0.48, 0.64)), [(1, 0.6), (3, -0.48), (4, 0.64)]),
    ],
)
@pytest.mark.parametrize("a", [0.7, 2.3])
def test_level_sums_match_the_well_eigenfunctions(state, levels, a):
    cfg = WellConfig(width=a, truncation=50)
    x = np.linspace(-0.1 * a, 1.1 * a, 97)
    f = sum(c * eigen_wavefunction(n, cfg, x) for n, c in levels)
    df = sum(c * d_eigen_wavefunction(n, cfg, x) for n, c in levels)
    assert np.max(np.abs(wavefunction(state, cfg, x) - f)) < 1e-13 * np.max(np.abs(f))
    assert np.max(np.abs(d_wavefunction(state, cfg, x) - df)) < 1e-13 * np.max(np.abs(df))


def test_mean_energy_closed_forms():
    a = 1.3
    cfg = WellConfig(width=a, truncation=200)
    e1 = math.pi**2 / (2 * a * a)
    assert mean_energy(Eigen(1), cfg) == pytest.approx(e1, rel=1e-13)
    assert mean_energy(Eigen(4), cfg) == pytest.approx(16 * e1, rel=1e-13)
    c, s = math.cos(0.3), math.sin(0.3)
    assert mean_energy(Superposition(1, 3, 0.3), cfg) == pytest.approx((c * c + 9 * s * s) * e1, rel=1e-13)
    assert mean_energy(Parabolic(), cfg) == pytest.approx(5.0 / (a * a), rel=1e-13)
    # closed form vs the truncated series through a Custom copy
    for p in (1, 2, 5):
        closed = (1.0 + 6.0 * p + 8.0 * p * p) / ((4.0 * p - 1.0) * a * a)
        assert mean_energy(Polynomial(p), cfg) == pytest.approx(closed, rel=1e-13)
        vec = amplitudes(Polynomial(p), cfg)
        coeff = vec.coefficients / math.sqrt(vec.coefficients @ vec.coefficients)
        series = mean_energy(Custom(tuple(coeff)), cfg)
        assert series == pytest.approx(closed, rel=1e-4)


def test_nbar_rounding():
    value, level = nbar(2, 3, 0.0)
    assert value == 2.0 and level == 2
    # rms level crosses 1.5 between these two mixing angles
    assert nbar(1, 2, 0.40)[1] == 1
    assert nbar(1, 2, 0.41)[1] == 2
    assert nbar(1, 2, 0.41)[0] == pytest.approx(1.507, abs=1e-3)
    with pytest.raises(ValueError):
        nbar(0, 1, 0.1)


def _unit_custom(raw):
    norm = math.sqrt(math.fsum(c * c for c in raw))
    return Custom(tuple(c / norm for c in raw))


_FAMILIES = st.one_of(
    st.integers(1, 10).map(Eigen),
    st.tuples(st.integers(1, 8), st.integers(1, 7), st.floats(-math.pi, math.pi)).map(
        lambda t: Superposition(t[0], t[0] + t[1], t[2])
    ),
    st.integers(1, 12).map(Polynomial),
    st.just(Parabolic()),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8)
    .filter(lambda raw: math.fsum(c * c for c in raw) > 0.01)
    .map(_unit_custom),
)


@given(state=_FAMILIES)
def test_real_states_have_no_mixed_term(state):
    """int g s du over [0, 1] is 0: g s = d/du (u g^2 / 2) and g(1) = 0."""
    unit = WellConfig(width=1.0, truncation=50)
    mixed = quadrature(
        lambda u: wavefunction(state, unit, u) * d_wavefunction(state, unit, u), 0.0, 1.0, tol=1e-12
    )
    assert abs(mixed) < 1e-9


def _bump_amplitudes(p, size):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return amplitudes(Polynomial(p), WellConfig(width=1.0, truncation=size)).coefficients


def _bump_overlap_mp(p, n):
    """40-digit reference: int_0^1 sqrt(2) sin(n pi u) g(u) du by Gauss-Legendre."""
    with mpmath.workdps(40):
        height = mpmath.sqrt(mpmath.mpf(1 + 6 * p + 8 * p * p) / (8 * p * p))
        value = mpmath.quad(
            lambda u: mpmath.sqrt(2) * mpmath.sin(n * mpmath.pi * u) * height * (1 - (2 * u - 1) ** (2 * p)),
            [0, mpmath.mpf(1) / 2, 1],
            method="gauss-legendre",
        )
        return float(value)


@pytest.mark.parametrize("p", [1, 2, 3, 7, 15])
def test_polynomial_amplitudes_match_high_precision_overlaps(p):
    # levels on both sides of k^2 = 2p (2p - 1), where the recurrence changes direction
    coeff = _bump_amplitudes(p, 41)
    for n in (1, 3, 5, 7, 9, 21, 41):
        assert abs(coeff[n - 1] - _bump_overlap_mp(p, n)) <= 1e-15


@pytest.mark.parametrize("p", [1, 3, 15, 40])
def test_polynomial_amplitudes_keep_parseval_in_a_large_basis(p):
    coeff = _bump_amplitudes(p, 20000)
    assert abs(1.0 - coeff @ coeff) <= 1e-14


def test_polynomial_one_has_the_parabolic_amplitudes():
    # closed form of sqrt(30) u (1 - u): 8 sqrt(15) / (n pi)^3 on odd n, 0 on even n
    n = np.arange(1, 1601)
    parabola = np.where(n % 2 == 1, 8.0 * math.sqrt(15.0) / (n * math.pi) ** 3, 0.0)
    bump = _bump_amplitudes(1, 1600)
    assert np.all(np.abs(bump - parabola) <= 1e-14 * np.abs(parabola))
    assert np.array_equal(amplitudes(Parabolic(), WellConfig(width=1.0, truncation=1600)).coefficients, bump)


def test_parabolic_is_the_order_one_bump_only():
    assert isinstance(Parabolic(), Polynomial) and Parabolic().p == 1
    assert Parabolic() != Polynomial(1)  # its own name, for the explicit evolved series
    for p in (2, 0, True, 1.0):
        with pytest.raises(ValueError):
            Parabolic(p)


@pytest.mark.parametrize("p", [1, 4, 15])
def test_polynomial_even_levels_are_exactly_zero(p):
    coeff = _bump_amplitudes(p, 400)
    assert np.all(coeff[1::2] == 0.0)
    assert np.all(coeff[0::2] != 0.0)


@pytest.mark.parametrize("p", [1, 3, 15])
def test_polynomial_small_basis_is_a_prefix_of_the_large_one(p):
    assert _bump_amplitudes(p, 50).tobytes() == _bump_amplitudes(p, 1600)[:50].tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 7, 15, 40])
def test_bump_kernel_matches_the_float_power_forms(p):
    """Profile and scaling term within 4 ulp of the ``**`` forms, at the scale of their terms."""
    u = np.linspace(0.0, 1.0, 100001)
    assert u[0] == 0.0 and u[50000] == 0.5 and u[-1] == 1.0
    height = math.sqrt((1 + 6 * p + 8 * p * p) / (8 * p * p))
    w = 2.0 * u - 1.0
    g = height * (1.0 - w ** (2 * p))
    u_dg = u * (height * (-4.0 * p) * w ** (2 * p - 1))
    assert np.all(np.abs(_poly_profile(p, u) - g) <= 4 * np.spacing(height))
    s_scale = 0.5 * height + np.abs(u_dg)
    assert np.all(np.abs(Polynomial(p)._s(u) - (0.5 * g + u_dg)) <= 4 * np.spacing(s_scale))


@pytest.mark.parametrize("order", [2.5, 3.0, True, "3", None])
def test_polynomial_rejects_a_non_integer_order(order):
    with pytest.raises(ValueError):
        Polynomial(order)


def test_polynomial_accepts_numpy_integer_orders():
    state = Polynomial(np.int64(3))
    assert np.array_equal(amplitudes(state, CFG).coefficients, amplitudes(Polynomial(3), CFG).coefficients)


@pytest.mark.parametrize(
    "u, v",
    [
        (Polynomial(1), Polynomial(1)),
        (Polynomial(1), Polynomial(2)),
        (Polynomial(2), Polynomial(3)),
        (Polynomial(3), Polynomial(7)),
        (Polynomial(5), Polynomial(4)),
        (Eigen(3), Eigen(3)),
        (Eigen(2), Eigen(5)),
        (Superposition(1, 3, 0.3), Eigen(2)),
        (Custom((0.6, 0.0, 0.8)), Superposition(2, 3, 1.1)),
    ],
    ids=[
        "poly1-poly1", "poly1-poly2", "poly2-poly3", "poly3-poly7", "poly5-poly4",
        "eigen3-eigen3", "eigen2-eigen5", "super-eigen", "custom-super",
    ],
)
def test_unit_overlaps_match_quadrature(u, v):
    """Exact <u|v>, <u|dv>, <du|dv> against unit-width quadrature, for bumps and level sums."""
    oracle = (
        quadrature(lambda x: wavefunction(u, CFG, x) * wavefunction(v, CFG, x), 0.0, 1.0, tol=1e-12),
        quadrature(lambda x: wavefunction(u, CFG, x) * d_wavefunction(v, CFG, x), 0.0, 1.0, tol=1e-12),
        quadrature(lambda x: d_wavefunction(u, CFG, x) * d_wavefunction(v, CFG, x), 0.0, 1.0, tol=1e-12),
    )
    for exact, quad in zip(_unit_overlaps(u, v), oracle):
        assert exact == pytest.approx(quad, rel=1e-10, abs=1e-12)


def test_level_sum_overlap_paths_agree():
    """Closed-form entries summed pair by pair equal the FFT products on the level vector.

    Eigen pairs take the pair-by-pair path and are checked against the
    products; a 12-level custom state takes the products and is checked
    against the pair-by-pair sum.
    """
    unit = WellConfig(width=1.0)

    def close(got, want):
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (got, want)

    size = 60
    for n in range(1, size + 1):
        level = np.zeros(size)
        level[n - 1] = 1.0
        b, c = _overlap_products(level)
        for m in range(1, size + 1):
            close(_unit_overlaps(Eigen(m), Eigen(n)), (float(m == n), b[m - 1].real, c[m - 1].real))
    f = np.random.default_rng(9).normal(size=12)
    f /= np.linalg.norm(f)
    grid = [(f[m - 1] * f[n - 1], m, n) for m in range(1, 13) for n in range(1, 13)]
    close(
        _unit_overlaps(Custom(tuple(f)), Custom(tuple(f))),
        (
            math.fsum(w for w, m, n in grid if m == n),
            math.fsum(w * overlap_psi_dpsi(m, n, unit) for w, m, n in grid),
            math.fsum(w * overlap_dpsi_dpsi(m, n, unit) for w, m, n in grid),
        ),
    )
