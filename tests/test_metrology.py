"""Static information quantities: QFI, measurement FI, QSNR, optimal operator."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellprobe.metrology import (
    MetrologyReport,
    fi_energy,
    fi_position,
    gamma_superposition_smallalpha,
    qfi_static,
    qsnr_eigen,
    qsnr_polynomial,
    qsnr_superposition,
    report,
    sld_matrix,
)
from wellprobe.quadrature import quadrature
from wellprobe.states import (
    Custom,
    Eigen,
    Parabolic,
    Polynomial,
    Superposition,
    TruncationWarning,
    amplitudes,
    d_wavefunction,
    mean_energy,
    nbar,
    wavefunction,
)
from wellprobe.well import WellConfig, build_overlap_table

CFG = WellConfig(width=1.0, truncation=50)

# ratio values frozen from the closed form 1 + (4/3)(n pi)^2
FROZEN_QSNR_EIGEN = {
    1: 14.1594725348,
    2: 53.6378901391,
    3: 119.435252813,
    4: 211.551560557,
}


def test_qsnr_eigen_closed_values():
    for n, expect in FROZEN_QSNR_EIGEN.items():
        assert qsnr_eigen(n) == pytest.approx(expect, rel=1e-10)
    with pytest.raises(ValueError):
        qsnr_eigen(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qsnr_eigen_vs_quadrature(n):
    cfg = WellConfig(width=1.3, truncation=50)
    assert cfg.width**2 * qfi_static(Eigen(n), cfg) == pytest.approx(qsnr_eigen(n), rel=1e-7)


def test_qsnr_polynomial_values():
    assert qsnr_polynomial(1) == 15.0
    assert qsnr_polynomial(2) == pytest.approx(153.0 / 7.0, rel=1e-14)
    for p in range(2, 30):
        assert qsnr_polynomial(p) > qsnr_polynomial(p - 1)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_qsnr_polynomial_vs_quadrature(p):
    cfg = WellConfig(width=0.9, truncation=50)
    assert cfg.width**2 * qfi_static(Polynomial(p), cfg) == pytest.approx(qsnr_polynomial(p), rel=1e-7)


@pytest.mark.parametrize("n, m, alpha", [(1, 2, 0.3), (1, 3, 0.3), (2, 5, 1.0)])
@pytest.mark.parametrize("a", [1.0, 2.7])
def test_qsnr_superposition_vs_quadrature(n, m, alpha, a):
    cfg = WellConfig(width=a, truncation=50)
    direct = a * a * qfi_static(Superposition(n, m, alpha), cfg)
    assert qsnr_superposition(n, m, alpha) == pytest.approx(direct, rel=1e-7)


def test_qfi_of_a_high_level_is_exact_and_allocates_nothing():
    """A level far above the truncation costs a few closed-form entries, no basis."""
    cfg = WellConfig(width=1.0, truncation=50)
    cases = (
        (Eigen(10**7), qsnr_eigen(10**7)),
        (Superposition(1, 10**7, 0.3), qsnr_superposition(1, 10**7, 0.3)),
    )
    for state, closed in cases:
        tracemalloc.start()
        try:
            value = qfi_static(state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(closed, rel=1e-13)
        assert peak <= 64 * 1024, f"{state}: peak {peak} bytes"


def test_qfi_custom_matches_quadrature_route():
    """Coefficient-table evaluation against direct profile integrals."""
    state = Custom((0.6, 0.0, 0.8))
    cfg = WellConfig(width=1.4, truncation=30)
    table_route = qfi_static(state, cfg)
    dsq = quadrature(lambda x: d_wavefunction(state, cfg, x) ** 2, 0.0, cfg.width, tol=1e-12)
    mixed = quadrature(
        lambda x: wavefunction(state, cfg, x) * d_wavefunction(state, cfg, x), 0.0, cfg.width, tol=1e-12
    )
    assert table_route == pytest.approx(4.0 * (dsq - mixed * mixed), rel=1e-9)


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 4)])
def test_gain_model_remainder_is_quadratic(n, d):
    """Halving the mixing angle must shrink the first-order misfit ~4x."""

    def remainder(alpha):
        level = nbar(n, d, alpha)[1]
        exact = qsnr_superposition(n, n + d, alpha) / qsnr_eigen(level)
        return abs(exact - gamma_superposition_smallalpha(n, d, alpha))

    assert remainder(0.04) / remainder(0.02) >= 3.5


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (2, 3)])
def test_gain_coefficient_matches_fd_slope(n, d):
    alpha = 1e-4
    slope_fd = (qsnr_superposition(n, n + d, alpha) / qsnr_eigen(n) - 1.0) / alpha
    slope_model = (gamma_superposition_smallalpha(n, d, alpha) - 1.0) / alpha
    assert slope_fd == pytest.approx(slope_model, rel=1e-2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delocalized_beats_eigen_at_matched_energy(p):
    # An eigenstate of mean energy E has QSNR 1 + (8/3) a^2 E, treating the
    # level as continuous.  The polynomial probe beats that line at its own
    # mean energy, and a fortiori the nearest integer level from below.
    cfg = WellConfig(width=1.0, truncation=50)
    energy = mean_energy(Polynomial(p), cfg)
    assert qsnr_polynomial(p) > 1.0 + (8.0 / 3.0) * energy
    level = max(1, math.floor(math.sqrt(2.0 * energy) / math.pi))
    assert qsnr_polynomial(p) > qsnr_eigen(level)


@pytest.mark.parametrize("state", [Eigen(1), Parabolic(), Superposition(1, 3, 0.3)])
@pytest.mark.parametrize("a", [1.0, 2.7])
def test_position_measurement_is_optimal(state, a):
    cfg = WellConfig(width=a, truncation=50)
    assert fi_position(state, cfg) == pytest.approx(qfi_static(state, cfg), rel=1e-7)


def test_energy_measurement_is_blind():
    """The level distribution does not move with the width at all."""
    va = amplitudes(Polynomial(2), WellConfig(width=1.0, truncation=50)).coefficients
    vb = amplitudes(Polynomial(2), WellConfig(width=1.01, truncation=50)).coefficients
    assert np.array_equal(va, vb)
    assert fi_energy(Polynomial(2), CFG) == 0.0
    assert fi_energy(Eigen(3), CFG) == 0.0


def test_sld_structure():
    with pytest.warns(TruncationWarning, match="derivative-vector tail"):
        L = sld_matrix(Eigen(1), CFG)
    assert np.array_equal(L, L.T)
    f = amplitudes(Eigen(1), CFG).coefficients
    scale = np.max(np.abs(L))
    assert abs(f @ L @ f) < 1e-12 * scale  # traceless on the state itself


@pytest.mark.parametrize("state, band", [(Eigen(1), (0.015, 0.04)), (Polynomial(1), (0.02, 0.05))])
def test_sld_second_moment_converges_to_qfi(state, band):
    """<L^2> reproduces the QFI up to a truncation deficit that decays ~1/N."""
    errs = {}
    for size in (50, 100):
        cfg = WellConfig(width=1.0, truncation=size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            L = sld_matrix(state, cfg)
            f = amplitudes(state, cfg).coefficients
        second = (L @ f) @ (L @ f)
        errs[size] = abs(second - qfi_static(state, cfg)) / qfi_static(state, cfg)
    assert band[0] < errs[50] < band[1]
    assert 0.4 < errs[100] / errs[50] < 0.6


_HIGH_CUSTOM = np.random.default_rng(1600).normal(size=1600) / np.arange(1, 1601)
_HIGH_CUSTOM /= math.sqrt(math.fsum(_HIGH_CUSTOM**2))


@pytest.mark.parametrize("a", [0.37, 1.0, 7.3])
def test_custom_qfi_matches_dense_tables_at_level_1600(a):
    cfg = WellConfig(width=a, truncation=1600)
    state = Custom(tuple(_HIGH_CUSTOM))
    table = build_overlap_table(cfg)
    f = _HIGH_CUSTOM
    dense = 4.0 * (f @ table.dpsi_dpsi @ f - (f @ table.psi_dpsi @ f) ** 2)
    assert qfi_static(state, cfg) == pytest.approx(dense, rel=1e-13)


def test_custom_qfi_allocates_no_dense_table():
    cfg = WellConfig(width=1.0, truncation=1600)
    state = Custom(tuple(_HIGH_CUSTOM))
    qfi_static(state, cfg)  # warm the kernel cache
    tracemalloc.start()
    try:
        qfi_static(state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 1600 x 1600 float table alone is 20 MB
    assert peak <= 4_000_000


_SLD_CUSTOM = np.random.default_rng(30).normal(size=30)
_SLD_CUSTOM /= math.sqrt(math.fsum(_SLD_CUSTOM**2))


@pytest.mark.parametrize(
    "state",
    [Eigen(1), Superposition(1, 3, 0.3), Polynomial(3), Parabolic(), Custom(tuple(_SLD_CUSTOM))],
    ids=["eigen1", "super13", "poly3", "parabolic", "custom30"],
)
@pytest.mark.parametrize("size", [50, 400])
@pytest.mark.parametrize("a", [0.37, 7.3])
def test_sld_matches_dense_tables(state, size, a):
    cfg = WellConfig(width=a, truncation=size)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        L = sld_matrix(state, cfg)
        f = amplitudes(state, cfg).coefficients
    d = build_overlap_table(cfg).psi_dpsi @ f
    dense = 2.0 * (np.outer(f, d) + np.outer(d, f))
    assert np.max(np.abs(L - dense)) <= 1e-12 * np.max(np.abs(dense))
    # the tail warning fires exactly where the dense derivative vector says it should
    warned = any("derivative-vector tail" in str(w.message) for w in record)
    assert warned == bool(size * d[-1] ** 2 > 1e-6 * (d @ d))


def test_report_bundles_consistent_numbers():
    rep = report(Parabolic(), CFG)
    assert rep.qsnr == pytest.approx(CFG.width**2 * rep.qfi, rel=1e-14)
    assert rep.qfi == pytest.approx(15.0, rel=1e-7)
    assert rep.fi_position <= rep.qfi * (1.0 + 1e-7)
    assert rep.fi_energy == 0.0
    assert 0.0 <= rep.residual_estimate < 1e-6
    assert rep.truncation == 50


def test_report_flags_lossy_truncation():
    with pytest.warns(TruncationWarning):
        rep = report(Polynomial(7), CFG)
    assert rep.residual_estimate > 1e-6


def test_report_rejects_fi_above_qfi():
    with pytest.raises(ValueError):
        MetrologyReport(
            qfi=1.0, fi_position=2.0, fi_energy=0.0, qsnr=1.0, truncation=50, residual_estimate=0.0
        )


def _custom_case(raw):
    f = np.zeros(50)
    f[: len(raw)] = np.array(raw) / math.sqrt(math.fsum(c * c for c in raw))
    table = build_overlap_table(WellConfig(width=1.0, truncation=50))
    qsnr = 4.0 * (f @ table.dpsi_dpsi @ f - (f @ table.psi_dpsi @ f) ** 2)
    return Custom(tuple(f[: len(raw)])), qsnr


# (state, width-independent closed-form QSNR) for every family
_STATE_CASES = st.one_of(
    st.integers(1, 10).map(lambda n: (Eigen(n), qsnr_eigen(n))),
    st.tuples(st.integers(1, 8), st.integers(1, 7), st.floats(-math.pi, math.pi)).map(
        lambda t: (Superposition(t[0], t[0] + t[1], t[2]), qsnr_superposition(t[0], t[0] + t[1], t[2]))
    ),
    st.integers(1, 12).map(lambda p: (Polynomial(p), qsnr_polynomial(p))),
    st.just((Parabolic(), 15.0)),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8)
    .filter(lambda raw: math.fsum(c * c for c in raw) > 0.01)
    .map(_custom_case),
)


@given(case=_STATE_CASES, exponent=st.floats(-150.0, 150.0))
def test_extreme_widths_keep_closed_forms_and_optimality(case, exponent):
    """Scale covariance holds at every representable width, not just near 1."""
    state, closed = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rep = report(state, WellConfig(width=10.0**exponent))
    assert rep.qsnr == pytest.approx(closed, rel=1e-9)
    assert rep.fi_position / rep.qfi == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("a", [1e-155, 1e300])
def test_information_outside_the_float_range_raises(a):
    """Q / a^2 that is not a float is an error, never a silent inf or 0."""
    cfg = WellConfig(width=a)
    for quantity in (qfi_static, fi_position):
        with pytest.raises(ArithmeticError):
            quantity(Eigen(1), cfg)
