"""Time-evolved probes: generic truncated QFI and the parabolic closed form.

Oracles used here, strongest first: an exact two-mode expression derived
by hand, frozen values cross-checked against a finite-difference grid
evaluation, the grid evaluation itself (loose tolerance), and the exact
secular-tail prediction for the closed-vs-series truncation gap.
"""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from wellprobe.dynamics import (
    EvolvedState,
    _overlap_products,
    evolved_amplitudes,
    qfi_parabolic_time,
    qfi_time,
    truncation_residual,
)
from wellprobe.metrology import qfi_static
from wellprobe.states import (
    Custom,
    Eigen,
    Parabolic,
    Polynomial,
    Superposition,
    TruncationWarning,
    amplitudes,
)
from wellprobe.well import (
    WellConfig,
    build_overlap_table,
    d_eigen_energy,
    eigen_energy,
    overlap_dpsi_dpsi,
    overlap_psi_dpsi,
)

CFG = WellConfig(width=1.0, truncation=50)

# truncation-50 values at a=1, frozen after cross-checking each one against
# a finite-difference evaluation of the same truncated state on a dense grid
FROZEN_PARABOLIC = {0.05: 14.83467465, 0.3: 16.38548013, 1.0: 97.04980903}
FROZEN_SUPER_1_3 = {0.0: 27.5882558, 0.05: 31.13104717, 0.3: 183.1914596, 1.0: 2117.374441}

TWO_MODE = Custom((1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)))


def two_mode_exact(t):
    """QFI of (level1 + level3)/sqrt(2) at unit width, derived by hand.

    Only the pair (1,3) contributes, so the double sums collapse to single
    cosine/sine terms and everything reduces to elementary functions.
    """
    s = math.sin(4.0 * math.pi**2 * t)
    c = math.cos(4.0 * math.pi**2 * t)
    quarter = (
        16.0 * math.pi**4 * t * t
        - (9.0 / 16.0) * s * s
        + (15.0 / 8.0) * c
        + 5.0 * math.pi**2 / 3.0
        + 0.25
    )
    return 4.0 * quarter


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        EvolvedState(Parabolic(), -0.1, CFG)


def test_evolution_is_unitary():
    ref = np.abs(evolved_amplitudes(EvolvedState(Parabolic(), 0.0, CFG)))
    now = evolved_amplitudes(EvolvedState(Parabolic(), 0.7, CFG))
    assert now.dtype.kind == "c"
    assert np.max(np.abs(np.abs(now) - ref)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 5])
def test_eigenstates_do_not_drift(n):
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in np.linspace(0.0, 10.0, 21):
            values.append(qfi_time(EvolvedState(Eigen(n), float(t), CFG)))
    spread = (max(values) - min(values)) / values[0]
    assert spread < 1e-10


def test_static_limit_matches_static_qfi():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q0 = qfi_time(EvolvedState(Parabolic(), 0.0, CFG))
    assert q0 == pytest.approx(14.99992011, rel=1e-8)
    # the full-precision static value differs only by the truncation deficit
    assert q0 == pytest.approx(qfi_static(Parabolic(), CFG), rel=1e-5)


@pytest.mark.parametrize("t, expect", sorted(FROZEN_PARABOLIC.items()))
def test_frozen_parabolic_values(t, expect):
    # at these times the secular sum is visibly unconverged at N=50, and
    # the convergence warning is part of the contract
    with pytest.warns(TruncationWarning, match="not converged"):
        value = qfi_time(EvolvedState(Parabolic(), t, CFG))
    assert value == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("t, expect", sorted(FROZEN_SUPER_1_3.items()))
def test_frozen_superposition_values(t, expect):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # finite superpositions are exact
        value = qfi_time(EvolvedState(Superposition(1, 3, 0.3), t, CFG))
    assert value == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.01, 0.1, 0.37, 1.0])
def test_two_mode_matches_hand_derivation(t):
    value = qfi_time(EvolvedState(TWO_MODE, t, CFG))
    assert value == pytest.approx(two_mode_exact(t), rel=1e-12)


def test_early_evolution_can_lose_information():
    """The t^2 coefficient of the two-mode probe is negative (a real dip)."""
    q0 = qfi_time(EvolvedState(TWO_MODE, 0.0, CFG))
    qh = qfi_time(EvolvedState(TWO_MODE, 1e-3, CFG))
    assert qh < q0
    curvature = (qh - q0) / 1e-6
    assert curvature == pytest.approx(-32.0 * math.pi**4, rel=2e-3)


def _grid_qfi(state, t, a, size, npts=20001, ha=1e-6):
    """Finite-difference QFI of the truncated evolved state on a grid."""
    xs = np.linspace(0.0, a + ha, npts)
    ns = np.arange(1, size + 1)
    psis = []
    for aa in (a - ha, a, a + ha):
        cfg = WellConfig(width=aa, truncation=size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            vec = amplitudes(state, cfg).coefficients
        en = (ns * math.pi) ** 2 / (2.0 * aa * aa)
        inside = xs <= aa
        basis = np.zeros((size, npts))
        basis[:, inside] = np.sqrt(2.0 / aa) * np.sin(np.outer(ns * math.pi / aa, xs[inside]))
        psis.append((vec * np.exp(-1j * en * t)) @ basis)
    dpsi = (psis[2] - psis[0]) / (2.0 * ha)
    ip = lambda u, v: np.trapezoid(np.conj(u) * v, xs)
    return float(4.0 * (ip(dpsi, dpsi) - abs(ip(psis[1], dpsi)) ** 2).real)


@pytest.mark.parametrize("state, t", [(Parabolic(), 0.05), (Superposition(1, 3, 0.3), 0.3)])
def test_grid_evaluation_cross_check(state, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        value = qfi_time(EvolvedState(state, t, CFG))
    assert value == pytest.approx(_grid_qfi(state, t, 1.0, 50), rel=1e-3)


def test_assembly_matches_naive_loop():
    """Vectorized double sums against a direct complex-arithmetic loop."""
    cfg = WellConfig(width=1.3, truncation=8)
    f = amplitudes(Custom((0.6, 0.0, 0.48, 0.64)), cfg).coefficients
    t = 0.21

    ip_dd = 0j
    ip_sd = 0j
    for n in range(1, 9):
        for m in range(1, 9):
            ph = cmath.exp(1j * (eigen_energy(n, cfg) - eigen_energy(m, cfg)) * t)
            dn = -1j * t * d_eigen_energy(n, cfg)
            dm = -1j * t * d_eigen_energy(m, cfg)
            kron = 1.0 if n == m else 0.0
            term = (
                dn.conjugate() * dm * kron
                + dn.conjugate() * overlap_psi_dpsi(n, m, cfg)
                + dm * overlap_psi_dpsi(m, n, cfg)
                + overlap_dpsi_dpsi(n, m, cfg)
            )
            ip_dd += f[n - 1] * f[m - 1] * ph * term
            ip_sd += f[n - 1] * f[m - 1] * ph * (dm * kron + overlap_psi_dpsi(n, m, cfg))
    naive = 4.0 * (ip_dd.real - abs(ip_sd) ** 2)

    value = qfi_time(EvolvedState(Custom((0.6, 0.0, 0.48, 0.64)), t, cfg))
    assert value == pytest.approx(naive, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("a", [0.1, 0.3, 1.0, 3.0])
def test_eigenstates_keep_the_static_closed_form(n, a):
    """The centred secular and cross terms vanish exactly for an eigenstate."""
    cfg = WellConfig(width=a, truncation=50)
    exact = 4.0 * (n * n * math.pi**2 / 3.0 + 0.25) / a**2
    for t in np.linspace(0.0, 10.0, 41):
        value = qfi_time(EvolvedState(Eigen(n), float(t), cfg))
        assert value == pytest.approx(exact, rel=1e-13)


def _dense_qfi(state, t, cfg):
    """4[<dPsi|dPsi> - |<Psi|dPsi>|^2] as complex bilinear forms of the dense tables."""
    table = build_overlap_table(cfg)
    f = amplitudes(state, cfg).coefficients
    n = np.arange(1, cfg.truncation + 1, dtype=float)
    c = f * np.exp(-1j * 0.5 * (n * math.pi / cfg.width) ** 2 * t)
    y = -1j * t * (-((n * math.pi) ** 2) / cfg.width**3) * c
    grad = (np.vdot(c, table.dpsi_dpsi @ c) + np.vdot(y, y) + 2.0 * np.vdot(y, table.psi_dpsi @ c)).real
    overlap = np.vdot(c, table.psi_dpsi @ c) + np.vdot(c, y)
    return 4.0 * (grad - abs(overlap) ** 2)


_RANDOM_CUSTOM = np.random.default_rng(11).normal(size=12)
_RANDOM_CUSTOM /= math.sqrt(math.fsum(_RANDOM_CUSTOM**2))


@pytest.mark.parametrize(
    "state",
    [Polynomial(3), Parabolic(), Superposition(1, 2, 0.7), Custom(tuple(_RANDOM_CUSTOM))],
    ids=["poly3", "parabolic", "super", "custom"],
)
@pytest.mark.parametrize("size", [50, 400])
def test_structured_products_match_dense_tables(state, size):
    for a in (0.6, 1.0, 2.5):
        cfg = WellConfig(width=a, truncation=size)
        for t in (0.0, 0.013, 0.3, 1.0, 2.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                value = qfi_time(EvolvedState(state, t * a * a, cfg))
                dense = _dense_qfi(state, t * a * a, cfg)
            assert value == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("size", [1, 2, 7, 50, 400])
def test_overlap_products_match_dense_tables(size):
    """FFT products against the unit-width tables, corners and diagonals included."""
    rng = np.random.default_rng(size)
    c = rng.normal(size=size) + 1j * rng.normal(size=size)
    table = build_overlap_table(WellConfig(width=1.0, truncation=size))
    bc, cc = _overlap_products(c)
    for fast, dense in ((bc, table.psi_dpsi @ c), (cc, table.dpsi_dpsi @ c)):
        # B is 0 at size 1, so the scale also counts the input
        assert np.max(np.abs(fast - dense)) <= 1e-13 * (np.max(np.abs(dense)) + np.max(np.abs(c)))


def test_convergence_probe_is_the_smaller_basis():
    """The warned drift is the relative change to a run at ten fewer states."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        small = qfi_time(EvolvedState(Parabolic(), 1.0, WellConfig(width=1.0, truncation=30)))
    with pytest.warns(TruncationWarning) as record:
        big = qfi_time(EvolvedState(Parabolic(), 1.0, WellConfig(width=1.0, truncation=40)))
    assert f"moved by {abs(big - small) / abs(big):.3e} relative" in str(record[0].message)


def test_large_basis_allocates_no_dense_table():
    ev = EvolvedState(Parabolic(), 0.7, WellConfig(width=1.0, truncation=1600))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        qfi_time(ev)  # warm the coefficient and kernel caches
        tracemalloc.start()
        try:
            qfi_time(ev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one 1600 x 1600 float table alone is 20 MB
    assert peak <= 4_000_000


def test_closed_form_static_limit():
    value = qfi_parabolic_time(CFG, 0.0)
    assert value == pytest.approx(15.0, abs=1e-3)
    assert value < 15.0  # the truncated double sum still misses a little


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_closed_vs_series_gap_is_the_secular_tail(t):
    """The generic series converges only ~1/N; the deficit is predictable.

    The closed form evaluates the t^2 single sum exactly, while the
    truncated series keeps levels up to N, missing 4 t^2 sum(960/(pi n)^2)
    over the odd levels beyond N.  The measured gap must match that tail.
    """
    gaps = {}
    for size in (50, 100):
        cfg = WellConfig(width=1.0, truncation=size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            series = qfi_time(EvolvedState(Parabolic(), t, cfg))
        gaps[size] = qfi_parabolic_time(cfg, t) - series
        odd_tail = np.arange(size + 1, 2_000_001, 2, dtype=float)
        predicted = 4.0 * t * t * float(np.sum(960.0 / (math.pi * odd_tail) ** 2))
        assert gaps[size] > 0.0
        assert gaps[size] == pytest.approx(predicted, rel=0.05)
    assert 0.45 < gaps[100] / gaps[50] < 0.55


@pytest.mark.parametrize(
    "a1, t1, a2, t2", [(1.0, 0.3, 2.0, 1.2), (1.0, 0.07, 3.0, 0.63)]
)
def test_signal_ratio_collapses_on_scaled_time(a1, t1, a2, t2):
    """a^2 H(a, t) is a function of t/a^2 alone, exactly, term by term."""
    qa = a1 * a1 * qfi_parabolic_time(WellConfig(width=a1, truncation=50), t1)
    qb = a2 * a2 * qfi_parabolic_time(WellConfig(width=a2, truncation=50), t2)
    assert qa == pytest.approx(qb, rel=1e-12)


def test_secular_regime_is_quadratic():
    ts = np.array([5.0, 10.0, 20.0, 40.0])
    qs = np.array([qfi_parabolic_time(CFG, float(t)) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(qs), 1)[0]
    assert 1.9 < slope < 2.1
    assert 78.0 < qs[-1] / ts[-1] ** 2 < 82.0


def test_truncation_residual_properties():
    assert truncation_residual(CFG, 0.5, 50, 50) == 0.0
    coarse = truncation_residual(CFG, 0.5, 25, 50)
    fine = truncation_residual(CFG, 0.5, 50, 100)
    assert coarse > fine > 0.0
    assert fine == pytest.approx(2.834831e-4, rel=1e-4)
