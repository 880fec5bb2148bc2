"""Multi-particle probes: pair/W/GHZ ratios and their asymptotics."""

import itertools
import math

import numpy as np
import pytest

from wellprobe.entangled import (
    GhzSpec,
    _pair_bonus,
    entanglement_gain_grid,
    qsnr_ghz,
    qsnr_symmetrized_pair,
    qsnr_two_eigen,
    qsnr_two_polynomial,
    qsnr_w3,
)
from wellprobe.metrology import qsnr_eigen, qsnr_polynomial
from oracles import quadrature_2d
from wellprobe.states import Eigen, Polynomial, Superposition, d_wavefunction, wavefunction
from wellprobe.well import WellConfig, d_eigen_wavefunction, eigen_wavefunction

# closed-form pair values, frozen: Q_n + Q_m + 32 (n m)^2 / (n^2 - m^2)^2
FROZEN_TWO_EIGEN = {
    (1, 2): 82.0195848962,
    (1, 3): 138.094725348,
    (2, 3): 219.153142952,
}


def test_two_eigen_frozen_values():
    for (n, m), expect in FROZEN_TWO_EIGEN.items():
        assert qsnr_two_eigen(n, m) == pytest.approx(expect, rel=1e-10)
        assert qsnr_two_eigen(m, n) == qsnr_two_eigen(n, m)


def test_two_eigen_validation():
    with pytest.raises(ValueError):
        qsnr_two_eigen(2, 2)
    with pytest.raises(ValueError):
        qsnr_two_eigen(0, 1)


def test_two_eigen_bonus_is_positive_everywhere():
    for n in range(1, 21):
        for m in range(1, 21):
            if n != m:
                assert qsnr_two_eigen(n, m) > qsnr_eigen(n) + qsnr_eigen(m)


def test_two_polynomial_closed_value():
    # exact rational pieces: 153/7 + 325/11 + 2457/198
    expect = 153.0 / 7.0 + 325.0 / 11.0 + 2457.0 / 198.0
    assert qsnr_two_polynomial(2, 3) == pytest.approx(expect, rel=1e-13)
    with pytest.raises(ValueError):
        qsnr_two_polynomial(3, 3)


def test_two_polynomial_bonus_positive():
    for p1 in range(1, 16):
        for p2 in range(1, 16):
            if p1 != p2:
                assert qsnr_two_polynomial(p1, p2) > qsnr_polynomial(p1) + qsnr_polynomial(p2)


def test_two_eigen_matches_2d_quadrature():
    """Pair formula against the explicit symmetrized two-particle state."""
    n1, n2, a = 1, 2, 1.0
    cfg = WellConfig(width=a, truncation=50)

    def psi(x, y):
        return (
            eigen_wavefunction(n1, cfg, x) * eigen_wavefunction(n2, cfg, y)
            + eigen_wavefunction(n2, cfg, x) * eigen_wavefunction(n1, cfg, y)
        ) / math.sqrt(2.0)

    def dpsi(x, y):
        return (
            d_eigen_wavefunction(n1, cfg, x) * eigen_wavefunction(n2, cfg, y)
            + eigen_wavefunction(n1, cfg, x) * d_eigen_wavefunction(n2, cfg, y)
            + d_eigen_wavefunction(n2, cfg, x) * eigen_wavefunction(n1, cfg, y)
            + eigen_wavefunction(n2, cfg, x) * d_eigen_wavefunction(n1, cfg, y)
        ) / math.sqrt(2.0)

    dd = quadrature_2d(lambda x, y: dpsi(x, y) ** 2, (0.0, a), (0.0, a), tol=1e-9)
    sd = quadrature_2d(lambda x, y: psi(x, y) * dpsi(x, y), (0.0, a), (0.0, a), tol=1e-9)
    oracle = a * a * 4.0 * (dd - sd * sd)
    assert qsnr_two_eigen(n1, n2) == pytest.approx(oracle, rel=1e-6)


def test_symmetrized_pair_is_the_eigen_closed_form():
    """Orthogonal eigen branches: the exact pair value is the closed form."""
    for n in range(1, 21):
        for m in range(1, 21):
            if n != m:
                exact = qsnr_symmetrized_pair(Eigen(n), Eigen(m))
                assert exact == pytest.approx(qsnr_two_eigen(n, m), rel=1e-12)


def test_symmetrized_level_sum_pair_matches_2d_quadrature():
    """Exact pair value of a superposition and an eigenstate against the explicit state."""
    u, v, a = Superposition(1, 2, 0.4), Eigen(3), 1.0
    cfg = WellConfig(width=a, truncation=50)

    def psi(x, y):
        return (
            wavefunction(u, cfg, x) * wavefunction(v, cfg, y)
            + wavefunction(v, cfg, x) * wavefunction(u, cfg, y)
        ) / math.sqrt(2.0)

    def dpsi(x, y):
        return (
            d_wavefunction(u, cfg, x) * wavefunction(v, cfg, y)
            + wavefunction(u, cfg, x) * d_wavefunction(v, cfg, y)
            + d_wavefunction(v, cfg, x) * wavefunction(u, cfg, y)
            + wavefunction(v, cfg, x) * d_wavefunction(u, cfg, y)
        ) / math.sqrt(2.0)

    box = ((0.0, a), (0.0, a))
    dd = quadrature_2d(lambda x, y: dpsi(x, y) ** 2, *box, tol=1e-9)
    sd = quadrature_2d(lambda x, y: psi(x, y) * dpsi(x, y), *box, tol=1e-9)
    norm = quadrature_2d(lambda x, y: psi(x, y) ** 2, *box, tol=1e-9)
    oracle = a * a * 4.0 * (dd / norm - (sd / norm) ** 2)
    assert qsnr_symmetrized_pair(u, v) == pytest.approx(oracle, rel=1e-6)


def test_symmetrized_bump_pair_is_not_superadditive():
    """The exact bump pair falls short of two independent bumps."""
    exact = qsnr_symmetrized_pair(Polynomial(2), Polynomial(3))
    assert exact == pytest.approx(50.6570380017, rel=1e-10)
    gain = exact / (qsnr_polynomial(2) + qsnr_polynomial(3))
    assert gain == pytest.approx(0.98550, abs=1e-5)
    assert qsnr_symmetrized_pair(Polynomial(3), Polynomial(3)) == pytest.approx(
        2.0 * qsnr_polynomial(3), rel=1e-13
    )
    with pytest.raises(TypeError):
        qsnr_symmetrized_pair(Eigen(1), Polynomial(2))


def test_w_state_bonus_is_twice_the_pair_bonus():
    for n1, n2 in ((1, 2), (2, 3), (3, 7)):
        assert qsnr_w3(n1, n2) == 2.0 * qsnr_eigen(n1) + qsnr_eigen(n2) + 2.0 * _pair_bonus(n1, n2)
        pair_extra = qsnr_two_eigen(n1, n2) - qsnr_eigen(n1) - qsnr_eigen(n2)
        w_extra = qsnr_w3(n1, n2) - 2.0 * qsnr_eigen(n1) - qsnr_eigen(n2)
        assert w_extra == pytest.approx(2.0 * pair_extra, rel=1e-12)
    with pytest.raises(ValueError):
        qsnr_w3(4, 4)


def test_high_energy_limits():
    n = 400
    ratio2 = qsnr_two_eigen(n, n + 1) / (qsnr_eigen(n) + qsnr_eigen(n + 1))
    ratio3 = qsnr_w3(n, n + 1) / (2.0 * qsnr_eigen(n) + qsnr_eigen(n + 1))
    assert ratio2 == pytest.approx(1.0 + 3.0 / math.pi**2, rel=1e-5)
    assert ratio3 == pytest.approx(1.0 + 4.0 / math.pi**2, rel=1e-3)


def test_high_energy_error_decay_rates():
    """Pair error falls like 1/E; the W error only like 1/sqrt(E).

    The 1/n terms cancel in the pair ratio but survive in the W ratio
    (the bonus doubles, the denominator grows by one more Q), so the two
    sequences approach their limits at genuinely different rates.
    """
    ns = np.array([50, 100, 200, 400], dtype=float)
    energies = (ns * math.pi) ** 2 / 2.0
    err2, err3 = [], []
    for n in ns.astype(int):
        ratio2 = qsnr_two_eigen(n, n + 1) / (qsnr_eigen(n) + qsnr_eigen(n + 1))
        ratio3 = qsnr_w3(n, n + 1) / (2.0 * qsnr_eigen(n) + qsnr_eigen(n + 1))
        err2.append(abs(ratio2 - 1.0 - 3.0 / math.pi**2))
        err3.append(abs(ratio3 - 1.0 - 4.0 / math.pi**2))
    slope2 = np.polyfit(np.log(energies), np.log(err2), 1)[0]
    slope3 = np.polyfit(np.log(energies), np.log(err3), 1)[0]
    assert -1.1 < slope2 < -0.9
    assert -0.6 < slope3 < -0.4


def test_ghz_spec_validation():
    with pytest.raises(ValueError):
        GhzSpec((1, 2, 3), (1, 2, 3))  # identity: both branches identical
    with pytest.raises(ValueError):
        GhzSpec((1, 1, 2), (1, 2, 1))  # repeated level
    with pytest.raises(ValueError):
        GhzSpec((1, 2, 3), (1, 2, 4))  # not a permutation
    with pytest.raises(ValueError):
        GhzSpec((3,), (3,))  # fewer than two particles
    spec = GhzSpec([2, 5], [5, 2])
    assert spec.n == (2, 5) and spec.m == (5, 2)


def test_ghz_single_transposition_matches_pair_bonus():
    value = qsnr_ghz(GhzSpec((1, 4, 6), (1, 6, 4)))
    base = qsnr_eigen(1) + qsnr_eigen(4) + qsnr_eigen(6)
    assert value - base == pytest.approx(32.0 * (4 * 6) ** 2 / (16 - 36) ** 2, rel=1e-12)
    pair_extra = qsnr_two_eigen(4, 6) - qsnr_eigen(4) - qsnr_eigen(6)
    assert value - base == pytest.approx(pair_extra, rel=1e-12)


def test_ghz_longer_cycles_gain_nothing():
    value = qsnr_ghz(GhzSpec((1, 2, 3), (2, 3, 1)))
    assert value == pytest.approx(qsnr_eigen(1) + qsnr_eigen(2) + qsnr_eigen(3), rel=1e-14)


def test_ghz_enumeration_small():
    """Exhaustive rule check for up to four particles on levels 1..5."""
    for count in (2, 3, 4):
        for combo in itertools.combinations(range(1, 6), count):
            best_pair = max(
                _pair_bonus(i, j) for i, j in itertools.combinations(combo, 2)
            )
            for perm in itertools.permutations(combo):
                if perm == combo:
                    continue
                bonus = qsnr_ghz(GhzSpec(combo, perm)) - sum(qsnr_eigen(v) for v in combo)
                moved = [i for i in range(count) if combo[i] != perm[i]]
                if len(moved) == 2 and perm[moved[0]] == combo[moved[1]]:
                    k, j = combo[moved[0]], combo[moved[1]]
                    expect = 32.0 * (k * j) ** 2 / (k * k - j * j) ** 2
                else:
                    expect = 0.0
                assert bonus == pytest.approx(expect, abs=1e-9)
                assert bonus <= best_pair + 1e-9


def test_gain_grid_eigen():
    grid = entanglement_gain_grid("eigen", list(range(1, 21)))
    assert grid.shape == (20, 20)
    assert np.all(np.isnan(np.diag(grid)))
    off = ~np.eye(20, dtype=bool)
    assert np.all(grid[off] > 1.0)
    assert np.array_equal(grid[off], grid.T[off])
    i, j = np.unravel_index(np.nanargmax(grid), grid.shape)
    assert abs(i - j) == 1  # ridge sits on adjacent levels
    assert grid[i, j] == pytest.approx(1.0 + 3.0 / math.pi**2, abs=1e-3)


def test_gain_grid_polynomial():
    grid = entanglement_gain_grid("polynomial", list(range(2, 16)))
    off = ~np.eye(14, dtype=bool)
    assert np.all(grid[off] > 1.0)
    i, j = np.unravel_index(np.nanargmax(grid), grid.shape)
    assert abs(i - j) == 1
    assert grid[i, j] == pytest.approx(1.25, rel=0.02)


def test_gain_grid_rejects_unknown_family():
    with pytest.raises(ValueError):
        entanglement_gain_grid("spin", [1, 2])
