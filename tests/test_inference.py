"""Sampling, likelihood, and the replicated estimation experiment."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from wellprobe import inference
from wellprobe.inference import (
    SampleBatch,
    crlb_experiment,
    log_likelihood,
    mle_estimate,
    sample_positions,
)
from wellprobe.metrology import fi_position
from wellprobe.quadrature import quadrature
from wellprobe.states import (
    Custom,
    Eigen,
    Parabolic,
    Polynomial,
    Superposition,
    d_wavefunction,
    wavefunction,
)
from wellprobe.well import WellConfig

CFG = WellConfig(width=1.0, truncation=50)


def test_sampler_support_and_determinism():
    cfg = WellConfig(width=1.7, truncation=50)
    batch = sample_positions(Polynomial(3), cfg, 500, seed=11)
    assert batch.outcomes.shape == (500,)
    assert np.all(batch.outcomes >= 0.0)
    assert np.all(batch.outcomes <= 1.7)
    again = sample_positions(Polynomial(3), cfg, 500, seed=11)
    assert np.array_equal(batch.outcomes, again.outcomes)
    other = sample_positions(Polynomial(3), cfg, 500, seed=12)
    assert not np.array_equal(batch.outcomes, other.outcomes)


def test_sampler_rejects_empty_batch():
    with pytest.raises(ValueError):
        sample_positions(Eigen(1), CFG, 0, seed=1)


def test_ground_state_sample_mean():
    batch = sample_positions(Eigen(1), CFG, 100_000, seed=1)
    se = batch.outcomes.std(ddof=1) / math.sqrt(batch.outcomes.size)
    assert abs(batch.outcomes.mean() - 0.5) < 3.0 * se


def test_parabolic_second_moment_matches_quadrature():
    batch = sample_positions(Polynomial(1), CFG, 100_000, seed=2)
    moment = quadrature(
        lambda x: x * x * wavefunction(Polynomial(1), CFG, x) ** 2, 0.0, 1.0, tol=1e-12
    )
    assert moment == pytest.approx(2.0 / 7.0, rel=1e-9)  # the oracle itself
    sq = batch.outcomes**2
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - moment) < 3.0 * se


def test_log_likelihood_support_rules():
    batch = sample_positions(Eigen(1), CFG, 50, seed=3)
    top = float(batch.outcomes.max())
    assert log_likelihood(batch, 0.9 * top) == -math.inf
    assert log_likelihood(batch, -1.0) == -math.inf
    assert math.isfinite(log_likelihood(batch, 1.0))


def test_log_likelihood_additive_in_duplicates():
    batch = sample_positions(Polynomial(1), CFG, 40, seed=4)
    doubled = SampleBatch(
        outcomes=np.concatenate([batch.outcomes, batch.outcomes]),
        true_width=batch.true_width,
        state=batch.state,
        seed=batch.seed,
    )
    assert log_likelihood(doubled, 1.2) == pytest.approx(2.0 * log_likelihood(batch, 1.2), rel=1e-12)


def test_mle_consistent_and_deterministic():
    batch = sample_positions(Polynomial(1), CFG, 10_000, seed=3)
    estimate = mle_estimate(batch, 0.5, 2.0)
    assert 0.97 < estimate < 1.03
    assert estimate == pytest.approx(0.9983361602926778, rel=1e-9)
    assert mle_estimate(batch, 0.5, 2.0) == estimate


def test_mle_tracks_the_generating_width():
    cfg = WellConfig(width=2.0, truncation=50)
    batch = sample_positions(Eigen(1), cfg, 4000, seed=7)
    estimate = mle_estimate(batch, 1.0, 4.0)
    assert 1.9 < estimate < 2.1


def test_mle_interval_below_data_rejected():
    batch = sample_positions(Eigen(1), CFG, 100, seed=5)
    top = float(batch.outcomes.max())
    with pytest.raises(ValueError):
        mle_estimate(batch, 0.1, 0.5 * top)


def test_mle_warns_at_the_upper_bound():
    batch = sample_positions(Eigen(1), CFG, 100, seed=5)
    top = float(batch.outcomes.max())
    with pytest.warns(UserWarning, match="upper search bound"):
        mle_estimate(batch, 0.1, top + 1e-9)


def test_experiment_frozen_summary():
    result = crlb_experiment(Polynomial(3), CFG, 200, 30, seed=0)
    assert len(result.estimates) == 30
    assert result.variance == pytest.approx(0.000301923140583, rel=1e-9)
    assert result.crlb_ratio == pytest.approx(1.78409128522, rel=1e-9)
    assert 0.9 < result.mean < 1.1


def test_experiment_reproducible():
    first = crlb_experiment(Polynomial(3), CFG, 100, 10, seed=42)
    second = crlb_experiment(Polynomial(3), CFG, 100, 10, seed=42)
    assert first.estimates == second.estimates
    assert first.variance == second.variance


def test_experiment_needs_replicas():
    with pytest.raises(ValueError):
        crlb_experiment(Polynomial(3), CFG, 100, 1, seed=0)


@pytest.mark.parametrize("call", [
    lambda: sample_positions(Eigen(1), CFG, 10, seed=-1),
    lambda: crlb_experiment(Polynomial(3), CFG, 10, 2, seed=-1),
], ids=["sample_positions", "crlb_experiment"])
def test_negative_seed_is_rejected_by_name(call):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        call()


def test_experiment_replicas_equal_the_documented_sample_streams():
    result = crlb_experiment(Polynomial(3), CFG, 300, 4, seed=9)
    for r, estimate in enumerate(result.estimates):
        child = int(np.random.SeedSequence([9, r]).generate_state(1, np.uint64)[0])
        assert mle_estimate(sample_positions(Polynomial(3), CFG, 300, child), 0.5, 2.0) == estimate


# Unit-width profile g and scaling term s = g/2 + u g', written out in mpmath
# from the family definitions, independent of wellprobe.states.
def _oracle_poly(p):
    def pair(u):
        height = mpmath.sqrt(mpmath.mpf(1 + 6 * p + 8 * p * p) / (8 * p * p))
        w = 2 * u - 1
        g = height * (1 - w ** (2 * p))
        return g, g / 2 + u * height * (-4 * p) * w ** (2 * p - 1)
    return pair


def _oracle_levels(levels):
    def pair(u):
        g = sum(c * mpmath.sqrt(2) * mpmath.sin(n * mpmath.pi * u) for n, c in levels)
        dg = sum(c * mpmath.sqrt(2) * n * mpmath.pi * mpmath.cos(n * mpmath.pi * u) for n, c in levels)
        return g, g / 2 + u * dg
    return pair


def _oracle_parabolic(u):
    g = mpmath.sqrt(30) * u * (1 - u)
    return g, g / 2 + u * mpmath.sqrt(30) * (1 - 2 * u)


ORACLE_STATES = {
    "poly:1": (Polynomial(1), _oracle_poly(1)),
    "poly:3": (Polynomial(3), _oracle_poly(3)),
    "poly:6": (Polynomial(6), _oracle_poly(6)),
    "parabolic": (Parabolic(), _oracle_parabolic),
    "eigen:1": (Eigen(1), _oracle_levels([(1, 1)])),
    "eigen:2": (Eigen(2), _oracle_levels([(2, 1)])),
    "super:1:2:0.3": (Superposition(1, 2, 0.3), _oracle_levels([(1, mpmath.cos(0.3)), (2, mpmath.sin(0.3))])),
}


@pytest.mark.parametrize("width", [0.37, 7.3])
@pytest.mark.parametrize("state, pair", ORACLE_STATES.values(), ids=ORACLE_STATES.keys())
def test_mle_is_the_score_root_to_high_precision(state, pair, width):
    """The estimate is a stationary point of the likelihood: sum s(u_i) / g(u_i) = 0."""
    batch = sample_positions(state, WellConfig(width, 50), 200, seed=17)
    estimate = mle_estimate(batch, 0.5 * width, 2.0 * width)
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(x)) for x in batch.outcomes]

        def score_sum(a):
            total = mpmath.mpf(0)
            for x in xs:
                g, s = pair(x / a)
                total += s / g
            return total

        lo, hi = mpmath.mpf(estimate) * (1 - mpmath.mpf(1e-9)), mpmath.mpf(estimate) * (1 + mpmath.mpf(1e-9))
        f_lo, f_hi = score_sum(lo), score_sum(hi)
        assert f_lo < 0 < f_hi  # the score, -(2/a) sum s / g, falls through zero in between
        for _ in range(12):  # secant steps from the bracket ends
            if f_hi == f_lo:
                break
            lo, f_lo, hi = hi, f_hi, hi - f_hi * (hi - lo) / (f_hi - f_lo)
            f_hi = score_sum(hi)
        assert abs(hi - lo) < mpmath.mpf(10) ** -30 * hi
        assert abs(estimate / hi - 1) <= 1e-12


@pytest.mark.parametrize("state", [Polynomial(3), Eigen(2)], ids=["poly:3", "eigen:2"])
def test_mle_finds_the_maximum_next_to_the_largest_outcome(state):
    """The coarse bracket starts at the largest outcome, where the score is near-infinite."""
    batch = sample_positions(state, CFG, 2000, seed=29)
    estimate = mle_estimate(batch, 0.5, 2.0)
    assert estimate - batch.outcomes.max() < 0.01
    here = log_likelihood(batch, estimate)
    assert log_likelihood(batch, estimate - 1e-6) < here > log_likelihood(batch, estimate + 1e-6)


def test_mle_falls_back_to_golden_section_when_the_score_keeps_its_sign():
    batch = sample_positions(Eigen(1), CFG, 2000, seed=5)
    top = float(batch.outcomes.max())
    best = mle_estimate(batch, 0.5, 2.0)
    assert best > top
    cap = 0.5 * (top + best)  # the likelihood still rises at the upper bound
    with pytest.warns(UserWarning, match="upper search bound"):
        clipped = mle_estimate(batch, 0.5, cap)
    assert cap - 10 * 1e-8 * cap <= clipped <= cap


def _count_kernel_evaluations(monkeypatch, state):
    """Sizes of the arguments of every fused g/s kernel call of the state's family."""
    sizes = []
    family = type(state)
    inner = family._gs

    def counted(self, u, g_norm, s_norm):
        sizes.append(np.size(u))
        return inner(self, u, g_norm, s_norm)

    monkeypatch.setattr(family, "_gs", counted)
    return sizes


@pytest.mark.parametrize("state", [Polynomial(3), Eigen(2)], ids=["poly:3", "eigen:2"])
def test_experiment_work_counts(state, monkeypatch):
    """At most 30 profile evaluations per estimate and one CDF table per experiment."""
    sizes = _count_kernel_evaluations(monkeypatch, state)
    fi_position(state, CFG)
    information = len(sizes)  # the quadrature nodes of the Fisher information
    m, replicas = 2000, 15
    crlb_experiment(state, CFG, m, replicas, seed=0)
    experiment = sizes[information:]
    assert experiment.count(4096) == 1
    assert replicas < experiment.count(m) <= 30 * replicas
    assert len(experiment) == experiment.count(m) + 1 + information


@pytest.mark.parametrize("width", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("state", [Polynomial(3), Eigen(2)], ids=["poly:3", "eigen:2"])
def test_experiment_emits_no_warning(state, width):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        crlb_experiment(state, WellConfig(width, 50), 2000, 15, seed=3)


# Every family, bumps on both sides of the binary-powering limit (p <= 3 and p > 3).
PIN_STATES = {
    "poly:1": Polynomial(1),
    "poly:3": Polynomial(3),
    "poly:4": Polynomial(4),
    "poly:40": Polynomial(40),
    "parabolic": Parabolic(),
    "eigen:2": Eigen(2),
    "super:1:2:0.4": Superposition(1, 2, 0.4),
    "custom": Custom((0.5, 0.0, -0.5, 0.5, 0.0, 0.5)),
}


def _bits(value):
    return np.float64(value).tobytes()


def _pinned_batch(state, width):
    batch = sample_positions(state, WellConfig(width, 50), 500, seed=23)
    top = batch.largest
    assert top == float(batch.outcomes.max())
    return batch, (top, 0.5 * (top + width), width, 1.3 * width)


@pytest.mark.parametrize("width", [0.37, 1.0, 7.3])
@pytest.mark.parametrize("state", PIN_STATES.values(), ids=PIN_STATES.keys())
def test_likelihood_and_score_are_the_profile_formulas_bit_for_bit(state, width):
    """The guard-free kernel path gives the bytes of wavefunction and d_wavefunction."""
    batch, candidates = _pinned_batch(state, width)
    x = batch.outcomes
    for a in candidates:
        cfg = WellConfig(a, 50)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = wavefunction(state, cfg, x) ** 2
            likelihood = -math.inf if np.any(p <= 0.0) else float(np.sum(np.log(p)))
            score = 2.0 * float(np.sum(d_wavefunction(state, cfg, x) / wavefunction(state, cfg, x)))
        assert _bits(log_likelihood(batch, a)) == _bits(likelihood)
        assert _bits(inference._score(batch, a)) == _bits(score)
    if isinstance(state, Polynomial):  # the largest outcome sits on the bump's wall node
        assert log_likelihood(batch, candidates[0]) == -math.inf
        assert not math.isfinite(inference._score(batch, candidates[0]))


@pytest.mark.parametrize("width", [0.37, 1.0, 7.3])
@pytest.mark.parametrize("state", PIN_STATES.values(), ids=PIN_STATES.keys())
def test_sorted_draws_are_plain_interpolation_bit_for_bit(state, width):
    cfg = WellConfig(width, 50)
    table = inference._cdf_table(state, cfg)
    xs, cdf = table
    for seed in range(25):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        plain = np.interp(rng.random(2000), cdf, xs)
        assert inference._draw(table, state, cfg, 2000, seed).outcomes.tobytes() == plain.tobytes()


@pytest.mark.parametrize("outcomes", [[0.2, -0.1], [0.2, math.nan], [0.2, math.inf]])
def test_batch_rejects_outcomes_off_the_half_line(outcomes):
    with pytest.raises(ValueError, match="finite and non-negative"):
        SampleBatch(outcomes=np.array(outcomes), true_width=1.0, state=Eigen(1), seed=0)
