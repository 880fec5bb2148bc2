"""Monte Carlo check of the estimation bound for the box width.

The chain under test: draw M position outcomes from a probe state at the
true width, estimate the width by maximum likelihood, replicate, and compare
the replica variance against 1/(M F).  Since position measurements are
optimal for real states, F here equals the quantum limit, so the harness
verifies the whole bound chain at once.

Sampling uses inverse transform through a tabulated cumulative distribution,
so runs are bit-reproducible for a fixed seed and replica streams are
independent by construction.  The uniforms are interpolated in ascending
order and scattered back, which gives the bytes of plain ``np.interp`` in a
fraction of its time.  Likelihood and score evaluate the family's fused
kernel (profile g and scaling term s in one pass) on u = x / a directly: a
batch checks once that its outcomes are non-negative and keeps the largest,
so for every candidate width at or above it the masks of
:func:`wavefunction` are identities and are skipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .metrology import fi_position
from .states import ProbeState, _family, wavefunction
from .well import WellConfig

__all__ = [
    "SampleBatch",
    "EstimationResult",
    "sample_positions",
    "log_likelihood",
    "mle_estimate",
    "crlb_experiment",
]

_CDF_POINTS = 4096


@dataclass(frozen=True)
class SampleBatch:
    """Positions drawn from one probe state at a known true width.

    The outcomes must be finite and non-negative; ``largest`` is their
    maximum, computed once here for every likelihood evaluation.
    """

    outcomes: np.ndarray
    true_width: float
    state: ProbeState
    seed: int
    largest: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _family(self.state)
        smallest, largest = float(self.outcomes.min()), float(self.outcomes.max())
        if not (smallest >= 0.0 and largest < math.inf):
            raise ValueError(f"outcomes must be finite and non-negative, got [{smallest}, {largest}]")
        object.__setattr__(self, "largest", largest)


@dataclass(frozen=True)
class EstimationResult:
    estimates: tuple
    mean: float
    variance: float
    crlb_ratio: float


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _cdf_table(state: ProbeState, config: WellConfig) -> tuple[np.ndarray, np.ndarray]:
    """Positions and normalized cumulative distribution on the 4096-point grid."""
    xs = np.linspace(0.0, config.width, _CDF_POINTS)
    pdf = wavefunction(state, config, xs) ** 2
    steps = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    if cdf[-1] <= 0.0 or np.any(np.diff(cdf) < 0.0):
        raise RuntimeError("cumulative distribution table is not monotone")
    cdf /= cdf[-1]
    return xs, cdf


def _draw(table, state: ProbeState, config: WellConfig, m: int, seed: int) -> SampleBatch:
    """``m`` positions from the uniforms seeded by ``seed``, through the table.

    Each position depends only on its own uniform and the table, so
    interpolating the uniforms in ascending order and scattering the results
    back gives exactly ``np.interp(uniforms, cdf, xs)``; in ascending order
    the table search stays in cache and its branches predictable, about four
    times faster at M = 2000.
    """
    xs, cdf = table
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    uniforms = rng.random(m)
    order = np.argsort(uniforms)
    draws = np.empty(m)
    draws[order] = np.interp(uniforms[order], cdf, xs)
    return SampleBatch(outcomes=draws, true_width=config.width, state=state, seed=seed)


def sample_positions(state: ProbeState, config: WellConfig, m: int, seed: int) -> SampleBatch:
    """Draw ``m`` independent positions from the probe's Born distribution.

    Inverse-CDF sampling: the Born density is tabulated on 4096 points of
    [0, a], integrated by the trapezoid rule, and ``m`` uniforms from the
    stream seeded by ``seed`` are interpolated through it (in sorted order,
    with the same bytes as interpolating them as drawn).  Deterministic per
    seed; the seed must be a non-negative integer.
    """
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    _check_seed(seed)
    return _draw(_cdf_table(state, config), state, config, m, seed)


def log_likelihood(batch: SampleBatch, candidate_width: float) -> float:
    """Log-likelihood of the batch under a candidate width.

    Any outcome outside [0, candidate] has zero density, so candidates
    below the largest outcome score -inf.  At or above it every outcome
    lies in [0, candidate], where the masks of :func:`wavefunction` are
    identities, so its kernel runs directly on u = x / a, with the same
    bytes.
    """
    if candidate_width <= 0.0 or batch.largest > candidate_width:
        return -math.inf
    if not candidate_width < math.inf:
        raise ValueError(f"width must be positive and finite, got {candidate_width}")
    g, _ = batch.state._gs(batch.outcomes / candidate_width, math.sqrt(candidate_width), None)
    p = g**2
    if np.any(p <= 0.0):
        return -math.inf
    return float(np.sum(np.log(p)))


def _score(batch: SampleBatch, candidate_width: float) -> float:
    """Width derivative of the log-likelihood, 2 sum d_a psi(x_i) / psi(x_i).

    For every family this is -(2/a) sum s(u_i) / g(u_i) with u_i = x_i / a.
    An outcome on a node of the profile makes it infinite or undefined.
    Candidates are never below the largest outcome, so one fused kernel
    evaluation on u gives both profiles, normalized as
    :func:`d_wavefunction` and :func:`wavefunction` do (s / -a^1.5 and
    g / sqrt(a); folding the two into -2/a would change the bits).
    """
    a = candidate_width
    with np.errstate(divide="ignore", invalid="ignore"):
        g, s = batch.state._gs(batch.outcomes / a, math.sqrt(a), -(a**1.5))
        return 2.0 * float(np.sum(s / g))


def _score_root(batch: SampleBatch, lo: float, hi: float, tol: float) -> float | None:
    """Root of the score in [lo, hi] by safeguarded secant steps, or None.

    None unless the score falls from positive at ``lo`` to negative at
    ``hi``.  Each evaluation replaces the bracket end of its sign; a secant
    step that leaves the bracket, or follows a non-finite score, becomes a
    bisection.  A step of at most ``tol`` ends the search once the bracket
    is within 2 ``tol``; before that it is lengthened to ``tol`` into the
    bracket, so a secant through a huge score next to a node of the profile
    cannot stop the search early.
    """
    f_lo, f_hi = _score(batch, lo), _score(batch, hi)
    if not f_lo > 0.0 > f_hi:
        return None
    x0, f0, x1, f1 = lo, f_lo, hi, f_hi
    while True:
        x = 0.5 * (lo + hi)
        if f1 != f0:
            secant = x1 - f1 * (x1 - x0) / (f1 - f0)
            if lo < secant < hi:
                x = secant
        if abs(x - x1) <= tol:
            if hi - lo <= 2.0 * tol:
                return x
            x = x1 + tol if x1 == lo else x1 - tol
        fx = _score(batch, x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            lo = x
        else:
            hi = x
        if not math.isfinite(fx):
            fx = math.nan  # the next step bisects
        x0, f0, x1, f1 = x1, f1, x, fx


def mle_estimate(batch: SampleBatch, search_lo: float, search_hi: float) -> float:
    """Maximum-likelihood width: golden section, then a root of the score.

    The effective lower bracket is the largest outcome (below it the
    likelihood is -inf).  Golden-section search on the log-likelihood first
    narrows [lo, hi] to a coarse bracket of width 1e-2 * search_hi; this
    picks the likelihood's lobe.  Secant steps on the analytic score, kept
    inside that bracket, then converge on the stationary point until a step
    is at most 1e-8 * search_hi.  When the score does not change sign across
    the coarse bracket, golden section runs on down to that tolerance
    instead.  Warns when the optimum sits at the upper bracket, since that
    means the interval clipped the maximum.
    """
    lo = max(search_lo, batch.largest)
    hi = search_hi
    if hi <= lo:
        raise ValueError(f"search interval [{search_lo}, {search_hi}] is below the data maximum {lo}")
    tol = 1e-8 * search_hi
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = log_likelihood(batch, c)
    fd = log_likelihood(batch, d)
    if math.isinf(fc) and math.isinf(fd) and fc < 0 and fd < 0:
        raise RuntimeError("likelihood is -inf across the search interval")

    def golden_section(width):
        nonlocal lo, hi, c, d, fc, fd
        while hi - lo > width:
            if fc >= fd:
                hi, d, fd = d, c, fc
                c = hi - invphi * (hi - lo)
                fc = log_likelihood(batch, c)
            else:
                lo, c, fc = c, d, fd
                d = lo + invphi * (hi - lo)
                fd = log_likelihood(batch, d)

    golden_section(1e-2 * search_hi)
    best = _score_root(batch, lo, hi, tol)
    if best is None:
        golden_section(tol)
        best = 0.5 * (lo + hi)
    if search_hi - best <= 10.0 * tol:
        warnings.warn(
            f"width estimate {best!r} sits at the upper search bound {search_hi!r}",
            UserWarning,
            stacklevel=2,
        )
    return best


def crlb_experiment(
    state: ProbeState,
    config: WellConfig,
    m_samples: int,
    replicas: int,
    seed: int,
) -> EstimationResult:
    """Replicated sample-and-estimate cycles against the information bound.

    Each replica draws its own stream from (seed, replica index), through
    one inverse-CDF table built for the whole experiment, so replica r holds
    exactly the outcomes of ``sample_positions`` at its child seed.  Each
    replica is estimated by ``mle_estimate`` on [a/2, 2a].  The summary
    ratio is M * Var * F with F the position-measurement Fisher information
    at the true width; values near 1 mean the estimator saturates the bound.
    F is computed first, so a width whose information leaves the float range
    fails with its named ``OverflowError`` before any replica runs.
    """
    if replicas < 2:
        raise ValueError(f"need at least two replicas for a variance, got {replicas}")
    if m_samples < 1:
        raise ValueError(f"need at least one sample, got {m_samples}")
    _check_seed(seed)
    a = config.width
    fisher = fi_position(state, config)
    table = _cdf_table(state, config)
    estimates = []
    for r in range(replicas):
        child = int(np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0])
        batch = _draw(table, state, config, m_samples, child)
        estimates.append(mle_estimate(batch, 0.5 * a, 2.0 * a))
    arr = np.array(estimates)
    variance = float(np.var(arr, ddof=1))
    return EstimationResult(
        estimates=tuple(estimates),
        mean=float(arr.mean()),
        variance=variance,
        crlb_ratio=m_samples * variance * fisher,
    )
