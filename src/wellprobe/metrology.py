"""Static estimation quantities for width probes.

The quantum Fisher information (QFI) of a pure real probe state f(x; a) with
respect to the width a reduces to 4 times the squared norm of the width
derivative, because the overlap of f with its own derivative vanishes for a
normalized real state; it is built from the exact unit-width overlaps of
:mod:`wellprobe.states`.  The position-measurement Fisher information,
integrated by quadrature, equals the QFI for every real state, which is the
optimality statement this module lets you check numerically.  The
dimensionless figure of merit throughout is the signal-to-noise ratio
Q = a^2 H, which is width-independent for all the scale-covariant families.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import quadrature
from .states import ProbeState, TruncationWarning, _family, _unit_overlaps, amplitudes
from .well import WellConfig, _overlap_products, overlap_dpsi_dpsi

__all__ = [
    "MetrologyReport",
    "qfi_static",
    "qsnr_eigen",
    "qsnr_superposition",
    "gamma_superposition_smallalpha",
    "qsnr_polynomial",
    "fi_position",
    "fi_energy",
    "sld_matrix",
    "report",
]


def _over_width_squared(unit_value: float, config: WellConfig) -> float:
    """Unit-width information rescaled to width a, unit_value / a^2, as a float.

    Outside about 1e+-154 the width's square is itself no float (it
    overflows, or underflows to 0); that raises the same named error.
    """
    try:
        value = unit_value / config.width**2
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if math.isinf(value):
        raise OverflowError(f"information at width {config.width!r} exceeds the float range")
    return value


def qfi_static(state: ProbeState, config: WellConfig) -> float:
    """QFI of a real static probe state with respect to the width.

    Every family is f(x; a) = g(x/a) / sqrt(a), so the QFI is its unit-width
    value 4 [<dg|dg> - <g|dg>^2] over a^2, from the exact overlaps of
    :func:`wellprobe.states._unit_overlaps`.  It expands in no basis and
    ignores ``config.truncation``: a ``Custom`` state longer than the
    truncation gets its exact value, which :func:`amplitudes`,
    :func:`report`, :func:`fi_energy` and :func:`sld_matrix` reject.
    """
    _, mixed, norm_sq = _unit_overlaps(state, state)
    # <g|dg> is 0 for a normalized real state; kept so this is the pure-state formula
    return _over_width_squared(4.0 * (norm_sq - mixed**2), config)


def qsnr_eigen(n: int) -> float:
    """Signal-to-noise ratio of eigenstate n: 1 + (4/3) n^2 pi^2.

    Width-independent; equivalently 1 + (8/3) a^2 E_n.
    """
    if n < 1:
        raise ValueError(f"quantum number must be >= 1, got {n}")
    return 1.0 + (4.0 / 3.0) * (n * math.pi) ** 2


def qsnr_superposition(n: int, m: int, alpha: float) -> float:
    """Signal-to-noise ratio of cos(alpha)|n> + sin(alpha)|m>.

    cos^2 Q_n + sin^2 Q_m + 4 sin(2 alpha) <dpsi_n|dpsi_m> with the
    unit-width overlap; the ratio is width-independent.
    """
    if n == m:
        raise ValueError("superposition needs two distinct levels")
    c, s = math.cos(alpha), math.sin(alpha)
    cross = 4.0 * math.sin(2.0 * alpha) * overlap_dpsi_dpsi(n, m, WellConfig(width=1.0))
    return c * c * qsnr_eigen(n) + s * s * qsnr_eigen(m) + cross


def _gain_coefficient(n: int, d: int) -> float:
    """First-order gain rate of a small admixture of level n+d onto level n."""
    num = 96.0 * n * (n + d) * (d * d + 2.0 * n * d + 2.0 * n * n)
    den = d * d * (d + 2.0 * n) ** 2 * (3.0 + 4.0 * n * n * math.pi**2)
    return num / den


def gamma_superposition_smallalpha(n: int, d: int, alpha: float) -> float:
    """First-order model of the ratio Q_{n,n+d}(alpha) / Q at matched level.

    Returns 1 + (-1)^d g alpha with g > 0, so odd gaps d reduce the ratio
    and even gaps raise it.  Valid for small alpha; the caller is expected
    to stay in that regime (compare against qsnr_superposition to check).
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got ({n}, {d})")
    sign = -1.0 if d % 2 else 1.0
    return 1.0 + sign * _gain_coefficient(n, d) * alpha


def qsnr_polynomial(p: int) -> float:
    """Signal-to-noise ratio of the order-p bump: (1+4p)(1+8p)/(4p-1).

    Grows like 8p for large p, overtaking every eigenstate of comparable
    mean energy.
    """
    if p < 1:
        raise ValueError(f"polynomial order must be >= 1, got {p}")
    return (1.0 + 4.0 * p) * (1.0 + 8.0 * p) / (4.0 * p - 1.0)


def fi_position(state: ProbeState, config: WellConfig) -> float:
    """Fisher information of an ideal position measurement.

    Integrates (d_a p)^2 / p for p(x|a) = f(x; a)^2 at unit width and
    divides by a^2; at unit width f = g and d_a f = -s, both from one fused
    kernel evaluation per batch of nodes.  The probability vanishes at the
    walls, so the integrand is guarded: points where p is zero contribute
    zero (their analytic limit for all families here), and the unit interval
    is clipped by 1e-12.
    """
    kernel = _family(state)._gs

    def integrand(u):
        f, df = kernel(u, 1.0, -1.0)
        p = f * f
        dp = 2.0 * f * df
        return np.where(p > 0.0, dp * dp / np.where(p > 0.0, p, 1.0), 0.0)

    return _over_width_squared(quadrature(integrand, 1e-12, 1.0 - 1e-12, tol=1e-10), config)


def fi_energy(state: ProbeState, config: WellConfig) -> float:
    """Fisher information of an ideal energy measurement.

    The outcome distribution is |f_n|^2 over levels.  Every family in this
    package has width-independent expansion coefficients (the profiles are
    scale covariant and Custom coefficients are fixed numbers), so the
    distribution carries no information about the width and the result is
    exactly zero.  The function validates the state and returns 0.0; the
    sum 4 sum_n (d_a |f_n|)^2 would have every term vanish.
    """
    amplitudes(state, config)
    return 0.0


def sld_matrix(state: ProbeState, config: WellConfig) -> np.ndarray:
    """Optimal-measurement operator in the truncated eigenbasis.

    For a pure real state the operator is L = 2(|f><df| + |df><f|), with
    derivative components d = Bf / a from the unit-width overlap products
    (:func:`_overlap_products`).  The derivative components decay only like
    1/index, so a warning is issued when the estimated tail of the
    derivative vector is not negligible.
    """
    f = amplitudes(state, config).coefficients
    d = _overlap_products(f)[0].real / config.width
    size = config.truncation
    # the last component scales like 1/N for our states; N * d_N^2
    # estimates the weight sitting beyond the truncation
    tail = size * d[-1] ** 2
    total = float(d @ d)
    if total > 0.0 and tail > 1e-6 * total:
        warnings.warn(
            f"derivative-vector tail estimate {tail:.3e} exceeds 1e-6 of "
            f"its norm {total:.3e}; enlarge the truncation for a converged "
            "operator",
            TruncationWarning,
            stacklevel=2,
        )
    return 2.0 * (np.outer(f, d) + np.outer(d, f))


@dataclass(frozen=True)
class MetrologyReport:
    """Bundle of the static information quantities for one probe setup."""

    qfi: float
    fi_position: float
    fi_energy: float
    qsnr: float
    truncation: int
    residual_estimate: float

    def __post_init__(self):
        slack = 1e-7 * self.qfi
        if self.fi_position > self.qfi + slack:
            raise ValueError(
                f"position FI {self.fi_position!r} exceeds the QFI {self.qfi!r}"
            )
        if self.fi_energy > self.qfi + slack:
            raise ValueError(
                f"energy FI {self.fi_energy!r} exceeds the QFI {self.qfi!r}"
            )


def report(state: ProbeState, config: WellConfig) -> MetrologyReport:
    """Compute all static quantities for one state at one width."""
    qfi = qfi_static(state, config)
    vec = amplitudes(state, config)
    return MetrologyReport(
        qfi=qfi,
        fi_position=fi_position(state, config),
        fi_energy=fi_energy(state, config),
        qsnr=config.width**2 * qfi,
        truncation=config.truncation,
        residual_estimate=vec.truncation_loss,
    )
