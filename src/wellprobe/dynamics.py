"""Time evolution in the well and the time-dependent information quantities.

A probe prepared in a real superposition of eigenstates dephases under the
free evolution, and the width information grows quadratically with time at
late times (the secular law) because the level energies (whose differences
drive the phases) depend on the width.  Two code paths compute the same
quantity for cross-checking:

* :func:`qfi_time` assembles the general truncated-basis expression for
  any real a-independent preparation.  It never forms the N x N overlap
  tables: it takes their products with the amplitude vector from
  :func:`wellprobe.well._overlap_products`, O(N log N) in time and O(N) in
  memory.  The secular t^2 term is written about the mean energy
  derivative, so no large terms cancel.
* :func:`qfi_parabolic_time` evaluates the explicit odd-index double series
  of the parabolic profile, with the single sums carried out in closed form
  so that only the genuinely two-dimensional sums are truncated.

The two agree up to the single-sum tails that the generic path necessarily
truncates; see :func:`truncation_residual` for the controlled error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .states import ProbeState, TruncationWarning, amplitudes
from .well import WellConfig, _overlap_products

__all__ = [
    "EvolvedState",
    "evolved_amplitudes",
    "qfi_time",
    "qfi_parabolic_time",
    "truncation_residual",
]


@dataclass(frozen=True)
class EvolvedState:
    """A real static preparation evolved for a fixed time."""

    base: ProbeState
    time: float
    cfg: WellConfig

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"time must be nonnegative, got {self.time}")


def _phased(f: np.ndarray, cfg: WellConfig, t: float) -> np.ndarray:
    """Amplitudes f_n exp(-i E_n t) at the configured width."""
    n = np.arange(1, f.size + 1, dtype=float)
    energies = 0.5 * (n * np.pi / cfg.width) ** 2
    return f * np.exp(-1j * energies * t)


def evolved_amplitudes(ev: EvolvedState) -> np.ndarray:
    """Complex eigenbasis amplitudes f_n exp(-i E_n t)."""
    return _phased(amplitudes(ev.base, ev.cfg).coefficients, ev.cfg, ev.time)


def _assemble(f: np.ndarray, c: np.ndarray, tau: float) -> float:
    """Unit-width QFI 4[<dPsi|dPsi> - |<Psi|dPsi>|^2] at scaled time tau = t/a^2.

    With E'_n = -(n pi)^2 and Ebar' = sum f^2 E', the secular term is
    tau^2 [sum f^2 (E' - Ebar')^2 + (1 - sum f^2) Ebar'^2] and the cross term
    -2 tau Im sum (E' - Ebar') conj(c) (B c); both are sums of terms that
    do not cancel, and both vanish exactly for an eigenstate.
    """
    bc, cc = _overlap_products(c)
    n = np.arange(1, f.size + 1, dtype=float)
    weight = f * f
    denergies = -((n * np.pi) ** 2)
    mean = float(weight @ denergies)
    centred = denergies - mean
    secular = tau * tau * (float(weight @ centred**2) + (1.0 - weight.sum()) * mean * mean)
    cross = -2.0 * tau * float(np.vdot(c, centred * bc).imag)
    mixed = float(np.vdot(c, bc).imag)
    return 4.0 * (float(np.vdot(c, cc).real) - mixed * mixed + secular + cross)


def qfi_time(ev: EvolvedState) -> float:
    """QFI of the evolved probe, truncated at the configured basis size.

    The value is 4[<dPsi|dPsi> - |<Psi|dPsi>|^2] for Psi = sum c_n psi_n
    with c_n = f_n exp(-i E_n t), assembled from dot products with B c and
    C c (B = psi_dpsi, C = dpsi_dpsi), which FFT convolutions give in
    O(N log N) time and O(N) memory (see :func:`_overlap_products`).  The
    overlaps scale as 1/a and 1/a^2 and the phases depend on t/a^2 alone,
    so it is the unit-width value at tau = t/a^2 over a^2.  The secular
    t^2 term is written about the mean energy derivative, so nothing
    cancels and eigenstates do not drift with time.

    Emits a truncation warning when rerunning with ten fewer basis states
    moves the answer by more than 1e-5 relative; superpositions reaching
    high levels at late times genuinely need a larger basis.
    """
    cfg = ev.cfg
    f = amplitudes(ev.base, cfg).coefficients
    c = _phased(f, cfg, ev.time)
    tau = ev.time / cfg.width**2
    value = _assemble(f, c, tau) / cfg.width**2
    probe = cfg.truncation - 10
    if probe >= 1:
        # the same spectra serve the smaller basis: zero the amplitude tail
        head = np.arange(f.size) < probe
        smaller = _assemble(f * head, c * head, tau) / cfg.width**2
        if value != 0.0:
            drift = abs(value - smaller) / abs(value)
            if drift > 1e-5:
                warnings.warn(
                    f"truncated QFI moved by {drift:.3e} relative when the "
                    f"basis shrank from {cfg.truncation} to {probe}; result "
                    "is not converged at this truncation",
                    TruncationWarning,
                    stacklevel=2,
                )
    return value


def _odd_double_sums(size: int, width: float, t: float) -> tuple[float, float, float]:
    """Truncated odd-index double sums of the parabolic-probe series.

    Returns (cos sum, t-weighted sin sum, imaginary-part sin sum), each
    over odd n != m up to ``size``.
    """
    odd = np.arange(1, size + 1, 2, dtype=float)
    n = odd[:, None]
    m = odd[None, :]
    off = n != m
    diff = np.where(off, m * m - n * n, 1.0)
    delta = (n * n - m * m) * math.pi**2 * t / (2.0 * width**2)
    inv = 1.0 / (n * n * m * m)
    sum_sq = n * n + m * m

    cos_part = float(np.sum(np.where(off, np.cos(delta) * sum_sq * inv / diff**2, 0.0)))
    sin_part = float(np.sum(np.where(off, np.sin(delta) * sum_sq * inv / diff, 0.0)))
    imag_part = float(np.sum(np.where(off, np.sin(delta) * inv / diff, 0.0)))
    return cos_part, sin_part, imag_part


def qfi_parabolic_time(cfg: WellConfig, t: float) -> float:
    """Explicit time-dependent QFI of the parabolic probe.

    The single sums of the series have exact values (the secular
    coefficient 120 t^2/a^6, the static diagonal 43/(12 a^2), and the
    energy drift -10 t/a^3) and are used in closed form; the double sums
    run over odd indices up to the configured truncation.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    a = cfg.width
    cos_part, sin_part, imag_part = _odd_double_sums(cfg.truncation, a, t)
    pi = math.pi
    static_diag = 43.0 / (12.0 * a**2)
    cos_sum = 3840.0 / (pi**6 * a**2) * cos_part
    sin_sum = -1920.0 * t / (pi**4 * a**4) * sin_part
    imag = -10.0 * t / a**3 + 1920.0 / (pi**6 * a) * imag_part
    return 4.0 * (120.0 * t * t / a**6 + static_diag + cos_sum + sin_sum - imag * imag)


def truncation_residual(cfg: WellConfig, t: float, n1: int, n2: int) -> float:
    """Relative change of the parabolic QFI between two truncations.

    |Q_{n2} - Q_{n1}| / Q_{n2} evaluated at the given width and time.
    """
    if n2 < n1:
        raise ValueError(f"need n2 >= n1, got ({n1}, {n2})")
    coarse = qfi_parabolic_time(replace(cfg, truncation=n1), t)
    fine = qfi_parabolic_time(replace(cfg, truncation=n2), t)
    return _relative_change(coarse, fine)


def _relative_change(coarse: float, fine: float) -> float:
    """|fine - coarse| / |fine|, the residual that :func:`truncation_residual` reports."""
    return abs(fine - coarse) / abs(fine)

