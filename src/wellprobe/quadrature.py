"""Adaptive Gauss-Kronrod quadrature on finite intervals.

The integrators here exist so the rest of the package can validate closed-form
matrix elements against direct integration without reaching for scipy.  The
embedded 7/15 point rule gives a cheap local error estimate; intervals that
fail the tolerance test are bisected until the budget runs out.

Integrands are expected to be vectorized: ``f(x)`` receives a numpy array and
must return an array of the same shape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "quadrature"]

# Kronrod-15 abscissae (positive half, descending) and weights, plus the
# embedded Gauss-7 weights.  Standard values, quoted to full double precision.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node vector in ascending order; the Gauss-7 nodes sit at the odd
# indices 1, 3, ..., 13.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK_FULL = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.concatenate([_WG[:-1], _WG[::-1]])


class QuadratureError(RuntimeError):
    """Raised when the interval budget is exhausted before convergence.

    Carries the best available estimate and the accumulated error bound so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def _panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """Evaluate the G7/K15 pair on a batch of intervals.

    Returns (kronrod, gauss) sums per interval.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # shape (n_intervals, 15)
    xs = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values")
    kron = half * (vals @ _WK_FULL)
    gauss = half * (vals[:, 1::2] @ _WG_FULL)
    kabs = half * (np.abs(vals) @ _WK_FULL)
    return kron, gauss, kabs


def quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_intervals: int = 4096,
) -> float:
    """Integrate ``f`` over ``[lo, hi]`` to absolute tolerance ``tol``.

    The error target is spread over subintervals proportionally to their
    length, so the accepted total honours ``tol`` for the whole range.
    """
    lo = float(lo)
    hi = float(hi)
    if hi <= lo:
        if hi == lo:
            return 0.0
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    span = hi - lo

    total = 0.0
    # stack of pending intervals
    pend_lo = np.array([lo])
    pend_hi = np.array([hi])
    used = 1
    eps = np.finfo(float).eps
    while pend_lo.size:
        kron, gauss, kabs = _panels(f, pend_lo, pend_hi)
        err = np.abs(kron - gauss)
        widths = pend_hi - pend_lo
        mids = 0.5 * (pend_lo + pend_hi)
        # accept when the local estimate meets its share of the budget, when
        # further splitting cannot beat round-off on values this large, or
        # when the interval is too narrow to split in floating point
        ok = (
            (err <= tol * widths / span)
            | (err <= 100.0 * eps * kabs)
            | (0.5 * widths <= np.spacing(np.abs(mids)))
        )
        total += float(kron[ok].sum())
        bad_lo = pend_lo[~ok]
        bad_hi = pend_hi[~ok]
        if bad_lo.size == 0:
            break
        used += 2 * bad_lo.size
        if used > max_intervals:
            estimate = total + float(kron[~ok].sum())
            error = float(err[~ok].sum())
            raise QuadratureError(
                f"quadrature did not converge within {max_intervals} intervals "
                f"(estimate {estimate!r}, error bound {error:.3e})",
                estimate,
                error,
            )
        bad_mid = 0.5 * (bad_lo + bad_hi)
        pend_lo = np.concatenate([bad_lo, bad_mid])
        pend_hi = np.concatenate([bad_mid, bad_hi])
    return total
