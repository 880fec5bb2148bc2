"""Test oracles that the package itself does not use.

``quadrature_2d`` integrates two-coordinate wavefunctions directly, as an
independent check on the closed-form multi-particle information.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from wellprobe.quadrature import quadrature


def quadrature_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    tol: float = 1e-8,
) -> float:
    """Iterated integral of ``f(x, y)`` over a rectangle.

    The outer integral runs the same adaptive rule over x; each outer
    evaluation point triggers a full adaptive integral over y.  Good enough
    for smooth two-probe integrands, not meant for integrable singularities.
    """
    x_lo, x_hi = x_range

    def outer(xs: np.ndarray) -> np.ndarray:
        out = np.empty(xs.shape, dtype=float)
        flat = xs.ravel()
        res = out.ravel()
        for i, x in enumerate(flat):
            res[i] = quadrature(
                lambda ys, x=x: f(np.full_like(ys, x), ys),
                y_range[0],
                y_range[1],
                tol=tol,
            )
        return out

    return quadrature(outer, x_lo, x_hi, tol=tol)
