"""Infinite square well: eigenbasis, energies, and width-derivative overlaps.

Everything is computed in natural units (hbar = mass = 1) for a box on
``[0, a]``.  The estimation parameter throughout the package is the width
``a`` itself, so alongside each eigenfunction and energy we expose its
derivative with respect to the width, plus the two overlap operators
B = <psi_m|d_a psi_n> and C = <d_a psi_m|d_a psi_n> that every information
quantity downstream is assembled from: their closed-form entries, the dense
tables, and their products with an amplitude vector, which
:func:`_overlap_products` applies as FFT convolutions in O(N log N) without
forming the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "WellConfig",
    "OverlapTable",
    "eigen_energy",
    "d_eigen_energy",
    "eigen_wavefunction",
    "d_eigen_wavefunction",
    "overlap_psi_dpsi",
    "overlap_dpsi_dpsi",
    "build_overlap_table",
]


@dataclass(frozen=True)
class WellConfig:
    """Box width and basis truncation used by all downstream computations."""

    width: float = 1.0
    truncation: int = 50

    def __post_init__(self):
        if not 0 < self.width < math.inf:
            raise ValueError(f"width must be positive and finite, got {self.width}")
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"quantum number must be >= 1, got {n}")


def eigen_energy(n: int, config: WellConfig) -> float:
    """Energy of level ``n``: (n pi / a)^2 / 2."""
    _check_n(n)
    return 0.5 * (n * np.pi / config.width) ** 2


def d_eigen_energy(n: int, config: WellConfig) -> float:
    """Width derivative of the level energy, -n^2 pi^2 / a^3."""
    _check_n(n)
    return -(n * np.pi) ** 2 / config.width**3


def eigen_wavefunction(n: int, config: WellConfig, x: np.ndarray) -> np.ndarray:
    """Normalized eigenfunction sqrt(2/a) sin(n pi x / a), zero outside the box."""
    _check_n(n)
    a = config.width
    x = np.asarray(x, dtype=float)
    inside = (x >= 0) & (x <= a)
    return np.where(inside, np.sqrt(2.0 / a) * np.sin(n * np.pi * x / a), 0.0)


def d_eigen_wavefunction(n: int, config: WellConfig, x: np.ndarray) -> np.ndarray:
    """Width derivative of the eigenfunction at fixed x.

    d/da [sqrt(2/a) sin(n pi x/a)]
      = -(1/2) sqrt(2/a^3) [sin(n pi x/a) + (2 n pi x/a) cos(n pi x/a)]
    """
    _check_n(n)
    a = config.width
    x = np.asarray(x, dtype=float)
    u = n * np.pi * x / a
    inside = (x >= 0) & (x <= a)
    val = -0.5 * np.sqrt(2.0 / a**3) * (np.sin(u) + 2.0 * u * np.cos(u))
    return np.where(inside, val, 0.0)


def overlap_psi_dpsi(m: int, n: int, config: WellConfig) -> float:
    """Overlap of eigenfunction m with the width derivative of eigenfunction n.

    Closed form: zero on the diagonal, else

        (2/a) (-1)^(m+n) m n / (m^2 - n^2).

    The matrix is antisymmetric, which is forced by d/da <psi_m|psi_n> = 0.
    """
    _check_n(m)
    _check_n(n)
    if m == n:
        return 0.0
    sign = -1.0 if (m + n) % 2 else 1.0
    return 2.0 / config.width * sign * m * n / (m**2 - n**2)


def overlap_dpsi_dpsi(m: int, n: int, config: WellConfig) -> float:
    """Overlap of the width derivatives of eigenfunctions m and n.

    Diagonal: (n^2 pi^2 / 3 + 1/4) / a^2.
    Off-diagonal: (-1)^(m+n) (4 m n (m^2 + n^2)) / (a^2 (m^2 - n^2)^2).
    """
    _check_n(m)
    _check_n(n)
    a2 = config.width**2
    if m == n:
        return (n**2 * np.pi**2 / 3.0 + 0.25) / a2
    sign = -1.0 if (m + n) % 2 else 1.0
    return sign * 4.0 * m * n * (m**2 + n**2) / (a2 * (m**2 - n**2) ** 2)


@dataclass(frozen=True)
class OverlapTable:
    """Dense overlap matrices up to the configured truncation.

    ``psi_dpsi[i, j]`` is the overlap of eigenfunction i+1 with the width
    derivative of eigenfunction j+1; ``dpsi_dpsi`` the Gram matrix of the
    derivatives.  Index 0 is the ground state.
    """

    width: float
    psi_dpsi: np.ndarray = field(repr=False)
    dpsi_dpsi: np.ndarray = field(repr=False)


def build_overlap_table(config: WellConfig) -> OverlapTable:
    """Assemble both overlap matrices vectorized over the full basis."""
    size = config.truncation
    a = config.width
    idx = np.arange(1, size + 1, dtype=float)
    # upper triangle (m < n), mirrored so the symmetries hold to the bit
    iu, ju = np.triu_indices(size, k=1)
    m = idx[iu]
    n = idx[ju]
    sign = np.where((m + n) % 2 == 0, 1.0, -1.0)
    diff = m**2 - n**2

    b = np.zeros((size, size))
    upper_b = 2.0 / a * sign * m * n / diff
    b[iu, ju] = upper_b
    b[ju, iu] = -upper_b

    c = np.zeros((size, size))
    upper_c = sign * 4.0 * m * n * (m**2 + n**2) / (a**2 * diff**2)
    c[iu, ju] = upper_c
    c[ju, iu] = upper_c
    np.fill_diagonal(c, (idx**2 * np.pi**2 / 3.0 + 0.25) / a**2)

    return OverlapTable(width=a, psi_dpsi=b, dpsi_dpsi=c)


@lru_cache(maxsize=8)
def _kernel_spectra(size: int) -> np.ndarray:
    """Spectra of the kernels 1/k and 1/k^2 (0 at k = 0) on a circle of 3N points.

    Slots 0..2N hold k = 0..2N and the rest k = 1-N..-1, the differences
    m - n of outputs m in [1, N] and inputs n in [-N, N], so the circular
    convolution does not wrap.
    """
    length = 3 * size
    k = np.arange(length, dtype=float)
    k[2 * size + 1:] -= length
    k[0] = np.inf  # so both kernels are 0 there
    return np.fft.fft(np.stack([1.0 / k, 1.0 / (k * k)]))


def _overlap_products(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B c and C c for the unit-width overlap matrices, without forming them.

    Off the diagonal, with d_n = (-1)^n c_n,
        (B c)_m = (-1)^m m sum_n [1/(m-n) - 1/(m+n)] d_n,
        (C c)_m = 2 (-1)^m m sum_n [1/(m-n)^2 + 1/(m+n)^2] n d_n.
    Extending d oddly to n in [-N, -1] turns each Toeplitz-plus-Hankel sum
    into one convolution with 1/k or 1/k^2 over n in [-N, N].  That
    convolution also picks up the n = m Hankel terms, -1/(2m) and +1/(4m^2),
    so the diagonals are set by adding c/2 to B c and (m^2 pi^2/3 - 1/4) c
    to C c, which gives C_mm = m^2 pi^2/3 + 1/4.
    """
    size = c.size
    m = np.arange(1, size + 1, dtype=float)
    sign = np.where(m % 2, -1.0, 1.0)
    d = sign * c
    ext = np.zeros((2, 3 * size), dtype=complex)
    ext[0, 1:size + 1] = d
    ext[0, 2 * size:] = -d[::-1]
    ext[1, 1:size + 1] = m * d
    ext[1, 2 * size:] = (m * d)[::-1]
    conv = np.fft.ifft(np.fft.fft(ext) * _kernel_spectra(size))[:, 1:size + 1]
    bc = sign * m * conv[0] + 0.5 * c
    cc = 2.0 * sign * m * conv[1] + (m * m * np.pi**2 / 3.0 - 0.25) * c
    return bc, cc
