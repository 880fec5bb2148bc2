"""Probe state families and their expansions in the well eigenbasis.

Four built-in families cover the use cases downstream:

* ``Eigen``: a single energy eigenstate.
* ``Superposition``: two eigenstates mixed by an angle, cos(alpha) on the
  first index and sin(alpha) on the second.
* ``Polynomial``: the smooth bump  N (1 - (2x/a - 1)^(2p)) / sqrt(a), which
  interpolates from the parabola (p = 1) towards a flat top with sharp
  shoulders as p grows.
* ``Parabolic``: sqrt(30/a^5) x (a - x), the order-1 bump
  (sqrt(30) = 4 h for the p = 1 height h = sqrt(15/8)), kept as its own
  name because its time-evolved information has a fully explicit series.

``Custom`` takes an explicit (real) coefficient vector in the eigenbasis.

Every family is scale covariant: at width a its profile is

    f(x; a) = g(x / a) / sqrt(a),

with g the unit-width profile on u in [0, 1].  Each family defines, once and
at unit width, g, the scaling term s(u) = g(u) / 2 + u g'(u), its eigenbasis
amplitudes and its mean energy E_1.  Everything at width a follows: the
width derivative at fixed x is -s(x / a) / a^(3/2), the amplitudes do not
depend on a, and the mean energy is E_1 / a^2.  Eigen, Superposition and
Custom are finite sums of levels sqrt(2) sin(n pi u) and share one
definition built from their (level, coefficient) pairs.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .well import WellConfig, _overlap_products, overlap_dpsi_dpsi, overlap_psi_dpsi

__all__ = [
    "TruncationWarning",
    "Eigen",
    "Superposition",
    "Polynomial",
    "Parabolic",
    "Custom",
    "ProbeState",
    "AmplitudeVector",
    "amplitudes",
    "wavefunction",
    "d_wavefunction",
    "mean_energy",
    "nbar",
]

# expansion weight below which we do not bother warning about truncation
_LOSS_TOL = 1e-6

_SQRT2 = math.sqrt(2.0)


class TruncationWarning(UserWarning):
    """Emitted when a basis truncation visibly bites the requested quantity."""


class _Profile:
    """A family's g and s, each from its fused kernel ``_gs(u, g_norm, s_norm)``.

    The kernel returns (g(u) / g_norm, s(u) / s_norm) from one pass over u,
    sharing the intermediates of the two; a norm of None skips its term and
    returns None in its place.  It neither masks nor clips: u must lie in
    [0, 1].
    """

    def _g(self, u, norm=1.0):
        return self._gs(u, norm, None)[0]

    def _s(self, u, norm=1.0):
        return self._gs(u, None, norm)[1]


class _Levels(_Profile):
    """Finite sum of levels, sum_n c_n sqrt(2) sin(n pi u), from (n, c_n) pairs."""

    def _gs(self, u, g_norm, s_norm):
        # with v = n pi u: g = c sqrt(2) sin(v), g/2 + u g' = c (sqrt(2)/2) [sin(v) + 2 v cos(v)]
        g = s = None
        for n, c in self._pairs():
            if c == 0.0:
                continue
            v = n * np.pi * u
            sin = np.sin(v)
            if g_norm is not None:
                term = (c * _SQRT2 / g_norm) * sin
                g = term if g is None else g + term
            if s_norm is not None:
                term = (c * _SQRT2 / (2.0 * s_norm)) * (sin + 2.0 * v * np.cos(v))
                s = term if s is None else s + term
        return g, s

    def _amplitudes(self, size):
        coeff = np.zeros(size)
        for n, c in self._pairs():
            if n <= size:
                coeff[n - 1] += c
        return coeff

    def _energy(self):
        return math.fsum(c * c * 0.5 * (n * math.pi) ** 2 for n, c in self._pairs())


@dataclass(frozen=True)
class Eigen(_Levels):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"quantum number must be >= 1, got {self.n}")

    def _pairs(self):
        return ((self.n, 1.0),)


@dataclass(frozen=True)
class Superposition(_Levels):
    """cos(alpha) |n> + sin(alpha) |m> with n != m."""

    n: int
    m: int
    alpha: float

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError(f"quantum numbers must be >= 1, got ({self.n}, {self.m})")
        if self.n == self.m:
            raise ValueError("superposition needs two distinct levels")
        if not math.isfinite(self.alpha):
            raise ValueError(f"mixing angle must be finite, got {self.alpha}")

    def _pairs(self):
        return ((self.n, math.cos(self.alpha)), (self.m, math.sin(self.alpha)))


def _poly_height(p: int) -> float:
    # normalization of 1 - (2u - 1)^(2p) on the unit interval
    return math.sqrt((1.0 + 6.0 * p + 8.0 * p * p) / (8.0 * p * p))


# Binary powering reuses w * w, so its rounding error enters w^n about n / 2
# times.  Up to n = 6 (p <= 3) the bump's g and s stay within 4 ulp of the
# pow forms at the scale of their terms; at p = 4 s is 5 ulp off and at
# p = 40 g is 16, so pow is kept above n = 6.
_SQUARING_MAX = 6


def _powers(w: np.ndarray, *exponents: int) -> list:
    """w^n for each whole n >= 1 given: products of the shared squares w, w^2,
    w^4, ... in binary order while every n is at most _SQUARING_MAX, else pow."""
    top = max(exponents)
    if top > _SQUARING_MAX:
        return [w**n for n in exponents]
    squares = [w]
    while 2 ** len(squares) <= top:
        squares.append(squares[-1] * squares[-1])
    out = []
    for n in exponents:
        result = None
        for bit, square in enumerate(squares):
            if n >> bit & 1:
                result = square if result is None else result * square
        out.append(result)
    return out


def _poly_profile(p: int, u: np.ndarray) -> np.ndarray:
    """Unit-width polynomial bump evaluated at u in [0, 1]."""
    return Polynomial(p)._g(u)


@lru_cache(maxsize=None)
def _poly_coefficients(p: int, truncation: int) -> np.ndarray:
    """Exact eigenbasis expansion of the unit-width bump of order p.

    With w = 2u - 1 and k = n pi / 2 the level sqrt(2) sin(n pi u) is
    sqrt(2) sin(k w + k).  The bump is even in w, so even levels vanish.
    For odd n, sin(k) = sigma = +-1 and cos(k) = 0, so with h the bump's
    height

        f_n = sqrt(2) h sigma int_0^1 (1 - w^(2p)) cos(k w) dw
            = sqrt(2) h (J_0 - J_2p),   J_m = sigma int_0^1 w^m cos(k w) dw.

    Integrating by parts twice gives J_m = 1/k - m (m - 1) / k^2 J_{m-2}
    with J_0 = 1/k, and D_m = J_0 - J_m obeys

        D_m = m (m - 1) / k^2 (1/k - D_{m-2}),   D_0 = 0.

    Each forward step multiplies the error in its input by m (m - 1) / k^2,
    so the forward recurrence runs only on the levels with k^2 > 2p (2p - 1).
    On the first few levels J runs backward instead,
    J_{m-2} = (1/k - J_m) k^2 / (m (m - 1)), from J = 0 at m = 4p + 80 down
    to m = 2p: every step shrinks the start error by k^2 / (m (m - 1)) < 1.
    The split and the start depend on p alone, so the expansion in N levels
    is a bit-identical prefix of the one in 2N.  Both loops run over all
    their levels at once: O(p N) work.  The result is cached and read-only.
    """
    k = np.arange(1.0, truncation + 1.0, 2.0) * (math.pi / 2.0)  # odd levels
    inv_k, kk = 1.0 / k, k * k
    split = int(np.searchsorted(kk, 2 * p * (2 * p - 1), side="right"))
    low, inv_low = kk[:split], inv_k[:split]
    moment = np.zeros(split)
    for m in range(4 * p + 80, 2 * p, -2):
        moment = (inv_low - moment) * (low / (m * (m - 1)))
    high, inv_high = kk[split:], inv_k[split:]
    d_high = np.zeros(high.size)
    for m in range(2, 2 * p + 1, 2):
        d_high = m * (m - 1) / high * (inv_high - d_high)
    d = np.concatenate((inv_low - moment, d_high))
    coeff = np.zeros(truncation)
    coeff[::2] = (_SQRT2 * _poly_height(p)) * d
    coeff.flags.writeable = False
    return coeff


@dataclass(frozen=True)
class Polynomial(_Profile):
    """Bump profile with a whole flatness exponent p >= 1."""

    p: int

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, numbers.Integral) or self.p < 1:
            raise ValueError(f"polynomial order must be a whole number >= 1, got {self.p!r}")

    def _gs(self, u, g_norm, s_norm):
        # with w = 2u - 1: g = h (1 - w^(2p)), g/2 + u g' = g/2 - 4 p h u w^(2p-1)
        p, h = self.p, _poly_height(self.p)
        w = 2.0 * u - 1.0
        if s_norm is None:
            (even,) = _powers(w, 2 * p)
        else:
            odd, even = _powers(w, 2 * p - 1, 2 * p)
        profile = h * (1.0 - even)
        g = None if g_norm is None else profile / g_norm
        s = None if s_norm is None else (0.5 * profile + u * (h * (-4.0 * p) * odd)) / s_norm
        return g, s

    def _amplitudes(self, size):
        return np.array(_poly_coefficients(self.p, size))

    def _energy(self):
        return (1.0 + 6.0 * self.p + 8.0 * self.p * self.p) / (4.0 * self.p - 1.0)


@dataclass(frozen=True)
class Parabolic(Polynomial):
    """The order-1 bump sqrt(30) u (1 - u), under the name of its explicit evolved series."""

    p: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.p != 1:
            raise ValueError(f"the parabola is the order-1 bump, got p={self.p!r}")


@dataclass(frozen=True)
class Custom(_Levels):
    """Explicit real eigenbasis coefficients, normalized to 1."""

    coefficients: tuple

    def __post_init__(self):
        coeff = tuple(float(c) for c in self.coefficients)
        if not coeff:
            raise ValueError("need at least one coefficient")
        norm = math.fsum(c * c for c in coeff)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"coefficients must be unit norm, got norm^2 = {norm!r}")
        object.__setattr__(self, "coefficients", coeff)

    def _pairs(self):
        return tuple(enumerate(self.coefficients, start=1))

    def _amplitudes(self, size):
        if len(self.coefficients) > size:
            raise ValueError(f"custom state has {len(self.coefficients)} coefficients but the truncation is {size}")
        return super()._amplitudes(size)


ProbeState = Union[Eigen, Superposition, Polynomial, Parabolic, Custom]


def _family(state: ProbeState) -> ProbeState:
    # every family defines the fused kernel _gs(u, g_norm, s_norm), _amplitudes(size), _energy()
    if not isinstance(state, ProbeState):
        raise TypeError(f"unknown probe state {state!r}")
    return state


def _bump_terms(p: int) -> tuple[dict, dict]:
    """Unit-width bump g and its scaling term g/2 + u g'(u), as sparse
    polynomials {power: coefficient} in w = 2u - 1.

    With g = h (1 - w^(2p)) and u d/du = (1 + w) d/dw, the second is
    h (1/2 - 2p w^(2p-1) - (2p + 1/2) w^(2p)).
    """
    h = _poly_height(p)
    g = {0: h, 2 * p: -h}
    scaled = {0: 0.5 * h, 2 * p - 1: -2.0 * p * h, 2 * p: -(2.0 * p + 0.5) * h}
    return g, scaled


def _unit_integral(f: dict, g: dict) -> float:
    """Integral over u in [0, 1] of the product of two polynomials in w = 2u - 1.

    Odd powers of w integrate to zero and w^(2k) to 1/(2k + 1).
    """
    return math.fsum(
        c * d / (i + j + 1) for i, c in f.items() for j, d in g.items() if (i + j) % 2 == 0
    )


def _unit_overlaps(u: ProbeState, v: ProbeState) -> tuple[float, float, float]:
    """Exact unit-width overlaps <u|v>, <u|dv> and <du|dv>, d the width derivative.

    Level sums combine the eigenbasis overlaps of :mod:`wellprobe.well`:
    with no more level pairs than levels up to the highest one, entry by
    entry in closed form (a single high level costs nothing), otherwise by
    the O(N log N) :func:`_overlap_products` on the coefficient vector.
    For bumps the width derivative at a = 1 is -(g/2 + u g'), so every
    overlap is a finite sum over powers of w = 2u - 1.
    """
    if isinstance(u, _Levels) and isinstance(v, _Levels):
        pu, pv = u._pairs(), v._pairs()
        top = max(n for n, _ in pu + pv)
        if len(pu) * len(pv) <= top:
            unit = WellConfig(width=1.0)
            grid = [(c * d, m, n) for m, c in pu for n, d in pv]
            return (
                math.fsum(w for w, m, n in grid if m == n),
                math.fsum(w * overlap_psi_dpsi(m, n, unit) for w, m, n in grid),
                math.fsum(w * overlap_dpsi_dpsi(m, n, unit) for w, m, n in grid),
            )
        f, g = u._amplitudes(top), v._amplitudes(top)
        bg, cg = _overlap_products(g)
        return float(f @ g), float(f @ bg.real), float(f @ cg.real)
    if isinstance(u, Polynomial) and isinstance(v, Polynomial):
        gu, su = _bump_terms(u.p)
        gv, sv = _bump_terms(v.p)
        return _unit_integral(gu, gv), -_unit_integral(gu, sv), _unit_integral(su, sv)
    raise TypeError(f"need two level sums or two bumps, got {u!r} and {v!r}")


@dataclass(frozen=True)
class AmplitudeVector:
    """Eigenbasis expansion of a probe state up to the truncation."""

    coefficients: np.ndarray
    truncation: int

    @property
    def truncation_loss(self) -> float:
        """Probability weight missing from the truncated expansion."""
        return max(0.0, 1.0 - float(self.coefficients @ self.coefficients))


def amplitudes(state: ProbeState, config: WellConfig) -> AmplitudeVector:
    """Expand a probe state in the truncated eigenbasis.

    The coefficients are the unit-width ones for every width.  Warns with
    :class:`TruncationWarning` when the missing weight exceeds ``1e-6``
    (including the case of a level beyond the basis).
    """
    size = config.truncation
    vec = AmplitudeVector(coefficients=_family(state)._amplitudes(size), truncation=size)
    if vec.truncation_loss > _LOSS_TOL:
        warnings.warn(
            f"truncated expansion misses weight {vec.truncation_loss:.3e} "
            f"(truncation {size})",
            TruncationWarning,
            stacklevel=2,
        )
    return vec


def wavefunction(state: ProbeState, config: WellConfig, x: np.ndarray) -> np.ndarray:
    """Real-space profile g(x / a) / sqrt(a), zero outside the box."""
    a = config.width
    x = np.asarray(x, dtype=float)
    inside = (x >= 0) & (x <= a)
    # the kernel sees points outside the box at u = 0, where no family overflows;
    # families fold norm into a scalar prefactor where they can: no extra array pass
    return np.where(inside, _family(state)._g(np.where(inside, x / a, 0.0), math.sqrt(a)), 0.0)


def d_wavefunction(state: ProbeState, config: WellConfig, x: np.ndarray) -> np.ndarray:
    """Width derivative of the real-space profile at fixed x.

    Differentiating f(x; a) = g(x / a) / sqrt(a) at fixed x, with u = x / a,
      d_a f = -(1/a) [ g(u) / 2 + u g'(u) ] / sqrt(a) = -s(u) / a^(3/2),
    zero outside the box.
    """
    a = config.width
    x = np.asarray(x, dtype=float)
    inside = (x >= 0) & (x <= a)
    return np.where(inside, _family(state)._s(np.where(inside, x / a, 0.0), -(a**1.5)), 0.0)


def mean_energy(state: ProbeState, config: WellConfig) -> float:
    """Expectation of the Hamiltonian in the probe state, E_1 / a^2.

    The unit-width value E_1 is sum_n c_n^2 (n pi)^2 / 2 for level sums,
    (1 + 6p + 8p^2) / (4p - 1) for the bump of order p (5 for the parabola).
    """
    return _family(state)._energy() / config.width**2


def nbar(n: int, d: int, alpha: float) -> tuple[float, int]:
    """Effective level of cos(alpha)|n> + sin(alpha)|n+d>.

    Returns the root-mean-square level sqrt(n^2 cos^2 + (n+d)^2 sin^2) and
    its value rounded half away from zero to the nearest integer.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got ({n}, {d})")
    c, s = math.cos(alpha), math.sin(alpha)
    value = math.sqrt(n**2 * c * c + (n + d) ** 2 * s * s)
    return value, int(math.floor(value + 0.5))
