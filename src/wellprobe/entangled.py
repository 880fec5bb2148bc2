"""Multi-particle probe figures of merit.

Distinguishable, non-interacting particles in the same box can be prepared
in energy-entangled states.  This module evaluates the paper's closed-form
pair, three-particle single-excitation (W-like) and N-particle two-branch
(GHZ-like) figures: the sum of the single-particle signal-to-noise ratios
plus a bonus.  The bonus bookkeeping treats the branches of the state as
orthogonal.  For eigenstate branches they are, and the closed forms are the
exact quantum Fisher information of the prepared state; in the GHZ case the
bonus survives only for a single transposition of level indices.

Bump branches overlap, so :func:`qsnr_two_polynomial` is the paper's
orthogonal-branch formula and not the information of any normalized state.
:func:`qsnr_symmetrized_pair` gives the exact value of the normalized pair
u (x) v + v (x) u for any two level sums or any two bumps, from the
unit-width overlaps that :mod:`wellprobe.states` computes for every probe
state.  For bump pairs the exact gain over two independent probes is below
1 (0.98550 at orders 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrology import qsnr_eigen, qsnr_polynomial
from .states import ProbeState, _unit_overlaps

__all__ = [
    "GhzSpec",
    "qsnr_two_eigen",
    "qsnr_two_polynomial",
    "qsnr_symmetrized_pair",
    "qsnr_w3",
    "qsnr_ghz",
    "entanglement_gain_grid",
]


def _pair_bonus(n1: int, n2: int) -> float:
    """Two-particle eigen-pair bonus 32 n1^2 n2^2 / (n1^2 - n2^2)^2."""
    return 32.0 * (n1 * n2) ** 2 / float(n1**2 - n2**2) ** 2


def qsnr_two_eigen(n1: int, n2: int) -> float:
    """Signal-to-noise ratio of the symmetrized two-eigenstate pair.

    Q_{n1} + Q_{n2} + 32 n1^2 n2^2/(n1^2 - n2^2)^2; the bonus is strictly
    positive, so the entangled pair always beats two independent runs.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"quantum numbers must be >= 1, got ({n1}, {n2})")
    if n1 == n2:
        raise ValueError("pair indices must differ; the symmetrized state degenerates")
    return qsnr_eigen(n1) + qsnr_eigen(n2) + _pair_bonus(n1, n2)


def qsnr_two_polynomial(p1: int, p2: int) -> float:
    """The paper's closed-form pair ratio for two distinct polynomial bumps.

    Q_{p1} + Q_{p2} + (1+4p1)(1+4p2)(1+4p1+4p2) / (2(4p1^2+4p2^2+8p1p2-1)).

    This is the orthogonal-branch formula: it books the cross term as if
    the two bumps were orthogonal.  They are not (their overlap is 0.99728
    at orders 2 and 3), so it is not the quantum Fisher information of the
    normalized symmetrized state; that is :func:`qsnr_symmetrized_pair`,
    50.657 at (2, 3) where this formula gives 63.812.
    """
    if p1 < 1 or p2 < 1:
        raise ValueError(f"polynomial orders must be >= 1, got ({p1}, {p2})")
    if p1 == p2:
        raise ValueError("pair indices must differ; the gain ratio is undefined on the diagonal")
    bonus = (
        (1.0 + 4.0 * p1)
        * (1.0 + 4.0 * p2)
        * (1.0 + 4.0 * p1 + 4.0 * p2)
        / (2.0 * (4.0 * p1**2 + 4.0 * p2**2 + 8.0 * p1 * p2 - 1.0))
    )
    return qsnr_polynomial(p1) + qsnr_polynomial(p2) + bonus


def qsnr_symmetrized_pair(u: ProbeState, v: ProbeState) -> float:
    """Exact signal-to-noise ratio of the normalized pair state u (x) v + v (x) u.

    a^2 times the quantum Fisher information
    4 [<dPhi|dPhi>/<Phi|Phi> - (<Phi|dPhi>/<Phi|Phi>)^2] of the unnormalized
    Phi = u (x) v + v (x) u.  Both factors are real and normalized at every
    width (<u|du> = 0), so with s = <u|v> the norm is 2 (1 + s^2) and

        Q = 4 [(D_uu + D_vv + 2 s D_uv + A^2 + B^2) / (1 + s^2)
               - (s (A + B) / (1 + s^2))^2],

    where A = <u|dv>, B = <v|du> and D_xy = <dx|dy>.  For eigenstates s = 0
    and this is :func:`qsnr_two_eigen`; for bumps it is the exact value in
    place of the orthogonal-branch :func:`qsnr_two_polynomial`.  ``u`` and
    ``v`` are any two level sums (``Eigen``, ``Superposition``, ``Custom``)
    or any two bumps (``Polynomial``, ``Parabolic``); a level sum paired
    with a bump raises ``TypeError``.  Equal states give the product state,
    twice the single-probe value.
    """
    s, a_uv, d_uv = _unit_overlaps(u, v)
    b_vu = _unit_overlaps(v, u)[1]
    d_uu = _unit_overlaps(u, u)[2]
    d_vv = _unit_overlaps(v, v)[2]
    norm = 1.0 + s * s
    drift = s * (a_uv + b_vu) / norm
    return 4.0 * ((d_uu + d_vv + 2.0 * s * d_uv + a_uv**2 + b_vu**2) / norm - drift * drift)


def qsnr_w3(n1: int, n2: int) -> float:
    """Three-particle single-excitation state: two particles on level n1.

    2 Q_{n1} + Q_{n2} + 64 n1^2 n2^2/(n1^2 - n2^2)^2; the bonus is exactly
    twice the two-particle one.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"quantum numbers must be >= 1, got ({n1}, {n2})")
    if n1 == n2:
        raise ValueError("excitation level must differ from the base level")
    return 2.0 * qsnr_eigen(n1) + qsnr_eigen(n2) + 2.0 * _pair_bonus(n1, n2)


@dataclass(frozen=True)
class GhzSpec:
    """Two-branch N-particle state: product of levels n overlapped with
    the same product re-assigned by the permutation m.

    Levels must be pairwise distinct (otherwise the two branches fail to be
    orthogonal and the 1/sqrt(2) normalization breaks down), and m must be
    a genuine permutation of n, not the identity.
    """

    n: tuple
    m: tuple

    def __post_init__(self):
        n = tuple(int(v) for v in self.n)
        m = tuple(int(v) for v in self.m)
        if len(n) < 2:
            raise ValueError("need at least two particles")
        if len(m) != len(n):
            raise ValueError(f"level tuples differ in length: {len(n)} vs {len(m)}")
        if any(v < 1 for v in n):
            raise ValueError(f"quantum numbers must be >= 1, got {n}")
        if len(set(n)) != len(n):
            raise ValueError(f"levels must be pairwise distinct, got {n}")
        if sorted(m) != sorted(n):
            raise ValueError(f"{m} is not a permutation of {n}")
        if m == n:
            raise ValueError("identity permutation gives two identical branches")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)


def qsnr_ghz(spec: GhzSpec) -> float:
    """Signal-to-noise ratio of a two-branch N-particle state.

    Sum of the per-level ratios plus 16 sum_{k != j} over ordered pairs
    whose levels the permutation swaps while leaving every other particle
    untouched.  Only a single transposition survives this bookkeeping, so
    the bonus never exceeds the best two-particle one.
    """
    n = spec.n
    m = spec.m
    size = len(n)
    total = sum(qsnr_eigen(v) for v in n)
    bonus = 0.0
    for k in range(size):
        for j in range(size):
            if k == j:
                continue
            if m[k] != n[j] or m[j] != n[k]:
                continue
            if any(n[l] != m[l] for l in range(size) if l != k and l != j):
                continue
            bonus += 16.0 * (n[k] * n[j]) ** 2 / float(n[k] ** 2 - n[j] ** 2) ** 2
    return total + bonus


def _pair_formulas(family: str):
    """(pair ratio, single-probe ratio) of a family; "poly" abbreviates "polynomial"."""
    if family == "eigen":
        return qsnr_two_eigen, qsnr_eigen
    if family in ("polynomial", "poly"):
        return qsnr_two_polynomial, qsnr_polynomial
    raise ValueError(f"unknown family {family!r}; expected 'eigen' or 'polynomial'")


def entanglement_gain_grid(family: str, indices) -> np.ndarray:
    """Matrix of pair gains gamma = Q_joint / (Q_i + Q_j) over an index range.

    ``family`` is "eigen" or "polynomial"; the diagonal is NaN because the
    pair state needs distinct indices.  The polynomial grid uses the
    paper's orthogonal-branch formula :func:`qsnr_two_polynomial`.
    """
    joint, single = _pair_formulas(family)
    idx = list(indices)
    out = np.full((len(idx), len(idx)), np.nan)
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            if a != b:
                out[i, j] = joint(a, b) / (single(a) + single(b))
    return out
