"""Reference values that every benchmark operation is checked against.

Each reference is computed here from closed forms or from a different
formulation than the code under test, so a wrong result cannot agree with
its own check by construction:

* static information: the closed signal-to-noise forms of each family;
* evolved information: 4(<dPsi|dPsi> - |<Psi|dPsi>|^2) with complex
  vectors over the overlap tables, not the trigonometric assembly;
* eigenbasis amplitudes: a fixed composite Gauss-Legendre rule over the
  unit-width profile, not the adaptive quadrature of the program;
* entangled eigen probes: the QFI of the explicit sum of product branches,
  built from one-particle overlaps;
* estimates: a local maximum of a log-likelihood written out from the
  probe densities here.

Tolerances leave room for changes of summation order and for estimator
moves of about 1e-9 relative, and are far below any real defect.
"""

from __future__ import annotations

import csv
import io
import math
from functools import lru_cache

import numpy as np

PI = math.pi


class CheckFailed(Exception):
    """An operation returned a value its reference does not accept."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(value, reference: float, rtol: float, atol: float = 0.0, what: str = "value") -> None:
    value = float(value)
    require(
        math.isfinite(value) and abs(value - reference) <= atol + rtol * abs(reference),
        f"{what} {value!r} differs from reference {reference!r}",
    )


# -- closed-form signal-to-noise ratios (a^2 QFI) ---------------------------

def qsnr_eigen(n: int) -> float:
    return 1.0 + 4.0 / 3.0 * (n * PI) ** 2


def qsnr_poly(p: float) -> float:
    return (1.0 + 4.0 * p) * (1.0 + 8.0 * p) / (4.0 * p - 1.0)


QSNR_PARABOLA = 15.0


def qsnr_super(n: int, m: int, alpha: float) -> float:
    c, s = math.cos(alpha), math.sin(alpha)
    return c * c * qsnr_eigen(n) + s * s * qsnr_eigen(m) + 4.0 * math.sin(2.0 * alpha) * float(
        unit_tables(np.array([n]), np.array([m]))[1][0, 0]
    )


def qsnr_poly_pair_paper(p1: int, p2: int) -> float:
    """The paper's two-bump formula (orthogonal-branch bookkeeping)."""
    bonus = (1 + 4 * p1) * (1 + 4 * p2) * (1 + 4 * p1 + 4 * p2) / (
        2.0 * (4 * p1 * p1 + 4 * p2 * p2 + 8 * p1 * p2 - 1)
    )
    return qsnr_poly(p1) + qsnr_poly(p2) + bonus


# -- overlap tables at unit width --------------------------------------------

def unit_tables(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<psi_m|dpsi_n> and <dpsi_m|dpsi_n> at width 1 for levels m in rows, n in cols.

    At width a they scale as 1/a and 1/a^2.
    """
    m = rows.astype(float)[:, None]
    n = cols.astype(float)[None, :]
    same = m == n
    sign = np.where((m + n) % 2 == 0, 1.0, -1.0)
    diff = np.where(same, 1.0, m * m - n * n)
    b = np.where(same, 0.0, 2.0 * sign * m * n / diff)
    c = np.where(same, n * n * PI * PI / 3.0 + 0.25, 4.0 * sign * m * n * (m * m + n * n) / diff**2)
    return b, c


@lru_cache(maxsize=None)
def square_tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """unit_tables over levels 1..size, built once per size; do not modify."""
    levels = np.arange(1, size + 1)
    return unit_tables(levels, levels)


def _quadratic_forms(levels: np.ndarray, u: np.ndarray, v: np.ndarray, block: int = 256):
    """(u^H B v, u^H C v) over the given levels, built in row blocks."""
    bsum = 0j
    csum = 0j
    for lo in range(0, levels.size, block):
        b, c = unit_tables(levels[lo : lo + block], levels)
        uc = np.conj(u[lo : lo + block])
        bsum += uc @ (b @ v)
        csum += uc @ (c @ v)
    return bsum, csum


def evolved_qfi(f: np.ndarray, levels: np.ndarray, t: float, a: float, single_sums=None) -> float:
    """QFI of sum_n f_n exp(-i E_n t) psi_n over levels, by complex vectors.

    d/da of the state is X + Y with X = sum c_n dpsi_n and Y = -i t sum E'_n
    c_n psi_n, so <dPsi|dPsi> = c^H C c + |y|^2 + 2 Re(y^H B c) and
    <Psi|dPsi> = c^H B c + c^H y.  ``single_sums`` = (S1, S2, S3) replaces
    the three diagonal single sums sum f^2 E'^2, sum f^2 C_nn, sum f^2 E'
    by their untruncated values.
    """
    lv = levels.astype(float)
    energy = 0.5 * (lv * PI / a) ** 2
    denergy = -((lv * PI) ** 2) / a**3
    c = f * np.exp(-1j * energy * t)
    y = -1j * t * denergy * c
    bcc, ccc = _quadratic_forms(levels, c, c)
    byc, _ = _quadratic_forms(levels, y, c)
    bcc, ccc, byc = bcc / a, ccc / a**2, byc / a
    diag_c = (lv * lv * PI * PI / 3.0 + 0.25) / a**2
    if single_sums is None:
        s1, s2, s3 = float(f * f @ denergy**2), float(f * f @ diag_c), float(f * f @ denergy)
    else:
        s1, s2, s3 = single_sums
    ccc_off = ccc.real - float(f * f @ diag_c)
    grad = ccc_off + s2 + t * t * s1 + 2.0 * byc.real
    overlap = bcc - 1j * t * s3
    return 4.0 * (grad - abs(overlap) ** 2)


def parabola_series_qfi(size: int, t: float, a: float) -> float:
    """Evolved parabolic QFI with its single sums in closed form.

    The parabola sqrt(30) u(1-u) has sine coefficients 8 sqrt(15)/(n pi)^3 on
    odd n.  From <H> = 5/a^2 and <H^2> = 30/a^4 (H psi is the constant
    sqrt(30/a^5)): sum f^2 E'^2 = 4<H^2>/a^2 = 120/a^6,
    sum f^2 E' = -2<H>/a = -10/a^3, sum f^2 C_nn = (2/3)<H> + 1/(4a^2) = 43/(12 a^2).
    """
    levels = np.arange(1, size + 1, 2)
    f = 8.0 * math.sqrt(15.0) / (levels * PI) ** 3
    sums = (120.0 / a**6, 43.0 / (12.0 * a**2), -10.0 / a**3)
    return evolved_qfi(f, levels, t, a, single_sums=sums)


# -- eigenbasis amplitudes --------------------------------------------------------

AMPLITUDE_ATOL = 1e-11  # both sides agree to ~3e-13 at N=1600


def amplitude_reference(key: tuple, size: int) -> np.ndarray:
    """Amplitudes of a probe over levels 1..size; do not modify.

    ``key`` is ("poly", p), ("parabolic",) or ("levels", ((n, c), ...)).
    """
    if key[0] != "levels":
        return _projected_amplitudes(key, size)
    out = np.zeros(size)
    for n, c in key[1]:
        if n <= size:
            out[n - 1] += c
    return out


@lru_cache(maxsize=None)
def _projected_amplitudes(key: tuple, size: int) -> np.ndarray:
    """A profile projected on sqrt(2) sin(n pi u), once per (profile, size).

    A composite 16-point Gauss-Legendre rule with one panel per level keeps
    every panel within half a period of the highest sine.
    """
    out = np.zeros(size)
    if key[0] == "poly":
        p = key[1]
        height = math.sqrt((1.0 + 6.0 * p + 8.0 * p * p) / (8.0 * p * p))
        profile = lambda u: height * (1.0 - (2.0 * u - 1.0) ** (2 * p))
    else:
        profile = lambda u: math.sqrt(30.0) * u * (1.0 - u)
    x, w = np.polynomial.legendre.leggauss(16)
    panels = max(size, 32)
    u = (np.arange(panels)[:, None] / panels + (x[None, :] + 1.0) / (2 * panels)).ravel()
    weighted = math.sqrt(2.0) * profile(u) * np.tile(w / (2 * panels), panels)
    for lo in range(0, size, 64):
        n = np.arange(lo + 1, min(size, lo + 64) + 1)[:, None]
        out[lo : lo + n.shape[0]] = np.sin(n * PI * u[None, :]) @ weighted
    return out


def check_amplitudes(key: tuple, f: np.ndarray) -> None:
    ref = amplitude_reference(key, f.size)
    worst = int(np.argmax(np.abs(f - ref)))
    require(abs(f[worst] - ref[worst]) <= AMPLITUDE_ATOL,
            f"amplitude of level {worst + 1} is {float(f[worst])!r}, reference {float(ref[worst])!r}")


# -- multi-particle probes -----------------------------------------------------

@lru_cache(maxsize=4096)
def branch_qsnr(branches: tuple) -> float:
    """QSNR of an equal-weight sum of eigen product branches, at unit width.

    4[<dPhi|dPhi>/<Phi|Phi> - (<Phi|dPhi>/<Phi|Phi>)^2] with every inner
    product factored into one-particle overlaps.
    """
    bt, ct = square_tables(max(max(b) for b in branches))
    B = lambda i, j: bt[i - 1, j - 1]  # <psi_i|dpsi_j>
    C = lambda i, j: ct[i - 1, j - 1]
    k = len(branches[0])
    norm = first = second = 0.0
    for b in branches:
        for q in branches:
            same = [b[s] == q[s] for s in range(k)]
            others = lambda *skip: all(same[s] for s in range(k) if s not in skip)
            norm += others()
            for s in range(k):
                if others(s):
                    first += B(b[s], q[s])
                    second += C(b[s], q[s])
                for r in range(k):
                    if r != s and others(s, r):
                        second += B(q[s], b[s]) * B(b[r], q[r])
    return 4.0 * (second / norm - (first / norm) ** 2)


def pair_branches(i: int, j: int) -> tuple:
    return ((i, j), (j, i))


def w3_branches(n1: int, n2: int) -> tuple:
    return ((n2, n1, n1), (n1, n2, n1), (n1, n1, n2))


# -- position likelihood -------------------------------------------------------

def log_density(state, a: float, x: np.ndarray) -> np.ndarray:
    """log |f(x; a)|^2 for a bump ('poly', p) or an eigenstate ('eigen', n)."""
    kind, k = state
    if kind == "poly":
        height_sq = (1.0 + 6.0 * k + 8.0 * k * k) / (8.0 * k * k)
        g = 1.0 - (2.0 * x / a - 1.0) ** (2 * k)
        with np.errstate(divide="ignore"):
            return np.log(height_sq * g * g / a)
    with np.errstate(divide="ignore"):
        return np.log(2.0 / a * np.sin(k * PI * x / a) ** 2)


def log_likelihood(state, a: float, x: np.ndarray) -> float:
    if a <= 0.0 or float(x.max()) > a:
        return -math.inf
    return float(np.sum(log_density(state, a, x)))


def check_likelihood_maximum(state, x: np.ndarray, estimate: float, width: float) -> None:
    """``estimate`` beats both neighbours 1e-6 * width away."""
    step = 1e-6 * width
    here = log_likelihood(state, estimate, x)
    require(math.isfinite(here), f"log-likelihood at the estimate {estimate!r} is {here}")
    for other in (estimate - step, estimate + step):
        there = log_likelihood(state, other, x)
        # summation rounding of ~M terms of order 10 stays below 1e-10
        require(there <= here + 1e-10, f"estimate {estimate!r} is not a likelihood maximum: "
                f"L={here!r} but L({other!r})={there!r}")


# -- CSV output ------------------------------------------------------------------

def check_csv(text: str, header: list[str], rows: list[list]) -> None:
    """CLI CSV equals ``rows`` at the 12 significant digits printed.

    A number in ``rows`` must lie within half a unit of the 12th significant
    digit of the printed cell, so a last digit off by one fails while a
    reference that moved in the 16th digit still rounds the same way.
    Strings must match exactly.
    """
    got = list(csv.reader(io.StringIO(text)))
    require(got[:1] == [header], f"header {got[:1]} != {header}")
    require(len(got) - 1 == len(rows), f"{len(got) - 1} rows, expected {len(rows)}")
    for line, (have, want) in enumerate(zip(got[1:], rows), start=2):
        require(len(have) == len(want), f"line {line}: {len(have)} fields, expected {len(want)}")
        for cell, ref in zip(have, want):
            if isinstance(ref, str):
                require(cell == ref, f"line {line}: {cell!r} != {ref!r}")
            elif ref == 0.0:
                require(float(cell) == 0.0, f"line {line}: {cell!r} != 0")
            else:
                half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 11)
                require(abs(float(cell) - ref) <= half_unit * (1.0 + 1e-6),
                        f"line {line}: {cell!r} is not {ref!r} to 12 digits")
