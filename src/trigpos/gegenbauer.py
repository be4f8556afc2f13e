"""Gegenbauer / Jacobi partial-sum spot checks.

Numerical companions to the disk checks in trigpos.engine: ultraspherical
coefficient families inherit the sector property of the power-series
partial sums, so the claims to verify are

* |arg sum_{k<=n} C_k^lambda(x) z^k| < pi/3 for 0 < lambda <= 0.2483...,
  x in (-1, 1), z in the unit disk (sampled);
* the same partial sums do not vanish on the sampled disk;
* consistency of the polynomial recurrence with the generating function
  (1 - 2xz + z^2)^(-lambda), with an explicit tail bound;
* C_k^1 = Chebyshev-U_k exactly (rational arithmetic).

Both polynomial evaluators use plain three-term recurrences over whatever
arithmetic the inputs carry (Fraction stays Fraction, mpf stays mpf), so
exactness claims can be tested without a tolerance.  Two Gegenbauer<->
Jacobi conversion formulas are implemented: relation_standard (the one
consistent with the recurrences) and relation_printed (a circulating
variant whose index bookkeeping is off by one half); check_jacobi_relation
evaluates both against the direct recurrence and reports which agrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import numpy as np
from mpmath import mp

from trigpos.engine import _circle_sums, _ratios
from trigpos.precision import working_dps

__all__ = [
    "gegenbauer_C",
    "jacobi_P",
    "relation_standard",
    "relation_printed",
    "RelationReport",
    "check_jacobi_relation",
    "genfunc_check",
    "GenFuncReport",
    "ArgBoundReport",
    "arg_bound_check",
]


def _nth(terms, n: int):
    return next(islice(terms, n, None))


def _gegenbauer_terms(lam, x):
    """Yield C_0^lambda(x), C_1^lambda(x), ... by the three-term recurrence,
    in the arithmetic of the inputs."""
    prev, cur = x - x + 1, 2 * lam * x  # one, in the arithmetic of x
    yield prev
    for k in count(2):
        yield cur
        prev, cur = cur, (2 * x * (k + lam - 1) * cur - (k + 2 * lam - 2) * prev) / k


def gegenbauer_C(n: int, lam, x):
    """C_n^lambda(x), term n of the three-term recurrence.

    Arithmetic follows the input types; pass Fractions for exact values.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _nth(_gegenbauer_terms(lam, x), n)


def jacobi_P(n: int, a, b, x):
    """P_n^(a,b)(x) by its own three-term recurrence (independent of
    gegenbauer_C, so the conversion formulas are genuine cross-checks)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    one = x - x + 1
    if n == 0:
        return one
    prev = one
    cur = (a + 1) * one + (a + b + 2) * (x - 1) / 2
    for k in range(2, n + 1):
        s = 2 * k + a + b
        c1 = 2 * k * (k + a + b) * (s - 2)
        c2 = (s - 1) * (a * a - b * b)
        c3 = (s - 1) * s * (s - 2)
        c4 = 2 * (k + a - 1) * (k + b - 1) * s
        prev, cur = cur, ((c2 + c3 * x) * cur - c4 * prev) / c1
    return cur


def relation_standard(n: int, lam, x):
    """C_n^lambda(x) = ((2 lam)_n / (lam + 1/2)_n) * P_n^(lam-1/2, lam-1/2)(x)."""
    half = Fraction(1, 2) if isinstance(lam, (int, Fraction)) else type(lam)(0.5)
    return _nth(_ratios(2 * lam), n) / _nth(_ratios(lam + half), n) * jacobi_P(
        n, lam - half, lam - half, x)


def relation_printed(n: int, lam, x):
    """((2 lam + 1)_n / n!) * P_n^(lam, lam)(x) / P_n^(lam, lam)(1).

    As written this reproduces C_n^(lam + 1/2), not C_n^lambda; it is kept
    so the discrepancy can be demonstrated rather than asserted.
    """
    num = jacobi_P(n, lam, lam, x)
    den = jacobi_P(n, lam, lam, x - x + 1)
    return _nth(_ratios(2 * lam + 1), n) * num / den


@dataclass(frozen=True)
class RelationReport:
    n: int
    lam: float
    x: float
    direct: float
    standard: float
    printed: float
    tol: float

    @property
    def standard_agrees(self) -> bool:
        return abs(self.direct - self.standard) <= self.tol * (1 + abs(self.direct))

    @property
    def printed_agrees(self) -> bool:
        return abs(self.direct - self.printed) <= self.tol * (1 + abs(self.direct))


def check_jacobi_relation(n: int, lam, x, tol: float = 1e-12) -> RelationReport:
    """Evaluate both conversion formulas against the direct recurrence."""
    with mp.workdps(working_dps()):
        lam_mp = mp.mpf(lam)
        x_mp = mp.mpf(x)
        direct = gegenbauer_C(n, lam_mp, x_mp)
        std = relation_standard(n, lam_mp, x_mp)
        printed = relation_printed(n, lam_mp, x_mp)
    return RelationReport(n, float(lam), float(x), float(direct), float(std),
                          float(printed), tol)


@dataclass(frozen=True)
class GenFuncReport:
    lam: float
    x: float
    z: complex
    series: complex
    closed: complex
    tail_bound: float
    terms: int

    @property
    def diff(self) -> float:
        return abs(self.series - self.closed)


def genfunc_check(lam, x, z, tol: float = 1e-14) -> GenFuncReport:
    """Compare sum C_k^lambda(x) z^k against (1 - 2xz + z^2)^(-lambda).

    Requires lam > 0, x in [-1, 1] and |z| < 1 strictly: then
    |C_k(x)| <= C_k(1) = (2 lam)_k / k!, whose term ratio tends to 1, so
    the tail past index k is dominated by a geometric series.  The series
    is truncated once that proven tail drops below tol.
    """
    with mp.workdps(working_dps() + 10):
        lam_mp = mp.mpf(lam)
        x_mp = mp.mpf(x)
        z_mp = mp.mpc(z)
        r = abs(z_mp)
        if r >= 1:
            raise ValueError("|z| must be < 1")
        if lam_mp <= 0:
            raise ValueError("lam must be positive")
        if abs(x_mp) > 1:
            raise ValueError("x must lie in [-1, 1]")
        closed = mp.power(1 - 2 * x_mp * z_mp + z_mp * z_mp, -lam_mp)
        total, zk, tail = mp.mpc(0), mp.mpc(1), mp.inf
        # C_k, and the majorant C_{k+1}(1) = (2 lam)_{k+1} / (k+1)!
        for k, c_k, coeff_one_next in zip(range(5000), _gegenbauer_terms(lam_mp, x_mp),
                                          islice(_ratios(2 * lam_mp), 1, None)):
            total += c_k * zk
            # ratio of consecutive majorant terms is r*(2lam+j)/(j+1),
            # decreasing in j; bound the tail geometrically once it is < 1
            ratio = r * (2 * lam_mp + k + 1) / (k + 2) if 2 * lam_mp > 1 else r
            if ratio < 1:
                tail = coeff_one_next * r ** (k + 1) / (1 - ratio)
                if tail < tol:
                    break
            zk *= z_mp
        return GenFuncReport(float(lam), float(x), complex(z_mp), complex(total),
                             complex(closed), float(tail), k + 1)


@dataclass(frozen=True)
class ArgBoundReport:
    lam: float
    n_max: int
    threshold: float
    max_abs_arg: float
    min_abs_value: float
    samples: int
    worst_n: int
    worst_x: float
    worst_z: complex

    @property
    def passed(self) -> bool:
        return self.max_abs_arg < self.threshold


def arg_bound_check(
    lam,
    n_max: int = 50,
    x_values=tuple(v / 10 for v in range(-9, 10, 2)),
    r_values=(0.5, 0.9, 0.999),
    n_theta: int = 240,
) -> ArgBoundReport:
    """Sampled check of |arg sum_{k<=n} C_k^lambda(x) z^k| < pi/3 for a
    finite lam > 0: a sampled estimate, not a proof."""
    lam_f = float(lam)
    if not (math.isfinite(lam_f) and lam_f > 0):
        raise ValueError("lam must be finite and positive")
    thetas = np.linspace(1e-3, math.pi, n_theta)
    # C_k^lambda(x), shaped (n_max + 1, len(x_values), 1) against the circle
    coeffs = np.array([list(islice(_gegenbauer_terms(lam_f, x), n_max + 1))
                       for x in x_values]).T[..., None]
    top, at = np.full(len(x_values), -1.0), [(0, 0.0, 0)] * len(x_values)
    min_abs, samples = math.inf, 0
    for n, r, s in _circle_sums(coeffs, 0, r_values, thetas):
        args = np.abs(np.angle(s))
        samples += s.size
        min_abs = min(min_abs, float(np.abs(s).min()))
        for i, j in enumerate(np.argmax(args, axis=1)):  # per x, its first largest
            if args[i, j] > top[i]:
                top[i], at[i] = args[i, j], (n, r, j)
    i = int(np.argmax(top))  # the first x with the largest, as in (x, r, n, theta) order
    n, r, j = at[i]
    return ArgBoundReport(lam_f, n_max, math.pi / 3, float(top[i]), min_abs, samples,
                          n, x_values[i], complex(r * np.exp(1j * thetas[j])))
