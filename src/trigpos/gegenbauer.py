"""Sampled unit-disk estimates, none of them a proof.

The proofs are the grid certificates of trigpos.engine, and neither module
imports the other.  Every check here looks at finitely many points:

* (1-z)^rho s_n(z), s_n(z) = sum_{k<=n} (mu)_k/k! z^k, in the sector
  |arg w| < rho pi/2 that ((1+z)/(1-z))^rho maps the disk onto, and
  Re (1-z)^(2 rho - 1) s_n(z) > 0, on circles |z| = r < 1; for rho = 2/3
  also the boundary factorization of Re((1-z)^(1/3) s_n(z)) at |z| = 1;
* |arg sum_{k<=n} C_k^lambda(x) z^k| < pi/3 for 0 < lambda <= 0.2483...,
  x in (-1, 1), z in the disk, and that these sums do not vanish there;
* the Gegenbauer recurrence against the generating function
  (1 - 2xz + z^2)^(-lambda), with an explicit tail bound;
* C_k^1 = Chebyshev-U_k, exactly in rational arithmetic.

The three disk scans sample fixed grids, module constants and not settings
(the sector and weak-form scans 2 circles x 720 angles, the argument-bound
scan 10 x, 3 circles and 240 angles), through one circle scan (_circle_sums)
and one search for the worst sample (_worst), where a NaN is the worst.  The
Gegenbauer recurrence and trigsums._ratios, the one (a)_k / k! recurrence,
run in the arithmetic of their inputs (Fraction stays Fraction, mpf stays
mpf), so exactness claims are tested without a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count, islice

import numpy as np
from mpmath import mp

from trigpos.exact import _as_fraction
from trigpos.precision import _as_mpf, working_dps
from trigpos.trigsums import _ratios, build_U_n

__all__ = [
    "partial_sum",
    "DiskSample",
    "SectorReport",
    "WeakFormReport",
    "subordination_sector_check",
    "weak_conjecture_check",
    "gegenbauer_C",
    "genfunc_check",
    "GenFuncReport",
    "ArgBoundReport",
    "arg_bound_check",
]

_DISK_R = (0.999, 1 - 1e-6)  # the sector and weak-form scans
_DISK_THETAS = np.linspace(1e-4, math.pi, 720)
_ARG_X = tuple(v / 10 for v in range(-9, 10, 2))  # the argument-bound scan
_ARG_R = (0.5, 0.9, 0.999)
_ARG_THETAS = np.linspace(1e-3, math.pi, 240)


def partial_sum(mu, n: int, z):
    """s_n(z) = sum_{k=0}^n (mu)_k / k! * z^k by forward recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    z = mp.mpc(_as_mpf(z.real), _as_mpf(z.imag))
    total, power = mp.mpc(0), mp.mpc(1)
    for coeff in islice(_ratios(_as_mpf(mu)), n + 1):
        total += coeff * power
        power *= z
    return total


@dataclass(frozen=True)
class DiskSample:
    n: int
    r: float
    theta: float
    value: complex
    arg: float


@dataclass(frozen=True)
class SectorReport:
    threshold: float
    max_abs_arg: float
    worst: DiskSample
    samples: int

    @property
    def passed(self) -> bool:
        """max_abs_arg below threshold: a sampled estimate, not a proof."""
        return self.max_abs_arg < self.threshold


@dataclass(frozen=True)
class WeakFormReport:
    min_real: float
    worst: DiskSample
    samples: int
    boundary_max_diff: float | None = None

    @property
    def passed(self) -> bool:
        """min_real above 0: a sampled estimate, not a proof."""
        return self.min_real > 0


def _circle_sums(coeffs, exponent, r_values, thetas):
    """Yield (n, r, w) for n = 1..len(coeffs) - 1 and r in r_values, with w =
    (1 - z)^exponent s_n(z) at z = r e^(i thetas), s_n(z) = sum_{k<=n}
    coeffs[k] z^k; coeffs[k] may be an array that broadcasts against thetas.
    ValueError when the scan would take no samples: no n >= 1."""
    if len(coeffs) < 2:
        raise ValueError("the disk scan takes no samples")
    for r in r_values:
        z = r * np.exp(1j * thetas)
        pref = np.power(1 - z, exponent)
        s, zk = 0, 1
        for n, c in enumerate(coeffs):
            s = s + c * zk
            zk = zk * z
            if n:
                yield n, r, pref * s


def _worst(coeffs, exponent, r_values, thetas, score):
    """([the worst DiskSample of each coeffs row], samples, least |w| or a NaN)
    over _circle_sums: the first sample in (r, n, theta) order with the largest
    score, a NaN beating every number; that score becomes the sample's arg."""
    worst, samples, least = None, 0, math.inf
    for n, r, w in _circle_sums(coeffs, exponent, r_values, thetas):
        w = w.reshape(-1, len(thetas))  # one row per coeffs row
        scores = score(w)
        worst = worst or [None] * len(w)
        samples += w.size
        least = np.minimum(least, np.abs(w).min())  # np.minimum keeps a NaN
        for i, j in enumerate(np.argmax(scores, axis=1)):  # the row's first NaN or largest
            old = worst[i]
            if old is None or not (math.isnan(old.arg) or scores[i, j] <= old.arg):
                worst[i] = DiskSample(n, float(r), float(thetas[j]), complex(w[i, j]),
                                      float(scores[i, j]))
    return worst, samples, float(least)


def subordination_sector_check(rho, mu, n_max: int = 30) -> SectorReport:
    """max |arg((1-z)^rho s_n(z))| over n <= n_max and the _DISK_R circles, to
    pass below rho*pi/2: a sampled estimate, not a proof.  Conjugation
    symmetry makes the upper half-circle sufficient."""
    rho_f, mu_f = float(rho), float(mu)
    (worst,), samples, _ = _worst(list(islice(_ratios(mu_f), n_max + 1)), rho_f, _DISK_R,
                                  _DISK_THETAS, lambda w: np.abs(np.angle(w)))
    return SectorReport(rho_f * math.pi / 2, worst.arg, worst, samples)


def weak_conjecture_check(rho, mu, n_max: int = 30) -> WeakFormReport:
    """min Re((1-z)^(2 rho - 1) s_n(z)) over n <= n_max and the _DISK_R
    circles: a sampled estimate, not a proof.

    For rho = 2/3 the boundary values factor through a cosine sum:
    Re((1-z)^(1/3) s_n(z)) at z = e^(2 i phi) equals
    (2 sin phi)^(1/3) * sum_k d_k cos((2k + 1/3) phi - pi/6); the report
    carries the maximum discrepancy of that identity over a sample grid for
    n <= 10 as an independent consistency figure.
    """
    rho_f, mu_f = float(rho), float(mu)
    (worst,), samples, _ = _worst(list(islice(_ratios(mu_f), n_max + 1)), 2 * rho_f - 1,
                                  _DISK_R, _DISK_THETAS, lambda w: -w.real)
    min_real = -worst.arg
    worst = replace(worst, arg=float(np.angle(worst.value)))  # the signed arg of w

    boundary_diff = None
    if _as_fraction(rho) == Fraction(2, 3):
        boundary_diff = 0.0
        with mp.workdps(working_dps()):
            for n in range(1, min(n_max, 10) + 1):
                cos_sum = build_U_n(n, mp.mpf(mu_f))
                for j in range(1, 24):
                    phi = mp.pi * j / 25
                    z = mp.expjpi(2 * mp.mpf(j) / 25)
                    lhs = mp.re(mp.power(1 - z, mp.mpf(1) / 3) * partial_sum(mu_f, n, z))
                    rhs = (2 * mp.sin(phi)) ** (mp.mpf(1) / 3) * cos_sum.eval_mp(phi)
                    boundary_diff = max(boundary_diff, float(abs(lhs - rhs)))
    return WeakFormReport(min_real, worst, samples, boundary_diff)


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
    return next(islice(_gegenbauer_terms(lam, x), n, None))


@dataclass(frozen=True)
class GenFuncReport:
    series: complex
    closed: complex
    tail_bound: float
    terms: int

    @property
    def diff(self) -> float:
        return abs(self.series - self.closed)


def genfunc_check(lam, x, z, tol: float = 1e-14) -> GenFuncReport:
    """Compare sum C_k^lambda(x) z^k against (1 - 2xz + z^2)^(-lambda).

    Requires a finite lam > 0, x in [-1, 1] and |z| < 1 strictly: then
    |C_k(x)| <= C_k(1) = (2 lam)_k / k!, whose term ratio tends to 1, so
    the tail past index k is dominated by a geometric series.  The series
    is truncated once that proven tail drops below tol.
    """
    with mp.workdps(working_dps() + 10):
        lam_mp, x_mp = _as_mpf(lam), _as_mpf(x)
        z_mp = mp.mpc(z)
        r = abs(z_mp)
        # each guard negates what it requires, so a NaN fails it
        if not r < 1:
            raise ValueError("|z| must be < 1")
        if not (mp.isfinite(lam_mp) and lam_mp > 0):
            raise ValueError("lam must be finite and positive")
        if not abs(x_mp) <= 1:
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
        return GenFuncReport(complex(total), complex(closed), float(tail), k + 1)


@dataclass(frozen=True)
class ArgBoundReport:
    threshold: float
    max_abs_arg: float
    min_abs_value: float
    samples: int
    worst: DiskSample
    worst_x: float

    @property
    def passed(self) -> bool:
        return self.max_abs_arg < self.threshold and self.min_abs_value > 0


def arg_bound_check(lam, n_max: int = 50) -> ArgBoundReport:
    """Sampled check of |arg sum_{k<=n} C_k^lambda(x) z^k| < pi/3 for a
    finite lam > 0 over x in _ARG_X and the _ARG_R circles: a sampled
    estimate, not a proof."""
    lam_f = float(lam)
    if not (math.isfinite(lam_f) and lam_f > 0):
        raise ValueError("lam must be finite and positive")
    # C_k^lambda(x), shaped (n_max + 1, len(_ARG_X), 1) against the circle
    coeffs = np.array([list(islice(_gegenbauer_terms(lam_f, x), n_max + 1))
                       for x in _ARG_X]).T[..., None]
    by_arg, samples, least = _worst(coeffs, 0, _ARG_R, _ARG_THETAS, lambda s: np.abs(np.angle(s)))
    # the first x with the largest |arg|, as in (x, r, n, theta) order; a NaN wins
    i = int(np.argmax([w.arg for w in by_arg]))
    return ArgBoundReport(math.pi / 3, by_arg[i].arg, least, samples, by_arg[i], _ARG_X[i])
