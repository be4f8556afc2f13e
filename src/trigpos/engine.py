"""Grid certification of trig-sum positivity, plus unit-disk spot checks.

The grid certificate is the workhorse for "positive on [a, b]" claims about
finite trigonometric sums: with L an upper bound for the sum's derivative
(sum of |coefficient| * frequency, computed exactly from the term data) and
m the minimum over a grid of step h, the sum exceeds m - L*h/2 between grid
points.  A chunk is certified once m - L*h/2 - eval_err > 0, where eval_err
adds two terms.  The coefficient term, the enclosure half-widths, is exact;
it also covers the outward rounding of interval coefficients.  The float64
term, sum |c| * 1e-12, is an estimate, not a proven bound: it assumes numpy's
sin/cos are accurate to a few ulp and that the `linspace` nodes are equally
spaced up to rounding.
Chunks that fail are re-gridded at the step the observed minimum calls for,
or split; a grid point whose value is decisively negative is re-evaluated
in high precision and, if confirmed, becomes a refutation witness.  The
three outcomes (certified / refuted / inconclusive) are explicit - running
out of budget never silently certifies.

Near theta = 0 a pure sine sum with nonnegative coefficients admits a
termwise wedge bound: sin(x) >= x - x^3/6 on [0, sqrt(6)], so the sum
dominates A*theta - B*theta^3/6 (A, B exact rationals built from the
coefficient enclosures' conservative ends).  That cubic is concave on the
admissible range, so positivity at the two endpoints certifies the whole
leading subinterval without any grid.

The disk checks sample partial sums s_n(z) = sum (mu)_k/k! z^k on circles
|z| = r < 1 and compare the sector/half-plane conditions against their
thresholds; the rho = 2/3 variant cross-checks the boundary factorization
Re((1-z)^(1/3) s_n(z)) = (2 sin phi)^(1/3) * (cosine-sum) at |z| = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from trigpos.exact import _as_fraction
from trigpos.precision import working_dps
from trigpos.trigsums import TrigSum, build_U_n

__all__ = [
    "GridCertificate",
    "certify_positive_trig",
    "partial_sum",
    "closed_form_full_sum",
    "DiskSample",
    "SectorReport",
    "WeakFormReport",
    "subordination_sector_check",
    "weak_conjecture_check",
]

_SQRT6 = Fraction(24494897427831780981972840747, 10**28)  # < sqrt(6)
_INITIAL_POINTS = 4097  # first grid on every chunk
_MAX_TOTAL_POINTS = 50_000_000  # evaluation budget before "inconclusive"


@dataclass(frozen=True)
class GridCertificate:
    """Outcome of certify_positive_trig.

    h is the coarsest step used on any certified chunk; min_value the
    smallest grid value seen; witness (refuted only) a point where the sum
    is provably negative.  status "certified" guarantees positivity on the
    whole closed interval under the assumptions of eval_err, whose float64
    part (sum |c| * 1e-12) is an estimate: numpy sin/cos within a few ulp
    and grid nodes equally spaced up to rounding; "inconclusive" guarantees
    nothing.
    """

    label: str
    interval: tuple[float, float]
    h: float
    lipschitz: float
    min_value: float
    eval_err: float
    status: str
    witness: float | None = None
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _term_arrays(tsum: TrigSum):
    coeffs = np.array([float(t.coeff.mid) for t in tsum.terms])
    freqs = np.array([float(t.freq) for t in tsum.terms])
    phases = np.array([float(t.phase_pi) * math.pi for t in tsum.terms])
    is_sin = np.array([t.kind == "sin" for t in tsum.terms])
    return coeffs, freqs, phases, is_sin


def _grid_eval(theta, coeffs, freqs, phases, is_sin):
    acc = np.zeros_like(theta)
    for c, f, p, s in zip(coeffs, freqs, phases, is_sin):
        arg = f * theta + p
        acc += c * (np.sin(arg) if s else np.cos(arg))
    return acc


def _wedge_prefix(tsum: TrigSum, a: Fraction, b: Fraction):
    """Try to certify a leading subinterval [a, c] termwise.

    Only valid for pure sine sums with nonnegative coefficient enclosures
    and zero phases.  Returns the certified cutoff c (a Fraction) or None.
    """
    if not tsum.terms:
        return None
    for t in tsum.terms:
        if t.kind != "sin" or t.phase_pi != 0 or t.coeff.lo < 0:
            return None
    f_max = max(t.freq for t in tsum.terms)
    if f_max == 0:
        return None
    limit = _SQRT6 / f_max
    if a >= limit:
        return None
    c = min(b, limit * Fraction(99, 100))
    # sin(x) >= x - x^3/6 on [0, sqrt(6)]; lower coefficient ends on the
    # linear part, upper ends on the cubic part, keep everything rational
    big_a = sum(t.coeff.lo * t.freq for t in tsum.terms)
    big_b = sum(t.coeff.hi * t.freq**3 for t in tsum.terms)
    lower = lambda x: big_a * x - big_b * x**3 / 6  # noqa: E731
    if lower(a) > 0 and lower(c) > 0:  # concave => positive on [a, c]
        return c
    return None


def certify_positive_trig(tsum: TrigSum, interval, label: str | None = None) -> GridCertificate:
    """Certify (or refute) positivity of tsum on the closed interval.

    interval endpoints may be floats, Fractions, or strings; they are
    handled as exact rationals for the wedge pass and as floats for the
    grids.
    """
    a = _as_fraction(interval[0])
    b = _as_fraction(interval[1])
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    label = label or tsum.label or "trig-sum"

    lip = float(tsum.lipschitz()) * (1 + 1e-9)
    coeffs, freqs, phases, is_sin = _term_arrays(tsum)
    # float64 noise estimate: ~1ulp per trig call, inflated by four orders
    # for slack, plus the enclosure half-widths carried by the coefficients
    coeff_err = float(tsum.coeff_err())
    eval_err = float(np.sum(np.abs(coeffs))) * 1e-12 + coeff_err

    detail = ""
    grid_start = a
    cutoff = _wedge_prefix(tsum, a, b)
    if cutoff is not None:
        detail = f"wedge bound certified [{float(a):.6g}, {float(cutoff):.6g}]"
        if cutoff >= b:
            return GridCertificate(
                label, (float(a), float(b)), 0.0, lip, math.inf,
                eval_err, "certified", None, detail,
            )
        grid_start = cutoff

    stack = [(float(grid_start), float(b))]
    total = 0
    min_seen = math.inf
    h_max = 0.0
    while stack:
        lo, hi = stack.pop()
        span = hi - lo
        n = _INITIAL_POINTS
        while True:
            if total + n > _MAX_TOTAL_POINTS:
                return GridCertificate(
                    label, (float(a), float(b)), h_max, lip, min_seen,
                    eval_err, "inconclusive", None,
                    detail + f" point budget exhausted on [{lo:.6g}, {hi:.6g}]",
                )
            theta = np.linspace(lo, hi, n)
            vals = _grid_eval(theta, coeffs, freqs, phases, is_sin)
            total += n
            idx = int(np.argmin(vals))
            m = float(vals[idx])
            min_seen = min(min_seen, m)
            h = span / (n - 1)
            if m - lip * h / 2 - eval_err > 0:
                h_max = max(h_max, h)
                break
            if m < -4 * eval_err:
                # decisively negative on the float grid: confirm at high
                # precision before declaring a refutation
                with mp.workdps(working_dps() + 10):
                    precise = tsum.eval_mp(mp.mpf(theta[idx]))
                    cutoff = mp.mpf(coeff_err) * (1 + mp.mpf("1e-9"))
                    if precise < -cutoff:
                        return GridCertificate(
                            label, (float(a), float(b)), h_max, lip,
                            min(min_seen, float(precise)), eval_err,
                            "refuted", float(theta[idx]),
                            detail + f" value {float(precise):.3e} at witness",
                        )
            if m - eval_err <= 0:
                if span < 1e-9:
                    return GridCertificate(
                        label, (float(a), float(b)), h_max, lip, min_seen,
                        eval_err, "inconclusive", None,
                        detail + f" cannot separate from zero near {lo:.9g}",
                    )
                mid = (lo + hi) / 2
                stack.append((lo, mid))
                stack.append((mid, hi))
                break
            needed = int(span * lip / (2 * (m - eval_err)) * 1.2) + 2
            if needed > 1 << 22:
                mid = (lo + hi) / 2
                stack.append((lo, mid))
                stack.append((mid, hi))
                break
            n = max(needed, n + 1)
    return GridCertificate(
        label, (float(a), float(b)), h_max, lip, min_seen, eval_err,
        "certified", None, detail.strip(),
    )


# ---------------------------------------------------------------------------
# Unit-disk partial sums
# ---------------------------------------------------------------------------


def partial_sum(mu, n: int, z):
    """s_n(z) = sum_{k=0}^n (mu)_k / k! * z^k by forward recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mu = mp.mpf(mu)
    z = mp.mpc(z)
    coeff = mp.mpf(1)
    total = mp.mpc(1)
    power = mp.mpc(1)
    for k in range(n):
        coeff = coeff * (mu + k) / (k + 1)
        power = power * z
        total += coeff * power
    return total


def closed_form_full_sum(mu, z):
    """(1 - z)^(-mu), principal branch: the n -> infinity limit of s_n."""
    return mp.power(1 - mp.mpc(z), -mp.mpf(mu))


@dataclass(frozen=True)
class DiskSample:
    n: int
    r: float
    theta: float
    value: complex
    arg: float


@dataclass(frozen=True)
class SectorReport:
    rho: float
    mu: float
    n_max: int
    r_values: tuple[float, ...]
    threshold: float
    max_abs_arg: float
    worst: DiskSample
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_abs_arg < self.threshold


@dataclass(frozen=True)
class WeakFormReport:
    rho: float
    mu: float
    n_max: int
    r_values: tuple[float, ...]
    min_real: float
    worst: DiskSample
    samples: int
    boundary_max_diff: float | None = None

    @property
    def passed(self) -> bool:
        return self.min_real > 0


def _coeff_table(mu: float, n_max: int) -> np.ndarray:
    c = np.empty(n_max + 1)
    c[0] = 1.0
    for k in range(n_max):
        c[k + 1] = c[k] * (mu + k) / (k + 1)
    return c


def _disk_scan(power_exponent: float, mu: float, n_max: int, r_values, n_theta: int):
    """Yields (n, r, theta array, w values) where w = (1-z)^e * s_n(z)."""
    thetas = np.linspace(1e-4, math.pi, n_theta)
    coeffs = _coeff_table(mu, n_max)
    for r in r_values:
        z = r * np.exp(1j * thetas)
        pref = np.power(1 - z, power_exponent)
        term = np.ones_like(z)
        s = np.ones_like(z)
        for n in range(1, n_max + 1):
            term = term * z
            s = s + coeffs[n] * term
            yield n, r, thetas, pref * s


def subordination_sector_check(
    rho, mu, n_max: int = 30, r_values=(0.999, 1 - 1e-6), n_theta: int = 720
) -> SectorReport:
    """max |arg((1-z)^rho s_n(z))| over n <= n_max and sample circles.

    Passing threshold is rho*pi.  Conjugation symmetry makes the upper
    half-circle sufficient.
    """
    rho_f = float(rho)
    mu_f = float(mu)
    threshold = rho_f * math.pi
    max_arg = -1.0
    worst = None
    samples = 0
    for n, r, thetas, w in _disk_scan(rho_f, mu_f, n_max, r_values, n_theta):
        args = np.abs(np.angle(w))
        samples += len(thetas)
        idx = int(np.argmax(args))
        if args[idx] > max_arg:
            max_arg = float(args[idx])
            worst = DiskSample(n, float(r), float(thetas[idx]),
                               complex(w[idx]), float(args[idx]))
    return SectorReport(rho_f, mu_f, n_max, tuple(float(r) for r in r_values),
                        threshold, max_arg, worst, samples)


def weak_conjecture_check(
    rho, mu, n_max: int = 30, r_values=(1 - 1e-3, 1 - 1e-6), n_theta: int = 720
) -> WeakFormReport:
    """min Re((1-z)^(2 rho - 1) s_n(z)) over n <= n_max and sample circles.

    For rho = 2/3 the boundary values factor through a cosine sum:
    Re((1-z)^(1/3) s_n(z)) at z = e^(2 i phi) equals
    (2 sin phi)^(1/3) * sum_k d_k cos((2k + 1/3) phi - pi/6); the report
    carries the maximum discrepancy of that identity over a sample grid for
    n <= 10 as an independent consistency figure.
    """
    rho_f = float(rho)
    mu_f = float(mu)
    exponent = 2 * rho_f - 1
    min_re = math.inf
    worst = None
    samples = 0
    for n, r, thetas, w in _disk_scan(exponent, mu_f, n_max, r_values, n_theta):
        res = w.real
        samples += len(thetas)
        idx = int(np.argmin(res))
        if res[idx] < min_re:
            min_re = float(res[idx])
            worst = DiskSample(n, float(r), float(thetas[idx]),
                               complex(w[idx]), float(np.angle(w[idx])))

    boundary_diff = None
    if _as_fraction(rho) == Fraction(2, 3):
        boundary_diff = 0.0
        with mp.workdps(working_dps()):
            for n in range(1, min(n_max, 10) + 1):
                cos_sum = build_U_n(n, mp.mpf(mu_f))
                for j in range(1, 24):
                    phi = mp.pi * j / 25
                    z = mp.expjpi(2 * mp.mpf(j) / 25)
                    lhs = mp.re(
                        mp.power(1 - z, mp.mpf(1) / 3) * partial_sum(mu_f, n, z)
                    )
                    rhs = (2 * mp.sin(phi)) ** (mp.mpf(1) / 3) * cos_sum.eval_mp(phi)
                    boundary_diff = max(boundary_diff, float(abs(lhs - rhs)))
    return WeakFormReport(rho_f, mu_f, n_max, tuple(float(r) for r in r_values),
                          min_re, worst, samples, boundary_diff)
