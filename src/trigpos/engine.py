"""Grid certification of trig-sum positivity.

The grid takes a TrigSum, sum_k c_k sin((alpha + 2k) theta + beta pi), as
the cosines Re sum_k c_k P_k with P_k = exp(i((alpha + 2k) theta +
(beta - 1/2) pi)).  The grid pass takes P_0 from one seed array and
P_k = P_{k-1} s from one more, exp(2 i theta), so it makes no trig call per
term; it accumulates the partial sums S_n in place and records each one's
grid minimum m_n, so one pass over one grid decides every prefix n.

Certificate.  |S_n''| <= M2_n = sum_{k<=n} max|c_k| f_k^2, and on a cell
of width h a C^2 function lies above its linear interpolant minus
M2 h^2/8; so S_n > 0 on [a, b] once m_n - M2_n h^2/8 - err_n > 0, where
err_n bounds |float value - S_n| at every node for every coefficient in the
enclosures.  err_n adds the coefficient half-widths, the rounding of the
midpoints to float64 and a standard-model bound (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., ch. 3), u = 2^-53: a seed is
off by 8u plus its argument's rounding, a complex product adds
sqrt(2) gamma_2 (Lemma 3.5), so 1 + E_k = (1 + E_{k-1})(1 + e_seed)
(1 + sqrt(2) gamma_2) bounds P_k's relative error; c_k Re P_k adds u, and
term k passes n - k + 1 additions, gamma_{n-k+1}.  The half-widths and the
rounding add per-term upper bounds, each the least float above its exact
value, memoised on the term (TrigTerm.float_bounds); M2_n adds cmax f f, one
float64 vector of the memoised bound cmax on max|c_k| and f = float(alpha)
+ 2k, whose conversion, addition and two products round once each, so each
of its terms is at least (1 - u)^6 times an upper bound.  Every float64 sum
is multiplied by 1 + 1e-9, which covers that 6u and the sum's own rounding,
n u < 1.2e-10 below 10^6 terms.  These bounds need float64's normal range:
err_n is infinite, and S_n undecided, unless every nonzero midpoint and
bound max|c_k| is at least 2^-969 = 2^-1022/u and every positive curvature
weight at least 2^-1022; then err_n >= 2^-1022 (or all c_k are 0), so the
factor 1 + 8u on M2_n h^2/8 + err_n covers a subnormal M2_n h^2/8.  The one
assumption, numpy's sin and cos of the seed arguments within 4 ulp of the
true values (SVML builds are), covers certification only.

The grid starts at 1,025 nodes and doubles, keeping the old nodes and
evaluating the new ones in fixed-size chunks, until every n is decided.  A
node value below -4 err_n is a refutation witness once a fixed-point bound
proves S_n negative there, for every coefficient in the enclosures: the
same recurrence on integers scaled by 2^p (p = working precision + 40 bits)
from seeds enclosed by mpmath.iv, with an integer error bound carried per
term and each term's coefficient endpoint chosen to maximise c_k Re P_k
(Brent and Zimmermann, Modern Computer Arithmetic, 4.4).  It rests on no
float assumption and no slack.  m_n - err_n <= 0 without a witness, or the
node budget, ends "inconclusive".

A "certified" or "refuted" status is proven; "inconclusive" claims
nothing.  The sampled unit-disk estimates live in trigpos.gegenbauer, and
neither module imports the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import iv
from mpmath.libmp import dps_to_prec

from trigpos.exact import _as_fraction
from trigpos.precision import _iv_ends, workdps, working_dps
from trigpos.trigsums import _MAX_TERMS, TrigSum, _up

__all__ = [
    "GridCertificate",
    "certify_positive_trig",
    "certify_partial_sums",
]

_U = 2.0**-53  # float64 unit roundoff
_SEED_ERR = 8 * _U  # cos and sin within 4 ulp, so |computed - exact| <= 8u
_MUL_ERR = math.sqrt(2) * 2 * _U / (1 - 2 * _U)  # complex product, Higham 3.5
_SLACK = 1 + 1e-9  # M2's 6u per term and the bounds' own float sums, below _MAX_TERMS terms
_TINY = 2.0**-969  # 2^-1022 / u: the least nonzero |c| whose error terms u |c| are normal
_INITIAL_NODES = 1025
_MAX_NODES = (1 << 20) + 1  # node budget before "inconclusive"
_CHUNK = 1 << 14  # nodes per evaluation chunk


@dataclass(frozen=True)
class GridCertificate:
    """Outcome of certifying one sum on [a, b]: nodes is the size of the
    deciding grid, h a bound on its cells, curvature M2 >= |S''|, min_value
    the smallest node value, eval_err the proven bound on |float node
    value - S| if numpy sin/cos are within 4 ulp.  "certified" guarantees
    positivity on the closed interval, as margin = min_value - M2 h^2/8 -
    eval_err > 0, under that assumption; witness (refuted only) is a point
    where the fixed-point bound proves the sum negative, with no float
    assumption; "inconclusive" guarantees nothing."""

    nodes: int
    h: float
    curvature: float
    min_value: float
    eval_err: float
    status: str
    witness: float | None = None
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def margin(self) -> float:
        return self.min_value - self.curvature * self.h**2 / 8 - self.eval_err


class _Prefixes:
    """The terms of one TrigSum, in partial-sum order, with M2_n, err_n and
    float_err (the float64 part of err_n) for every n."""

    def __init__(self, tsum, interval):
        self.a, self.b = _as_fraction(interval[0]), _as_fraction(interval[1])
        if not self.a < self.b:
            raise ValueError("interval must satisfy a < b")
        terms = tsum.terms
        if not terms:
            raise ValueError("empty trig sum")
        if len(terms) >= _MAX_TERMS:
            raise ValueError(f"the float64 bounds hold below {_MAX_TERMS} terms")
        self.terms = terms
        self.passes = {}  # (theta, p) -> (bounds of S_0, S_1, ... so far, their pass)
        self.lo, self.hi = -_up(-self.a), _up(self.b)  # floats around [a, b]
        self.theta_max = max(abs(self.lo), abs(self.hi))
        # per term: the float midpoint and upper bounds on max|c_k|, the
        # half-width and |float midpoint - midpoint| (TrigTerm.float_bounds)
        self.coeffs, cmax, half, rounding = np.array([t.float_bounds for t in terms]).T
        f = float(tsum.alpha) + 2 * np.arange(len(terms))  # f_k, within 2u
        # P_0's (frequency, phase of the cosine) and each step's
        first = (tsum.alpha, tsum.beta - Fraction(1, 2))
        self.seeds = (first, (2, 0))
        e, es = map(self._seed_err, self.seeds)
        grow = es + _MUL_ERR + es * _MUL_ERR
        rel = np.empty(len(terms))  # E_k, relative error of P_k
        for k in range(len(terms)):
            rel[k], e = e, e + (1 + e) * grow
        c = np.abs(self.coeffs)
        adds = _U / (1 - np.arange(1, len(c) + 1) * _U)
        fp = np.cumsum(np.cumsum(c * (1 + rel) * (1 + _U))) * adds \
            + np.cumsum(c * (rel + _U * (1 + rel)))
        # float sums of nonnegative upper bounds (M2's within 6u), under _SLACK
        self.m2, half, rounding = (np.cumsum(x) * _SLACK for x in (cmax * f * f, half, rounding))
        self.float_err = (fp + rounding) * _SLACK
        self.err = (self.float_err + half) * _SLACK
        # err_n is unbounded from the first term outside float64's normal range on
        small = (0 < c) & (c < _TINY) | (0 < cmax) & (cmax < _TINY)
        small[0] |= bool(tsum.alpha and cmax[0] and cmax[0] * f[0] * f[0] < _TINY * _U)
        self.err[np.logical_or.accumulate(small)] = np.inf

    def values(self, theta, n_hi: int):
        """Yield (k, float S_k at theta) for k = 0..n_hi; S_k is overwritten."""
        p, s = np.empty((2, len(theta)), complex)  # P_0 and the step
        for (f, phase), out in zip(self.seeds, (p, s)):
            x = float(f) * theta + float(phase) * math.pi
            out.real, out.imag = np.cos(x), np.sin(x)
        acc = np.zeros(len(theta))
        for k in range(n_hi + 1):
            if k:
                np.multiply(p, s, out=p)
            acc += self.coeffs[k] * p.real
            yield k, acc

    def _seed_err(self, seed) -> float:
        """Relative error bound of a float seed (f, phase): 8u and its argument's rounding."""
        g, d = float(seed[0]), float(seed[1]) * math.pi
        return _SEED_ERR + _up(abs(Fraction(g) - seed[0])) * self.theta_max \
            + 2.01 * _U * abs(g) * self.theta_max + 5 * _U * abs(d)

    def certify(self, n_min: int) -> list[GridCertificate]:
        """Certificates for the prefixes n_min..len(terms)-1, on one grid."""
        last = len(self.terms) - 1
        todo = set(range(n_min, last + 1))
        mins, where, done = np.full(last + 1, np.inf), np.zeros(last + 1), {}
        nodes, first, stride = _INITIAL_NODES, 0, 1
        while todo:
            step = _up((Fraction(self.hi) - Fraction(self.lo)) / (nodes - 1))
            h = (step + 8 * _U * self.theta_max) * _SLACK  # bounds every cell
            count = (nodes - first + stride - 1) // stride
            for start in range(0, count, _CHUNK):
                j = first + stride * np.arange(start, min(count, start + _CHUNK), dtype=float)
                theta = self.lo + j * step
                theta[j == nodes - 1] = self.hi
                for k, acc in self.values(theta, max(todo)):
                    if k in todo:
                        i = int(np.argmin(acc))
                        if acc[i] < mins[k]:
                            mins[k], where[k] = acc[i], theta[i]
            for n in sorted(todo):
                status, m, witness, detail = self._decide(
                    n, nodes, mins[n], float(where[n]), h, 2 * nodes - 1 > _MAX_NODES)
                if status:
                    done[n] = GridCertificate(nodes, h, float(self.m2[n]), m,
                                              float(self.err[n]), status, witness, detail)
                    todo.discard(n)
            nodes, first, stride = 2 * nodes - 1, 1, 2
        return [done[n] for n in range(n_min, last + 1)]

    def _decide(self, n, nodes, m, theta, h, final):
        """(status, min value, witness, detail); status None means refine."""
        err = self.err[n]
        if not (math.isfinite(m) and err < math.inf):  # err is infinite outside the normal range
            return "inconclusive", m, None, "non-finite grid values" if err < math.inf \
                else "coefficient bounds outside float64's normal range"
        if m > (self.m2[n] * h * h / 8 + err) * (1 + 8 * _U):
            return "certified", m, None, f"curvature bound on {nodes} nodes"
        if m - err > 0:
            return ("inconclusive", m, None, f"node budget exhausted at {nodes} nodes") \
                if final else (None, m, None, "")
        witness = min(max(theta, _up(self.a)), -_up(-self.b))  # a float in [a, b]
        if m < -4 * err and self.a <= Fraction(witness) <= self.b:
            # decisively negative on the float grid: prove it in fixed point
            bound, p = self.upper_bound(n, witness)
            if bound < 0:
                value = bound / (1 << p)
                return "refuted", min(m, value), witness, f"value {value:.3e} at witness"
        return "inconclusive", m, None, \
            f"grid minimum {m:.3e} at theta={theta:.9g}, eval_err {err:.3e}: no refutation"

    def upper_bound(self, n: int, theta: float) -> tuple[int, int]:
        """(B, p) with B 2^-p >= S_n(theta) for every coefficient in the
        enclosures: term k adds the ceiling of max(lo_k X_k, hi_k X_k) +
        max|c_k| E_k, with X_k and E_k from fixed_point: one pass per theta,
        kept and extended as far as the largest n asked for there."""
        p = dps_to_prec(working_dps()) + 40
        bounds, pass_ = self.passes.setdefault((theta, p), ([], self._running_bounds(theta, p)))
        while len(bounds) <= n:
            bounds.append(next(pass_))
        return bounds[n], p

    def _running_bounds(self, theta: float, p: int):
        """Yield the upper_bound B_k of S_k at theta, k = 0, 1, ..."""
        total = 0
        for t, (x, e) in zip(self.terms, self.fixed_point(theta, len(self.terms) - 1, p)):
            c, big = t.coeff.hi if x > 0 else t.coeff.lo, max(-t.coeff.lo, t.coeff.hi)
            total -= (-c.numerator * x) // c.denominator + (-big.numerator * e) // big.denominator
            yield total

    def fixed_point(self, theta: float, n: int, p: int):
        """Yield (X_k, E_k), k = 0..n, integers with |X_k - 2^p Re P_k(theta)|
        <= E_k: the grid's recurrence on integers scaled by 2^p.  A seed is
        within r of 2^p s (_seed_box); a product floors both parts (error
        below 2) and scales the earlier error by |seed| <= 2^p + r, so
        E_k = E_(k-1) + ceil(E_(k-1) r 2^-p) + r + 2."""
        first, step = (self._seed_box(seed, theta, p) for seed in self.seeds)
        x, y, e = 1 << p, 0, 0
        for c, s, r in [first] + [step] * n:
            x, y = (x * c - y * s) >> p, (x * s + y * c) >> p
            e += (e * r >> p) + r + 3
            yield x, e

    @staticmethod
    def _seed_box(seed, theta: float, p: int) -> tuple[int, int, int]:
        """(C, S, r) with |C + iS - 2^p exp(i(f theta + phase pi))| <= r for
        the seed (f, phase): one iv.cos_sin finer than 2^-p, its endpoints
        read exactly and rounded outward to integers."""
        f, phase = seed
        with workdps():
            arg = iv.mpf(theta) * f.numerator / f.denominator \
                + iv.pi * phase.numerator / phase.denominator
            ends = [[_as_fraction(end) * 2**p for end in _iv_ends(v)] for v in iv.cos_sin(arg)]
        (cl, ch), (sl, sh) = ((math.floor(lo), math.ceil(hi)) for lo, hi in ends)
        c, s = (cl + ch) >> 1, (sl + sh) >> 1
        return c, s, ch - c + sh - s


def certify_positive_trig(tsum: TrigSum, interval) -> GridCertificate:
    """Certify (or refute) positivity of tsum on the closed interval, whose
    ends (floats, Fractions or strings) are read exactly."""
    return _Prefixes(tsum, interval).certify(len(tsum.terms) - 1)[0]


def certify_partial_sums(tsum: TrigSum, interval) -> list[GridCertificate]:
    """Certificates for every partial sum tsum.terms[:n + 1], from one pass
    over one grid; each equals certify_positive_trig on its prefix."""
    return _Prefixes(tsum, interval).certify(0)
