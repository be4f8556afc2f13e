"""The trigonometric sums under study and the case polynomials of the proofs.

A `TrigSum` is a sine progression  sum_k  c_k sin((alpha + 2k) theta + beta pi)
with rational alpha >= 0 and beta and coefficients kept as rational
enclosures: U_n at (alpha, beta) = (1/3, 1/3) and varsigma_n at (rho, 0).
The case polynomials that the Sturm root counts take
are written directly as Chebyshev sums in x = cos t: a sum of c_m cos(m t)
is  sum c_m T_m(x)  and a sum of c_m sin(m t) is  sin t * sum c_m U_(m-1)(x)
(cos mt = T_m(cos t), sin(mt) = sin t * U_(m-1)(cos t)), with exact (or
enclosure) coefficients read off the terms of the sum each case reduces
(build_U_n for P, Q and R, build_varsigma for q_n).

build_U_n and build_varsigma share one growing term list per (mu,
precision), the (mu)_k / k! table (integers over 2^b for interval mu) that
resumes the recurrence where it stopped; each term memoises the constants
of its coefficient alone, so sums that share a mu, at any alpha, share them.
_ratios, the one (a)_k / k! recurrence, runs in Fraction here, in float or mpf in gegenbauer.

sturm_case_plan owns every Sturm obligation of the proofs: its name
(STURM_NAMES), interval, one anchor point and, where a proof may not gate
on that anchor, the reason why.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from mpmath import iv, mp

from trigpos.exact import Enclosure, Polynomial, _as_fraction, count_roots_in, sturm_chain
from trigpos.precision import _as_mpf, _iv_ends, workdps, working_dps

__all__ = [
    "TrigTerm",
    "TrigSum",
    "build_U_n",
    "build_varsigma",
    "chebyshev_T",
    "chebyshev_U",
    "case_P",
    "case_Q",
    "case_R",
    "case_q",
    "Q_STURM",
    "MU_STURM",
    "STURM_NAMES",
    "SturmTarget",
    "SturmOutcome",
    "sturm_case_plan",
    "run_sturm_target",
]

_ONE = Enclosure(Fraction(1), Fraction(1))
_ZERO = Enclosure(Fraction(0), Fraction(0))
_MAX_TERMS = 10**6  # the grid certificate's float64 bounds hold below this many terms
_MAX_TERM_LISTS = 32
# _sum's key -> (_pochhammer generator, terms), least recently used first
_TERM_LISTS: dict = {}
_TERM_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# Terms and sums
# ---------------------------------------------------------------------------


def _up(x, d: int = 1) -> float:
    """The least float >= x/d, for x an int or a Fraction and an int d > 0,
    decided on integers: n / d of two ints is correctly rounded."""
    n, d = x.numerator, x.denominator * d
    f = n / d
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if fn * d < n * fd else f


@dataclass(frozen=True)
class TrigTerm:
    """One coefficient of a TrigSum; the sum's alpha and the term's index k
    fix the frequency it multiplies, alpha + 2k.

    float_bounds, the constants the grid certificate derives from a
    coefficient alone, is memoised on it (outside the fields, so equality
    and hashing see only the coefficient).
    """

    coeff: Enclosure

    @cached_property
    def float_bounds(self) -> tuple[float, float, float, float]:
        """The float midpoint of coeff and upper bounds on max|c|, the
        half-width and |float midpoint - midpoint|, each the least float
        above its exact value, decided on integers."""
        (ln, ld), (hn, hd) = self.coeff.lo.as_integer_ratio(), self.coeff.hi.as_integer_ratio()
        den, num = 2 * ld * hd, ln * hd + hn * ld  # midpoint num / den
        mid = num / den
        a, b = mid.as_integer_ratio()
        return (mid, _up(max(abs(ln) * hd, abs(hn) * ld), ld * hd),
                _up(hn * ld - ln * hd, den), _up(abs(a * den - num * b), b * den))


@dataclass(frozen=True)
class TrigSum:
    """sum_k terms[k].coeff sin((alpha + 2k) theta + beta pi); alpha < 0 raises ValueError."""

    alpha: Fraction
    beta: Fraction
    terms: tuple[TrigTerm, ...]

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("negative alpha")

    def eval_mp(self, theta):
        """Midpoint evaluation at working precision (mpf), as the cosines
        cos((alpha + 2k) theta + (beta - 1/2) pi) that the grid evaluates."""
        with mp.workdps(working_dps()):
            th = _as_mpf(theta)
            phase = mp.pi * _as_mpf(self.beta - Fraction(1, 2))
            total = mp.mpf(0)
            for k, t in enumerate(self.terms):
                total += _as_mpf(t.coeff.mid) * mp.cos(_as_mpf(self.alpha + 2 * k) * th + phase)
            return total

    def coeff_err(self) -> Fraction:
        """Bound on evaluation error induced by coefficient enclosure widths."""
        return sum((t.coeff.width / 2 for t in self.terms), Fraction(0))

    def lipschitz(self) -> Fraction:
        """Exact bound on |d/dtheta|: sum of |coeff|_max * (alpha + 2k)."""
        return sum((max(abs(t.coeff.lo), abs(t.coeff.hi)) * (self.alpha + 2 * k)
                    for k, t in enumerate(self.terms)), Fraction(0))


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def _ratios(a):
    """Yield (a)_k / k! for k = 0, 1, ... in the arithmetic of a (float, mpf
    or Fraction), by c_{k+1} = c_k (a + k) / (k + 1)."""
    c = a - a + 1
    for k in itertools.count():
        yield c
        c = c * (a + k) / (k + 1)


def _pochhammer(mu):
    """Yield enclosures of (mu)_k / k!, k = 0, 1, 2, ...: for exact rational
    mu the degenerate enclosures of _ratios(mu), in Fraction.

    For interval mu (mu.lo > 0 required) the ends are L/2^b and H/2^b,
    b = ceil((working_dps() + 20) log2 10), from L = H = 2^b, each step
    flooring L (mu.lo + k)/(k + 1) and ceiling H (mu.hi + k)/(k + 1) (fixed
    point: Brent and Zimmermann, Modern Computer Arithmetic, 4.4); every
    factor is positive and increasing in mu, so they stay outer bounds.
    """
    mu = _as_mu_enclosure(mu)
    if mu.is_exact():
        yield from (Enclosure(v, v) for v in _ratios(mu.lo))
    if mu.lo <= 0:
        raise ValueError("interval coefficients need mu > 0")
    (a, d), (b, e) = mu.lo.as_integer_ratio(), mu.hi.as_integer_ratio()
    yield _ONE
    lo = hi = one = 1 << math.ceil((working_dps() + 20) * math.log2(10))  # 2^b
    for k in itertools.count():
        lo, hi = lo * (a + k * d) // (d * (k + 1)), -(-hi * (b + k * e) // (e * (k + 1)))
        yield Enclosure(Fraction(lo, one), Fraction(hi, one))


def _as_mu_enclosure(mu) -> Enclosure:
    return mu if isinstance(mu, Enclosure) else Enclosure.exact(mu)


# ---------------------------------------------------------------------------
# The sums under study
# ---------------------------------------------------------------------------


def _sum(alpha: Fraction, beta: Fraction, mu, n: int) -> TrigSum:
    """The TrigSum (alpha, beta) of the terms d_k = (mu)_k / k!, k = 0..n.
    One term list per (mu, precision) is kept, the _MAX_TERM_LISTS most
    recently used, and grown on demand by resuming the recurrence from its
    last coefficient."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    mu = _as_mu_enclosure(mu)
    key = (mu.lo, mu.hi, working_dps())
    with _TERM_LOCK:  # two threads must not grow one list at once
        coeffs, terms = _TERM_LISTS.pop(key, None) or (_pochhammer(mu), [])
        terms += (TrigTerm(next(coeffs)) for _ in range(len(terms), n + 1))
        # (re)entered only once grown, so a mu the generator rejects keeps none
        _TERM_LISTS[key] = coeffs, terms
        if len(_TERM_LISTS) > _MAX_TERM_LISTS:
            del _TERM_LISTS[next(iter(_TERM_LISTS))]
        head = tuple(terms[:n + 1])
    return TrigSum(alpha, beta, head)


def build_U_n(n: int, mu) -> TrigSum:
    """sum_{k<=n} d_k cos((2k + 1/3) phi - pi/6) with d_k = (mu)_k / k!,
    that is (alpha, beta) = (1/3, 1/3)."""
    return _sum(Fraction(1, 3), Fraction(1, 3), mu, n)


def build_varsigma(n: int, rho, mu) -> TrigSum:
    """sum_{k<=n} d_k sin((2k + rho) theta): (alpha, beta) = (rho, 0)."""
    return _sum(Fraction(rho), Fraction(0), mu, n)


# ---------------------------------------------------------------------------
# Chebyshev polynomials (exact)
# ---------------------------------------------------------------------------


def _chebyshev(first: list[int], k: int) -> Polynomial:
    """P_k from P_0 = 1 and P_1 = first by P_{j+1} = 2x P_j - P_{j-1}, on integers."""
    if k < 0:
        raise ValueError("negative order")
    before, current = [1], first
    for _ in range(k):
        following = [0] + [2 * c for c in current]
        for j, c in enumerate(before):
            following[j] -= c
        before, current = current, following
    return Polynomial(before)


def chebyshev_T(k: int) -> Polynomial:
    return _chebyshev([0, 1], k)


def chebyshev_U(k: int) -> Polynomial:
    return _chebyshev([0, 2], k)


# ---------------------------------------------------------------------------
# Named proof cases
# ---------------------------------------------------------------------------
#
# The certification targets are fixed trigonometric expressions in a shifted
# angle t; each constructor writes its polynomial in x = cos t (or cos^2 t) as
# a Chebyshev sum and returns its coefficient Enclosures, coeffs[k] of x^k.


def _chebyshev_sum(basis, pairs) -> tuple[Enclosure, ...]:
    """The coefficients of sum c * basis(m) over the (c, m) pairs, in
    enclosure arithmetic; basis is chebyshev_T or chebyshev_U."""
    out = [_ZERO]
    for c, m in pairs:
        poly = basis(m)
        out += [_ZERO] * (len(poly.coeffs) - len(out))
        for i, a in enumerate(poly.coeffs):
            if a:
                out[i] = out[i] + c * a
    return tuple(out)


def _sine_form(tsum: TrigSum) -> tuple[Enclosure, ...]:
    """The coefficients of sum_k d_k U_6k(x), read off the terms d_k of a
    sum at alpha = 1/3: at theta = 3t (beta = 0, varsigma_n) or phi = 3t - pi
    (beta = 1/3, U_n) its k-th term is d_k sin((6k + 1) t) =
    d_k sin t * U_6k(cos t)."""
    return _chebyshev_sum(chebyshev_U, ((t.coeff, 6 * k) for k, t in enumerate(tsum.terms)))


def case_P(mu) -> tuple[Enclosure, ...]:
    """-d2 + cos t + (1 - d1) cos 2t + (d2 - d1) cos 5t, in x = cos t:
    -d2 + T_1 + (1 - d1) T_2 + (d2 - d1) T_5, d1 and d2 from build_U_n(2, mu).

    Lower bound for 2 sin(phi) * U_n(phi) under t = (2 phi - pi)/3; relevant
    t ranges: (-pi/3, -7pi/27] and [-pi/5, 0], i.e. x in (1/2, cos(7pi/27)]
    and [cos(pi/5), 1].  At t = -pi/3 (phi = 0) the minorized sum vanishes and
    P = -mu(mu+1)/4 exactly; for mu at mu*(2/3) P is negative at both ends of
    (1/2, cos(7pi/27)] and root-free between, so it is negative on that whole
    range and gives no positivity there.
    """
    _, d1, d2 = (t.coeff for t in build_U_n(2, mu).terms)
    return _chebyshev_sum(chebyshev_T, ((-d2, 0), (1, 1), (1 - d1, 2), (d2 - d1, 5)))


def case_Q(mu) -> tuple[Enclosure, ...]:
    """sin t + d1 sin 7t + d2 sin 13t: U_2(phi) = build_U_n(2, mu) at
    phi = 3t - pi, reduced as sin(t) * poly(cos t) by _sine_form; root-free
    target t in (pi/3, pi/2], i.e. x = cos t in [0, 1/2).
    """
    return _sine_form(build_U_n(2, mu))


def case_R(mu) -> tuple[Enclosure, ...]:
    """sin t + d1 sin 7t + d2 sin 13t + d3 sin 19t  (U_3 under the same map)."""
    return _sine_form(build_U_n(3, mu))


def case_q(n: int) -> tuple[Enclosure, ...]:
    """omega_n(theta) = sin(theta/3) * q_n(cos^2(theta/3)): returns q_n exactly,
    for omega_n = build_varsigma(n, 1/3, 1/2), the sum with d_k = (1/2)_k / k!.

    At theta = 3t omega_n is sin t * sum_k d_k U_6k(cos t) (_sine_form), and
    U_6k is even, so q_n takes the even-index coefficients.
    """
    return _sine_form(build_varsigma(n, Fraction(1, 3), Fraction(1, 2)))[::2]


# ---------------------------------------------------------------------------
# Sturm certification plan
# ---------------------------------------------------------------------------


def _outward(value_fn, below: bool) -> Fraction:
    """Rational bound below/above a real that value_fn encloses in mpmath.iv.

    value_fn runs at the proof precision (precision.workdps); interval
    arithmetic rounds every operation outward, so the lower (upper) endpoint
    of its result, read exactly, lies below (above) the true value.
    """
    with workdps():
        enc = value_fn()
    return _as_fraction(_iv_ends(enc)[0 if below else 1])


Q_STURM = ("q1", "q2", "q3", "q3-derived")  # rho = 1/3: exact coefficients, no exponent
MU_STURM = ("P-near-0", "P-mid", "Q", "R")  # rho = 2/3: on an enclosure of mu*(2/3)
STURM_NAMES = Q_STURM + MU_STURM


@dataclass(frozen=True)
class SturmTarget:
    """One root-counting obligation: no roots of the case polynomial in
    (x_interval[0], x_interval[1]], and strict positivity at the anchor, a
    (label, point) pair in the closed interval (an anchor outside it says
    nothing about the sign on it).

    coeffs[k], an Enclosure, multiplies x^k.  For interval coefficients the
    obligation applies to both envelope polynomials, on an x interval in
    [0, inf).  ungated, when set, says why a proof may not gate on the
    anchor; the obligation is then that every envelope is root-free and
    negative at the anchor, so the case polynomial is negative on the whole
    interval for every admissible coefficient choice.
    """

    name: str
    coeffs: tuple[Enclosure, ...]
    x_interval: tuple[Fraction, Fraction]
    anchor: tuple[str, Fraction]
    ungated: str = ""

    def __post_init__(self):
        (a, b), (label, x) = self.x_interval, self.anchor
        if not a <= x <= b:
            raise ValueError(f"{self.name}: anchor {label} at x = {x} lies outside [{a}, {b}]")
        if a < 0 and not all(c.is_exact() for c in self.coeffs):
            raise ValueError(f"{self.name}: envelopes need an x interval in [0, inf)")

    def polynomials(self) -> tuple[Polynomial, ...]:
        """(sum lo_k x^k, sum hi_k x^k) for coeffs [lo_k, hi_k], or the one
        polynomial when the two are equal.  At x >= 0 every x^k >= 0, so
        lower(x) <= p(x) <= upper(x) for every p with coefficients in coeffs.
        """
        lower, upper = Polynomial(c.lo for c in self.coeffs), Polynomial(c.hi for c in self.coeffs)
        return (lower,) if lower == upper else (lower, upper)


def sturm_case_plan(mu, names=None) -> list[SturmTarget]:
    """The root-freeness obligations behind the finite proof cases, in the
    order of `names` (default: STURM_NAMES, or Q_STURM when mu is None); a
    bare str or a name outside STURM_NAMES raises ValueError.  Only the case
    polynomials the named targets read are built.

    mu is the exponent enclosure used by the P/Q/R cases (the q_n cases have
    exact half-integer coefficients and ignore it).  Interval endpoints that
    are irrational (cosines of rational multiples of pi) are replaced by
    certified outward rational bounds, so every interval below *contains* the
    interval actually claimed.
    """
    q3_lo = Fraction(37059, 100000)
    derived_lo = _outward(lambda: iv.cos(7 * iv.pi / 24) ** 2, below=True)
    plan = {  # name -> (case builder, x interval, anchor[, ungated reason])
        "q1": (lambda: case_q(1), (Fraction(0), Fraction(1)), ("q1(0)", Fraction(0))),
        "q2": (lambda: case_q(2), (Fraction(0), Fraction(1)), ("q2(0)", Fraction(0))),
        "q3": (lambda: case_q(3), (q3_lo, Fraction(1)), ("q3(0.37059)", q3_lo)),  # stated interval
        # the interval that theta in [2pi/3, 7pi/8] induces
        "q3-derived": (lambda: case_q(3),
                       (derived_lo, _outward(lambda: iv.cos(2 * iv.pi / 9) ** 2, below=False)),
                       ("q3(cos^2(7pi/24))", derived_lo)),
        # t in (-pi/3, -7pi/27]; the anchor fails for every mu in (0, 1] (see
        # case_P), so the proofs do not gate on it: positivity of U_n on that
        # range rests on their other checks, and sturm:P-near-0 fails by design
        "P-near-0": (lambda: case_P(mu),
                     (Fraction(1, 2), _outward(lambda: iv.cos(7 * iv.pi / 27), below=False)),
                     ("P(-pi/3)", Fraction(1, 2)),
                     "equals -mu(mu+1)/4; with 0 roots P < 0 on the whole "
                     "interval, so this certifies root-freeness only, no sign"),
        # t in [-pi/5, 0]; P(0) = 2(1 - mu) at the endpoint x = 1
        "P-mid": (
            lambda: case_P(mu), (_outward(lambda: iv.cos(iv.pi / 5), below=True), Fraction(1)),
            ("P(0)", Fraction(1))),
        # t in (pi/3, pi/2]; x = 0 is Q(pi/2) and R(pi/2) up to the positive sin t
        "Q": (lambda: case_Q(mu), (Fraction(0), Fraction(1, 2)), ("Q(pi/2)/sin", Fraction(0))),
        "R": (lambda: case_R(mu), (Fraction(0), Fraction(1, 2)), ("R(pi/2)/sin", Fraction(0))),
    }
    names = (Q_STURM if mu is None else STURM_NAMES) if names is None else names
    if isinstance(names, str) or not set(names) <= plan.keys():
        raise ValueError(f"names must be a sequence of the targets {STURM_NAMES}, not {names!r}")
    targets = []
    for name in names:
        if mu is None and name in MU_STURM:
            raise ValueError(f"target {name} needs an exponent mu")
        build, *obligation = plan[name]
        targets.append(SturmTarget(name, build(), *obligation))
    return targets


@dataclass(frozen=True)
class SturmOutcome:
    """Result of running one SturmTarget: exact root counts and signs at the
    anchor, one per envelope (lower first; a single entry for exact
    coefficients)."""

    root_counts: tuple[int, ...]
    anchor_signs: tuple[int, ...]


def run_sturm_target(target: SturmTarget) -> SturmOutcome:
    """Run the exact root counts and the anchor's signs for one obligation."""
    polys = target.polynomials()
    (a, b), (_, x) = target.x_interval, target.anchor
    return SturmOutcome(tuple(count_roots_in(sturm_chain(p), a, b) for p in polys),
                        tuple(p.sign_at(x) for p in polys))
