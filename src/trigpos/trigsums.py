"""The trigonometric sums under study and the case polynomials of the proofs.

A `TrigSum` is a finite sum  sum_k  c_k * g(freq_k * theta + phase_k * pi)
with g in {sin, cos}, rational frequencies and phases, and coefficients kept
as rational enclosures.  The case polynomials that the Sturm root counts take
are written directly as Chebyshev sums in x = cos t: a sum of c_m cos(m t)
is  sum c_m T_m(x)  and a sum of c_m sin(m t) is  sin t * sum c_m U_(m-1)(x)
(cos mt = T_m(cos t), sin(mt) = sin t * U_(m-1)(cos t)), with exact (or
enclosure) coefficients.

build_U_n and build_varsigma share one growing term list per (mu,
precision, family), which resumes the coefficient recurrence where it
stopped, and each term memoises the constants derived from it alone, so
sums that share a mu share that work.

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
from trigpos.precision import _as_mpf, iv_dps, working_dps

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
# _terms' key -> (_pochhammer generator, terms), least recently used first
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
    """coeff * kind(freq * theta + phase_pi * pi), all parameters rational.

    float_bounds, the constants the grid certificate derives from a term
    alone, is memoised on it (outside the fields, so equality and hashing
    see only the fields).
    """

    coeff: Enclosure
    freq: Fraction
    phase_pi: Fraction
    kind: str  # "sin" | "cos"

    def __post_init__(self):
        if self.kind not in ("sin", "cos"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.freq < 0:
            raise ValueError("negative frequency")

    @cached_property
    def float_bounds(self) -> tuple[float, float, float, float]:
        """The float midpoint of coeff and upper bounds on max|c| freq^2, the
        half-width and |float midpoint - midpoint|, each the least float
        above its exact value, decided on integers."""
        (ln, ld), (hn, hd) = self.coeff.lo.as_integer_ratio(), self.coeff.hi.as_integer_ratio()
        den, num = 2 * ld * hd, ln * hd + hn * ld  # midpoint num / den
        mid = num / den
        a, b = mid.as_integer_ratio()
        fn, fd = self.freq.as_integer_ratio()
        return (mid, _up(max(abs(ln) * hd, abs(hn) * ld) * fn * fn, ld * hd * fd * fd),
                _up(hn * ld - ln * hd, den), _up(abs(a * den - num * b), b * den))


@dataclass(frozen=True)
class TrigSum:
    terms: tuple[TrigTerm, ...]

    def eval_mp(self, theta):
        """Midpoint evaluation at working precision (mpf)."""
        with mp.workdps(working_dps()):
            th = _as_mpf(theta)
            total = mp.mpf(0)
            for t in self.terms:
                g = mp.sin if t.kind == "sin" else mp.cos
                arg = _as_mpf(t.freq) * th + mp.pi * _as_mpf(t.phase_pi)
                total += _as_mpf(t.coeff.mid) * g(arg)
            return total

    def coeff_err(self) -> Fraction:
        """Bound on evaluation error induced by coefficient enclosure widths."""
        return sum((t.coeff.width / 2 for t in self.terms), Fraction(0))

    def lipschitz(self) -> Fraction:
        """Exact bound on |d/dtheta|: sum of |coeff|_max * freq."""
        total = Fraction(0)
        for t in self.terms:
            cmax = max(abs(t.coeff.lo), abs(t.coeff.hi))
            total += cmax * t.freq
        return total


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def _pochhammer(mu):
    """Yield enclosures of (mu)_k / k! for k = 0, 1, 2, ... in one pass;
    exact (degenerate) for exact rational mu.

    Built by the recurrence d_{k+1} = d_k (mu+k)/(k+1) on both endpoints of
    mu.  For interval mu (mu.lo > 0 required) every factor is positive and
    increasing in mu, so a lower (upper) bound times the lower (upper)
    factor stays a lower (upper) bound.  That still holds when an endpoint
    whose denominator outgrows 2^b, b = ceil((working_dps() + 20) log2 10),
    is rounded outward (lo down, hi up) to a multiple L 2^-b and from then
    on carried as the integer L, with floor (lo) or ceiling (hi) division
    (fixed point: Brent and Zimmermann, Modern Computer Arithmetic, 4.4), so
    endpoints stay at about b bits.  Exact mu is never rounded.
    """
    mu = _as_mu_enclosure(mu)
    exact = mu.is_exact()
    if not exact and mu.lo <= 0:
        raise ValueError("interval coefficients need mu > 0")
    bits = math.ceil((working_dps() + 20) * math.log2(10))  # the dyadic grain
    ends, scaled = [Fraction(1), Fraction(1)], [None, None]  # L, H once rounded
    yield _ONE
    for k in itertools.count():
        for i, m, s in ((0, mu.lo, 1),) if exact else ((0, mu.lo, 1), (1, mu.hi, -1)):
            num, den = m.numerator + k * m.denominator, m.denominator * (k + 1)
            if scaled[i] is not None:  # s = 1 floors lo, s = -1 ceils hi
                scaled[i] = s * (s * scaled[i] * num // den)
            else:  # exact until the denominator reaches 2^b; exact mu is never rounded
                v = ends[i] = Fraction(ends[i].numerator * num, ends[i].denominator * den)
                if not exact and v.denominator >> bits:
                    scaled[i] = s * ((s * v.numerator << bits) // v.denominator)
            if scaled[i] is not None:
                ends[i] = Fraction(scaled[i], 1 << bits)
        yield Enclosure(ends[0], ends[0] if exact else ends[1])


def _as_mu_enclosure(mu) -> Enclosure:
    return mu if isinstance(mu, Enclosure) else Enclosure.exact(mu)


# ---------------------------------------------------------------------------
# The sums under study
# ---------------------------------------------------------------------------


def _terms(mu, offset: Fraction, phase_pi: Fraction, kind: str, n: int) -> tuple[TrigTerm, ...]:
    """The terms d_k kind((2k + offset) theta + phase_pi pi), k = 0..n, with
    d_k = (mu)_k / k!.  One list per (mu, precision, offset, phase, kind)
    is kept, the _MAX_TERM_LISTS most recently used, and grown on demand by
    resuming the recurrence from its last coefficient."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    mu = _as_mu_enclosure(mu)
    key = (mu.lo, mu.hi, working_dps(), offset, phase_pi, kind)
    with _TERM_LOCK:  # two threads must not grow one list at once
        coeffs, terms = _TERM_LISTS.pop(key, None) or (_pochhammer(mu), [])
        terms += (TrigTerm(next(coeffs), 2 * k + offset, phase_pi, kind)
                  for k in range(len(terms), n + 1))
        # (re)entered only once grown, so a mu the generator rejects keeps none
        _TERM_LISTS[key] = coeffs, terms
        if len(_TERM_LISTS) > _MAX_TERM_LISTS:
            del _TERM_LISTS[next(iter(_TERM_LISTS))]
        return tuple(terms[:n + 1])


def build_U_n(n: int, mu) -> TrigSum:
    """sum_{k<=n} d_k cos((2k + 1/3) phi - pi/6) with d_k = (mu)_k / k!."""
    return TrigSum(_terms(mu, Fraction(1, 3), Fraction(-1, 6), "cos", n))


def build_varsigma(n: int, rho, mu) -> TrigSum:
    """sum_{k<=n} d_k sin((2k + rho) theta)."""
    return TrigSum(_terms(mu, Fraction(rho), Fraction(0), "sin", n))


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


def case_P(mu) -> tuple[Enclosure, ...]:
    """-d2 + cos t + (1 - d1) cos 2t + (d2 - d1) cos 5t, in x = cos t:
    -d2 + T_1 + (1 - d1) T_2 + (d2 - d1) T_5.

    Lower bound for 2 sin(phi) * U_n(phi) under t = (2 phi - pi)/3; relevant
    t ranges: (-pi/3, -7pi/27] and [-pi/5, 0], i.e. x in (1/2, cos(7pi/27)]
    and [cos(pi/5), 1].  At t = -pi/3 (phi = 0) the minorized sum vanishes and
    P = -mu(mu+1)/4 exactly; for mu at mu*(2/3) P is negative at both ends of
    (1/2, cos(7pi/27)] and root-free between, so it is negative on that whole
    range and gives no positivity there.
    """
    _, d1, d2 = itertools.islice(_pochhammer(mu), 3)
    return _chebyshev_sum(chebyshev_T, ((-d2, 0), (1, 1), (1 - d1, 2), (d2 - d1, 5)))


def _sine_case(mu, orders) -> tuple[Enclosure, ...]:
    """sum_k d_k sin(m_k t) = sin t * sum_k d_k U_(m_k - 1)(cos t)."""
    pairs = zip(_pochhammer(mu), (m - 1 for m in orders))
    return _chebyshev_sum(chebyshev_U, pairs)


def case_Q(mu) -> tuple[Enclosure, ...]:
    """sin t + d1 sin 7t + d2 sin 13t  (equals U_2(phi) at t = (phi + pi)/3).

    Reduced as sin(t) * poly(cos t); root-free target t in (pi/3, pi/2],
    i.e. x = cos t in [0, 1/2).
    """
    return _sine_case(mu, (1, 7, 13))


def case_R(mu) -> tuple[Enclosure, ...]:
    """sin t + d1 sin 7t + d2 sin 13t + d3 sin 19t  (U_3 under the same map)."""
    return _sine_case(mu, (1, 7, 13, 19))


def case_q(n: int) -> tuple[Enclosure, ...]:
    """omega_n(theta) = sin(theta/3) * q_n(cos^2(theta/3)): returns q_n exactly,
    for omega_n = build_varsigma(n, 1/3, 1/2), the sum with d_k = (1/2)_k / k!.

    At theta = 3t the k-th term of omega_n is d_k sin((6k + 1) t) =
    d_k sin t * U_6k(cos t), and U_6k is even, so q_n takes the even-index
    coefficients of sum d_k U_6k.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    return _sine_case(Fraction(1, 2), range(1, 6 * n + 2, 6))[::2]


# ---------------------------------------------------------------------------
# Sturm certification plan
# ---------------------------------------------------------------------------


def _outward(value_fn, below: bool) -> Fraction:
    """Rational bound below/above a real that value_fn encloses in mpmath.iv.

    value_fn runs with iv at working_dps() + 15 digits; interval arithmetic
    rounds every operation outward, so the lower (upper) endpoint of its
    result, read exactly, lies below (above) the true value.
    """
    with iv_dps(working_dps() + 15):
        enc = value_fn()
    return _as_fraction(mp.make_mpf(enc._mpi_[0 if below else 1]))


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
    order of `names` (default: STURM_NAMES, or Q_STURM when mu is None).
    Only the case polynomials the named targets read are built.

    mu is the exponent enclosure used by the P/Q/R cases (the q_n cases have
    exact half-integer coefficients and ignore it).  Interval endpoints that
    are irrational (cosines of rational multiples of pi) are replaced by
    certified outward rational bounds, so every interval below *contains* the
    interval actually claimed.
    """
    q3_lo = Fraction(37059, 100000)
    derived_lo = _outward(lambda: iv.cos(7 * iv.pi / 24) ** 2, below=True)
    plan = {  # name -> (case, x interval, anchor[, ungated reason])
        "q1": (1, (Fraction(0), Fraction(1)), ("q1(0)", Fraction(0))),
        "q2": (2, (Fraction(0), Fraction(1)), ("q2(0)", Fraction(0))),
        "q3": (3, (q3_lo, Fraction(1)), ("q3(0.37059)", q3_lo)),  # the stated interval
        # the interval that theta in [2pi/3, 7pi/8] induces
        "q3-derived": (
            3, (derived_lo, _outward(lambda: iv.cos(2 * iv.pi / 9) ** 2, below=False)),
            ("q3(cos^2(7pi/24))", derived_lo)),
        # t in (-pi/3, -7pi/27]; the anchor fails for every mu in (0, 1] (see
        # case_P), so the proofs do not gate on it: positivity of U_n on that
        # range rests on their other checks, and sturm:P-near-0 fails by design
        "P-near-0": (
            "P", (Fraction(1, 2), _outward(lambda: iv.cos(7 * iv.pi / 27), below=False)),
            ("P(-pi/3)", Fraction(1, 2)),
            "equals -mu(mu+1)/4; with 0 roots P < 0 on the whole "
            "interval, so this certifies root-freeness only, no sign"),
        # t in [-pi/5, 0]; P(0) = 2(1 - mu) at the endpoint x = 1
        "P-mid": (
            "P", (_outward(lambda: iv.cos(iv.pi / 5), below=True), Fraction(1)),
            ("P(0)", Fraction(1))),
        # t in (pi/3, pi/2]; x = 0 is Q(pi/2) and R(pi/2) up to the positive sin t
        "Q": ("Q", (Fraction(0), Fraction(1, 2)), ("Q(pi/2)/sin", Fraction(0))),
        "R": ("R", (Fraction(0), Fraction(1, 2)), ("R(pi/2)/sin", Fraction(0))),
    }
    if names is None:
        names = Q_STURM if mu is None else STURM_NAMES
    coeffs = {}  # one tuple per case, shared by the targets that read it
    targets = []
    for name in names:
        case, *obligation = plan[name]
        if case not in coeffs:
            if mu is None and not isinstance(case, int):
                raise ValueError(f"target {name} needs an exponent mu")
            coeffs[case] = (case_q(case) if isinstance(case, int) else
                            {"P": case_P, "Q": case_Q, "R": case_R}[case](mu))
        targets.append(SturmTarget(name, coeffs[case], *obligation))
    return targets


@dataclass(frozen=True)
class SturmOutcome:
    """Result of running one SturmTarget: exact root counts and signs at the
    anchor, one per envelope (lower first; a single entry for exact
    coefficients)."""

    root_counts: tuple[int, ...]
    anchor: str
    anchor_signs: tuple[int, ...]

    @property
    def point_results(self) -> tuple[tuple[str, bool], ...]:
        """((anchor, positive),): positivity on the lower envelope, which
        minorizes every admissible coefficient choice, holds for all of them."""
        return ((self.anchor, self.anchor_signs[0] > 0),)


def run_sturm_target(target: SturmTarget) -> SturmOutcome:
    """Run the exact root counts and the anchor's signs for one obligation."""
    polys = target.polynomials()
    (a, b), (label, x) = target.x_interval, target.anchor
    return SturmOutcome(tuple(count_roots_in(sturm_chain(p), a, b) for p in polys),
                        label, tuple(p.sign_at(x) for p in polys))
