"""Oscillatory integrals with an algebraic endpoint singularity.

Everything here evaluates integrals of the form

    F(x) = integral_0^x g(t + eta) t^(mu - 1) dt,     g in {sin, cos},

for 0 < mu <= 1 and 0 < x <= 8*pi, by one route: termwise integration of
the Taylor series of sin and cos,

    integral_0^x sin(t) t^(mu-1) dt = sum_j (-1)^j x^(2j+1+mu) / ((2j+1)! (2j+1+mu)),
    integral_0^x cos(t) t^(mu-1) dt = sum_j (-1)^j x^(2j+mu) / ((2j)! (2j+mu)).

A nonzero phase is folded in exactly through
g(t + eta) = cos(eta) g(t) +/- sin(eta) g^(t).  Both series alternate, and
their terms decrease from the first k = 2j (+1) with x^2 < (k+1)(k+2) on, so
stopping at such a term below eps leaves a remainder below eps.  The terms
grow to about e^x before they decay, so the sums run ceil(x / ln 10) digits
above the proof precision (workdps), which absorbs the cancellation.

The series without its factor x^mu is summed in Python integers, in fixed
point (Brent & Zimmermann, Modern Computer Arithmetic, 2010, sec. 4.4):
every rounding is a floor, and a carried integer bound counts what they
lose.  mpmath.iv supplies x^mu, cos(eta) and sin(eta) and combines them with
the sums, so err bounds the truncation and every rounding, assuming only
that iv rounds outward.  eta, mu and x are read once by _as_iv as iv boxes
(an iv interval, an Enclosure, a Fraction, an mpf, int, float or string; a
point is a box of radius 0), and the result covers every value in them:
cos and sin of eta enclose them over its box, and for mu and x the sums run
at the midpoints and err grows by the radii times a bound on the partial
derivatives.  The guards test box ends: 0 < x <= 8*pi, 0 < mu <= 1 and eta
finite, or ValueError.  The tests check this route against mpmath.quad.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp

from trigpos.exact import Enclosure, _as_fraction
from trigpos.precision import _iv_ends, workdps, working_dps

__all__ = [
    "QuadResult",
    "fractional_osc_integral",
    "series_reference",
    "frak_K",
    "chi_reference_integral",
    "min_over_upper_limit",
]

_KINDS = ("sin", "cos")


@dataclass(frozen=True)
class QuadResult:
    """Value + error bound for one integral: value is the midpoint of an
    mpmath.iv enclosure and err its radius, rounded up.  err also carries
    the spread of an interval argument.  A sign or bound is proven by value
    and err alone.
    """

    value: mp.mpf
    err: mp.mpf

    @property
    def flagged(self) -> bool:
        """err > 10^-(working_dps() - 5), a little under the working
        precision; derived from err, and read by no check."""
        return self.err > mp.mpf(10) ** (-(working_dps() - 5))


def _as_iv(v):
    """v enclosed in an mpmath.iv interval at the current iv precision: an
    Enclosure becomes its hull, a QuadResult value +/- err, a Fraction its
    quotient in iv; iv.mpf passes an interval through, reads an mpf exactly
    and rounds an int, float or string outward."""
    if isinstance(v, QuadResult):
        return iv.mpf(v.value) + iv.mpf([-v.err, v.err])
    if isinstance(v, Fraction):
        v = Enclosure.exact(v)
    if isinstance(v, Enclosure):
        return iv.mpf([iv.mpf(f.numerator) / f.denominator for f in (v.lo, v.hi)])
    return iv.mpf(v)


def _mid_rad(enc):
    """(midpoint, radius rounded up) of an mpmath.iv interval."""
    lo, hi = _iv_ends(enc)
    value = (lo + hi) / 2
    return value, max(mp.fsub(hi, value, rounding="u"), mp.fsub(value, lo, rounding="u"))


def _alternating_sum(offset: int, m: int, xf: int, p: int, eps: int):
    """(S, E): S = sum_j (-1)^j x^k / (k! (k+mu)), k = 2j + offset (1: sine,
    0: cosine), in units of 2^-p from the exact integers xf = x 2^p and
    m = mu 2^p, and E >= |S - sum|.  a is x^k/k! to within e: xx is one ulp
    low, each step floors twice, e follows a's recurrence rounded up, and a
    term floors once more.  The sum stops at the first term bounded by eps
    once x^2 < (k+1)(k+2), where the remainder is below that term.
    """
    xx = xf * xf >> p
    a = xf if offset else 1 << p
    e = total = err = 0
    for j in range(600):
        k = 2 * j + offset
        term = (a << p) // ((k << p) + m)  # off by <= e + 1: k + mu >= 1 once e > 0
        total += -term if j % 2 else term
        err += e + 1
        d = (k + 1) * (k + 2)
        if term + e + 1 <= eps and xx < d << p:
            return total, err + eps
        e = (((e * (xx + 1) + a) >> p) + 2) // d + 2
        a = (a * xx >> p) // d
    raise ArithmeticError("series did not converge within iteration budget")


def _evaluate(kind: str, eta, mu, x):
    """(value, error bound) of integral_0^x g(t + eta) t^(mu-1) dt for every
    eta, mu and x in their boxes; see the module docstring."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    with workdps():
        eta, mu_box, x_box = (_as_iv(v) for v in (eta, mu, x))
        if not (0 < x_box.a and x_box.b <= 8 * mp.pi + mp.mpf("1e-12")):
            raise ValueError("series route requires 0 < x <= 8*pi")
        if not (0 < mu_box.a and mu_box.b <= 1):
            raise ValueError("mu must lie in (0, 1]")
        if not (-mp.inf < eta.a and eta.b < mp.inf):
            raise ValueError("eta must be finite")
        (mu, d_mu), (x, d_x) = _mid_rad(mu_box), _mid_rad(x_box)
        dps = mp.dps + int(mp.ceil(x / mp.ln(10)))
    with workdps(dps):
        # x and mu are binary fractions, over 2^k with k the bit length of the
        # denominator less 1, so at p >= k bits xf and m are x and mu exactly
        xq, mq = _as_fraction(x), _as_fraction(mu)
        p = max(mp.prec + 8, *(v.denominator.bit_length() - 1 for v in (xq, mq)))
        xf, m = (int(v * 2**p) for v in (xq, mq))
        eps = (1 << p) // 10 ** (working_dps() + 12)
        s, c = (iv.ldexp(iv.mpf([t - e, t + e]), -p)
                for t, e in (_alternating_sum(k, m, xf, p, eps) for k in (1, 0)))
        # g(t + eta) = cos(eta) g(t) +/- sin(eta) g^(t), for every eta in its box
        cos_eta, sin_eta = iv.cos_sin(eta)
        enc = iv.mpf(x) ** iv.mpf(mu) * (
            cos_eta * s + sin_eta * c if kind == "sin" else cos_eta * c - sin_eta * s)
        if d_mu or d_x:
            # moving mu and x moves F by at most |d mu| int_0^x t^(mu-1) |ln t| dt
            # + |d x| x^(mu-1).  Over the boxes, with y = x + 1/x and mu <= 1,
            # x^(mu-1) <= y and the integral is at most 1/mu^2 + |ln x| x^mu / mu
            # <= (1/mu + y^2) / mu
            y, inv_mu = x_box + 1 / x_box, 1 / mu_box
            r = (y * d_x + inv_mu * d_mu * (inv_mu + y * y)).b
            enc += iv.mpf([-r, r])
        return _mid_rad(enc)


def fractional_osc_integral(kind: str, eta, mu, x) -> QuadResult:
    """integral_0^x g(t + eta) t^(mu-1) dt, g = sin or cos, over the boxes
    of eta, mu and x (any form _as_iv reads).

    Requires 0 < mu <= 1, 0 < x <= 8*pi and a finite eta over the boxes, or
    ValueError.
    """
    return QuadResult(*_evaluate(kind, eta, mu, x))


def series_reference(kind: str, mu, x, eta=0):
    """The value alone of fractional_osc_integral(kind, eta, mu, x)."""
    return _evaluate(kind, eta, mu, x)[0]


# ---------------------------------------------------------------------------
# Named composite integrals
# ---------------------------------------------------------------------------


def frak_K(b, x, rho, mu) -> QuadResult:
    """(1/sin b) * integral_0^x cos(t + rho*b - (rho - 1/2)*pi) t^(mu-1) dt.

    Requires 0 < b <= pi/2; b and rho may be mpmath.iv intervals, and an
    interval b must lie wholly inside that range.  The phase and the product
    with 1/sin b are enclosed in mpmath.iv, so value +/- err encloses the
    integral at every b and rho given.
    """
    with workdps():
        b, rho = _as_iv(b), _as_iv(rho)
        if not (0 < b.a and b.b <= iv.pi / 2 + mp.mpf("1e-12")):
            raise ValueError("b must lie in (0, pi/2]")
        eta = rho * b - (rho - iv.mpf(1) / 2) * iv.pi
        base = fractional_osc_integral("cos", eta, mu, x)
        return QuadResult(*_mid_rad(_as_iv(base) * (1 / iv.sin(b))))


def chi_reference_integral(mu) -> QuadResult:
    """(1/sin(pi/5)) * integral_0^(8pi/5) cos(t - pi/10) t^(mu-1) dt.

    The upper limit 8pi/5 is the unique stationary point of the integral
    (as a function of its upper limit) at or beyond pi, hence the minimum
    over that range; see min_over_upper_limit for the generic search.
    It is frak_K at b = pi/5, x = 8pi/5 and rho = 3/4, whose phase
    3pi/20 - pi/4 is -pi/10, so value +/- err encloses the integral.
    """
    with workdps():
        return frak_K(iv.pi / 5, 8 * iv.pi / 5, Fraction(3, 4), mu)


def min_over_upper_limit(kind: str, eta, mu, x_min):
    """Minimize F(x) = integral_0^x g(t+eta) t^(mu-1) dt over x >= x_min.

    F'(x) = g(x+eta) x^(mu-1), so interior extrema sit at the zeros of
    g(x+eta).  The factor t^(mu-1) is decreasing, which makes successive
    oscillation arches shrink in area; the minimum over [x_min, infinity)
    is therefore attained at x_min itself or at one of the zeros within the
    first full period.  eta, mu and x_min are any boxes _as_iv reads; an
    x_min box reaching 0 raises ValueError.  The candidates are picked at
    the midpoints, and each zero k*pi + offset - eta is enclosed in
    mpmath.iv, so the QuadResult encloses F at the zero itself.  Returns
    (argmin as an mpf for display, QuadResult at argmin).
    """
    with workdps():
        eta_iv, x_box = _as_iv(eta), _as_iv(x_min)
        if not 0 < x_box.a:
            raise ValueError("x_min must be positive")
        # x_min first: its integral guards eta and mu before the zeros are sought
        x_min, best = _mid_rad(x_box)[0], fractional_osc_integral(kind, eta_iv, mu, x_box)
        best_x, eta = x_min, _mid_rad(eta_iv)[0]
        # zeros of g(x + eta): sin -> k*pi - eta, cos -> (k + 1/2)*pi - eta
        offset, offset_iv = (0, 0) if kind == "sin" else (mp.pi / 2, iv.pi / 2)
        k = int(mp.ceil((x_min + eta - offset) / mp.pi))
        while (z := k * mp.pi + offset - eta) <= x_min + 2 * mp.pi + mp.mpf("1e-20"):
            if z > x_min:
                res = fractional_osc_integral(kind, eta_iv, mu, k * iv.pi + offset_iv - eta_iv)
                if res.value < best.value:
                    best, best_x = res, z
            k += 1
        return best_x, best
