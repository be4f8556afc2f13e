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
grow to about e^x before they decay, so the sums run at
working_dps() + 15 + ceil(x / ln 10) digits, which absorbs the cancellation.

The err field of a QuadResult bounds, at the given inputs, the truncation
remainder of every base series used plus the floating-point rounding of the
sums.  The rounding bound is the standard model: each operation rounds with
relative error at most mp.eps, taking mpmath's pow, sin and cos to be
accurate to a few ulp.  The tests check this route against mpmath.quad.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from trigpos.precision import working_dps

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
    """Value + error bound for one integral.

    flagged is True when the error bound exceeds the requested tolerance
    (the value is still the best available, but callers must not treat it
    as accurate to tol).
    """

    value: mp.mpf
    err: mp.mpf
    flagged: bool

    def scaled(self, factor) -> "QuadResult":
        f = mp.mpf(factor)
        return QuadResult(self.value * f, self.err * abs(f), self.flagged)


def _alternating_sum(offset: int, mu, x, eps):
    """(sum, error bound) of sum_j (-1)^j x^(k+mu) / (k! (k+mu)), k = 2j + offset.

    offset 1 gives the sine series, offset 0 the cosine series.  The error
    bound is eps for the truncation plus the rounding of n terms: term j
    carries at most (3j + 5) roundings and each of the n additions one more,
    relative to the sum of |terms|.
    """
    xx = x * x
    num = x ** (offset + mu)
    fact = mp.mpf(1)
    total = mass = mp.mpf(0)
    for j in range(600):
        k = 2 * j + offset
        term = num / (fact * (k + mu))
        total += -term if j % 2 else term
        mass += term
        if term < eps and xx < (k + 1) * (k + 2):
            return total, eps + (4 * j + 12) * mp.eps * mass
        num *= xx
        fact *= (k + 1) * (k + 2)
    raise ArithmeticError("series did not converge within iteration budget")


def _evaluate(kind: str, eta, mu, x):
    """(value, error bound) of integral_0^x g(t + eta) t^(mu-1) dt."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    with mp.workdps(working_dps() + 15):
        eps = mp.mpf(10) ** (-(mp.dps - 3))
        x_in = mp.mpf(x)
        if not 0 < x_in <= 8 * mp.pi + mp.mpf("1e-12"):
            raise ValueError("series route requires 0 < x <= 8*pi")
        dps = mp.dps + int(mp.ceil(x_in / mp.ln(10)))
    with mp.workdps(dps):
        mu = mp.mpf(mu)
        x = mp.mpf(x)
        eta = mp.mpf(eta)
        if not 0 < mu <= 1:
            raise ValueError("mu must lie in (0, 1]")
        if eta == 0:
            return _alternating_sum(1 if kind == "sin" else 0, mu, x, eps)
        s, s_err = _alternating_sum(1, mu, x, eps)
        c, c_err = _alternating_sum(0, mu, x, eps)
        if kind == "sin":  # sin(t + eta) = cos(eta) sin t + sin(eta) cos t
            value = mp.cos(eta) * s + mp.sin(eta) * c
        else:
            value = mp.cos(eta) * c - mp.sin(eta) * s
        return value, s_err + c_err + 4 * mp.eps * (abs(s) + abs(c))


def fractional_osc_integral(kind: str, eta, mu, x, tol=None) -> QuadResult:
    """integral_0^x g(t + eta) t^(mu-1) dt, g = sin or cos.

    Requires 0 < mu <= 1 and 0 < x <= 8*pi.  tol defaults to a little under
    the working precision; the result is flagged when the error bound
    exceeds it.
    """
    value, err = _evaluate(kind, eta, mu, x)
    tol = mp.mpf(10) ** (-(working_dps() - 5)) if tol is None else mp.mpf(tol)
    return QuadResult(value, err, err > tol)


def series_reference(kind: str, mu, x, eta=0):
    """The value alone of fractional_osc_integral(kind, eta, mu, x)."""
    return _evaluate(kind, eta, mu, x)[0]


# ---------------------------------------------------------------------------
# Named composite integrals
# ---------------------------------------------------------------------------


def frak_K(b, x, rho, mu) -> QuadResult:
    """(1/sin b) * integral_0^x cos(t + rho*b - (rho - 1/2)*pi) t^(mu-1) dt.

    Requires 0 < b <= pi/2.
    """
    with mp.workdps(working_dps() + 10):
        b = mp.mpf(b)
        rho = mp.mpf(rho)
        if not 0 < b <= mp.pi / 2 + mp.mpf("1e-12"):
            raise ValueError("b must lie in (0, pi/2]")
        eta = rho * b - (rho - mp.mpf(1) / 2) * mp.pi
        base = fractional_osc_integral("cos", eta, mu, x)
        return base.scaled(1 / mp.sin(b))


def chi_reference_integral(mu) -> QuadResult:
    """(1/sin(pi/5)) * integral_0^(8pi/5) cos(t - pi/10) t^(mu-1) dt.

    The upper limit 8pi/5 is the unique stationary point of the integral
    (as a function of its upper limit) at or beyond pi, hence the minimum
    over that range; see min_over_upper_limit for the generic search.
    """
    with mp.workdps(working_dps() + 10):
        base = fractional_osc_integral("cos", -mp.pi / 10, mu, 8 * mp.pi / 5)
        return base.scaled(1 / mp.sin(mp.pi / 5))


def min_over_upper_limit(kind: str, eta, mu, x_min):
    """Minimize F(x) = integral_0^x g(t+eta) t^(mu-1) dt over x >= x_min.

    F'(x) = g(x+eta) x^(mu-1), so interior extrema sit at the zeros of
    g(x+eta).  The factor t^(mu-1) is decreasing, which makes successive
    oscillation arches shrink in area; the minimum over [x_min, infinity)
    is therefore attained at x_min itself or at one of the zeros within the
    first full period.  Returns (argmin, QuadResult at argmin).
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    with mp.workdps(working_dps() + 10):
        eta = mp.mpf(eta)
        x_min = mp.mpf(x_min)
        if x_min <= 0:
            raise ValueError("x_min must be positive")
        # zeros of g(x + eta): sin -> k*pi - eta, cos -> (k + 1/2)*pi - eta
        offset = mp.mpf(0) if kind == "sin" else mp.pi / 2
        k0 = int(mp.ceil((x_min + eta - offset) / mp.pi))
        candidates = [x_min]
        k = k0
        while True:
            z = k * mp.pi + offset - eta
            if z > x_min + 2 * mp.pi + mp.mpf("1e-20"):
                break
            if z > x_min:
                candidates.append(z)
            k += 1
        best_x = None
        best = None
        for cand in candidates:
            res = fractional_osc_integral(kind, eta, mu, cand)
            if best is None or res.value < best.value:
                best, best_x = res, cand
        return best_x, best
