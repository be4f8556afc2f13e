"""Critical exponent mu*(rho): the sign-change point of a defect integral.

For rho in (0, 1], define

    D(rho, mu) = integral_0^((rho+1)*pi) sin(t - rho*pi) t^(mu-1) dt.

As a function of mu on (0, 1], D is negative for small mu (the weight
t^(mu-1) concentrates mass near t = 0 where the sine factor is negative)
and D(rho, 1) = 1 + cos(rho*pi) >= 0, with equality exactly at rho = 1.
mu*(rho) is the root.  For rho < 1 it is interior and is located by
bisection whose every accepted bracket endpoint carries a *verified* sign:
the series value of D must exceed ten times its error bound (see
trigpos.quadrature) or the step is refused.  A secant candidate is tried
first at each step (and kept when it lands well inside the bracket), which
cuts the number of integral evaluations roughly in half without weakening
the bracket invariant.

rho = 1 is the boundary case: there is no sign change inside (0.01, 1],
D < 0 on [0.01, 1), and the root sits exactly at mu = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from trigpos.exact import Enclosure, _as_fraction
from trigpos.precision import working_dps
from trigpos.quadrature import QuadResult, fractional_osc_integral

__all__ = ["MuStarResult", "defect_integral", "mu_star", "BRACKET_LO", "BRACKET_HI"]

BRACKET_LO = Fraction(1, 100)
BRACKET_HI = Fraction(1)

_CACHE: dict = {}


@dataclass(frozen=True)
class MuStarResult:
    """Verified enclosure of mu*(rho).

    enclosure endpoints are exact rationals; the true root lies strictly
    inside (or equals the endpoint for the boundary case rho = 1).
    residual is the defect value at the enclosure midpoint, a direct
    quality check on the localization.
    """

    rho: Fraction
    enclosure: Enclosure
    residual: mp.mpf

    @property
    def midpoint(self) -> mp.mpf:
        mid = self.enclosure.mid
        return mp.mpf(mid.numerator) / mid.denominator


def defect_integral(rho, mu) -> QuadResult:
    """D(rho, mu) = integral_0^((rho+1)*pi) sin(t - rho*pi) t^(mu-1) dt."""
    rho = _as_fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    with mp.workdps(working_dps() + 10):
        rho_mp = mp.mpf(rho.numerator) / rho.denominator
        return fractional_osc_integral("sin", -rho_mp * mp.pi, mu, (rho_mp + 1) * mp.pi)


def _verified_sign(rho: Fraction, mu: Fraction) -> tuple[int, mp.mpf]:
    """(sign, value) of D(rho, mu); the sign is accepted only when the value
    dominates the series error bound, otherwise this raises."""
    with mp.workdps(working_dps() + 10):
        mu_mp = mp.mpf(mu.numerator) / mu.denominator
        res = defect_integral(rho, mu_mp)
        floor = mp.mpf(10) ** (-(working_dps() + 4))
        if not res.flagged and abs(res.value) > max(10 * res.err, floor):
            return (1 if res.value > 0 else -1), res.value
        raise ArithmeticError(
            f"cannot resolve sign of defect at mu={mu}: "
            f"value {mp.nstr(res.value, 8)} vs err {mp.nstr(res.err, 3)}"
        )


def mu_star(rho, width=Fraction(1, 10**9), use_secant: bool = True) -> MuStarResult:
    """Enclose mu*(rho) to the requested width.

    width is an exact rational (or anything Fraction() accepts).  The
    bisection itself runs to width/4; the returned enclosure is that bracket
    re-centered and padded out to the full requested width, so the root sits
    near the middle rather than at an endpoint (enlarging a valid enclosure
    keeps it valid, and a near-centered one also contains the root's
    correctly-rounded decimal abbreviations).  Results are cached per
    (rho, width, working precision).
    """
    rho = _as_fraction(rho)
    width = _as_fraction(width)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    if width <= 0:
        raise ValueError("width must be positive")
    key = (rho, width, working_dps())
    if key in _CACHE:
        return _CACHE[key]

    if rho == 1:
        # boundary root: D(1, 1) = 0 exactly, D < 0 on [0.01, 1)
        for probe in (BRACKET_LO, Fraction(1, 2), Fraction(99, 100)):
            sign, _ = _verified_sign(rho, probe)
            if sign >= 0:
                raise ArithmeticError(
                    f"defect unexpectedly nonnegative at mu={probe} for rho=1"
                )
        residual = defect_integral(rho, mp.mpf(1)).value
        result = MuStarResult(rho, Enclosure.exact(1), residual)
        _CACHE[key] = result
        return result

    lo, hi = BRACKET_LO, BRACKET_HI
    sign_lo, val_lo = _verified_sign(rho, lo)
    sign_hi, val_hi = _verified_sign(rho, hi)
    if sign_lo >= 0 or sign_hi <= 0:
        raise ArithmeticError(
            f"bracket [{lo}, {hi}] does not straddle a sign change for rho={rho}"
        )

    target = width / 4
    while hi - lo > target:
        mid = (lo + hi) / 2
        if use_secant and val_hi != val_lo:
            # secant candidate, kept only if it lands in the middle half of
            # the bracket so progress per step stays geometric
            t = -val_lo / (val_hi - val_lo)
            cand = lo + (hi - lo) * _as_fraction(t)
            gap = (hi - lo) / 4
            if lo + gap < cand < hi - gap:
                mid = cand
        try:
            sign_mid, val_mid = _verified_sign(rho, mid)
        except ArithmeticError:
            # probe landed too close to the root to sign-check; a quarter
            # point is at least bracket/4 from it and still shrinks the
            # bracket geometrically on either outcome
            mid = (3 * lo + hi) / 4 if mid - lo > hi - mid else (lo + 3 * hi) / 4
            sign_mid, val_mid = _verified_sign(rho, mid)
        if sign_mid < 0:
            lo, val_lo = mid, val_mid
        else:
            hi, val_hi = mid, val_mid

    center = (lo + hi) / 2
    enclosure = Enclosure(
        min(lo, center - width / 2), max(hi, center + width / 2)
    )
    mid = enclosure.mid
    with mp.workdps(working_dps() + 10):
        residual = defect_integral(rho, mp.mpf(mid.numerator) / mid.denominator).value
    result = MuStarResult(rho, enclosure, residual)
    _CACHE[key] = result
    return result

