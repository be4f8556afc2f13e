"""Critical exponent mu*(rho): the sign-change point of a defect integral.

For rho in (0, 1], define

    D(rho, mu) = integral_0^((rho+1)*pi) sin(t - rho*pi) t^(mu-1) dt.

As a function of mu on (0, 1], D is negative for small mu (the weight
t^(mu-1) concentrates mass near t = 0 where the sine factor is negative)
and D(rho, 1) = 1 + cos(rho*pi) >= 0, with equality exactly at rho = 1.
mu*(rho) is the root.  For rho < 1 it is interior and is located by
false position with the Anderson-Bjorck correction (Anderson & Bjorck,
BIT 13, 1973), which keeps a bracket and converges superlinearly.  The
bracket invariant: a probe replaces an endpoint only with a *verified*
sign, the series value of D exceeding ten times its error bound (see
trigpos.quadrature).  Each probe is the false-position point rounded to a
dyadic grain and clamped one grain inside the bracket; a probe too close
to the root to sign is replaced by a quarter point of the bracket.

rho = 1 is the boundary case: there is no sign change inside (0.01, 1],
D < 0 on [0.01, 1), and the root sits exactly at mu = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import iv, mp

from trigpos.exact import Enclosure, _as_fraction
from trigpos.precision import iv_dps, working_dps
from trigpos.quadrature import QuadResult, _as_iv, fractional_osc_integral

__all__ = ["MuStarResult", "defect_integral", "mu_star", "width_floor", "BRACKET_LO", "BRACKET_HI"]

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


def defect_integral(rho, mu) -> QuadResult:
    """D(rho, mu) = integral_0^((rho+1)*pi) sin(t - rho*pi) t^(mu-1) dt,
    for exact rationals or mpfs rho and mu; the arguments are enclosed in
    mpmath.iv, so the result encloses D at the exact rho and mu."""
    rho, mu = _as_fraction(rho), _as_fraction(mu)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    dps = working_dps() + 15
    eta, x = _limits(rho, dps)
    with iv_dps(dps):
        return fractional_osc_integral("sin", eta, _as_iv(mu), x)


@lru_cache(maxsize=16)
def _limits(rho: Fraction, dps: int):
    """-rho pi and (rho + 1) pi enclosed in mpmath.iv at dps digits, once
    for all the probes of mu_star at one rho."""
    with iv_dps(dps):
        rho_pi = _as_iv(rho) * iv.pi
        return -rho_pi, rho_pi + iv.pi


def _verified_sign(rho: Fraction, mu: Fraction) -> mp.mpf:
    """D(rho, mu), returned only when its value dominates the series error
    bound, so that its sign is proven; otherwise this raises."""
    res = defect_integral(rho, mu)
    floor = mp.mpf(10) ** (-(working_dps() + 4))
    if not res.flagged and abs(res.value) > max(10 * res.err, floor):
        return res.value
    raise ArithmeticError(f"cannot resolve sign of defect at mu={mu}: value "
                          f"{mp.nstr(res.value, 8)} vs err {mp.nstr(res.err, 3)}")


def width_floor() -> Fraction:
    """Smallest width mu_star accepts, 10^-working_dps(): a finer bracket
    needs signs of D below the floor that _verified_sign resolves."""
    return Fraction(1, 10 ** working_dps())


def mu_star(rho, width=Fraction(1, 10**9)) -> MuStarResult:
    """Enclose mu*(rho) to the requested width.

    width is an exact rational (or anything Fraction() accepts) of at least
    width_floor().  The bracket is narrowed to width/4, then re-centered,
    padded out to the full width and clipped to [BRACKET_LO, BRACKET_HI]:
    the root sits near the middle, so the enclosure also contains its
    correctly-rounded decimal abbreviations.  Results are cached per
    (rho, width, working precision).
    """
    rho = _as_fraction(rho)
    width = _as_fraction(width)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    if width < width_floor():
        raise ValueError(f"width must be at least 1e-{working_dps()}")
    key = (rho, width, working_dps())
    if key in _CACHE:
        return _CACHE[key]

    # the probes and sign tests run at one precision, whatever the caller's
    with mp.workdps(working_dps() + 10):
        if rho == 1:
            # boundary root: D(1, 1) = 0 exactly, D < 0 on [0.01, 1)
            for probe in (BRACKET_LO, Fraction(1, 2), Fraction(99, 100)):
                if _verified_sign(rho, probe) > 0:
                    raise ArithmeticError(f"defect unexpectedly positive at mu={probe} for rho=1")
            enclosure = Enclosure.exact(1)
        else:
            enclosure = _false_position(rho, width)
        residual = defect_integral(rho, enclosure.mid).value
    result = MuStarResult(rho, enclosure, residual)
    _CACHE[key] = result
    return result


def _false_position(rho: Fraction, width: Fraction) -> Enclosure:
    """Enclosure of mu*(rho), rho < 1, at most `width` wide."""
    ends = [BRACKET_LO, BRACKET_HI]
    vals = [_verified_sign(rho, mu) for mu in ends]
    if vals[0] > 0 or vals[1] < 0:
        raise ArithmeticError(f"bracket [{BRACKET_LO}, {BRACKET_HI}] does not straddle "
                              f"a sign change for rho={rho}")
    target = width / 4
    # probes sit on multiples of a power of two below target/64, which
    # keeps their denominators small; the bracket exceeds 64 grains, so a
    # probe clamped one grain inside it is interior
    grain = Fraction(1, 1 << math.ceil(64 / target).bit_length())
    last = None  # the end the previous probe replaced: 0 = lo, 1 = hi
    while ends[1] - ends[0] > target:
        lo, hi = ends
        c = lo + (hi - lo) * _as_fraction(vals[0] / (vals[0] - vals[1]))
        c = min(max(round(c / grain) * grain, lo + grain), hi - grain)
        try:
            val_c = _verified_sign(rho, c)
        except ArithmeticError:
            # probe landed too close to the root to sign-check; a quarter
            # point is at least bracket/4 from it and still shrinks the
            # bracket geometrically on either outcome
            c = (3 * lo + hi) / 4 if c - lo > hi - c else (lo + 3 * hi) / 4
            val_c = _verified_sign(rho, c)
        side = int(val_c > 0)  # c replaces the end of its own sign
        if side == last:
            # Anderson-Bjorck: the other end survives a second step in a
            # row, so its stored value is scaled by m = 1 - f(c)/f(replaced
            # end), or by 1/2 when m <= 0, to pull the next probe its way
            m = 1 - val_c / vals[side]
            vals[1 - side] *= m if m > 0 else 0.5
        ends[side], vals[side], last = c, val_c, side

    lo, hi = ends
    center = (lo + hi) / 2
    return Enclosure(
        max(BRACKET_LO, min(lo, center - width / 2)),
        min(BRACKET_HI, max(hi, center + width / 2)),
    )
