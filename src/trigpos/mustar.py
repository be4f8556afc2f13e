"""Critical exponent mu*(rho): the unique zero of a defect integral.

For rho in (0, 1] and c = rho*pi, D(rho, mu) = integral_0^(c+pi) sin(t - c)
t^(mu-1) dt has exactly one zero mu*(rho) in mu > 0, with D < 0 below it and
D > 0 above it: H(mu) = c^(-mu) D(rho, mu) has the mu-derivative

    integral_0^(c+pi) sin(t - c) ln(t/c) t^(-1) (t/c)^mu dt > 0,

since sin(t - c) and ln(t/c) change sign together at t = c (Polya & Szego,
Problems and Theorems in Analysis II, Part V; Karlin, Total Positivity,
1968).  At rho = 1, D(1, 1) = 1 + cos(pi) = 0, so mu*(1) = 1 exactly.  For
rho < 1 the root lies in the bracket [rho, min(1, 2*rho)]: as rho -> 0,
D(rho, mu) ~ Si(pi) - rho*pi/mu, so mu*/rho -> pi/Si(pi) = 1.696.  False
position with the Anderson-Bjorck correction (Anderson & Bjorck, BIT 13,
1973) narrows that bracket on verified signs only, where the series
enclosure value +/- err of D (see trigpos.quadrature) excludes 0.  Both
ends of the bracket are sign-checked first, and an end is only ever
replaced by a probe with a verified sign (Rump, Acta Numerica 19, 2010);
when a sign does not verify or the bracket does not straddle a sign
change, the search fails with ArithmeticError.  Uniqueness makes the
bracket's root the root; it replaces none of these verified signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp

from trigpos.exact import Enclosure, _as_fraction
from trigpos.precision import _as_mpf, workdps, working_dps
from trigpos.quadrature import QuadResult, _as_iv, fractional_osc_integral

__all__ = ["MuStarResult", "defect_integral", "mu_star", "width_floor", "PROOF_WIDTH"]

PROOF_WIDTH = Fraction(1, 10**20)  # the one enclosure width every proof and bound check runs on


@dataclass(frozen=True)
class MuStarResult:
    """Verified enclosure of mu*(rho).

    enclosure endpoints are exact rationals; D's only zero in mu > 0 (see
    the module docstring) lies strictly inside, or is the exact [1, 1] at
    rho = 1.  route ("verified", or "boundary" at rho = 1) and probes, the
    verified signs of D taken, say how it was found; empty when hand-built.
    """

    enclosure: Enclosure
    route: str = ""
    probes: int = 0


def defect_integral(rho, mu) -> QuadResult:
    """D(rho, mu) = integral_0^((rho+1)*pi) sin(t - rho*pi) t^(mu-1) dt over
    a rho box inside (0, 1] and a mu box, each in a form _as_iv reads (an
    Enclosure, an mpmath.iv interval, a Fraction, an mpf, ...)."""
    with workdps():
        rho = _as_iv(rho)
        if not (0 < rho.a and rho.b <= 1):
            raise ValueError("rho must lie in (0, 1]")
        rho_pi = rho * iv.pi
        return fractional_osc_integral("sin", -rho_pi, mu, rho_pi + iv.pi)


def _dec(x) -> str:
    """x in 25 significant digits, for messages: a probe's fraction runs to ~100."""
    return mp.nstr(_as_mpf(x), 25)


def _verified_sign(rho: Fraction, mu: Fraction) -> mp.mpf:
    """D(rho, mu), returned only when its sign is proven, 0 outside
    [value - err, value + err]; otherwise this raises."""
    res = defect_integral(rho, mu)
    if abs(res.value) > res.err:
        return res.value
    raise ArithmeticError(f"cannot resolve sign of defect at mu={_dec(mu)}: value "
                          f"{mp.nstr(res.value, 8)} vs err {mp.nstr(res.err, 3)}")


def width_floor() -> Fraction:
    """Smallest width mu_star accepts, 10^-working_dps(): at the proof
    precision D's err is below 10^-(working_dps() + 10) and |D'| ~ 1 near
    the root, so a probe a grain (width/256) or more away has a proven sign."""
    return Fraction(1, 10 ** working_dps())


def mu_star(rho, width=Fraction(1, 10**9)) -> MuStarResult:
    """Enclose mu*(rho) to the requested width.

    width is an exact rational (or anything Fraction() accepts) of at least
    width_floor().  The bracket [rho, min(1, 2*rho)] is rounded inward to
    about 100 significant bits, so each probe is a binary fraction that the
    series reads as a point at any rho, and narrowed to width/4, then
    re-centered, padded out to the full width and clipped to the bracket:
    the root sits near the middle, so the enclosure also contains its
    correctly-rounded decimal abbreviations.  A bracket already narrower
    than width/4 (rho tiny) is returned whole, its ends' signs verified.
    """
    rho = _as_fraction(rho)
    width = _as_fraction(width)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    if width < width_floor():
        raise ValueError(f"width must be at least 1e-{working_dps()}")

    if rho == 1:  # D(1, 1) = 0 exactly, and D's zero is unique
        return MuStarResult(Enclosure.exact(1), "boundary", 0)
    target, probes = width / 4, []
    ulp = Fraction(1, 2 ** (100 - rho.numerator.bit_length() + rho.denominator.bit_length()))
    bracket = (math.ceil(rho / ulp) * ulp, math.floor(min(1, 2 * rho) / ulp) * ulp)

    def verified(mu):
        probes.append(mu)
        return _verified_sign(rho, mu)

    with workdps():  # the probes and sign tests run at one precision, whatever the caller's
        try:
            lo, hi = _narrow(verified, bracket, target)
        except ArithmeticError as exc:
            raise ArithmeticError(f"cannot enclose mu*(rho) at rho = {_dec(rho)}: {exc}") from None
    center, half = (lo + hi) / 2, width / 2
    enc = Enclosure(max(bracket[0], min(lo, center - half)),
                    min(bracket[1], max(hi, center + half)))
    return MuStarResult(enc, "verified", len(probes))


def _narrow(sign, ends: list, target: Fraction) -> list:
    """Anderson-Bjorck false position: shrink ends = [lo, hi], where
    sign(lo) < 0 < sign(hi), to at most target wide.  sign(mu) returns a
    value of the sign of D at mu, or raises ArithmeticError when it cannot
    tell."""
    ends, vals = list(ends), [sign(mu) for mu in ends]
    if not vals[0] < 0 < vals[1]:
        raise ArithmeticError(
            f"[{_dec(ends[0])}, {_dec(ends[1])}] does not straddle a sign change")
    # probes sit on multiples of a power of two below target/64, which
    # keeps their denominators small; the bracket exceeds 64 grains, so a
    # probe clamped one grain inside it is interior
    grain = Fraction(1, 1 << math.ceil(64 / target).bit_length())
    last = None  # the end the previous probe replaced: 0 = lo, 1 = hi
    for _ in range(100):  # a cap for a sign function that stalls
        lo, hi = ends
        if hi - lo <= target:
            return ends
        c = lo + (hi - lo) * _as_fraction(vals[0] / (vals[0] - vals[1]))
        c = min(max(round(c / grain) * grain, lo + grain), hi - grain)
        try:
            val_c = sign(c)
        except ArithmeticError:
            # probe landed too close to the root to sign-check; a quarter
            # point is at least bracket/4 from it and still shrinks the
            # bracket geometrically on either outcome
            c = (3 * lo + hi) / 4 if c - lo > hi - c else (lo + 3 * hi) / 4
            val_c = sign(c)
        side = int(val_c > 0)  # c replaces the end of its own sign
        if side == last:
            # Anderson-Bjorck: the other end survives a second step in a
            # row, so its stored value is scaled by m = 1 - f(c)/f(replaced
            # end), or by 1/2 when m <= 0, to pull the next probe its way
            m = 1 - val_c / vals[side]
            vals[1 - side] *= m if m > 0 else 0.5
        ends[side], vals[side], last = c, val_c, side
    raise ArithmeticError(f"bracket not within {_dec(target)} after 100 probes")
