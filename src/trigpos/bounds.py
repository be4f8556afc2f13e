"""Closed-form lower-bound assembly for the trig-sum positivity cases.

Each certified case reduces a scaled partial sum to

    (main oscillatory integral) + (monotone bracket term) - (tail terms),

where the oscillatory part comes from trigpos.quadrature (a power series
with an error bound) and the rest are elementary closed forms.  This module
owns those closed forms:

* wedge(theta), the normalized weight-defect factor, and the rho = 2/3
  factors p, q and the n = 1 closed form u1_closed_form, with the
  interval proofs of their monotonicity;
* the X/Y/Z panel constants of the sampling lemma, which make up the
  tail block L3 of regions 1, 31, 32 and 33;
* the five composite region bounds L^(1), L^(2), L^(31), L^(32), L^(33)
  for the rho = 1/3 family, and the single master bound for rho = 2/3.

Every formula is written once, in mpmath.iv, and accepts numbers, iv
intervals or Enclosures; the elementary factors run at the caller's iv
precision and the composites at the proof precision (workdps).  A composite
takes its exponent from the caller and is evaluated once over the rho and
exponent boxes, with the kernel angles and the panel limits enclosed too
and each oscillatory integral entering as its value +/- its error bound:
the natural interval extension of the formula (Moore, Kearfott & Cloud,
Introduction to Interval Analysis, SIAM 2009).  Its interval contains the
bound at every rho and exponent in the boxes, assuming only that iv rounds
outward, so `positive` means positive for every admissible value.

Convention notes (resolved against the working derivation and pinned by
the exact agreement of two of the five composite values):

* the off-axis factor r(theta) uses the half-angle-doubled argument
  g(mu*(pi - 2*theta)/2 + eta(theta));
* every composite is L1 + L2 - L3 (the tail block always *subtracts*);
  the + variant is still computed and reported in components for
  comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp

from trigpos.precision import workdps, working_dps
from trigpos.quadrature import (_as_iv, _mid_rad, chi_reference_integral,
                                fractional_osc_integral, frak_K)

__all__ = [
    "BoundReport",
    "wedge",
    "lemma_XYZ",
    "p_factor",
    "q_factor",
    "u1_closed_form",
    "wedge_increasing",
    "p_decreasing",
    "q_decreasing",
    "small_angle_constant",
    "L_region",
    "two_thirds_master_bound",
    "REGIONS",
    "SCAN_RHOS",
]

REGIONS = ("1", "2", "31", "32", "33")
# the rho of the region-bound scan, 1/3 + k/200 for k = -2..2: it samples the
# bounds' continuity in rho at five points and proves nothing between them
SCAN_RHOS = tuple(Fraction(1, 3) + Fraction(k, 200) for k in range(-2, 3))


# ---------------------------------------------------------------------------
# Elementary factors: mpmath.iv intervals at the caller's iv precision
# ---------------------------------------------------------------------------


def wedge(theta, mu):
    """(1/sin theta) * (1 - (sin theta / theta)^(1-mu)), for 0 < theta < pi.

    Positive and increasing on (0, pi) for 0 < mu < 1, proven in
    wedge_increasing.  An interval theta must lie wholly inside (0, pi),
    checked against pi rounded down at the working precision, so a theta
    at or above that is refused: mp.pi at 30 digits, but not at mpmath's
    default 15, where mp.pi rounds below pi.
    """
    theta, mu = _as_iv(theta), _as_iv(mu)
    with workdps(working_dps()):
        pi_down = iv.pi.a
    if not (0 < theta.a and theta.b < pi_down):
        raise ValueError("theta must lie in (0, pi)")
    sin = iv.sin(theta)
    return (1 - (sin / theta) ** (1 - mu)) / sin


def lemma_XYZ(mu, n: int, a, b, a_z=None):
    """The three panel constants of the sampling lemma on [a, b], with the
    Z panel starting at a_z (default a):

        X = (b/sin b)   * (1-mu)/(4n) * (2 a n)^(mu-1)
        Y = (b/sin b)^2 * (1-mu)/(3n) * (2 a n)^(mu-1)
        Z = pi mu (1-mu) * (2 a_z (n+1))^(mu-2)

    Interval a, a_z and b must satisfy 0 < a, a_z < b <= pi/2 at every point.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mu, a, b = (_as_iv(v) for v in (mu, a, b))
    a_z = a if a_z is None else _as_iv(a_z)
    if not (0 < min(a.a, a_z.a) and max(a.b, a_z.b) < b.a and b.b <= iv.pi / 2 + mp.mpf("1e-12")):
        raise ValueError("need 0 < a, a_z < b <= pi/2")
    ratio = b / iv.sin(b)
    core = (1 - mu) * (2 * a * n) ** (mu - 1) / n
    z = iv.pi * mu * (1 - mu) * (2 * a_z * (n + 1)) ** (mu - 2)
    return ratio * core / 4, ratio**2 * core / 3, z


def p_factor(phi):
    """sin(phi/3 + pi/6) / sin(phi): positive on (0, pi).

    Decreasing on (0, pi/5], proven in p_decreasing; past phi ~ 1.35 it
    turns increasing again, so no claim is made there.
    """
    phi = _as_iv(phi)
    return iv.sin(phi / 3 + iv.pi / 6) / iv.sin(phi)


def q_factor(phi):
    """sin(phi) / sin(phi/3) = 1 + 2 cos(2 phi/3): positive, decreasing on
    (0, pi/2), proven in q_decreasing."""
    return 1 + 2 * iv.cos(2 * _as_iv(phi) / 3)


def u1_closed_form(mu, phi):
    """(1 - mu) sin(phi/3 + pi/3) + 2 mu sin(4 phi/3 + pi/3) cos(phi), which
    is U_1 = cos(phi/3 - pi/6) + mu cos(7 phi/3 - pi/6) by the product-to-sum
    formula; for 0 <= mu < 1 both summands are >= 0 on [0, pi/2]."""
    mu, phi = _as_iv(mu), _as_iv(phi)
    return ((1 - mu) * iv.sin(phi / 3 + iv.pi / 3)
            + 2 * mu * iv.sin(4 * phi / 3 + iv.pi / 3) * iv.cos(phi))


def wedge_increasing(mu, theta) -> bool:
    """Whether wedge(., m) is proven positive and increasing on the interval
    theta (0 excepted) for every m in mu.  With a = 1 - m, s = sin t / t:
    s^a < 1 makes wedge > 0, and the numerator of wedge' is
    a s^(a-1) sin t (sin t - t cos t) / t^2 - (1 - s^a) cos t.  Where cos t
    <= 0 both parts are >= 0, the first > 0.  Where cos t >= 0, 1 - s^a <=
    a s^(a-1) (1 - s) bounds it below by a s^(a-1) (sin^2 t - t^2 cos t) / t^2,
    and the Taylor bounds of sin and cos give sin^2 t - t^2 cos t >= t^4
    (12 - t^2)/72 > 0.  So 0 < mu < 1 and theta in [0, pi) prove it.
    """
    mu, theta = _as_iv(mu), _as_iv(theta)
    return bool(0 < mu.a and mu.b < 1 and 0 <= theta.a and theta.b < iv.pi.a)


def p_decreasing(phi) -> bool:
    """Whether p_factor is proven positive and decreasing on the interval phi
    (0 excepted): on (0, pi), p' = N / sin^2 phi with N = cos(phi/3 + pi/6)
    sin(phi)/3 - sin(phi/3 + pi/6) cos(phi), so N below 0 over the box and p
    above 0 at its right end prove it; on [0, pi/5], N <= -0.2348."""
    phi = _as_iv(phi)
    shifted = phi / 3 + iv.pi / 6
    slope = iv.cos(shifted) * iv.sin(phi) / 3 - iv.sin(shifted) * iv.cos(phi)
    return bool(0 <= phi.a and phi.b < iv.pi.a and slope.b < 0 and p_factor(phi.b).a > 0)


def q_decreasing(phi) -> bool:
    """Whether q_factor is proven positive and decreasing on the interval phi
    (0 excepted): q' = -(4/3) sin(2 phi/3) < 0 while 2 phi/3 lies in (0, pi),
    and then q is positive where it is at the right end."""
    phi = _as_iv(phi)
    return bool(0 <= phi.a and (2 * phi.b / 3).b < iv.pi.a and q_factor(phi.b).a > 0)


def small_angle_constant(mu):
    """mu cos(2pi/3 - mu pi/2) - wedge(pi/5): the bracket of the rho = 2/3
    master bound, which the proof needs positive."""
    mu = _as_iv(mu)
    return mu * iv.cos(2 * iv.pi / 3 - mu * iv.pi / 2) - wedge(iv.pi / 5, mu)


# ---------------------------------------------------------------------------
# Composite reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One evaluated composite bound.

    value/err: the midpoint and the upward-rounded radius of the bound's
    mpmath.iv interval over the caller's rho and exponent boxes, covering
    the error bounds of its integrals.  components holds the named sub-terms,
    each the midpoint of its own interval, for display and cross-checks.
    """

    value: mp.mpf
    err: mp.mpf
    components: dict

    @property
    def positive(self) -> bool:
        return self.value - self.err > 0


def _report(total, comps: dict) -> BoundReport:
    value, err = _mid_rad(total)
    return BoundReport(value, err, {k: _mid_rad(v)[0] for k, v in comps.items()})


def _r_shifted(g, nu, theta, eta):
    """r(theta) = g(nu (pi - 2 theta)/2 + eta(theta))."""
    return g(nu * (iv.pi - 2 * theta) / 2 + eta)


def _region_1(rho, nu):
    """(L1, L2, L3, named terms) of region 1."""
    b = iv.pi / 3
    s_2pi = _as_iv(fractional_osc_integral("sin", 0, nu, 2 * iv.pi))
    c_7pi4 = _as_iv(fractional_osc_integral("cos", 0, nu, 7 * iv.pi / 4))
    l1 = iv.cos(rho * b) / iv.sin(b) * s_2pi + rho * c_7pi4
    q0 = iv.sin((nu - 1) * iv.pi / 2)
    r0 = _r_shifted(iv.sin, nu, 0, 0)
    l2 = iv.gamma(nu) * (2 * q0 * iv.sin(nu * b / 2) / iv.sin(b) - r0 * wedge(b, nu))
    l3 = sum(lemma_XYZ(nu, 3, iv.pi / 4, b))
    return l1, l2, l3, {"S_2pi": s_2pi, "C_7pi4": c_7pi4, "q0": q0, "r0": r0}


def _region_3x(which: str, rho, nu):
    """(L1, L2, L3, named terms) of region 31, 32 or 33: L1 is the kernel
    frak_K on (b, x), and the bracket factors are frozen at theta0."""
    pi = iv.pi
    if which == "31":
        b, x, theta0 = pi / 12, pi, pi / 8
        l3 = sum(lemma_XYZ(nu, 3, pi / 15, theta0, a_z=pi / 12))
    elif which == "32":
        b, x, theta0 = pi / 6, (1 + 5 * rho / 6) * pi, pi / 6
        l3 = sum(lemma_XYZ(nu, 4, pi / 10, theta0))
    else:  # "33"
        b, x, theta0 = pi / 3, 3 * pi / 2, pi / 3
        l3 = sum(lemma_XYZ(nu, 4, pi / 6, theta0))
    eta0 = rho * theta0 + (iv.mpf(1) / 2 - rho) * pi
    q0 = iv.cos(nu * pi / 2 - rho * pi)
    r_theta0 = _r_shifted(iv.cos, nu, theta0, eta0)
    wedge_theta0 = wedge(theta0, nu)
    l2 = iv.gamma(nu) * (nu * q0 - r_theta0 * wedge_theta0)
    return _as_iv(frak_K(b, x, rho, nu)), l2, l3, {
        "q0": q0, "r_theta0": r_theta0, "wedge_theta0": wedge_theta0}


def L_region(region, rho=Fraction(1, 3), *, nu) -> BoundReport:
    """Composite lower bound L^(region) over the rho and exponent boxes.

    region is one of "1", "2", "31", "32", "33"; rho and nu are each an
    Enclosure, an mpmath.iv interval or a number inside (0, 1] (else
    ValueError), nu usually the critical-exponent enclosure at rho.
    """
    region = str(region)
    if region not in REGIONS:
        raise ValueError(f"region must be one of {REGIONS}, got {region!r}")
    with workdps():
        rho, nu = _as_iv(rho), _as_iv(nu)
        if not (0 < rho.a and rho.b <= 1 and 0 < nu.a and nu.b <= 1):
            raise ValueError("rho and nu must lie in (0, 1]")
        if region == "2":  # closed form, no quadrature
            main = (2 * iv.sin(2 * iv.pi / 3)) ** (-nu) * iv.sin(iv.pi / 6 * (4 * rho - nu))
            tail = nu * (nu + 1) * (nu + 2) * (nu + 3) / (24 * iv.sin(iv.pi / 3))
            return _report(main - tail, {"main": main, "tail": tail})
        if region == "1":
            l1, l2, l3, terms = _region_1(rho, nu)
        else:
            l1, l2, l3, terms = _region_3x(region, rho, nu)
        total = l1 + l2 - l3
        return _report(total, {
            "L1": l1, "L2": l2, "L3": l3, **terms, "L_minus_L3": total, "L_plus_L3": l1 + l2 + l3})


def two_thirds_master_bound(mu) -> BoundReport:
    """The single composite bound for the rho = 2/3 middle range:

        Gamma(mu) (mu cos(2pi/3 - mu pi/2) - wedge(pi/5))
        + chi - (1-mu)/80 * pi/sin(pi/5)
        - (1-mu)/300 * (pi/sin(pi/5))^2 - mu(1-mu) pi^(mu-1)

    with chi the minimized oscillatory integral from
    chi_reference_integral, over the exponent box mu (an Enclosure, an
    mpmath.iv interval or a number), usually the enclosure of mu*(2/3).
    """
    with workdps():
        mu = _as_iv(mu)
        s_ratio = iv.pi / iv.sin(iv.pi / 5)
        comps = {
            "prop_term": iv.gamma(mu) * small_angle_constant(mu),
            "chi": _as_iv(chi_reference_integral(mu)),
            "sigma_tail": (1 - mu) / 80 * s_ratio,
            "tau_tail": (1 - mu) / 300 * s_ratio**2,
            "delta_tail": mu * (1 - mu) * iv.pi ** (mu - 1),
        }
        total = (comps["prop_term"] + comps["chi"] - comps["sigma_tail"]
                 - comps["tau_tail"] - comps["delta_tail"])
        return _report(total, comps)

