"""Closed-form lower-bound assembly for the trig-sum positivity cases.

Each certified case reduces a scaled partial sum to

    (main oscillatory integral) + (monotone bracket term) - (tail terms),

where the oscillatory part comes from trigpos.quadrature (a power series
with an error bound) and the rest are elementary closed forms.  This module
owns those closed forms:

* wedge(theta), the normalized weight-defect factor;
* the X/Y/Z panel constants of the sampling lemma, which make up the
  tail block L3 of regions 1, 32 and 33;
* the five composite region bounds L^(1), L^(2), L^(31), L^(32), L^(33)
  for the rho = 1/3 family, and the single master bound for rho = 2/3.

All composite bounds are evaluated at an *enclosure* of the critical
exponent: the reported err combines the series error bound with the spread
of the formula across the enclosure endpoints, so `positive` means positive
for every admissible exponent value, not just the midpoint.  The spread
term is an estimate: it assumes the endpoint spread bounds the variation of
the formula over the enclosure.

Convention notes (resolved against the working derivation and pinned by
the exact agreement of two of the five composite values):

* the off-axis factor r(theta) uses the half-angle-doubled argument
  g(mu*(pi - 2*theta)/2 + eta(theta));
* every composite is L1 + L2 - L3 (the tail block always *subtracts*);
  the + variant is still computed and reported in components for
  comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import iv, mp

from trigpos.exact import Enclosure, _as_fraction
from trigpos.mustar import mu_star
from trigpos.precision import iv_dps, working_dps
from trigpos.quadrature import chi_reference_integral, fractional_osc_integral, frak_K

__all__ = [
    "BoundReport",
    "wedge",
    "lemma_XYZ",
    "p_factor",
    "q_factor",
    "L_region",
    "two_thirds_master_bound",
    "scan_neighborhood",
    "REGIONS",
]

REGIONS = ("1", "2", "31", "32", "33")

_DEFAULT_NU_WIDTH = Fraction(1, 10**12)


# ---------------------------------------------------------------------------
# Elementary factors
# ---------------------------------------------------------------------------


def wedge(theta, mu):
    """(1/sin theta) * (1 - (sin theta / theta)^(1-mu)), for 0 < theta < pi.

    Positive and increasing on (0, pi).
    """
    theta = mp.mpf(theta)
    mu = mp.mpf(mu)
    if not 0 < theta < mp.pi:
        raise ValueError("theta must lie in (0, pi)")
    return (1 - (mp.sin(theta) / theta) ** (1 - mu)) / mp.sin(theta)


def lemma_XYZ(mu, n: int, a, b):
    """The three panel constants of the sampling lemma on [a, b]:

        X = (b/sin b)   * (1-mu)/(4n) * (2 a n)^(mu-1)
        Y = (b/sin b)^2 * (1-mu)/(3n) * (2 a n)^(mu-1)
        Z = pi mu (1-mu) * (2 a (n+1))^(mu-2)
    """
    mu = mp.mpf(mu)
    a = mp.mpf(a)
    b = mp.mpf(b)
    if not 0 < a < b <= mp.pi / 2 + mp.mpf("1e-12"):
        raise ValueError("need 0 < a < b <= pi/2")
    if n < 1:
        raise ValueError("n must be >= 1")
    ratio = b / mp.sin(b)
    core = (1 - mu) * (2 * a * n) ** (mu - 1) / n
    x = ratio * core / 4
    y = ratio**2 * core / 3
    z = mp.pi * mu * (1 - mu) * (2 * a * (n + 1)) ** (mu - 2)
    return x, y, z


def p_factor(phi):
    """sin(phi/3 + pi/6) / sin(phi): positive on (0, pi/2).

    Decreasing on (0, pi/5], the only range the chi minimization samples;
    past phi ~ 1.35 it turns increasing again, so no claim is made there.
    """
    phi = mp.mpf(phi)
    return mp.sin(phi / 3 + mp.pi / 6) / mp.sin(phi)


def q_factor(phi):
    """sin(phi) / sin(phi/3): positive, decreasing on (0, pi/2)."""
    phi = mp.mpf(phi)
    return mp.sin(phi) / mp.sin(phi / 3)


# ---------------------------------------------------------------------------
# Composite reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One evaluated composite bound.

    value/err: the bound and a combined error figure (series error bound
    plus exponent-enclosure sensitivity).  components holds the named
    sub-terms at the enclosure midpoint, for display and cross-checks.
    """

    label: str
    rho: Fraction
    value: mp.mpf
    err: mp.mpf
    components: dict = field(default_factory=dict)

    @property
    def positive(self) -> bool:
        return self.value - self.err > 0


def _frac_to_mpf(f: Fraction):
    return mp.mpf(f.numerator) / f.denominator


def _nu_enclosure(rho: Fraction, nu) -> Enclosure:
    if nu is None:
        return mu_star(rho, width=_DEFAULT_NU_WIDTH).enclosure
    if isinstance(nu, Enclosure):
        return nu
    return Enclosure.exact(nu)


def _sensitivity_eval(formula, enc: Enclosure):
    """formula: nu_mp -> (value, err, components).  Evaluates at the
    enclosure midpoint and, for a nondegenerate enclosure, folds the
    endpoint spread into the reported error."""
    v_mid, e_mid, comps = formula(_frac_to_mpf(enc.mid))
    if enc.is_exact():
        return v_mid, e_mid, comps
    v_lo, e_lo, _ = formula(_frac_to_mpf(enc.lo))
    v_hi, e_hi, _ = formula(_frac_to_mpf(enc.hi))
    spread = max(abs(v_lo - v_mid), abs(v_hi - v_mid))
    return v_mid, e_mid + spread + max(e_lo, e_hi), comps


def _r_shifted(g, nu, theta, eta):
    """r(theta) = g(nu (pi - 2 theta)/2 + eta(theta))."""
    return g(nu * (mp.pi - 2 * theta) / 2 + eta)


def _region_1(rho_mp):
    b = mp.pi / 3

    def formula(nu):
        with iv_dps(working_dps() + 15):  # the upper limits, enclosed
            s_res = fractional_osc_integral("sin", 0, nu, 2 * iv.pi)
            c_res = fractional_osc_integral("cos", 0, nu, 7 * iv.pi / 4)
        l1 = (mp.cos(rho_mp * b) / mp.sin(b)) * s_res.value + rho_mp * c_res.value
        q0 = mp.sin((nu - 1) * mp.pi / 2)
        r0 = _r_shifted(mp.sin, nu, mp.mpf(0), rho_mp * mp.mpf(0))
        l2 = mp.gamma(nu) * (
            2 * q0 * mp.sin(nu * b / 2) / mp.sin(b) - r0 * wedge(b, nu)
        )
        l3 = sum(lemma_XYZ(nu, 3, mp.pi / 4, b))
        quad_err = (
            abs(mp.cos(rho_mp * b) / mp.sin(b)) * s_res.err + rho_mp * c_res.err
        )
        comps = {
            "L1": l1,
            "L2": l2,
            "L3": l3,
            "S_2pi": s_res.value,
            "C_7pi4": c_res.value,
            "q0": q0,
            "r0": r0,
            "L_minus_L3": l1 + l2 - l3,
            "L_plus_L3": l1 + l2 + l3,
        }
        return l1 + l2 - l3, quad_err, comps

    return formula


def _region_2(rho_mp):
    def formula(nu):  # closed form, no quadrature
        main = (2 * mp.sin(2 * mp.pi / 3)) ** (-nu) * mp.sin(
            (mp.pi / 6) * (4 * rho_mp - nu)
        )
        poch4 = nu * (nu + 1) * (nu + 2) * (nu + 3)
        tail = poch4 / (24 * mp.sin(mp.pi / 3))
        comps = {"main": main, "tail": tail}
        return main - tail, mp.mpf(0), comps

    return formula


# (b for the oscillatory kernel, kernel upper limit, theta at which the
# bracket factors are frozen, tail block L3) per region
def _region_3x(which: str, rho_mp):
    if which == "31":
        b_kernel = mp.pi / 12
        x_upper = mp.pi
        theta0 = mp.pi / 8

        def tail(nu):
            # explicit: the X/Y panels use a = pi/15, the Z panel a = pi/12
            ratio = theta0 / mp.sin(theta0)
            return (
                ratio * (1 - nu) / 12 * (2 * mp.pi / 5) ** (nu - 1)
                + ratio**2 * (1 - nu) / 9 * (2 * mp.pi / 5) ** (nu - 1)
                + nu * (1 - nu) * mp.pi * (2 * mp.pi / 3) ** (nu - 2)
            )

    elif which == "32":
        b_kernel = mp.pi / 6
        x_upper = (1 + 5 * rho_mp / 6) * mp.pi
        theta0 = mp.pi / 6

        def tail(nu):
            return sum(lemma_XYZ(nu, 4, mp.pi / 10, theta0))

    else:  # "33"
        b_kernel = mp.pi / 3
        x_upper = 3 * mp.pi / 2
        theta0 = mp.pi / 3

        def tail(nu):
            return sum(lemma_XYZ(nu, 4, mp.pi / 6, theta0))

    def formula(nu):
        k_res = frak_K(b_kernel, x_upper, rho_mp, nu)
        eta0 = rho_mp * theta0 + (mp.mpf(1) / 2 - rho_mp) * mp.pi
        q0 = mp.cos(nu * mp.pi / 2 - rho_mp * mp.pi)
        r_theta = _r_shifted(mp.cos, nu, theta0, eta0)
        l2 = mp.gamma(nu) * (nu * q0 - r_theta * wedge(theta0, nu))
        l3 = tail(nu)
        comps = {
            "L1": k_res.value,
            "L2": l2,
            "L3": l3,
            "q0": q0,
            "r_theta0": r_theta,
            "wedge_theta0": wedge(theta0, nu),
            "L_minus_L3": k_res.value + l2 - l3,
            "L_plus_L3": k_res.value + l2 + l3,
        }
        return k_res.value + l2 - l3, k_res.err, comps

    return formula


def L_region(region, rho=Fraction(1, 3), nu=None) -> BoundReport:
    """Composite lower bound L^(region) at the given rho.

    region is one of "1", "2", "31", "32", "33".  nu defaults to the
    critical-exponent enclosure for rho (computed on demand); pass an
    Enclosure or an exact number to override.
    """
    region = str(region)
    if region not in REGIONS:
        raise ValueError(f"region must be one of {REGIONS}, got {region!r}")
    rho = _as_fraction(rho)
    enc = _nu_enclosure(rho, nu)
    with mp.workdps(working_dps() + 10):
        rho_mp = _frac_to_mpf(rho)
        if region == "1":
            formula = _region_1(rho_mp)
        elif region == "2":
            formula = _region_2(rho_mp)
        else:
            formula = _region_3x(region, rho_mp)
        value, err, comps = _sensitivity_eval(formula, enc)
        return BoundReport(f"L({region})", rho, value, err, comps)


def two_thirds_master_bound(mu=None) -> BoundReport:
    """The single composite bound for the rho = 2/3 middle range:

        Gamma(mu) (mu cos(2pi/3 - mu pi/2) - wedge(pi/5))
        + chi - (1-mu)/80 * pi/sin(pi/5)
        - (1-mu)/300 * (pi/sin(pi/5))^2 - mu(1-mu) pi^(mu-1)

    with chi the minimized oscillatory integral from
    chi_reference_integral.  mu defaults to the critical-exponent
    enclosure at rho = 2/3.
    """
    rho = Fraction(2, 3)
    enc = _nu_enclosure(rho, mu)
    with mp.workdps(working_dps() + 10):

        def formula(m):
            chi = chi_reference_integral(m)
            prop_term = mp.gamma(m) * (
                m * mp.cos(2 * mp.pi / 3 - m * mp.pi / 2) - wedge(mp.pi / 5, m)
            )
            s_ratio = mp.pi / mp.sin(mp.pi / 5)
            sigma_tail = (1 - m) / 80 * s_ratio
            tau_tail = (1 - m) / 300 * s_ratio**2
            delta_tail = m * (1 - m) * mp.pi ** (m - 1)
            value = prop_term + chi.value - sigma_tail - tau_tail - delta_tail
            comps = {
                "prop_term": prop_term,
                "chi": chi.value,
                "sigma_tail": sigma_tail,
                "tau_tail": tau_tail,
                "delta_tail": delta_tail,
            }
            return value, chi.err, comps

        value, err, comps = _sensitivity_eval(formula, enc)
        return BoundReport("master(2/3)", rho, value, err, comps)


def scan_neighborhood(
    region,
    center=Fraction(1, 3),
    radius=Fraction(1, 100),
    steps: int = 2,
    width=Fraction(1, 10**9),
) -> list[BoundReport]:
    """Evaluate L_region on a symmetric rho-grid around center.

    Exhibits the continuity-in-rho behaviour of the composite bounds: each
    grid point gets its own critical-exponent enclosure (at the given
    width) and a full report.  steps is the number of points on each side.
    """
    center = _as_fraction(center)
    radius = _as_fraction(radius)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    reports = []
    for k in range(-steps, steps + 1):
        rho = center + radius * k / max(steps, 1)
        enc = mu_star(rho, width=width).enclosure
        reports.append(L_region(region, rho=rho, nu=enc))
    return reports
