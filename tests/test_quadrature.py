"""Singular oscillatory integrals: dual-route checks and frozen oracles.

Every series value is checked against mpmath.quad on the substituted
integrand (tests/oracles.py), which shares no code with the series route.
Frozen constants below were produced by the series route at mp.dps = 50 and
rounded to the digits shown.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from mpmath import iv, mp

from oracles import osc_integral
from trigpos.exact import Enclosure
from trigpos.mustar import mu_star
from trigpos.quadrature import (
    QuadResult,
    _alternating_sum,  # private: its carried bound is checked at coarse precision
    _estimate,  # private: mu_star's unverified seed
    chi_reference_integral,
    fractional_osc_integral,
    frak_K,
    min_over_upper_limit,
    series_reference,
)
from trigpos.precision import iv_dps, working_dps

mp.dps = 30

NU0 = mp.mpf("0.49669136508129942616")
MU23 = mp.mpf("0.84685556828952869987")

# frozen reference values for integral_0^x g(t) t^(mu-1) dt
FROZEN = [
    ("sin", NU0, 2 * mp.pi, mp.mpf("0.864878993147")),
    ("cos", NU0, 7 * mp.pi / 4, mp.mpf("0.949336332076")),
    ("sin", NU0, mp.pi, mp.mpf("1.78904140403")),
    ("cos", NU0, mp.pi, mp.mpf("1.34063338747")),
    ("sin", MU23, mp.pi, mp.mpf("1.91201322772")),
    ("cos", MU23, mp.pi, mp.mpf("0.300957342747")),
]


def test_dual_route_agreement_zero_phase():
    for kind in ("sin", "cos"):
        for mu in (mp.mpf("0.3"), NU0, MU23):
            for x in (mp.mpf("0.1"), mp.mpf(1), mp.pi, 2 * mp.pi):
                quad = fractional_osc_integral(kind, 0, mu, x)
                ref = osc_integral(kind, 0, mu, x)
                assert not quad.flagged
                assert abs(quad.value - ref) <= quad.err + mp.mpf("1e-24")


def test_dual_route_agreement_shifted_phase():
    eta = -mp.pi / 10
    for kind in ("sin", "cos"):
        for x in (mp.mpf("0.5"), mp.pi, 8 * mp.pi / 5):
            quad = fractional_osc_integral(kind, eta, MU23, x)
            ref = osc_integral(kind, eta, MU23, x)
            assert abs(quad.value - ref) <= quad.err + mp.mpf("1e-24")


def test_dual_route_randomized():
    rng = random.Random(9)
    for _ in range(25):
        kind = rng.choice(("sin", "cos"))
        mu = mp.mpf(rng.uniform(0.05, 1.0))
        x = mp.mpf(rng.uniform(0.05, 4 * 3.14159))
        eta = mp.mpf(rng.uniform(-3.14, 3.14))
        quad = fractional_osc_integral(kind, eta, mu, x)
        ref = osc_integral(kind, eta, mu, x)
        assert abs(quad.value - ref) <= quad.err + mp.mpf("1e-22"), (kind, mu, x, eta)


def _plain_series(offset, mu, x, scale=True):
    """sum_j (-1)^j x^(k+mu) / (k! (k+mu)), k = 2j + offset, summed with
    plain mpmath at 120 digits (without the factor x^mu if not scale)."""
    with mp.workdps(120):
        total, j = mp.mpf(0), 0
        while True:
            k = 2 * j + offset
            term = x ** k / (mp.factorial(k) * (k + mu))
            total += -term if j % 2 else term
            if term < mp.mpf("1e-110") and x * x < (k + 1) * (k + 2):
                return total * x ** mu if scale else total
            j += 1


def _bound_draws():
    """64 seeded (kind, eta, mu, x): both kinds, eta = 0 and random, mu and
    x at their extremes (0.01, 1; 1e-6, 8 pi) and random in between."""
    rng = random.Random(2024)
    mus = (mp.mpf("0.01"), mp.mpf(1), None, None)  # None: a random draw
    xs = (mp.mpf("1e-6"), 8 * mp.pi, None, None)
    draws = []
    for kind, zero_eta, mu, x in itertools.product(("sin", "cos"), (True, False), mus, xs):
        eta = mp.mpf(0) if zero_eta else mp.mpf(rng.uniform(-3.2, 3.2))
        mu = mu if mu is not None else mp.mpf(rng.uniform(0.01, 1.0))
        x = x if x is not None else mp.mpf(rng.uniform(1e-6, 8 * 3.14159))
        draws.append((kind, eta, mu, x))
    return draws


def test_error_bound_holds_against_a_120_digit_sum():
    draws = _bound_draws()
    assert len(draws) >= 60
    for kind, eta, mu, x in draws:
        quad = fractional_osc_integral(kind, eta, mu, x)
        s, c = _plain_series(1, mu, x), _plain_series(0, mu, x)
        with mp.workdps(120):
            if kind == "sin":
                ref = mp.cos(eta) * s + mp.sin(eta) * c
            else:
                ref = mp.cos(eta) * c - mp.sin(eta) * s
            assert abs(quad.value - ref) <= quad.err, (kind, eta, mu, x)
        assert quad.err <= mp.mpf("1e-40"), (kind, eta, mu, x)


def test_carried_floor_bound_at_coarse_precision():
    # at x = 8 pi the terms reach e^x ~ 2^36 before they cancel.  With p
    # bits and the stop at eps = 3 ulps, the floors alone move some sums by
    # more than eps, so only the carried bound E covers them.  (At the
    # working precision they stay near 1e-57, far below eps.)
    worst = 0
    for p in range(12, 52, 4):
        with mp.workdps(60):
            xf = int(mp.ldexp(8 * mp.pi, p))
        for offset, mu in itertools.product((0, 1), ("0.01", "0.5", "1")):
            m = int(mp.ldexp(mp.mpf(mu), p))
            s, e = _alternating_sum(offset, m, xf, p, 3)
            with mp.workdps(120):  # x = xf 2^-p and mu = m 2^-p exactly
                exact = _plain_series(offset, mp.ldexp(m, -p), mp.ldexp(xf, -p), scale=False)
                gap = abs(s - mp.ldexp(exact, p))
            assert gap <= e, (p, offset, mu)
            worst = max(worst, gap)
    assert worst > 3


def test_result_ignores_the_callers_precision():
    with mp.workdps(50):
        args = [(kind, mp.pi / 7 * j, mp.mpf(1) / 3 + j / mp.mpf(10), mp.e * j)
                for j in (1, 2, 3) for kind in ("sin", "cos")]
    for kind, eta, mu, x in args:
        with mp.workdps(15):
            low = fractional_osc_integral(kind, eta, mu, x)
        with mp.workdps(50):
            high = fractional_osc_integral(kind, eta, mu, x)
        assert low == high


def test_frozen_endpoint_values():
    for kind, mu, x, want in FROZEN:
        quad = fractional_osc_integral(kind, 0, mu, x)
        assert abs(quad.value - want) < mp.mpf("1e-11")
        # and the independent route agrees with the same frozen digits
        assert abs(osc_integral(kind, 0, mu, x) - want) < mp.mpf("1e-11")


def test_mu_one_elementary_antiderivative():
    # at mu = 1 the weight disappears and the integral is elementary:
    # int_0^x sin(t + eta) dt = cos(eta) - cos(x + eta), similarly for cos
    for x in (mp.mpf("0.7"), mp.pi, 3 * mp.pi / 2):
        for eta in (mp.mpf(0), -mp.pi / 10, mp.mpf("1.1")):
            s = fractional_osc_integral("sin", eta, 1, x)
            assert abs(s.value - (mp.cos(eta) - mp.cos(x + eta))) < mp.mpf("1e-24")
            c = fractional_osc_integral("cos", eta, 1, x)
            assert abs(c.value - (mp.sin(x + eta) - mp.sin(eta))) < mp.mpf("1e-24")


@pytest.fixture(scope="module")
def mu23_box():
    return mu_star(F(2, 3), width=F(1, 10**20)).enclosure


@pytest.mark.parametrize("dps", ["30", "40"])
def test_quadresult_is_value_and_err_with_a_derived_flag(monkeypatch, mu23_box, dps):
    assert [f.name for f in dataclasses.fields(QuadResult)] == ["value", "err"]
    assert not hasattr(QuadResult, "scaled")
    monkeypatch.setenv("TRIGPOS_PRECISION", dps)
    point = fractional_osc_integral("cos", 0, MU23, mp.pi)
    # the 1e-20 box widens err by |d mu| times the mu-derivative bound
    chi = chi_reference_integral(mu23_box)
    assert (point.flagged, chi.flagged) == (False, True)
    for res in (point, chi):
        assert res.flagged == (res.err > mp.mpf(10) ** (5 - int(dps)))
    assert mp.mpf("1e-19") < chi.err < mp.mpf("1e-18")


def test_scaled_encloses_the_exact_product():
    # chi_reference_integral and frak_K round the factor 1/sin b and the
    # product: err must cover both ends of the unscaled integral times the
    # exact factor
    b, rho = mp.pi / 6, F(1, 3)
    with iv_dps(working_dps() + 15):
        rho_iv = iv.mpf(1) / 3
        eta = rho_iv * b - (rho_iv - iv.mpf(1) / 2) * iv.pi
        cases = (
            (chi_reference_integral(MU23),
             fractional_osc_integral("cos", -iv.pi / 10, MU23, 8 * iv.pi / 5)),
            (frak_K(b, mp.pi, rho, NU0), fractional_osc_integral("cos", eta, NU0, mp.pi)),
        )
    with mp.workdps(100):
        for (s, r), exact in zip(cases, (1 / mp.sin(mp.pi / 5), 1 / mp.sin(b))):
            for end in (r.value - r.err, r.value + r.err):
                assert s.value - s.err <= end * exact <= s.value + s.err
            assert 0 < s.err < mp.mpf("1e-40")


def test_input_guards():
    with pytest.raises(ValueError):
        fractional_osc_integral("tan", 0, NU0, 1)
    with pytest.raises(ValueError):
        fractional_osc_integral("sin", 0, mp.mpf("1.5"), 1)
    with pytest.raises(ValueError):
        fractional_osc_integral("sin", 0, NU0, 0)
    with pytest.raises(ValueError):
        series_reference("sin", NU0, 8 * mp.pi + mp.mpf("0.1"))
    with pytest.raises(ValueError):
        fractional_osc_integral("sin", 0, NU0, 8 * mp.pi + mp.mpf("0.1"))
    with pytest.raises(ValueError):
        series_reference("cos", mp.mpf(0), 1)
    with pytest.raises(ValueError):
        frak_K(mp.pi / 2 + mp.mpf("0.01"), mp.pi, mp.mpf(1) / 3, NU0)
    with pytest.raises(ValueError):
        frak_K(0, mp.pi, mp.mpf(1) / 3, NU0)


def _box(*ends):
    """[first, last] of Fractions, rounded outward at the precision the
    series route reads its arguments at, working_dps() + 15 digits."""
    lo, hi = ends[0], ends[-1]
    with iv_dps(working_dps() + 15):
        return iv.mpf([(iv.mpf(lo.numerator) / lo.denominator).a,
                       (iv.mpf(hi.numerator) / hi.denominator).b])


MU_ENC = Enclosure(F(84685556828, 10**11), F(84685556830, 10**11))


def test_fraction_and_enclosure_arguments_give_the_equal_mpf_or_iv_result():
    # a dyadic Fraction is its mpf exactly; another Fraction is its iv box
    # and an Enclosure its hull, both at working_dps() + 15 digits
    assert (fractional_osc_integral("sin", F(1, 4), F(1, 2), F(3, 2))
            == fractional_osc_integral("sin", mp.mpf("0.25"), mp.mpf("0.5"), mp.mpf("1.5")))
    assert series_reference("cos", F(1, 2), F(3, 2), F(-1, 8)) == series_reference(
        "cos", mp.mpf("0.5"), mp.mpf("1.5"), mp.mpf("-0.125"))
    enc = Enclosure(F(2, 7), F(3, 7))
    assert (fractional_osc_integral("cos", enc, F(1, 3), F(7, 3))
            == fractional_osc_integral("cos", _box(enc.lo, enc.hi), _box(F(1, 3)), _box(F(7, 3))))
    mu = _box(MU_ENC.lo, MU_ENC.hi)
    assert frak_K(mp.pi / 6, F(11, 5), F(1, 3), MU_ENC) == frak_K(mp.pi / 6, _box(F(11, 5)),
                                                                  F(1, 3), mu)
    assert chi_reference_integral(MU_ENC) == chi_reference_integral(mu)
    assert (min_over_upper_limit("cos", Enclosure(F(-1, 10), F(-1, 10)), MU_ENC, F(22, 7))
            == min_over_upper_limit("cos", _box(F(-1, 10)), mu, _box(F(22, 7))))


def test_a_fraction_argument_is_enclosed_exactly():
    res = fractional_osc_integral("sin", F(-1, 3), F(1, 3), F(7, 3))
    with mp.workdps(80):
        ref = osc_integral("sin", -mp.mpf(1) / 3, mp.mpf(1) / 3, mp.mpf(7) / 3, dps=50)
    assert _contains(res, ref) and res.err < mp.mpf("1e-40")


@pytest.mark.parametrize("eta, mu, x", [
    (0, NU0, iv.mpf(["-0.5", "1"])),  # an x box reaching below 0
    (0, iv.mpf(["0.4", "0.6"]), iv.mpf(["-0.1", "1.9"])),  # its midpoint is fine
    (0, NU0, Enclosure(0, 1)),  # an x box reaching 0
    (0, NU0, iv.mpf([8 * mp.pi - 1, 8 * mp.pi + 1])),  # past 8 pi, midpoint 8 pi
    (0, iv.mpf(["0.9", "1.1"]), 1),  # a mu box past 1
    (0, Enclosure(0, F(1, 2)), 1),  # a mu box reaching 0
    (mp.nan, NU0, 1), (float("nan"), NU0, 1), (mp.inf, NU0, 1), (-mp.inf, NU0, 1),
    (iv.mpf([0, mp.inf]), NU0, 1),
], ids=["x-below-0", "x-below-0-mid-inside", "x-at-0", "x-past-8pi", "mu-past-1", "mu-at-0",
        "eta-nan", "eta-float-nan", "eta-inf", "eta-minus-inf", "eta-box-to-inf"])
def test_box_guards_test_the_ends(eta, mu, x):
    with pytest.raises(ValueError):
        fractional_osc_integral("sin", eta, mu, x)


def test_frak_K_frozen_values():
    rho = mp.mpf(1) / 3
    k1 = frak_K(mp.pi / 12, mp.pi, rho, NU0)
    assert abs(k1.value - mp.mpf("0.278304816973")) < mp.mpf("1e-11")
    k2 = frak_K(mp.pi / 6, (1 + 5 * rho / 6) * mp.pi, rho, NU0)
    assert abs(k2.value - mp.mpf("-0.630108835832")) < mp.mpf("1e-11")
    k3 = frak_K(mp.pi / 3, 3 * mp.pi / 2, rho, NU0)
    assert abs(k3.value - mp.mpf("-0.538433237269")) < mp.mpf("1e-11")


def test_frak_K_matches_direct_definition():
    # recompute through the raw integral with the phase assembled by hand
    rho = mp.mpf(1) / 3
    b = mp.pi / 6
    x = mp.mpf("2.2")
    eta = rho * b - (rho - mp.mpf(1) / 2) * mp.pi
    direct = fractional_osc_integral("cos", eta, NU0, x)
    viak = frak_K(b, x, rho, NU0)
    # 1e-28 covers the rounding of the 30-digit division by sin(b) here
    assert abs(viak.value - direct.value / mp.sin(b)) <= (
        viak.err + direct.err + mp.mpf("1e-28")
    )


def _contains(res, ref):
    with mp.workdps(80):
        return res.value - res.err <= ref <= res.value + res.err


def test_composites_enclose_the_integral_at_exact_arguments():
    # the phases and limits these functions form are enclosed in iv: each
    # result contains a 50-digit mpmath.quad value at the exact arguments
    rho = mp.mpf(1) / 3
    for b, x in ((mp.pi / 12, mp.pi), (mp.pi / 6, (1 + 5 * rho / 6) * mp.pi),
                 (mp.pi / 3, 3 * mp.pi / 2)):
        with mp.workdps(80):
            eta = rho * b - (rho - mp.mpf(1) / 2) * mp.pi
            ref = osc_integral("cos", eta, NU0, x, dps=50) / mp.sin(b)
        assert _contains(frak_K(b, x, rho, NU0), ref), b
    with mp.workdps(80):
        ref = osc_integral("cos", -mp.pi / 10, MU23, 8 * mp.pi / 5, dps=50) / mp.sin(mp.pi / 5)
    assert _contains(chi_reference_integral(MU23), ref)
    # region 1's limits 2 pi and 7 pi / 4, passed as iv intervals
    for kind, x in (("sin", 2), ("cos", mp.mpf(7) / 4)):
        with iv_dps(working_dps() + 15):
            res = fractional_osc_integral(kind, 0, NU0, iv.pi * x)
        with mp.workdps(80):
            ref = osc_integral(kind, 0, NU0, mp.pi * x, dps=50)
        assert _contains(res, ref) and res.err < mp.mpf("1e-40"), kind


def test_interval_arguments_widen_by_the_derivative_bounds():
    # a wide eta, mu and x: the result covers the integral at their ends
    with iv_dps(working_dps() + 15):
        eta, mu, x = iv.mpf(["0.3", "0.3001"]), iv.mpf(["0.6", "0.6001"]), iv.mpf(["2", "2.001"])
        res = fractional_osc_integral("sin", eta, mu, x)
    for e, m, y in itertools.product(("0.3", "0.3001"), ("0.6", "0.6001"), ("2", "2.001")):
        assert _contains(res, osc_integral("sin", e, m, y)), (e, m, y)
    assert res.err < mp.mpf("1e-2")
    # an interval phase alone: cos and sin are enclosed over it
    with iv_dps(working_dps() + 15):
        res = fractional_osc_integral("cos", iv.mpf(["0.3", "0.31"]), NU0, mp.mpf(2))
    for e in ("0.3", "0.31"):
        assert _contains(res, osc_integral("cos", e, NU0, 2)), e


def test_chi_reference_value():
    chi = chi_reference_integral(MU23)
    assert abs(chi.value - mp.mpf("-0.32126981902369")) < mp.mpf("1e-13")
    assert chi.value < 0


def test_chi_argmin_is_eight_pi_fifths():
    argmin, best = min_over_upper_limit("cos", -mp.pi / 10, MU23, mp.pi)
    assert abs(argmin - 8 * mp.pi / 5) < mp.mpf("1e-25")
    # the scaled minimum reproduces the chi constant
    chi = chi_reference_integral(MU23)
    # 1e-28 covers the rounding of the 30-digit division by sin(pi/5) here
    assert abs(best.value / mp.sin(mp.pi / 5) - chi.value) <= (
        best.err / mp.sin(mp.pi / 5) + chi.err + mp.mpf("1e-28")
    )


def test_min_over_upper_limit_encloses_the_exact_zero():
    # the minimum for eta = -pi/6 sits at the zero 5pi/3 of cos(x - pi/6);
    # the result encloses F there, not at an upper limit rounded to mp
    with iv_dps(working_dps() + 15):
        argmin, best = min_over_upper_limit("cos", -iv.pi / 6, MU23, mp.pi / 2)
    assert abs(argmin - 5 * mp.pi / 3) < mp.mpf("1e-25")
    with mp.workdps(50):
        ref = osc_integral("cos", -mp.pi / 6, MU23, 5 * mp.pi / 3, dps=50)
    assert _contains(best, ref)


def test_min_over_upper_limit_beats_samples():
    rng = random.Random(31)
    for kind, eta, x_min in (
        ("cos", -mp.pi / 10, mp.pi),
        ("sin", mp.mpf(0), mp.pi / 2),
        ("cos", mp.pi / 7, mp.mpf(1)),
    ):
        argmin, best = min_over_upper_limit(kind, eta, MU23, x_min)
        assert argmin >= x_min
        for _ in range(12):
            x = x_min + mp.mpf(rng.uniform(0.0, 12.0))
            probe = fractional_osc_integral(kind, eta, MU23, x)
            assert best.value <= probe.value + best.err + probe.err + mp.mpf("1e-20")


def test_min_over_upper_limit_guard():
    for x_min in (0, F(0), iv.mpf([-1, 1])):
        with pytest.raises(ValueError):
            min_over_upper_limit("sin", 0, NU0, x_min)
    with pytest.raises(ValueError):
        min_over_upper_limit("cot", 0, NU0, 1)


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "minus-inf"])
def test_min_over_upper_limit_refuses_a_non_finite_eta(eta):
    # the integral at x_min runs first, so the series route's guard names eta
    with pytest.raises(ValueError, match="eta must be finite"):
        min_over_upper_limit("sin", eta, 0.5, 1)


def test_estimate_is_close_to_the_enclosure():
    # an estimate with no error bound: float64 x^mu, cos and sin leave about
    # 1e-16 times the size of the sums
    rng = random.Random(11)
    for _ in range(40):
        eta, mu, x = rng.uniform(-3, 3), rng.uniform(0.01, 1), rng.uniform(0.1, 2 * 3.14159)
        res = fractional_osc_integral("sin", eta, mu, x)
        assert abs(_estimate(eta, mu, x) - res.value) < 1e-13 * max(1, abs(res.value))
