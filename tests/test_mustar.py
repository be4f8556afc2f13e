"""Critical-exponent localization.

The frozen 20-digit roots below were obtained by running the defect
bisection to width 1e-24 at mp.dps = 50 and rounding; the tests only
assume the digits shown.
"""

from fractions import Fraction

import pytest
from mpmath import iv, mp
from oracles import ORACLE_DPS, osc_integral

from trigpos import mustar
from trigpos.exact import Enclosure
from trigpos.mustar import BRACKET_HI, BRACKET_LO, MuStarResult, defect_integral, mu_star
from trigpos.precision import iv_dps, working_dps
from trigpos.quadrature import QuadResult

F = Fraction
mp.dps = 30

# rho -> 20-digit decimal of mu*(rho)
KNOWN_ROOTS = {
    F(2, 3): mp.mpf("0.84685556828952869987"),
    F(1, 3): mp.mpf("0.49669136508129942616"),
}


def test_known_roots_are_enclosed():
    for rho, root in KNOWN_ROOTS.items():
        res = mu_star(rho, width=F(1, 10**9))
        enc = res.enclosure
        assert enc.width <= F(1, 10**9)
        lo = mp.mpf(enc.lo.numerator) / enc.lo.denominator
        hi = mp.mpf(enc.hi.numerator) / enc.hi.denominator
        assert lo < root < hi


def test_boundary_rho_one():
    res = mu_star(F(1))
    assert F(1) in res.enclosure
    # the defect stays negative strictly inside the unit interval
    for mu in ("0.01", "0.35", "0.99"):
        assert defect_integral(F(1), mp.mpf(mu)).value < 0


def _residual(rho, res):
    """D at the enclosure midpoint, a direct check on the localization."""
    return defect_integral(rho, res.enclosure.mid).value


def test_residual_small_at_default_width():
    res = mu_star(F(2, 3))
    assert abs(_residual(F(2, 3), res)) <= mp.mpf("1e-8")


def test_residual_scales_with_width():
    loose = mu_star(F(1, 3), width=F(1, 10**6))
    tight = mu_star(F(1, 3), width=F(1, 10**12))
    assert abs(_residual(F(1, 3), tight)) < abs(_residual(F(1, 3), loose))
    assert tight.enclosure.width <= F(1, 10**12)
    # nested localizations agree
    assert tight.enclosure.lo >= loose.enclosure.lo
    assert tight.enclosure.hi <= loose.enclosure.hi


def test_sign_structure_around_root():
    # D(rho, .) changes sign from negative to positive across mu*(rho)
    root = KNOWN_ROOTS[F(2, 3)]
    below = defect_integral(F(2, 3), root - mp.mpf("0.01"))
    above = defect_integral(F(2, 3), root + mp.mpf("0.01"))
    assert below.value < -below.err
    assert above.value > above.err


def test_invalid_inputs():
    with pytest.raises(ValueError):
        mu_star(F(0))
    with pytest.raises(ValueError):
        mu_star(F(3, 2))
    with pytest.raises(ValueError):
        mu_star(F(1, 2), width=F(0))
    # below the floor 10^-dps, the signs of D near the root cannot be resolved
    with pytest.raises(ValueError):
        mu_star(F(2, 3), width=F(1, 10**36))
    with pytest.raises(ValueError):
        defect_integral(F(-1, 3), mp.mpf("0.5"))


def test_cache_returns_identical_object():
    mustar._CACHE.clear()
    a = mu_star(F(2, 3), width=F(1, 10**6))
    b = mu_star(F(2, 3), width=F(1, 10**6))
    assert a is b
    c = mu_star(F(2, 3), width=F(1, 10**7))
    assert c is not a and c.enclosure.width <= F(1, 10**7)


ORACLE_RHOS = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(97, 300), F(103, 300)]


def assert_straddles_the_oracle(rho, enc):
    # D by mpmath.quad, which shares no code with the series route that
    # signed the bracket: negative at the lower endpoint, positive at the upper
    with mp.workdps(ORACLE_DPS):
        r = mp.mpf(rho.numerator) / rho.denominator
        lo, hi = (osc_integral("sin", -r * mp.pi, mp.mpf(mu.numerator) / mu.denominator,
                               (r + 1) * mp.pi) for mu in (enc.lo, enc.hi))
        assert lo < 0 < hi


@pytest.mark.parametrize("width", [F(1, 10**9), F(1, 10**20)])
@pytest.mark.parametrize("rho", ORACLE_RHOS)
def test_enclosure_straddles_the_oracle_sign_change(rho, width):
    assert_straddles_the_oracle(rho, mu_star(rho, width=width).enclosure)


@pytest.mark.parametrize("estimate", [
    lambda eta, mu, x: float(mu) - 0.3,  # a root far from mu*
    lambda eta, mu, x: float("nan"),
    lambda eta, mu, x: 1.0,  # no sign change
], ids=["far-off-root", "nan", "no-sign-change"])
@pytest.mark.parametrize("width", [F(1, 10**9), F(1, 10**20)])
def test_a_wrong_estimate_falls_back_to_the_full_bracket(monkeypatch, estimate, width):
    # the seeded bracket is kept only when both its ends have verified signs
    monkeypatch.setattr(mustar, "_CACHE", {})
    monkeypatch.setattr(mustar, "_estimate", estimate)
    res = mu_star(F(2, 3), width=width)
    assert res.route == "full bracket"
    assert res.enclosure.width <= width
    assert_straddles_the_oracle(F(2, 3), res.enclosure)


# the ids keep the names from when each search also took the midpoint defect,
# one integral more
@pytest.mark.parametrize("width, most", [
    pytest.param(F(1, 10**9), 2, id="width0-3"),
    pytest.param(F(1, 10**20), 5, id="width1-6"),
])
@pytest.mark.parametrize("rho", ORACLE_RHOS)
def test_seeded_search_takes_few_integrals(monkeypatch, rho, width, most):
    # the verified ends of the seeded bracket and any probes between them;
    # the full bracket takes 12 or 13
    calls = []

    def counted(*args):
        calls.append(args)
        return defect_integral(*args)

    monkeypatch.setattr(mustar, "_CACHE", {})
    monkeypatch.setattr(mustar, "defect_integral", counted)
    res = mu_star(rho, width=width)
    assert res.route == "estimate-seeded"
    assert len(calls) <= most
    assert res.probes == len(calls)


@pytest.mark.parametrize("value, err, flagged, proven", [
    ("3e-30", "2e-30", False, True),
    ("-3e-30", "2e-30", False, True),
    ("1e-30", "2e-30", False, False),
    ("-1e-30", "2e-30", False, False),
    ("2e-30", "2e-30", False, False),  # 0 is the lower end of value +/- err
    ("0.5", "1e-20", True, True),  # the flag adds nothing to 0 outside value +/- err
])
def test_verified_sign_needs_zero_outside_the_enclosure(monkeypatch, value, err, flagged, proven):
    res = QuadResult(mp.mpf(value), mp.mpf(err))
    assert res.flagged is flagged
    monkeypatch.setattr(mustar, "defect_integral", lambda rho, mu: res)
    if proven:
        assert mustar._verified_sign(F(2, 3), F(1, 2)) == res.value
    else:
        with pytest.raises(ArithmeticError):
            mustar._verified_sign(F(2, 3), F(1, 2))


def test_defect_encloses_the_integral_at_exact_arguments():
    # rho, mu and the limits -rho pi and (rho + 1) pi are enclosed in iv:
    # D contains a 50-digit mpmath.quad value at the exact rationals
    for rho, mu in ((F(2, 3), F(84685556829, 10**11)), (F(1, 3), F(1, 2)),
                    (F(103, 300), BRACKET_LO)):
        res = defect_integral(rho, mu)
        with mp.workdps(80):
            r, m = (mp.mpf(v.numerator) / v.denominator for v in (rho, mu))
            ref = osc_integral("sin", -r * mp.pi, m, (r + 1) * mp.pi, dps=50)
            assert res.value - res.err <= ref <= res.value + res.err, (rho, mu)
        assert res.err < mp.mpf("1e-40")


def test_defect_reads_mu_as_a_box():
    # rho alone is read exactly; mu goes to the series route as given: an
    # mpf or float equal to a Fraction, or the iv hull of an Enclosure, gives
    # the same result, and the box result covers D at both ends
    rho = F(2, 3)
    assert defect_integral(rho, F(1, 2)) == defect_integral(rho, mp.mpf("0.5")) == \
        defect_integral(rho, 0.5)
    enc = Enclosure(F(84685556828, 10**11), F(84685556830, 10**11))
    with iv_dps(working_dps() + 15):
        lo, hi = (iv.mpf(f.numerator) / f.denominator for f in (enc.lo, enc.hi))
        hull = iv.mpf([lo.a, hi.b])
    res = defect_integral(rho, enc)
    assert res == defect_integral(rho, hull)
    for end in (enc.lo, enc.hi):
        with mp.workdps(80):
            m = mp.mpf(end.numerator) / end.denominator
            ref = osc_integral("sin", -2 * mp.pi / 3, m, 5 * mp.pi / 3, dps=50)
            assert res.value - res.err <= ref <= res.value + res.err, end


@pytest.mark.parametrize("rho", [F(1, 3), F(2, 3)])
def test_false_position_evaluation_count(monkeypatch, rho):
    # plain bisection to width 1e-20 takes over 70 integrals; the loop from
    # the full bracket 12 or 13, from the seeded bracket about 5
    calls = []

    def counted(*args):
        calls.append(args)
        return defect_integral(*args)

    monkeypatch.setattr(mustar, "_CACHE", {})
    monkeypatch.setattr(mustar, "defect_integral", counted)
    mu_star(rho, width=F(1, 10**20))
    assert len(calls) <= 20


@pytest.mark.parametrize("width", [F(2), F(1, 2), F(1, 10**9), F(1, 10**20)])
@pytest.mark.parametrize("rho", [F(1, 10), F(2, 3), F(99, 100), F(1)])
def test_enclosure_stays_inside_the_bracket(rho, width):
    enc = mu_star(rho, width=width).enclosure
    assert BRACKET_LO <= enc.lo <= enc.hi <= BRACKET_HI
    assert enc.width <= width


def test_enclosure_ignores_the_callers_precision(monkeypatch):
    # the cache key holds the working precision only, so mp.dps must not
    # steer the probes
    enclosures = []
    for dps in (15, 30):
        monkeypatch.setattr(mustar, "_CACHE", {})
        with mp.workdps(dps):
            enclosures.append(mu_star(F(2, 3), width=F(1, 10**20)).enclosure)
    assert enclosures[0] == enclosures[1]


def test_half_of_nu0_rounds_to_published_abbreviation():
    # (1/2) * mu*(1/3): both endpoints of the halved enclosure round to
    # 0.2483 at four decimals (the truncation itself lies outside any
    # faithful enclosure, so rounding is the meaningful comparison)
    res = mu_star(F(1, 3), width=F(1, 10**9))
    for endpoint in (res.enclosure.lo / 2, res.enclosure.hi / 2):
        assert round(float(endpoint), 4) == 0.2483


def test_result_is_frozen_record():
    res = mu_star(F(2, 3))
    assert isinstance(res, MuStarResult)
    with pytest.raises(AttributeError):
        res.enclosure = Enclosure.exact(F(1, 2))
