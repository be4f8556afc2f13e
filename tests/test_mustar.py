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
from trigpos.bounds import SCAN_RHOS
from trigpos.exact import Enclosure
from trigpos.mustar import PROOF_WIDTH, MuStarResult, defect_integral, mu_star
from trigpos.precision import workdps
from trigpos.quadrature import QuadResult

F = Fraction

# rho -> 20-digit decimal of mu*(rho), formed at the suite's 30 digits
with mp.workdps(30):
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


def test_boundary_rho_one(monkeypatch):
    # D(1, 1) = 0 exactly and D's zero is unique: the root is exact, found
    # with no probe and no integral
    def no_integral(rho, mu):
        raise AssertionError("mu_star(1) evaluated D")

    monkeypatch.setattr(mustar, "defect_integral", no_integral)
    res = mu_star(F(1))
    assert (res.enclosure.lo, res.enclosure.hi) == (1, 1)
    assert (res.route, res.probes) == ("boundary", 0)
    # the defect stays negative strictly inside the unit interval (mpmath.quad)
    for mu in ("0.01", "0.35", "0.99"):
        assert osc_integral("sin", -mp.pi, mp.mpf(mu), 2 * mp.pi) < 0


# rho across (0, 1], and mu from near 0 to past 1, where the series route
# that mu_star uses stops
UNIQUENESS_RHOS = [F(1, 1000), F(1, 100), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(2, 3),
                   F(9, 10), F(99, 100), F(1)]
UNIQUENESS_MUS = ["0.02", "0.1", "0.3", "0.5", "0.8", "1", "2", "5"]


@pytest.mark.parametrize("rho", UNIQUENESS_RHOS)
def test_scaled_defect_increases_in_mu(rho):
    # the uniqueness proof of mu*: H(mu) = (rho pi)^-mu D(rho, mu) increases
    # in mu, here by mpmath.quad at consecutive grid points
    with mp.workdps(ORACLE_DPS):
        c = mp.mpf(rho.numerator) / rho.denominator * mp.pi
        h = [c ** -mp.mpf(mu) * osc_integral("sin", -c, mp.mpf(mu), c + mp.pi)
             for mu in UNIQUENESS_MUS]
        assert all(h1 < h2 for h1, h2 in zip(h, h[1:])), h


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


@pytest.mark.parametrize("rho", [F(1, 200), F(1, 1000), F(1, 10**6)])
def test_small_rho_enclosure_straddles_the_oracle_sign_change(rho):
    # mu*(rho) < 1/100 for rho <= 1/170; the bracket [rho, 2 rho] holds it
    assert_straddles_the_oracle(rho, mu_star(rho, width=PROOF_WIDTH).enclosure)


def test_mu_star_over_rho_tends_to_pi_over_si_pi():
    # D(rho, mu) ~ Si(pi) - rho pi/mu as rho -> 0, so mu*/rho -> pi/Si(pi)
    rho = F(1, 10**6)
    ratio = mu_star(rho, width=PROOF_WIDTH).enclosure.mid / rho
    assert round(float(ratio), 3) == round(float(mp.pi / mp.si(mp.pi)), 3) == 1.696


def test_narrow_refuses_ends_without_a_sign_change():
    # a sign function positive on the whole bracket: no narrowing at all
    with pytest.raises(ArithmeticError, match="does not straddle"):
        mustar._narrow(lambda mu: mu + 1, [F(0), F(1)], F(1, 100))


def test_mu_star_refuses_a_bracket_that_does_not_straddle(monkeypatch):
    # D > 0 at the lower end, just above rho (a lie): both ends of the
    # bracket are positive, so the search stops before its first probe
    def lying(rho, mu):
        return QuadResult(mp.mpf(1), mp.mpf(0)) if mu < F(1, 2) else defect_integral(rho, mu)

    monkeypatch.setattr(mustar, "defect_integral", lying)
    # rho and the bracket's ends print as decimals, not as their binary fractions
    with pytest.raises(ArithmeticError, match=r"^cannot enclose mu\*\(rho\) at rho = 0\.3{25}: "
                       r"\[0\.3\d{24}, 0\.6\d{24}\] does not straddle a sign change$"):
        mu_star(F(1, 3))


@pytest.mark.parametrize("rho", [F(1, 10**50), F(1, 10**300)])
def test_tiny_rho_enclosure_lies_in_the_bracket(rho):
    # the bracket's ends, rounded inward to binary fractions, are the
    # enclosure; read as points, they give D near its limits Si(pi) - pi
    # and Si(pi) - pi/2 (D(rho, mu) ~ Si(pi) - rho pi/mu as rho -> 0)
    res = mu_star(rho, width=PROOF_WIDTH)
    enc = res.enclosure
    assert rho <= enc.lo < enc.hi <= 2 * rho and res.probes == 2
    d_lo, d_hi = (defect_integral(rho, mu) for mu in (enc.lo, enc.hi))
    assert max(d_lo.err, d_hi.err) < mp.mpf("1e-40")
    assert abs(d_lo.value - (mp.si(mp.pi) - mp.pi)) < 0.01
    assert abs(d_hi.value - (mp.si(mp.pi) - mp.pi / 2)) < 0.01


# the name and ids stay as the suite has printed them, although nothing
# seeds the search: it runs on verified signs from the bracket.  The bounds
# are 9 and 10; plain bisection to width 1e-20 takes over 70 integrals
@pytest.mark.parametrize("width, most", [
    pytest.param(F(1, 10**9), 9, id="width0-3"),
    pytest.param(F(1, 10**20), 10, id="width1-6"),
])
@pytest.mark.parametrize("rho", ORACLE_RHOS)
def test_seeded_search_takes_few_integrals(monkeypatch, rho, width, most):
    # the verified ends of the bracket and the probes between them
    calls = []

    def counted(*args):
        calls.append(args)
        return defect_integral(*args)

    monkeypatch.setattr(mustar, "defect_integral", counted)
    res = mu_star(rho, width=width)
    assert res.route == "verified"
    assert len(calls) <= most
    assert res.probes == len(calls)


def test_a_probe_without_a_verified_sign_retries_at_a_quarter_point(monkeypatch):
    # D is 0 +/- 1 at the first probe, the third integral: the search moves
    # that probe to a quarter point, counts both and still encloses the root
    calls = []

    def unsure_at_the_first_probe(rho, mu):
        calls.append(mu)
        return QuadResult(mp.mpf(0), mp.mpf(1)) if len(calls) == 3 else defect_integral(rho, mu)

    monkeypatch.setattr(mustar, "defect_integral", unsure_at_the_first_probe)
    res = mu_star(F(1, 3), width=F(1, 10**20))
    assert_straddles_the_oracle(F(1, 3), res.enclosure)
    assert res.probes == len(calls) == 11


def test_a_stalling_search_stops_after_100_probes(monkeypatch):
    # D jumps from -1 to 10^40 at a root off every probe grain: each probe
    # lands one grain above the lower end, which halves the upper value from
    # the second probe on, far too slowly to reach the root in 100
    root = F(1, 2) + F(1, 3**40)

    def lopsided(rho, mu):
        return QuadResult(mp.mpf(-1) if mu < root else mp.mpf(10) ** 40, mp.mpf(0))

    monkeypatch.setattr(mustar, "defect_integral", lopsided)
    with pytest.raises(ArithmeticError, match="after 100 probes$"):
        mu_star(F(1, 3), width=F(1, 10**20))


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
                    (F(103, 300), F(1, 100))):
        res = defect_integral(rho, mu)
        with mp.workdps(80):
            r, m = (mp.mpf(v.numerator) / v.denominator for v in (rho, mu))
            ref = osc_integral("sin", -r * mp.pi, m, (r + 1) * mp.pi, dps=50)
            assert res.value - res.err <= ref <= res.value + res.err, (rho, mu)
        assert res.err < mp.mpf("1e-40")


def test_defect_reads_mu_as_a_box():
    # mu goes to the series route as given: an mpf or float equal to a
    # Fraction, or the iv hull of an Enclosure, gives the same result, and
    # the box result covers D at both ends
    rho = F(2, 3)
    assert defect_integral(rho, F(1, 2)) == defect_integral(rho, mp.mpf("0.5")) == \
        defect_integral(rho, 0.5)
    enc = Enclosure(F(84685556828, 10**11), F(84685556830, 10**11))
    with workdps():
        lo, hi = (iv.mpf(f.numerator) / f.denominator for f in (enc.lo, enc.hi))
        hull = iv.mpf([lo.a, hi.b])
    res = defect_integral(rho, enc)
    assert res == defect_integral(rho, hull)
    for end in (enc.lo, enc.hi):
        with mp.workdps(80):
            m = mp.mpf(end.numerator) / end.denominator
            ref = osc_integral("sin", -2 * mp.pi / 3, m, 5 * mp.pi / 3, dps=50)
            assert res.value - res.err <= ref <= res.value + res.err, end


def test_defect_over_a_rho_box_contains_each_point_value():
    # one evaluation over the scan's rho box [97/300, 103/300] and the hull
    # of its five mu* enclosures holds D, by mpmath.quad, at both ends and
    # at 1/3, each at the middle of its own enclosure
    nus = {rho: mu_star(rho, width=PROOF_WIDTH).enclosure for rho in SCAN_RHOS}
    hull = Enclosure(min(e.lo for e in nus.values()), max(e.hi for e in nus.values()))
    res = defect_integral(Enclosure(SCAN_RHOS[0], SCAN_RHOS[-1]), hull)
    for rho in (F(97, 300), F(1, 3), F(103, 300)):
        with mp.workdps(80):
            r, m = (mp.mpf(v.numerator) / v.denominator for v in (rho, nus[rho].mid))
            ref = osc_integral("sin", -r * mp.pi, m, (r + 1) * mp.pi, dps=50)
            assert res.value - res.err <= ref <= res.value + res.err, rho


@pytest.mark.parametrize("rho", [
    Enclosure(F(1, 2), F(11, 10)), Enclosure(0, F(1, 2)), iv.mpf(["0.5", "1.1"]),
    iv.mpf(["-0.1", "0.5"]),
], ids=["past-1", "reaching-0", "iv-past-1", "iv-below-0"])
def test_defect_refuses_a_rho_box_leaving_the_range(rho):
    # the guard tests both ends of the rho box against (0, 1]
    with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\]"):
        defect_integral(rho, F(1, 2))


@pytest.mark.parametrize("width", [F(2), F(1, 2), F(1, 10**9), F(1, 10**20)])
@pytest.mark.parametrize("rho", [F(1, 10), F(2, 3), F(99, 100), F(1)])
def test_enclosure_stays_inside_the_bracket(rho, width):
    enc = mu_star(rho, width=width).enclosure
    assert rho <= enc.lo <= enc.hi <= min(1, 2 * rho)
    assert enc.width <= width


def test_enclosure_ignores_the_callers_precision():
    # mu_star reads the working precision only, so mp.dps must not steer
    # the probes
    enclosures = []
    for dps in (15, 30):
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
