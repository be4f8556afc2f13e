"""Composite lower bounds and their ingredients.

Frozen values were computed once with a critical-exponent enclosure at
mp.dps = 30 and are pinned to the digits shown, which the enclosure of
width mustar.PROOF_WIDTH reproduces; the tests re-derive them from scratch.
"""

from fractions import Fraction

import pytest
from mpmath import iv, mp

from oracles import osc_integral
from trigpos import bounds, quadrature
from trigpos.bounds import (
    BoundReport,
    L_region,
    REGIONS,
    SCAN_RHOS,
    lemma_XYZ,
    p_decreasing,
    p_factor,
    q_decreasing,
    q_factor,
    two_thirds_master_bound,
    u1_closed_form,
    wedge,
    wedge_increasing,
)
from trigpos.exact import Enclosure
from trigpos.mustar import PROOF_WIDTH, mu_star
from trigpos.precision import workdps
from trigpos.quadrature import frak_K
from trigpos.trigsums import build_U_n

F = Fraction

with mp.workdps(30):  # formed at import, at the suite's precision
    NU0 = mp.mpf("0.49669136508129942616")

    FROZEN_L = {
        "1": mp.mpf("0.259448166766"),
        "2": mp.mpf("0.0106516529274"),
        "31": mp.mpf("0.764115524304"),
        "32": mp.mpf("0.00620342326761"),
        "33": mp.mpf("0.123104696089"),
    }


def test_wedge_frozen_and_monotone():
    assert abs(wedge(mp.pi / 8, NU0) - mp.mpf("0.033759144")) < mp.mpf("1e-8")
    assert abs(wedge(mp.pi / 6, NU0) - mp.mpf("0.045888146")) < mp.mpf("1e-8")
    assert abs(wedge(mp.pi / 3, NU0) - mp.mpf("0.10528517")) < mp.mpf("1e-7")
    prev = None
    for k in range(1, 40):
        cur = wedge(k * mp.pi / 41, NU0)
        assert cur > 0
        if prev is not None:
            assert cur > prev
        prev = cur
    with pytest.raises(ValueError):
        wedge(mp.pi, NU0)
    with pytest.raises(ValueError):
        wedge(0, NU0)


def test_wedge_refuses_pi_rounded_down_at_the_working_precision():
    # mp.pi at 30 digits reaches pi rounded down at the working precision
    # and is refused; at mpmath's default 15 it rounds below pi, a point
    # inside (0, pi), and wedge encloses the factor there
    with mp.workdps(30), pytest.raises(ValueError):
        wedge(mp.pi, F(1, 2))
    with workdps(15):
        theta = +mp.pi
        enc = wedge(theta, F(1, 2))
    with mp.workdps(50):
        assert theta < mp.pi
        exact = (1 - mp.sqrt(mp.sin(theta) / theta)) / mp.sin(theta)
    assert enc.a <= exact <= enc.b
    assert (enc.a, enc.b) == (8165619625615359, 8165619625615363)


def test_lemma_XYZ():
    x7, y7, z7 = lemma_XYZ(NU0, 7, mp.pi / 8, mp.pi / 3)
    assert abs(x7 - mp.mpf("0.00921789")) < mp.mpf("1e-8")
    assert abs(y7 - mp.mpf("0.0148617")) < mp.mpf("1e-7")
    assert abs(z7 - mp.mpf("0.0495633")) < mp.mpf("1e-7")
    x70, y70, z70 = lemma_XYZ(NU0, 70, mp.pi / 8, mp.pi / 3)
    assert x70 < x7 and y70 < y7 and z70 < z7
    with pytest.raises(ValueError):
        lemma_XYZ(NU0, 7, mp.pi / 3, mp.pi / 8)  # a >= b
    with pytest.raises(ValueError):
        lemma_XYZ(NU0, 0, mp.pi / 8, mp.pi / 3)
    # a_z moves the Z panel alone, and is guarded as a is
    x, y, z = lemma_XYZ(NU0, 7, mp.pi / 8, mp.pi / 3, a_z=mp.pi / 6)
    assert (x, y) == (x7, y7) and z == lemma_XYZ(NU0, 7, mp.pi / 6, mp.pi / 3)[2]
    for a_z in (0, -mp.pi / 8, mp.pi / 3, iv.mpf([0.5, 1.1])):
        with pytest.raises(ValueError):
            lemma_XYZ(NU0, 7, mp.pi / 8, mp.pi / 3, a_z=a_z)


def test_p_q_factors():
    # both decrease on (0, pi/5]; q keeps decreasing on all of (0, pi/2)
    grid = [mp.pi / 5 * k / 60 for k in range(1, 61)]
    for f in (p_factor, q_factor):
        vals = [f(phi) for phi in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))
    wide = [mp.pi / 2 * k / 80 for k in range(1, 80)]
    qv = [q_factor(phi) for phi in wide]
    assert all(a > b for a, b in zip(qv, qv[1:]))
    # p is *not* monotone on the wider interval: it turns increasing
    assert p_factor(mp.mpf("1.55")) > p_factor(mp.mpf("1.35"))


def _up_to(x):
    return iv.mpf([0, 1]) * x


def test_monotonicity_proofs_refuse_false_claims():
    # the sampled checks above are the oracle: p and q decrease on (0, pi/5],
    # only q on (0, pi/2], and the wedge increases for every mu in (0, 1)
    assert p_decreasing(_up_to(iv.pi / 5)) and q_decreasing(_up_to(iv.pi / 5))
    assert not p_decreasing(_up_to(iv.pi / 2))
    assert q_decreasing(_up_to(iv.pi / 2))
    assert not q_decreasing(_up_to(iv.pi))  # q(pi) = 0
    assert wedge_increasing(NU0, _up_to(iv.pi / 2))
    assert wedge_increasing(iv.mpf(["0.01", "0.99"]), _up_to(iv.pi / 5))
    for mu in (iv.mpf([0, "0.5"]), iv.mpf(["0.5", 1])):
        assert not wedge_increasing(mu, _up_to(iv.pi / 5))
    assert not wedge_increasing(NU0, _up_to(iv.pi))


def test_u1_closed_form_is_U_1():
    mu = F(5, 7)
    u1 = build_U_n(1, mu)
    for k in range(9):
        phi = mp.pi * k / 16
        assert abs(u1_closed_form(mu, phi).mid - u1.eval_mp(phi)) < mp.mpf("1e-14")
    low = u1_closed_form(mu, _up_to(iv.pi / 2)).a
    assert 0 < low <= mp.mpf(2) / 7 * mp.sin(mp.pi / 3)


@pytest.fixture(scope="module")
def scan_nus():
    """rho -> the PROOF_WIDTH enclosure of mu*(rho), for each scanned rho."""
    return {rho: mu_star(rho, width=PROOF_WIDTH).enclosure for rho in SCAN_RHOS}


def test_L_regions_frozen_positive(scan_nus):
    for region in REGIONS:
        rep = L_region(region, nu=scan_nus[F(1, 3)])
        assert isinstance(rep, BoundReport)
        assert abs(rep.value - FROZEN_L[region]) < mp.mpf("1e-10"), region
        assert rep.err < mp.mpf("1e-10")
        assert rep.positive


def test_L_region_guard():
    with pytest.raises(ValueError):
        L_region("4", nu=NU0)


@pytest.mark.parametrize("regions, rho, nu", [
    (("1",), 5, F(1, 2)),
    (("31",), -1, F(1, 2)),
    (("1",), 0, F(1, 2)),
    (("2",), F(1, 3), 0),
    (("1", "2", "31"), Enclosure(F(9, 10), F(11, 10)), F(1, 2)),
], ids=["rho-5", "rho-minus-1", "rho-0", "nu-0", "rho-box-past-1"])
def test_L_region_refuses_boxes_outside_the_unit_interval(regions, rho, nu):
    # each of these once read positive: region 2 has no integral to refuse
    # a bad nu, and no integral of any region reads rho's range
    for region in regions:
        with pytest.raises(ValueError, match=r"^rho and nu must lie in \(0, 1\]$"):
            L_region(region, rho=rho, nu=nu)


def test_L_region_sensitivity_grows_with_enclosure_width():
    mid = F(49669136508, 10**11)
    tight = L_region("31", nu=Enclosure(mid - F(1, 10**11), mid + F(1, 10**11)))
    wide = L_region("31", nu=Enclosure(mid - F(1, 10**6), mid + F(1, 10**6)))
    assert wide.err > tight.err
    assert abs(wide.value - tight.value) < wide.err + tight.err


def test_master_bound():
    rep = two_thirds_master_bound(mu_star(F(2, 3), width=PROOF_WIDTH).enclosure)
    assert abs(rep.value - mp.mpf("0.207808570447002")) < mp.mpf("1e-11")
    assert rep.err < mp.mpf("1e-10")
    assert rep.positive
    comps = rep.components
    for key in ("prop_term", "chi", "sigma_tail", "tau_tail", "delta_tail"):
        assert key in comps
    recombined = (
        comps["prop_term"]
        + comps["chi"]
        - comps["sigma_tail"]
        - comps["tau_tail"]
        - comps["delta_tail"]
    )
    assert abs(recombined - rep.value) < mp.mpf("1e-25")
    assert comps["chi"] < 0 < comps["prop_term"]


def test_master_bound_with_exact_mu_override():
    rep = two_thirds_master_bound(mu=F(84685556829, 10**11))
    assert rep.positive
    assert abs(rep.value - mp.mpf("0.207808570447002")) < mp.mpf("1e-9")


def test_scan_neighborhood_shape(scan_nus):
    # five fixed points, 1/3 + k/200 for k = -2..2, ascending: the middle one
    # is 1/3, the report thm-1-3 prints; L(32) is positive at each, on the
    # PROOF_WIDTH enclosure of its own rho
    assert SCAN_RHOS == (F(97, 300), F(197, 600), F(1, 3), F(203, 600), F(103, 300))
    assert SCAN_RHOS[len(SCAN_RHOS) // 2] == F(1, 3)
    assert all(L_region("32", rho=rho, nu=scan_nus[rho]).positive for rho in SCAN_RHOS)


@pytest.mark.parametrize("region", REGIONS)
def test_L_region_over_a_rho_box_contains_each_point_report(scan_nus, region):
    # one evaluation over the scan's rho box and the hull of its five nu
    # enclosures holds every point report of the scan, value +/- err
    box = Enclosure(SCAN_RHOS[0], SCAN_RHOS[-1])
    hull = Enclosure(min(e.lo for e in scan_nus.values()), max(e.hi for e in scan_nus.values()))
    over = L_region(region, rho=box, nu=hull)
    for rho in SCAN_RHOS:
        point = L_region(region, rho=rho, nu=scan_nus[rho])
        assert over.value - over.err <= point.value - point.err, rho
        assert point.value + point.err <= over.value + over.err, rho


def test_interval_arguments_outside_the_domain_are_refused():
    for theta in (iv.mpf([-0.1, 0.1]), iv.mpf([3.1, 3.2]), iv.pi):
        with pytest.raises(ValueError):
            wedge(theta, NU0)
    inside = wedge(iv.mpf([1, 1.01]), NU0)  # accepted, and encloses its points
    assert inside.a <= wedge(mp.mpf("1.005"), NU0).a <= inside.b
    with pytest.raises(ValueError):
        lemma_XYZ(NU0, 4, iv.mpf([0.3, 0.6]), iv.mpf([0.5, 1]))  # a overlaps b
    with pytest.raises(ValueError):
        lemma_XYZ(NU0, 4, iv.mpf([0.3, 0.4]), iv.mpf([1.5, 1.6]))  # b beyond pi/2
    with pytest.raises(ValueError):
        frak_K(iv.mpf([-0.1, 0.2]), mp.pi, mp.mpf(1) / 3, NU0)


# The composites written out in plain mp, with the integrals from the
# mpmath.quad oracle: shares no code with the iv route it checks.

def _wedge_mp(theta, nu):
    return (1 - (mp.sin(theta) / theta) ** (1 - nu)) / mp.sin(theta)


def _xyz_mp(nu, n, a, b, a_z=None):
    a_z = a if a_z is None else a_z
    ratio = b / mp.sin(b)
    core = (1 - nu) * (2 * a * n) ** (nu - 1) / n
    return ratio * core / 4 + ratio**2 * core / 3 + mp.pi * nu * (1 - nu) * (2 * a_z * (n + 1)) ** (nu - 2)


def _L1_mp(nu):
    rho, b = mp.mpf(1) / 3, mp.pi / 3
    s = osc_integral("sin", 0, nu, 2 * mp.pi, dps=50)
    c = osc_integral("cos", 0, nu, 7 * mp.pi / 4, dps=50)
    l2 = mp.gamma(nu) * (2 * mp.sin((nu - 1) * mp.pi / 2) * mp.sin(nu * b / 2) / mp.sin(b)
                         - mp.sin(nu * mp.pi / 2) * _wedge_mp(b, nu))
    return mp.cos(rho * b) / mp.sin(b) * s + rho * c + l2 - _xyz_mp(nu, 3, mp.pi / 4, b)


def _L3x_mp(nu, b, x, theta0, l3):
    """Region 3x at rho = 1/3: the kernel on (b, x), the bracket frozen at
    theta0, less the tail block l3."""
    rho = mp.mpf(1) / 3
    eta = rho * b - (rho - mp.mpf(1) / 2) * mp.pi
    kernel = osc_integral("cos", eta, nu, x, dps=50) / mp.sin(b)
    r = mp.cos(nu * (mp.pi - 2 * theta0) / 2 + rho * theta0 + (mp.mpf(1) / 2 - rho) * mp.pi)
    l2 = mp.gamma(nu) * (nu * mp.cos(nu * mp.pi / 2 - rho * mp.pi) - r * _wedge_mp(theta0, nu))
    return kernel + l2 - l3


def _L31_mp(nu):
    # X and Y on panels from pi/15, Z from pi/12
    l3 = _xyz_mp(nu, 3, mp.pi / 15, mp.pi / 8, a_z=mp.pi / 12)
    return _L3x_mp(nu, mp.pi / 12, mp.pi, mp.pi / 8, l3)


def _L32_mp(nu):
    x = (1 + 5 * (mp.mpf(1) / 3) / 6) * mp.pi
    return _L3x_mp(nu, mp.pi / 6, x, mp.pi / 6, _xyz_mp(nu, 4, mp.pi / 10, mp.pi / 6))


def _L33_mp(nu):
    return _L3x_mp(nu, mp.pi / 3, 3 * mp.pi / 2, mp.pi / 3, _xyz_mp(nu, 4, mp.pi / 6, mp.pi / 3))


def _master_mp(mu):
    ratio = mp.pi / mp.sin(mp.pi / 5)
    chi = osc_integral("cos", -mp.pi / 10, mu, 8 * mp.pi / 5, dps=50) / mp.sin(mp.pi / 5)
    return (mp.gamma(mu) * (mu * mp.cos(2 * mp.pi / 3 - mu * mp.pi / 2) - _wedge_mp(mp.pi / 5, mu))
            + chi - (1 - mu) / 80 * ratio - (1 - mu) / 300 * ratio**2
            - mu * (1 - mu) * mp.pi ** (mu - 1))


@pytest.mark.parametrize("mid, report, formula", [
    (F(49669136508, 10**11), lambda enc: L_region("1", nu=enc), _L1_mp),
    (F(49669136508, 10**11), lambda enc: L_region("31", nu=enc), _L31_mp),
    (F(49669136508, 10**11), lambda enc: L_region("32", nu=enc), _L32_mp),
    (F(49669136508, 10**11), lambda enc: L_region("33", nu=enc), _L33_mp),
    (F(84685556829, 10**11), lambda enc: two_thirds_master_bound(mu=enc), _master_mp),
], ids=["L1", "L31", "L32", "L33", "master"])
def test_report_contains_the_formula_across_the_enclosure(mid, report, formula):
    enc = Enclosure(mid - F(1, 2 * 10**6), mid + F(1, 2 * 10**6))
    rep = report(enc)
    assert rep.err < mp.mpf("1e-4")
    with mp.workdps(50):
        for k in range(9):  # both ends and 7 interior points
            nu = enc.lo + enc.width * k / 8
            value = formula(mp.mpf(nu.numerator) / nu.denominator)
            assert rep.value - rep.err <= value <= rep.value + rep.err, k


def test_each_composite_is_evaluated_once(monkeypatch):
    real = quadrature.fractional_osc_integral
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (bounds, quadrature):
        monkeypatch.setattr(module, "fractional_osc_integral", counting)
    mid = F(49669136508, 10**11)
    enc = Enclosure(mid - F(1, 10**11), mid + F(1, 10**11))
    for region, expected in (("1", 2), ("2", 0), ("31", 1), ("32", 1), ("33", 1)):
        calls.clear()
        L_region(region, nu=enc)
        assert len(calls) == expected, region
    calls.clear()
    two_thirds_master_bound(mu=Enclosure(F(84685556828, 10**11), F(84685556830, 10**11)))
    assert len(calls) == 1
