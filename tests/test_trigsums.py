"""Trig sums, Chebyshev polynomials, and the named case polynomials."""

import itertools
import json
import math
import random
import sys
import threading
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from mpmath import iv, mp

from oracles import (chebyshev_T_coeffs, chebyshev_U_coeffs, poly_add, poly_mul,
                     rational_poch_table, rising)
from trigpos.exact import Enclosure, Polynomial, _as_fraction
from trigpos.mustar import mu_star
from trigpos.precision import _iv_ends, workdps, working_dps
from trigpos.trigsums import (
    MU_STURM,
    Q_STURM,
    STURM_NAMES,
    SturmTarget,
    TrigSum,
    TrigTerm,
    build_U_n,
    build_varsigma,
    case_P,
    case_q,
    case_Q,
    case_R,
    chebyshev_T,
    chebyshev_U,
    run_sturm_target,
    sturm_case_plan,
)
from trigpos import trigsums
from trigpos.trigsums import _outward  # private: checked against 80 digits
from trigpos.trigsums import _pochhammer  # private: the one coefficient route
from trigpos.trigsums import _ratios  # private: the one (a)_k / k! recurrence

F = Fraction

# rational stand-in for the rho = 2/3 critical exponent; the P/Q/R root-count
# claims hold at (and near) this value, not for generic mu
MU_23 = F(84685556829, 10**11)
GRAIN_BITS = math.ceil((working_dps() + 20) * math.log2(10))  # the dyadic grain of _pochhammer


def _poly_mp(poly, x):
    acc = mp.mpf(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + mp.mpf(c.numerator) / c.denominator
    return acc


def _poch(mu, k: int) -> Enclosure:
    """Term k of a fresh _pochhammer pass: the enclosure of (mu)_k / k!."""
    return next(itertools.islice(_pochhammer(mu), k, None))


def test_pochhammer_exact_values():
    mu = F(1, 2)
    assert _poch(mu, 0).lo == 1
    assert _poch(mu, 1).lo == F(1, 2)
    assert _poch(mu, 2).lo == F(1, 2) * F(3, 2) / 2
    assert _poch(mu, 3).lo == F(1, 2) * F(3, 2) * F(5, 2) / 6


@pytest.mark.parametrize("mu", [F(1, 3), F(1, 2), F(84685556829, 10**11)])
def test_ratios_are_exact_pochhammer_ratios(mu):
    got = list(itertools.islice(_ratios(mu), 41))
    assert got == [c.lo for c in itertools.islice(_pochhammer(mu), 41)]
    assert got == [rising(mu, k) / math.factorial(k) for k in range(41)]


def test_pochhammer_interval_is_monotone_envelope():
    # over 1,001 entries the table on [2/5, 1/2] brackets the exact tables of
    # its two endpoints and equals the Fraction oracle entry for entry
    lo, hi = F(2, 5), F(1, 2)
    got = list(itertools.islice(_pochhammer(Enclosure(lo, hi)), 1001))
    for k, (c, a, b) in enumerate(zip(got, _pochhammer(lo), _pochhammer(hi))):
        assert c.lo <= a.lo <= b.lo <= c.hi and a.is_exact() and b.is_exact(), k
    assert [(c.lo, c.hi) for c in got] == rational_poch_table(lo, hi, 1000, GRAIN_BITS)


def test_pochhammer_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        next(_pochhammer(Enclosure(F(-1, 2), F(1, 2))))


def test_chebyshev_identities_at_random_angles():
    rng = random.Random(2024)
    for _ in range(30):
        k = rng.randint(0, 9)
        t = mp.mpf(rng.random()) * mp.pi
        x = mp.cos(t)
        tk = chebyshev_T(k)
        # T_k(cos t) = cos(k t)
        val = _poly_mp(tk, x)
        assert abs(val - mp.cos(k * t)) < 1e-22
        uk = chebyshev_U(k)
        # sin t * U_k(cos t) = sin((k+1) t)
        val = _poly_mp(uk, x)
        assert abs(mp.sin(t) * val - mp.sin((k + 1) * t)) < 1e-22


def test_build_U_n_matches_direct_sum():
    mu = F(4, 5)
    s = build_U_n(3, mu)
    for j in range(1, 8):
        phi = mp.pi / 2 * j / 7
        direct = mp.mpf(0)
        d = mp.mpf(1)
        for k in range(4):
            direct += d * mp.cos((2 * k + mp.mpf(1) / 3) * phi - mp.pi / 6)
            d *= (mp.mpf(4) / 5 + k) / (k + 1)
        assert abs(s.eval_mp(phi) - direct) < 1e-25


def test_omega_reduction_in_squared_cosine():
    # omega_n = sin(theta/3) q_n(cos^2(theta/3)) for n = 1, 2
    for n in (1, 2, 3):
        qn = Polynomial(c.lo for c in case_q(n))
        om = build_varsigma(n, F(1, 3), F(1, 2))
        for j in range(1, 9):
            theta = 3 * mp.mpf(j) / 10
            x = mp.cos(theta / 3) ** 2
            pv = _poly_mp(qn, x)
            assert abs(mp.sin(theta / 3) * pv - om.eval_mp(theta)) < 1e-24


def test_case_P_at_special_point_is_negative_identity():
    # P at t = -pi/3 (x = 1/2) collapses to -d2/2 = -mu(mu+1)/4 exactly
    for mu in (F(1, 2), F(4, 5), F(9, 10), F(123, 1000)):
        poly = Polynomial(c.lo for c in case_P(mu))
        assert poly(F(1, 2)) == -mu * (mu + 1) / 4


def test_case_P_at_zero():
    # P at t = 0 (x = 1): all cosines are 1, so P(0) = 2 - 2 d1 = 2(1 - mu)
    for mu in (F(1, 2), F(4, 5)):
        poly = Polynomial(c.lo for c in case_P(mu))
        assert poly(F(1)) == 2 - 2 * mu


def test_case_Q_R_match_their_sums():
    mu = F(4, 5)
    for coeffs, orders in ((case_Q(mu), (1, 7, 13)), (case_R(mu), (1, 7, 13, 19))):
        poly = Polynomial(c.lo for c in coeffs)
        for j in range(1, 7):
            t = mp.mpf(j) / 5
            x = mp.cos(t)
            pv = _poly_mp(poly, x)
            direct = mp.mpf(0)
            d = mp.mpf(1)
            for k, m in enumerate(orders):
                direct += d * mp.sin(m * t)
                d *= (mp.mpf(4) / 5 + k) / (k + 1)
            assert abs(mp.sin(t) * pv - direct) < 1e-24


def _oracle_sum(basis, pairs):
    """sum c * basis(m) over the (c, m) pairs, on Fraction coefficient lists."""
    return reduce(poly_add, (poly_mul([c], basis(m)) for c, m in pairs), [])


def _oracle_case(name, mu):
    """The case polynomial `name` at exact mu, from the binomial formulas."""
    d = [_direct_poch(mu, k) for k in range(4)]
    if name == "P":
        return _oracle_sum(chebyshev_T_coeffs,
                           ((-d[2], 0), (1, 1), (1 - d[1], 2), (d[2] - d[1], 5)))
    orders = {"Q": (1, 7, 13), "R": (1, 7, 13, 19)}[name]
    return _oracle_sum(chebyshev_U_coeffs, ((d[k], m - 1) for k, m in enumerate(orders)))


CASES = {"P": case_P, "Q": case_Q, "R": case_R}


@pytest.mark.parametrize("name", CASES)
def test_case_polynomials_equal_the_binomial_oracle(name):
    for mu in (F(1, 2), F(4, 5), MU_23):
        coeffs = CASES[name](mu)
        assert all(c.is_exact() for c in coeffs)
        assert [c.lo for c in coeffs] == _oracle_case(name, mu), mu
    # over the proof's enclosure every coefficient interval holds the exact
    # coefficients at both of its ends
    enc = mu_star(F(2, 3), width=F(1, 10**20)).enclosure
    coeffs = CASES[name](enc)
    for end in (enc.lo, enc.hi):
        want = _oracle_case(name, end)
        assert len(want) == len(coeffs)
        assert all(w in c for w, c in zip(want, coeffs)), end


def test_q_polynomials_equal_the_binomial_oracle():
    # omega_n at theta = 3t is sum d_k sin t U_6k(cos t); q_n keeps the
    # coefficients of the even powers of cos t
    for n in range(1, 7):
        d = [_direct_poch(F(1, 2), k) for k in range(n + 1)]
        want = _oracle_sum(chebyshev_U_coeffs, ((d[k], 6 * k) for k in range(n + 1)))
        assert [c.lo for c in case_q(n)] == want[::2], n
        assert all(w == 0 for w in want[1::2]), n
    with pytest.raises(ValueError):
        case_q(-1)


def test_case_P_matches_its_cosine_sum():
    rng = random.Random(11)
    for mu in (F(1, 2), F(4, 5), MU_23):
        poly = Polynomial(c.lo for c in case_P(mu))
        d1, d2 = _direct_poch(mu, 1), _direct_poch(mu, 2)
        terms = ((-d2, 0), (F(1), 1), (1 - d1, 2), (d2 - d1, 5))  # c cos(m t)
        for _ in range(12):
            t = (2 * mp.mpf(rng.random()) - 1) * mp.pi
            direct = sum(mp.mpf(c.numerator) / c.denominator * mp.cos(m * t) for c, m in terms)
            assert abs(_poly_mp(poly, mp.cos(t)) - direct) < 1e-24, (mu, t)


def test_sturm_plan_counts_are_all_zero():
    plan = sturm_case_plan(MU_23)
    outcomes = {t.name: run_sturm_target(t) for t in plan}
    assert set(outcomes) == {
        "q1", "q2", "q3", "q3-derived", "P-near-0", "P-mid", "Q", "R",
    }
    for name, out in outcomes.items():
        assert all(c == 0 for c in out.root_counts), name


def test_sturm_plan_point_results():
    plan = sturm_case_plan(F(4, 5))
    outcomes = {t.name: run_sturm_target(t) for t in plan}
    # every labeled point passes except the one that is negative identically
    for target in plan:
        label, ok = target.anchor[0], outcomes[target.name].anchor_signs[0] > 0
        if label == "P(-pi/3)":
            assert not ok
        else:
            assert ok, (target.name, label)
    # at mu = 4/5, P crosses zero once near 0 and is negative at its anchor;
    # P-mid and q3 have no root and are positive at their anchors
    anchors = {t.name: t.anchor[0] for t in plan}
    assert outcomes["P-near-0"].root_counts == (1,)
    assert anchors["P-near-0"] == "P(-pi/3)" and outcomes["P-near-0"].anchor_signs == (-1,)
    assert outcomes["P-mid"].root_counts == (0,)
    assert outcomes["P-mid"].anchor_signs[0] > 0
    assert outcomes["q3"].root_counts == (0,)
    assert outcomes["q3"].anchor_signs[0] > 0


def test_sturm_plan_with_enclosure_mu_gives_envelope_pairs():
    enc = Enclosure(F(84685, 100000), F(84686, 100000))
    plan = {t.name: t for t in sturm_case_plan(enc)}
    out = run_sturm_target(plan["Q"])
    assert len(out.root_counts) == 2
    assert out.root_counts == (0, 0)


def test_sturm_target_rejects_anchor_outside_interval():
    with pytest.raises(ValueError, match="outside"):
        SturmTarget("P-near-0", case_P(F(4, 5)), (F(1, 2), F(7, 10)), ("P(0)", F(1)))
    # both closed endpoints are admissible anchors
    for anchor in (("lo", F(4, 5)), ("P(0)", F(1))):
        SturmTarget("P-mid", case_P(F(4, 5)), (F(4, 5), F(1)), anchor)


def test_the_plan_owns_names_anchors_and_the_one_ungated_reason():
    assert STURM_NAMES == Q_STURM + MU_STURM
    assert [t.name for t in sturm_case_plan(None)] == list(Q_STURM)
    plan = sturm_case_plan(F(4, 5))
    assert [t.name for t in plan] == list(STURM_NAMES)
    assert [t.anchor[0] for t in plan] == [
        "q1(0)", "q2(0)", "q3(0.37059)", "q3(cos^2(7pi/24))", "P(-pi/3)", "P(0)",
        "Q(pi/2)/sin", "R(pi/2)/sin"]
    assert {t.name for t in plan if t.ungated} == {"P-near-0"}
    with pytest.raises(ValueError, match="needs an exponent"):
        sturm_case_plan(None, ["Q"])


@pytest.mark.parametrize("names", [["nope"], ["q1", "nope"], "q1"])
def test_the_plan_refuses_unknown_names_and_a_bare_string(names):
    # a bare str is not walked letter by letter, and an unknown name is not
    # a KeyError: both are refused with the names the plan knows
    with pytest.raises(ValueError, match="q3-derived"):
        sturm_case_plan(None, names)


def _target(coeffs, x_interval):
    """A SturmTarget on coeffs and x_interval, anchored at its left end."""
    return SturmTarget("t", tuple(coeffs), x_interval, ("lo", x_interval[0]))


def test_envelopes_bound_all_choices():
    rng = random.Random(11)
    coeffs = [
        Enclosure(F(1, 3), F(1, 2)),
        Enclosure(F(-2), F(-1)),
        Enclosure(F(0), F(1, 5)),
        Enclosure(F(3), F(3)),
    ]
    lower, upper = _target(coeffs, (F(0), F(2))).polynomials()
    for _ in range(80):
        x = F(rng.randint(0, 200), 100)
        picked = Polynomial([
            c.lo + (c.hi - c.lo) * F(rng.randint(0, 16), 16) for c in coeffs
        ])
        assert lower(x) <= picked(x) <= upper(x)


def test_envelopes_are_the_endpoint_polynomials_on_x_at_least_0():
    coeffs = [Enclosure(F(0), F(1)), Enclosure(F(-3), F(2))]
    assert _target(coeffs, (F(0), F(1))).polynomials() == (
        Polynomial([0, -3]), Polynomial([1, 2]))
    # x^k < 0 for odd k below 0, where these would not bound
    with pytest.raises(ValueError, match="in \\[0, inf\\)"):
        _target(coeffs, (F(-1), F(0)))


def test_envelopes_straddling_interval_rejected():
    with pytest.raises(ValueError):
        _target([Enclosure(F(0), F(1))], (F(-1), F(1)))


def test_p_near_0_is_negative_on_its_interval():
    # with zero roots and both envelopes negative at both ends, P < 0 on the
    # whole interval for every mu in the enclosure: root-freeness, no sign
    enc = Enclosure(F(84685, 100000), F(84686, 100000))
    target = {t.name: t for t in sturm_case_plan(enc)}["P-near-0"]
    assert run_sturm_target(target).root_counts == (0, 0)
    a, b = target.x_interval
    for poly in target.polynomials():
        assert poly.sign_at(a) < 0 and poly.sign_at(b) < 0


def test_exact_mu_gives_single_polynomial():
    plan = {t.name: t for t in sturm_case_plan(F(4, 5))}
    out = run_sturm_target(plan["P-mid"])
    assert len(out.root_counts) == 1


def test_coeff_err_and_lipschitz():
    enc = Enclosure(F(1, 2), F(3, 5))
    s = TrigSum(F(5), F(1, 2), (
        TrigTerm(Enclosure.exact(F(-1, 4))),
        TrigTerm(enc),
    ))
    assert s.coeff_err() == (F(3, 5) - F(1, 2)) / 2
    assert s.lipschitz() == F(1, 4) * 5 + F(3, 5) * 7


def test_sums_refuse_negative_alpha_and_nan_rho():
    # each is refused where the sum is built, so no grid ever sees it
    with pytest.raises(ValueError, match="negative alpha"):
        build_varsigma(3, -1 / 3, F(1, 2))
    with pytest.raises(ValueError):
        build_varsigma(3, float("nan"), F(1, 2))
    u3 = build_U_n(3, F(1, 2))
    assert TrigSum(u3.alpha, u3.beta, u3.terms) == u3


def _direct_poch(mu: Fraction, k: int) -> Fraction:
    """(mu)_k / k! as one product of integers over q^k k!, mu = p/q."""
    p, q = mu.numerator, mu.denominator
    return Fraction(math.prod(p + i * q for i in range(k)), q**k * math.factorial(k))


def test_interval_coefficients_enclose_the_direct_product():
    # oracle for the outward-rounded recurrence: each rounded endpoint lies
    # outside the exact endpoint product, widens it by a negligible amount
    # and stays at the dyadic grain instead of growing with k
    enc = mu_star(F(2, 3), width=F(1, 10**20)).enclosure
    table = [t.coeff for t in build_U_n(100, enc).terms]
    assert _poch(enc, 100) == table[100]
    limit = math.ceil((working_dps() + 20) * math.log2(10)) + 2  # grain + 2
    for k, c in enumerate(table):
        lo, hi = _direct_poch(enc.lo, k), _direct_poch(enc.hi, k)
        assert c.lo <= lo and hi <= c.hi, k
        assert c.width - (hi - lo) <= F(1, 10**25) * (hi - lo), k
        for end in (c.lo, c.hi):
            assert end.numerator.bit_length() <= limit, k
            assert end.denominator.bit_length() <= limit, k


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


def test_poch_table_equals_the_fraction_oracle_on_the_pinned_enclosures():
    # on the four enclosures the grid-sweep benchmark pins, the integer
    # recurrence gives the Fraction recurrence's table entry for entry
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))["enclosures"]
    assert len(pinned) == 4
    for name, (lo, hi) in pinned.items():
        lo, hi = F(lo), F(hi)
        got = list(itertools.islice(trigsums._pochhammer(Enclosure(lo, hi)), 1001))
        want = rational_poch_table(lo, hi, 1000, GRAIN_BITS)
        assert [(c.lo, c.hi) for c in got] == want, name


def test_poch_table_brackets_small_exact_endpoints():
    # on [2/5, 1/2] every entry brackets the exact endpoint values, is one
    # outward rounding, within one 2^-b grain, of the exact step from the
    # entry before it, and equals the Fraction oracle: both ends are rounded
    # from the first step on, though their denominators start small
    lo, hi, grain = F(2, 5), F(1, 2), F(1, 2**GRAIN_BITS)
    got = list(itertools.islice(trigsums._pochhammer(Enclosure(lo, hi)), 1001))
    exact_lo = exact_hi = F(1)
    for k, c in enumerate(got):
        assert c.lo <= exact_lo and exact_hi <= c.hi, k
        if k:
            step_lo = got[k - 1].lo * (lo + k - 1) / k
            step_hi = got[k - 1].hi * (hi + k - 1) / k
            assert c.lo <= step_lo < c.lo + grain and c.hi - grain < step_hi <= c.hi, k
        exact_lo, exact_hi = exact_lo * (lo + k) / (k + 1), exact_hi * (hi + k) / (k + 1)
    assert got == [Enclosure(a, b) for a, b in rational_poch_table(lo, hi, 1000, GRAIN_BITS)]


def test_exact_mu_coefficients_are_never_rounded():
    for mu in (F(1, 2), F(9, 10)):
        for k, t in enumerate(build_U_n(100, mu).terms):
            assert t.coeff.is_exact()
            assert t.coeff.lo == _direct_poch(mu, k), (mu, k)


def test_outward_bounds_lie_on_their_side():
    # _outward runs at mpmath's default 15 digits, as the CLI's Sturm plan
    # does, so a reader that rounds iv's ends to mp's precision shows; the
    # true values are taken at 80
    for fn, exact, below in (
        (lambda: iv.cos(7 * iv.pi / 24) ** 2, lambda: mp.cos(7 * mp.pi / 24) ** 2, True),
        (lambda: iv.cos(2 * iv.pi / 9) ** 2, lambda: mp.cos(2 * mp.pi / 9) ** 2, False),
        (lambda: iv.cos(7 * iv.pi / 27), lambda: mp.cos(7 * mp.pi / 27), False),
        (lambda: iv.cos(iv.pi / 5), lambda: mp.cos(mp.pi / 5), True),
    ):
        saved = iv.prec
        with mp.workdps(15):
            bound = _outward(fn, below)
        assert iv.prec == saved
        with mp.workdps(80):
            gap = mp.mpf(bound.numerator) / bound.denominator - exact()
            assert (gap < 0) if below else (gap > 0)
            assert abs(gap) < mp.mpf("1e-40")


def test_iv_ends_are_exact_at_any_mp_precision():
    # a 1e-50 wide interval at 60 iv digits keeps two ends at mp's 15 digits
    with workdps(60):
        x = iv.mpf(1) / 3 + iv.mpf([0, mp.mpf("1e-50")])
    with mp.workdps(15):
        lo, hi = map(_as_fraction, _iv_ends(x))
    assert lo <= F(1, 3) < hi < lo + F(2, 10**50)


# ---------------------------------------------------------------------------
# Shared term lists and per-term memos
# ---------------------------------------------------------------------------

MU_ENC = Enclosure(F(84685556828, 10**11), F(84685556830, 10**11))
NU_ENC = Enclosure(F(49669136508, 10**11), F(49669136509, 10**11))
SHARED_BUILDS = {
    "U interval": lambda n: build_U_n(n, MU_ENC),
    "U exact": lambda n: build_U_n(n, MU_23),
    "varsigma interval": lambda n: build_varsigma(n, F(1, 3), NU_ENC),
    "varsigma exact": lambda n: build_varsigma(n, F(1, 3), F(3, 5)),
    "omega": lambda n: build_varsigma(n, F(1, 3), F(1, 2)),
}


def _cold(build, n):
    trigsums._TERM_LISTS.clear()
    return build(n)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_shared_term_lists_equal_cold_builds(order):
    ns = list(range(0, 61, 6)) + [1, 59]
    if order == "descending":
        ns.sort(reverse=True)
    elif order == "shuffled":
        random.Random(7).shuffle(ns)
    else:
        ns.sort()
    cold = {(name, n): _cold(build, n) for name, build in SHARED_BUILDS.items() for n in ns}
    trigsums._TERM_LISTS.clear()
    for n in ns:  # the families interleaved, as the proofs and the sweep do
        for name, build in SHARED_BUILDS.items():
            warm = build(n)
            assert warm == cold[name, n] and len(warm.terms) == n + 1, (name, n)


def test_shared_term_lists_follow_the_precision(monkeypatch):
    monkeypatch.setenv("TRIGPOS_PRECISION", "30")
    at_30 = build_U_n(80, MU_ENC)
    monkeypatch.setenv("TRIGPOS_PRECISION", "40")
    at_40 = build_U_n(80, MU_ENC)
    assert at_40 == _cold(lambda n: build_U_n(n, MU_ENC), 80)
    assert at_40 != at_30  # the dyadic grain follows the precision
    monkeypatch.setenv("TRIGPOS_PRECISION", "30")
    assert build_U_n(80, MU_ENC) == _cold(lambda n: build_U_n(n, MU_ENC), 80) == at_30


def test_shared_term_lists_stay_within_their_bound():
    trigsums._TERM_LISTS.clear()
    for j in range(2 * trigsums._MAX_TERM_LISTS):
        build_U_n(3, F(1, 3) + F(j, 1000))
        assert len(trigsums._TERM_LISTS) <= trigsums._MAX_TERM_LISTS
    newest = build_U_n(5, F(1, 3))  # evicted long ago: rebuilt, still right
    assert newest == _cold(lambda n: build_U_n(n, F(1, 3)), 5)


def test_a_rejected_mu_leaves_no_term_list():
    # an interval mu reaching 0 is refused on every call, and its key never
    # enters the shared lists, so a later call cannot resume a dead generator
    mu = Enclosure(F(-1, 2), F(1, 2))
    trigsums._TERM_LISTS.clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="mu > 0"):
            build_U_n(3, mu)
        assert not any(key[:2] == (mu.lo, mu.hi) for key in trigsums._TERM_LISTS)


def test_shared_term_lists_resume_the_recurrence(monkeypatch):
    # U_100, U_50, U_100 at one mu: 100 recurrence steps, where rebuilding
    # every table from k = 0 takes 250
    steps = []

    class Counted(Enclosure):
        def __post_init__(self):
            steps.append(1)
            super().__post_init__()

    monkeypatch.setattr(trigsums, "Enclosure", Counted)
    mu = Counted(F(84685556828, 10**11), F(84685556831, 10**11))
    trigsums._TERM_LISTS.clear()
    steps.clear()
    sums = [build_U_n(n, mu) for n in (100, 50, 100)]
    assert len(steps) == 100
    assert sums[1].terms == sums[0].terms[:51] and sums[2] == sums[0]
    # U_100, varsigma_100 at rho = 1/3 and at rho = 2/3 on one mu read one
    # table: 100 steps, where a table per alpha takes 300
    trigsums._TERM_LISTS.clear()
    steps.clear()
    sums = [build_U_n(100, mu), *(build_varsigma(100, rho, mu) for rho in (F(1, 3), F(2, 3)))]
    assert len(steps) == 100
    assert sums[0].terms == sums[1].terms == sums[2].terms
    assert [s.alpha for s in sums] == [F(1, 3), F(1, 3), F(2, 3)]


def test_shared_term_lists_under_threads():
    # more threads than cores grow the same lists with a short switch
    # interval; every sum must still equal its cold build
    ns = list(range(81))
    cold = {n: _cold(SHARED_BUILDS["U interval"], n) for n in ns}
    trigsums._TERM_LISTS.clear()
    results, saved = [], sys.getswitchinterval()

    def work(seed):
        order = ns[:]
        random.Random(seed).shuffle(order)
        results.extend((n, SHARED_BUILDS["U interval"](n)) for n in order)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads) and len(results) == 6 * len(ns)
    assert all(tsum == cold[n] for n, tsum in results)


def _fresh(tsum):
    """An equal sum that shares no object with the given one."""
    return TrigSum(F(tsum.alpha), F(tsum.beta), tuple(
        TrigTerm(Enclosure(t.coeff.lo, t.coeff.hi)) for t in tsum.terms))


def _eval_direct(tsum, theta):
    """TrigSum.eval_mp written out, each constant formed in place: the
    cosines cos((alpha + 2k) theta + (beta - 1/2) pi)."""
    with mp.workdps(working_dps()):
        th = mp.mpf(theta)
        phase = tsum.beta - F(1, 2)
        total = mp.mpf(0)
        for k, t in enumerate(tsum.terms):
            freq = tsum.alpha + 2 * k
            arg = mp.mpf(freq.numerator) / freq.denominator * th \
                + mp.pi * phase.numerator / phase.denominator
            c = t.coeff.mid
            total += mp.mpf(c.numerator) / c.denominator * mp.cos(arg)
        return total


def test_eval_mp_on_shared_terms_is_bit_identical():
    for name, build in SHARED_BUILDS.items():
        shared = build(40)
        fresh = _fresh(shared)
        assert fresh == shared and hash(fresh.terms) == hash(shared.terms)
        for theta in ("0.001", "0.7", "1.5707963", "3.1"):
            values = {shared.eval_mp(theta), shared.eval_mp(theta), fresh.eval_mp(theta),
                      _eval_direct(shared, theta)}
            assert len(values) == 1, (name, theta)
        assert repr(shared.terms[3]) == repr(fresh.terms[3])


def test_eval_mp_reads_a_fraction_as_its_quotient_at_working_precision():
    tsum = build_U_n(3, F(1, 2))
    with mp.workdps(working_dps()):
        third = mp.mpf(1) / 3
    assert tsum.eval_mp(F(1, 3)) == tsum.eval_mp(third)
    assert tsum.eval_mp(F(1, 2)) == tsum.eval_mp(mp.mpf("0.5")) == tsum.eval_mp(0.5)


def test_eval_mp_follows_the_precision(monkeypatch):
    tsum = build_U_n(30, MU_ENC)
    monkeypatch.setenv("TRIGPOS_PRECISION", "30")
    at_30 = tsum.eval_mp("0.3")
    monkeypatch.setenv("TRIGPOS_PRECISION", "40")
    at_40 = tsum.eval_mp("0.3")
    assert at_40 == _fresh(tsum).eval_mp("0.3") == _eval_direct(tsum, "0.3")
    with mp.workdps(40):
        assert at_40 != at_30 and abs(at_40 - at_30) < mp.mpf("1e-28")
