"""Grid certification: the certificates, their float64 bounds and their refutations."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import iv, mp
from mpmath.libmp import dps_to_prec

from trigpos.engine import GridCertificate, certify_partial_sums, certify_positive_trig
from trigpos.engine import _MAX_TERMS, _Prefixes, _up
from trigpos.exact import Enclosure
from trigpos.mustar import mu_star
from trigpos.precision import working_dps
from trigpos.trigsums import TrigSum, TrigTerm, build_U_n, build_varsigma

F = Fraction
mp.dps = 30


def _sum(*terms):
    return TrigSum(tuple(terms))


def _term(c, freq, phase_pi=F(0), kind="cos"):
    return TrigTerm(Enclosure.exact(c), F(freq), F(phase_pi), kind)


def test_certify_obviously_positive():
    # 2 + cos(3 theta) >= 1 everywhere
    s = _sum(_term(2, 0), _term(1, 3))
    cert = certify_positive_trig(s, (F(1, 10), 3))
    assert isinstance(cert, GridCertificate)
    assert cert.certified and cert.status == "certified"
    assert cert.min_value > 0
    assert cert.h > 0
    assert cert.witness is None


def test_certify_refutes_with_witness():
    # sin(theta) - 3/5 dips negative near the interval ends
    s = _sum(_term(1, 1, kind="sin"), _term(F(-3, 5), 0))
    cert = certify_positive_trig(s, (F(1, 10), 3))
    assert cert.status == "refuted"
    assert cert.witness is not None
    precise = s.eval_mp(mp.mpf(cert.witness))
    assert precise < 0
    assert cert.min_value < 0


def test_certify_sine_sum_near_zero_on_the_grid():
    # pure sine sum with positive coefficients, down to theta = 1/1000: the
    # curvature bound certifies it on the grid alone, with no termwise wedge
    s = _sum(_term(1, 1, kind="sin"), _term(F(1, 2), 2, kind="sin"))
    cert = certify_positive_trig(s, (F(1, 1000), F(3, 2)))
    assert cert.certified
    assert "curvature bound" in cert.detail


def test_certify_reports_its_grid():
    s = _sum(_term(1, 1, kind="sin"), _term(F(1, 3), 2, kind="sin"))
    cert = certify_positive_trig(s, (F(1, 1000), F(1, 2)))
    assert cert.certified
    assert cert.nodes == 1025 and 0 < cert.h < 1e-3
    assert cert.curvature == pytest.approx(1 + F(1, 3) * 4)
    assert cert.margin > 0
    assert cert.margin == pytest.approx(
        cert.min_value - cert.curvature * cert.h**2 / 8 - cert.eval_err)


def test_certify_interval_guard():
    s = _sum(_term(2, 0))
    with pytest.raises(ValueError):
        certify_positive_trig(s, (1, 1))
    with pytest.raises(ValueError):
        certify_positive_trig(_sum(), (0, 1))
    # an infinite end is no rational: ValueError, as for an mpf infinity
    for end in (float("inf"), mp.inf):
        with pytest.raises(ValueError):
            certify_positive_trig(s, (0.001, end))


def test_certified_sums_are_actually_positive():
    rng = random.Random(17)
    for trial in range(6):
        terms = []
        weight = F(0)
        for _ in range(rng.randint(2, 5)):
            c = F(rng.randint(-9, 9), rng.randint(1, 7))
            f = F(rng.randint(1, 6))
            kind = rng.choice(("sin", "cos"))
            terms.append(_term(c, f, kind=kind))
            weight += abs(c)
        # constant offset dominates, so positivity is guaranteed and the
        # certifier must agree
        terms.append(_term(weight + 1, 0))
        s = _sum(*terms)
        cert = certify_positive_trig(s, (F(1, 10), 3))
        assert cert.certified, trial
        # independent spot check of the certified claim
        xs = [rng.uniform(0.1, 3.0) for _ in range(50)]
        assert all(s.eval_mp(mp.mpf(x)) > 0 for x in xs)


def test_hostile_sums_below_eval_err_are_never_certified():
    # 1 - cos(theta) has a double zero on the grid node theta = 0.  The
    # proven eval_err there is 1.9e-15, so a shift of 1e-14 is above it, but
    # the curvature term keeps +1e-14 uncertified until the node budget runs
    # out (inconclusive); -1e-14 is refuted at its witness
    for shift in (F(0), F(1, 10**14), F(-1, 10**14)):
        s = _sum(_term(1 + shift, 0), _term(-1, 1))
        cert = certify_positive_trig(s, (F(-1, 2), F(1, 2)))
        assert cert.status != "certified", shift
        if shift > 0:
            assert cert.status != "refuted", shift


def test_tangency_inside_a_cell():
    # 1 - cos(theta - pi/7) has a double zero at pi/7, strictly between the
    # nodes of every dyadic grid on [0, 1]: it must never be certified,
    # while a shift of 1e-6 either way is decided
    def shifted(c):
        return _sum(_term(1 + c, 0), _term(-1, 1, phase_pi=F(-1, 7)))

    tangent = certify_positive_trig(shifted(F(0)), (0, 1))
    assert tangent.status != "certified"
    up = certify_positive_trig(shifted(F(1, 10**6)), (0, 1))
    assert up.status == "certified"
    down = certify_positive_trig(shifted(F(-1, 10**6)), (0, 1))
    assert down.status == "refuted"
    with mp.workdps(40):
        assert shifted(F(-1, 10**6)).eval_mp(mp.mpf(down.witness)) < 0
        assert 0 <= down.witness <= 1


def _critical(rho):
    return mu_star(rho, width=F(1, 10**20)).enclosure


U_INTERVAL = (F(1, 1000), F(np.pi) / 2 + F(1, 10**12))
VS_INTERVAL = (F(1, 1000), F(np.pi) - F(1, 1000) + F(1, 10**12))


def test_all_n_pass_matches_per_n_certificates():
    families = (
        ("U", build_U_n(100, _critical(F(2, 3))), U_INTERVAL,
         lambda n: build_U_n(n, _critical(F(2, 3)))),
        ("varsigma", build_varsigma(100, F(1, 3), _critical(F(1, 3))), VS_INTERVAL,
         lambda n: build_varsigma(n, F(1, 3), _critical(F(1, 3)))),
    )
    for family, tsum, interval, build in families:
        certs = certify_partial_sums(tsum, interval)[1:]
        assert len(certs) == 100
        for n, cert in enumerate(certs, 1):
            one = certify_positive_trig(build(n), interval)
            assert cert.status == one.status == "certified", (family, n)
            assert (cert.nodes, cert.min_value) == (one.nodes, one.min_value)


def test_all_n_pass_refutes_above_the_critical_exponent():
    for family, tsum, interval, first_bad in (
        ("U", build_U_n(100, F(9, 10)), U_INTERVAL, 6),
        ("varsigma", build_varsigma(100, F(1, 3), F(3, 5)), VS_INTERVAL, 2),
    ):
        certs = certify_partial_sums(tsum, interval)[1:]
        statuses = [c.status for c in certs]
        assert statuses == ["certified"] * (first_bad - 1) \
            + ["refuted"] * (101 - first_bad), family
        for n, cert in enumerate(certs[first_bad - 1:], first_bad):
            prefix = TrigSum(tsum.terms[:n + 1])
            assert prefix.eval_mp(mp.mpf(cert.witness)) < 0


def _per_prefix_upper_bound(self, n, theta):
    """upper_bound by a fresh fixed_point pass from k = 0 for every prefix."""
    p, total = dps_to_prec(working_dps()) + 40, 0
    for t, (x, e) in zip(self.terms[:n + 1], self.fixed_point(theta, n, p)):
        c, big = t.coeff.hi if x > 0 else t.coeff.lo, max(-t.coeff.lo, t.coeff.hi)
        total -= (-c.numerator * x) // c.denominator + (-big.numerator * e) // big.denominator
    return total, p


def test_refutations_share_one_fixed_point_pass_per_witness(monkeypatch):
    # varsigma_n at nu*(1/3) + 1/100 is refuted for n >= 14, at a few dozen
    # witnesses; each witness gets one pass, and every certificate equals
    # the one a pass per prefix gives
    nu = _critical(F(1, 3))
    tsum = build_varsigma(200, F(1, 3), Enclosure(nu.lo + F(1, 100), nu.hi + F(1, 100)))
    interval = (F(1, 1000), F(3141, 1000))
    passes, fixed_point = [], _Prefixes.fixed_point
    monkeypatch.setattr(_Prefixes, "fixed_point",
                        lambda self, *args: passes.append(args) or fixed_point(self, *args))
    certs = certify_partial_sums(tsum, interval)
    refuted = [c for c in certs if c.status == "refuted"]
    witnesses = {c.witness for c in refuted}
    assert len(refuted) > 150 and len(passes) <= len(witnesses) < 50
    monkeypatch.setattr(_Prefixes, "upper_bound", _per_prefix_upper_bound)
    per_prefix = certify_partial_sums(tsum, interval)
    assert [(c.status, c.witness, c.min_value) for c in certs] \
        == [(c.status, c.witness, c.min_value) for c in per_prefix]


def test_float_values_stay_within_the_float64_bound(monkeypatch):
    # about 200 nodes of the 65,537-node grid an N = 1000 pass uses, each
    # against a 40-digit eval_mp value of one partial sum, n from 1000 down
    monkeypatch.setenv("TRIGPOS_PRECISION", "40")
    tsum = build_U_n(1000, _critical(F(2, 3)))
    prefixes = _Prefixes(tsum.terms, U_INTERVAL)
    j = np.arange(0, 65537, 328, dtype=float)
    theta = prefixes.lo + j * ((prefixes.hi - prefixes.lo) / 65536)
    n_of = 1000 - 5 * np.arange(len(theta))
    got = np.empty(len(theta))
    for k, acc in prefixes.values(theta, 1000):
        got[n_of == k] = acc[n_of == k]
    worst = 0.0
    for t, n, value in zip(theta, n_of, got):
        exact = TrigSum(tsum.terms[:n + 1]).eval_mp(mp.mpf(t))
        ratio = float(abs(value - exact)) / prefixes.float_err[n]
        assert ratio <= 1, (t, n)
        worst = max(worst, ratio)
    assert len(theta) == 200 and worst > 0


def test_up_is_the_least_float_above():
    for x in (F(1, 3**400), F(-1, 3**400), F(2, 3), F(-2, 3), F(10**400, 3**839),
              F(0.1), F(-2.5), F(0), F(7),
              1 - F(1, 2**60), 2**70 - F(1, 3), -(1 - F(1, 2**60)),
              1 + F(1, 2**60), -(1 + F(1, 2**60))):
        up = _up(x)
        assert F(up) >= x > F(math.nextafter(up, -math.inf)), x
    assert _up(F(0.1)) == 0.1 and _up(7) == 7.0 and _up(2, 3) == _up(F(2, 3))
    assert _up(1 - F(1, 2**60)) == 1.0
    assert _up(1 + F(1, 2**60)) == math.nextafter(1.0, 2)


def _exact_prefix_bounds(prefixes):
    """M2_n, float_err_n and err_n of the documented bound, summed in exact
    Fractions: the three sums over the coefficients, and the standard-model
    float64 term with its constants spelt from their derivations, not read
    from the engine: a seed is off by 8u, as sin and cos are each within 4
    ulp, and a complex product adds sqrt(2) gamma_2 = sqrt(2) 2u / (1 - 2u)
    (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.5),
    with sqrt(2) rounded down to 100 bits."""
    u = F(1, 2**53)
    seed_err = 8 * u
    mul = F(math.isqrt(2 << 200), 1 << 100) * 2 * u / (1 - 2 * u)
    big = F(prefixes.theta_max)
    m2 = half = rounding = s1 = s2 = s3 = F(0)
    e = F(0)
    f_prev = ph_prev = F(0)
    out = []
    for k, t in enumerate(prefixes.terms):
        c = abs(F(prefixes.coeffs[k]))
        assert prefixes.coeffs[k] == float(t.coeff.mid)
        m2 += max(abs(t.coeff.lo), abs(t.coeff.hi)) * t.freq**2
        half += t.coeff.width / 2
        rounding += abs(F(float(t.coeff.mid)) - t.coeff.mid)
        ph = t.phase_pi - (F(1, 2) if t.kind == "sin" else 0)
        step = (t.freq - f_prev, (ph - ph_prev + 1) % 2 - 1)
        f_prev, ph_prev = t.freq, ph
        if step != (0, 0):
            g, d = float(step[0]), float(step[1]) * math.pi
            es = seed_err + abs(F(g) - step[0]) * big \
                + F(2.01) * u * abs(F(g)) * big + 5 * u * abs(F(d))
            e = es if k == 0 else e + (1 + e) * (es + mul + es * mul)
        a = c * (1 + e) * (1 + u)  # term k passes n - k + 1 additions
        s1, s2, s3 = s1 + a, s2 + k * a, s3 + c * (e + u * (1 + e))
        fp = ((k + 1) * s1 - s2) * u / (1 - (k + 1) * u) + s3
        out.append((m2, fp + rounding, fp + rounding + half))
    return out


def test_prefix_bounds_cover_their_exact_sums():
    # the float64 sums of per-term upper bounds against the same sums in
    # Fractions: never below, and at most 1e-8 above in relative terms
    mixed = (  # steps: none, then (1, -3/10) twice, (2, 0) twice, two more
        _term(F(1, 3), 0),
        TrigTerm(Enclosure(F(-7, 10), F(-2, 3)), F(1), F(1, 5), "sin"),
        _term(F(-5, 7), 2, phase_pi=F(-3, 5)),
        _term(F(2, 9), 4, phase_pi=F(-3, 5)),
        TrigTerm(Enclosure(F(1, 10**9), F(3, 10**9) + F(1, 7)), F(6), F(-3, 5), "cos"),
        _term(F(-1, 11), 6, phase_pi=F(1, 3)),
        _term(F(3, 13), 9, phase_pi=F(1, 5), kind="sin"),
    )
    cases = (
        (build_U_n(100, _critical(F(2, 3))).terms, U_INTERVAL),
        (build_varsigma(100, F(1, 3), F(3, 5)).terms, VS_INTERVAL),
        (mixed, (F(-1, 3), F(22, 7))),
    )
    slack = 1 + F(1, 10**8)
    for terms, interval in cases:
        prefixes = _Prefixes(terms, interval)
        for n, exact in enumerate(_exact_prefix_bounds(prefixes)):
            got = (prefixes.m2[n], prefixes.float_err[n], prefixes.err[n])
            for name, bound, want in zip(("m2", "float_err", "err"), got, exact):
                assert want <= F(bound) <= want * slack, (n, name, float(want), bound)
    assert len(_Prefixes(mixed, (0, 1)).seeds) == 4


def test_prefix_steps_from_integer_keys():
    # a full turn of phase at one frequency is no step; one step written
    # over different denominators (a sine's phase is shifted by -1/2) keeps
    # one seed; the bounds still match the exact Fraction sums
    terms = (
        _term(F(1, 3), 1, phase_pi=F(1, 5), kind="sin"),
        _term(F(1, 5), 1, phase_pi=F(11, 5), kind="sin"),  # + 2: no step
        _term(F(1, 7), 2, phase_pi=F(1), kind="sin"),      # step (1, 4/5)
        _term(F(1, 9), 3, phase_pi=F(0)),                  # step (1, -1/2)
        _term(F(1, 11), 4, phase_pi=F(1, 2), kind="sin"),  # step (1, 0)
        _term(F(1, 13), 5, phase_pi=F(-1, 2)),             # step (1, -1/2)
    )
    prefixes = _Prefixes(terms, (F(-1, 3), F(22, 7)))
    assert prefixes.seed_of[1] == -1 and prefixes.seed_of[3] == prefixes.seed_of[5]
    assert len(prefixes.seeds) == 4
    for n, exact in enumerate(_exact_prefix_bounds(prefixes)):
        got = (prefixes.m2[n], prefixes.float_err[n], prefixes.err[n])
        for bound, want in zip(got, exact):
            assert want <= F(bound) <= want * (1 + F(1, 10**8)), n


def test_cells_between_float_nodes_are_at_most_h(monkeypatch):
    # theta = lo + j step is rounded to a float, so near theta = 3 two
    # neighbouring nodes can lie further apart than step; the cell bound h
    # that the curvature term uses must cover every gap the grid really has
    nodes = []
    true_values = _Prefixes.values

    def recording(self, theta, n_hi):
        nodes.append(theta.copy())
        yield from true_values(self, theta, n_hi)

    monkeypatch.setattr(_Prefixes, "values", recording)
    a, b = F(3), F(31, 10)
    cert = certify_positive_trig(_sum(_term(2, 0), _term(1, 1)), (a, b))
    assert cert.certified and cert.nodes == 1025
    grid = np.unique(np.concatenate(nodes))
    assert len(grid) == cert.nodes
    assert F(grid[0]) <= a and F(grid[-1]) >= b
    assert np.diff(grid).max() <= cert.h


def test_prefixes_refuse_a_million_terms():
    # the float sums' slack holds below 10^6 terms; the guard fires before
    # any per-term work, so a list of one repeated term is enough
    term = _term(1, 2)
    with pytest.raises(ValueError, match="below"):
        _Prefixes([term] * _MAX_TERMS, (0, 1))
    assert len(_Prefixes([term] * 3, (0, 1)).err) == 3


def test_prefixes_from_memoised_terms_equal_fresh_ones():
    # the per-term float bounds memoised on shared terms give the very
    # arrays that equal terms without a memo give
    for case, (tsum, interval) in enumerate((
        (build_U_n(100, _critical(F(2, 3))), U_INTERVAL),
        (build_varsigma(100, F(1, 3), _critical(F(1, 3))), VS_INTERVAL),
        (build_U_n(100, F(9, 10)), U_INTERVAL),
    )):
        certify_partial_sums(tsum, interval)  # fills the memos
        fresh = tuple(TrigTerm(Enclosure(t.coeff.lo, t.coeff.hi), F(t.freq), F(t.phase_pi),
                               t.kind) for t in tsum.terms)
        a, b = _Prefixes(tsum.terms, interval), _Prefixes(fresh, interval)
        for name in ("coeffs", "m2", "float_err", "err"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (case, name)
        assert (a.seed_of, a.seeds) == (b.seed_of, b.seeds)


# ---------------------------------------------------------------------------
# The fixed-point proof of a refutation
# ---------------------------------------------------------------------------


def _exact_P(term, theta):
    """Re P_k at theta in mp: the term's g(freq theta + phase pi)."""
    g = mp.sin if term.kind == "sin" else mp.cos
    return g(mp.mpf(term.freq.numerator) / term.freq.denominator * mp.mpf(theta)
             + mp.pi * term.phase_pi.numerator / term.phase_pi.denominator)


def _recheck_cases():
    return (
        (build_U_n(100, F(9, 10)), U_INTERVAL),
        (build_varsigma(100, F(1, 3), F(3, 5)), VS_INTERVAL),
        (build_U_n(100, mu_star(F(2, 3), width=F(1, 10**9)).enclosure), U_INTERVAL),
    )


def test_fixed_point_bound_brackets_the_oracle():
    # B 2^-p against sum_k max(lo_k Re P_k, hi_k Re P_k) at 60 digits: never
    # below it, and within 1e-25 above it
    for case, (tsum, interval) in enumerate(_recheck_cases()):
        prefixes = _Prefixes(tsum.terms, interval)
        for theta in (0.001, 0.0123, 0.5, 1.1, 1.5707963):
            for n in (1, 37, 100):
                bound, p = prefixes.upper_bound(n, theta)
                with mp.workdps(60):
                    ref = mp.fsum(max(t.coeff.lo * v, t.coeff.hi * v)
                                  for t in tsum.terms[:n + 1]
                                  for v in [_exact_P(t, theta)])
                    got = mp.mpf(bound) / 2**p
                    assert ref <= got <= ref + mp.mpf("1e-25"), (case, theta, n)


def test_seed_boxes_enclose_the_true_seed():
    rng = random.Random(23)
    p = 143
    for _ in range(40):
        step = (F(rng.randint(1, 40), rng.randint(1, 6)), F(rng.randint(-11, 12), 12))
        theta = rng.uniform(0.001, 3.2)
        c, s, r = _Prefixes._seed_box(step, theta, p)
        with mp.workdps(60):
            arg = mp.mpf(step[0].numerator) / step[0].denominator * mp.mpf(theta) \
                + mp.pi * step[1].numerator / step[1].denominator
            assert abs(mp.mpc(c, s) - 2**p * mp.expj(arg)) <= r, (step, theta)
        assert r <= 4


def _assert_terms_within_their_errors(tsum, interval, thetas):
    prefixes, n, p = _Prefixes(tsum.terms, interval), len(tsum.terms) - 1, 143
    for theta in thetas:
        for t, (x, e) in zip(tsum.terms, prefixes.fixed_point(theta, n, p)):
            with mp.workdps(80):
                assert abs(x - 2**p * _exact_P(t, theta)) <= e, (t, theta)


def test_fixed_point_errors_cover_the_true_terms():
    for tsum, interval in _recheck_cases()[:2]:
        _assert_terms_within_their_errors(tsum, interval, (0.001, 0.3, 1.2, 1.5707963))


def test_fixed_point_errors_cover_wide_off_centre_seeds(monkeypatch):
    # seed boxes of half-width 1/20 whose centres sit 0.9/20 outward of the
    # true seed: the radius and its growth per step must carry the error,
    # which grows like 1.045^k
    true_cos_sin = iv.cos_sin

    def wide(arg):
        delta = iv.mpf(1) / 20
        return tuple(iv.mpf([(v * (1 + delta * 9 / 10) - delta).a,
                             (v * (1 + delta * 9 / 10) + delta).b])
                     for v in true_cos_sin(arg))

    cases = _recheck_cases()[:2]  # mu_star's integrals read the true cos_sin
    monkeypatch.setattr(iv, "cos_sin", wide)
    for tsum, interval in cases:
        _assert_terms_within_their_errors(tsum, interval, (0.3, 1.2))


def test_a_lying_float_grid_refutes_nothing(monkeypatch):
    # every node reads 1 too low, so the float gate passes everywhere; the
    # fixed-point bound at the witness must still keep positive sums
    # from being refuted
    true_values = _Prefixes.values

    def lying(self, theta, n_hi):
        for k, acc in true_values(self, theta, n_hi):
            yield k, acc - 1

    monkeypatch.setattr(_Prefixes, "values", lying)
    for case, (tsum, interval) in enumerate((
        (_sum(_term(F(11, 10), 0), _term(-1, 1)), (F(-1, 2), F(1, 2))),
        (build_U_n(40, _critical(F(2, 3))), U_INTERVAL),
        (build_varsigma(40, F(1, 3), _critical(F(1, 3))), VS_INTERVAL),
    )):
        cert = certify_positive_trig(tsum, interval)
        assert cert.status == "inconclusive", case
        assert all(c.status != "refuted" for c in certify_partial_sums(tsum, interval))


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


def test_pinned_grid_sweep_verdicts(monkeypatch):
    # the 600 (family, mu, n) verdicts the grid-sweep benchmark pins, in one
    # process; each refuted witness is also negative at 50 digits
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    mus = {name: Enclosure(F(lo), F(hi)) for name, (lo, hi) in pinned["enclosures"].items()}
    refuted = []
    for key, letters in pinned["verdicts"].items():
        family, name = key.split()
        mu = mus.get(name) or F(name)
        for n, want in enumerate(letters, 1):
            tsum = build_U_n(n, mu) if family == "U" else build_varsigma(n, F(1, 3), mu)
            cert = certify_positive_trig(tsum, U_INTERVAL if family == "U" else VS_INTERVAL)
            assert cert.status[0] == want, (key, n, cert.status)
            if cert.status == "refuted":
                refuted.append((key, n, tsum, cert.witness))
    assert len(refuted) == sum(v.count("r") for v in pinned["verdicts"].values()) > 0
    monkeypatch.setenv("TRIGPOS_PRECISION", "50")
    for key, n, tsum, witness in refuted:
        assert tsum.eval_mp(mp.mpf(witness)) < 0, (key, n, witness)
