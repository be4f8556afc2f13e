"""Grid certification and unit-disk scans."""

import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from trigpos.engine import (
    GridCertificate,
    certify_positive_trig,
    closed_form_full_sum,
    partial_sum,
    subordination_sector_check,
    weak_conjecture_check,
)
from trigpos.exact import Enclosure
from trigpos.trigsums import TrigSum, TrigTerm

F = Fraction
mp.dps = 30


def _sum(*terms, label=""):
    return TrigSum(tuple(terms), label)


def _term(c, freq, phase_pi=F(0), kind="cos"):
    return TrigTerm(Enclosure.exact(c), F(freq), F(phase_pi), kind)


def test_certify_obviously_positive():
    # 2 + cos(3 theta) >= 1 everywhere
    s = _sum(_term(2, 0), _term(1, 3), label="offset-cos")
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


def test_certify_wedge_prefix_detail():
    # pure sine sum with positive coefficients: the near-zero prefix is
    # handled termwise and the detail records the certified cutoff
    s = _sum(_term(1, 1, kind="sin"), _term(F(1, 2), 2, kind="sin"))
    cert = certify_positive_trig(s, (F(1, 1000), F(3, 2)))
    assert cert.certified
    assert "wedge bound certified" in cert.detail


def test_certify_wedge_can_cover_whole_interval():
    s = _sum(_term(1, 1, kind="sin"), _term(F(1, 3), 2, kind="sin"))
    cert = certify_positive_trig(s, (F(1, 1000), F(1, 2)))
    assert cert.certified
    assert cert.h == 0.0  # no grid was needed


def test_certify_interval_guard():
    s = _sum(_term(2, 0))
    with pytest.raises(ValueError):
        certify_positive_trig(s, (1, 1))


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
        s = _sum(*terms, label=f"random-{trial}")
        cert = certify_positive_trig(s, (F(1, 10), 3))
        assert cert.certified, trial
        # independent spot check of the certified claim
        xs = [rng.uniform(0.1, 3.0) for _ in range(50)]
        assert all(s.eval_mp(mp.mpf(x)) > 0 for x in xs)


def test_partial_sum_geometric_identity():
    # mu = 1 collapses to the geometric partial sum, an exact closed form
    for z in (mp.mpc("0.4", "0.1"), mp.mpc("-0.3", "0.55")):
        for n in (0, 1, 7):
            want = (1 - z ** (n + 1)) / (1 - z)
            assert abs(partial_sum(1, n, z) - want) < mp.mpf("1e-25")


def test_partial_sum_converges_to_closed_form():
    for mu in (mp.mpf("0.3"), mp.mpf("0.8")):
        for z in (mp.mpc("0.3", "0.2"), mp.mpc("-0.25", "0.4")):
            err = abs(partial_sum(mu, 60, z) - closed_form_full_sum(mu, z))
            assert err < mp.mpf("1e-20")


def test_partial_sum_guard():
    with pytest.raises(ValueError):
        partial_sum(mp.mpf("0.5"), -1, 0.5)


def test_sector_check_quick():
    rep = subordination_sector_check(
        F(1, 3), 0.49, n_max=8, r_values=(0.9,), n_theta=120
    )
    assert rep.passed
    assert rep.threshold == pytest.approx(np.pi / 3)
    assert rep.max_abs_arg < rep.threshold
    assert rep.samples == 8 * 120
    assert rep.worst.arg == rep.max_abs_arg
    assert 0 < rep.worst.theta <= np.pi


def test_weak_check_quick_and_boundary_identity():
    rep = weak_conjecture_check(
        F(2, 3), 0.85, n_max=6, r_values=(0.9,), n_theta=120
    )
    assert rep.passed
    assert rep.min_real > 0
    # the rho = 2/3 boundary factorization must hold to full precision
    assert rep.boundary_max_diff is not None
    assert rep.boundary_max_diff < 1e-25


def test_weak_check_other_rho_has_no_boundary_figure():
    rep = weak_conjecture_check(F(1, 2), 0.85, n_max=4, r_values=(0.9,), n_theta=60)
    assert rep.boundary_max_diff is None
    assert rep.passed


def test_hostile_sums_below_eval_err_are_never_certified():
    # 1 - cos(theta) has a double zero on the grid node theta = 0; shifting
    # it by 1e-14, far below eval_err, leaves the sign undecidable in float64
    for shift in (F(0), F(1, 10**14), F(-1, 10**14)):
        s = _sum(_term(1 + shift, 0), _term(-1, 1), label=f"1+({shift})-cos")
        cert = certify_positive_trig(s, (F(-1, 2), F(1, 2)))
        assert cert.status != "certified", shift
        if shift > 0:
            assert cert.status != "refuted", shift
