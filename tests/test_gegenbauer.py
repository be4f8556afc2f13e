"""Ultraspherical recurrences against exact oracles, sampled disk scans."""

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from mpmath import mp

from oracles import (
    closed_form_full_sum,
    gegenbauer_C_explicit,
    jacobi_P_explicit,
    relation_printed,
    relation_standard,
)
from trigpos.gegenbauer import (
    ArgBoundReport,
    DiskSample,
    _gegenbauer_terms,
    arg_bound_check,
    gegenbauer_C,
    genfunc_check,
    partial_sum,
    subordination_sector_check,
    weak_conjecture_check,
)
from trigpos.trigsums import chebyshev_U

F = Fraction

XS = (F(0), F(1, 2), F(-1, 2), F(3, 7), F(-2, 5), F(1), F(-1))


def test_lambda_one_is_chebyshev_U_exactly():
    for n in range(13):
        poly = chebyshev_U(n)
        for x in XS:
            assert gegenbauer_C(n, F(1), x) == poly(x), (n, x)


@pytest.mark.parametrize("lam", [F(1, 4), F(3, 4), F(3, 2)])
def test_gegenbauer_terms_match_the_explicit_sum(lam):
    for x in XS:
        want = [gegenbauer_C_explicit(n, lam, x) for n in range(13)]
        assert list(islice(_gegenbauer_terms(lam, x), 13)) == want, x


def test_lambda_half_is_legendre_exactly():
    # C_n^(1/2) = P_n = P_n^(0,0); both sides in exact rational arithmetic
    for n in range(11):
        for x in XS:
            assert gegenbauer_C(n, F(1, 2), x) == jacobi_P_explicit(n, F(0), F(0), x)


def test_standard_relation_exact():
    for n in (0, 1, 2, 3, 5, 8):
        for lam in (F(1, 4), F(3, 4), F(3, 2), 1):
            for x in (F(-3, 5), F(3, 10), F(9, 10)):
                assert relation_standard(n, lam, x) == gegenbauer_C(n, lam, x)


def test_printed_relation_is_lambda_plus_half():
    # the variant with (2 lam + 1)_n / n! against P^(lam,lam) normalized at 1
    # reproduces C^(lam + 1/2), not C^lam
    lam = F(1, 4)
    x = F(3, 7)
    for n in (1, 2, 5):
        got = relation_printed(n, lam, x)
        assert got == gegenbauer_C(n, lam + F(1, 2), x)
        assert got != gegenbauer_C(n, lam, x)


def test_recurrence_guards():
    with pytest.raises(ValueError):
        gegenbauer_C(-1, F(1), F(0))


def test_genfunc_agreement_and_tail():
    for lam in (0.24, 0.5, 1.0, 1.7):
        for x in (-0.9, -0.3, 0.2, 0.8):
            for z in (0.5, 0.5j, -0.35 + 0.35j):
                rep = genfunc_check(lam, x, z, tol=1e-12)
                assert rep.tail_bound < 1e-12
                assert rep.diff <= rep.tail_bound + 1e-18, (lam, x, z)
                assert rep.terms >= 1


def test_genfunc_counts_the_terms_it_sums_at_the_cap():
    # at |z| = 0.999 the proven tail stays above 1e-30 for 5000 terms
    rep = genfunc_check(0.24, 0.3, 0.999, tol=1e-30)
    assert rep.terms == 5000
    assert rep.tail_bound > 1e-30


def test_genfunc_guards():
    with pytest.raises(ValueError):
        genfunc_check(0.24, 0.5, 1.0)  # |z| not < 1
    with pytest.raises(ValueError):
        genfunc_check(0, 0.5, 0.5)  # lam not positive
    with pytest.raises(ValueError):
        genfunc_check(0.24, 1.5, 0.5)  # x outside [-1, 1]
    # a NaN fails every comparison, so each guard must negate its requirement
    for lam, x, z in ((math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5),
                      (0.24, math.nan, 0.5), (0.24, 0.5, complex(math.nan, 0))):
        with pytest.raises(ValueError):
            genfunc_check(lam, x, z)


def test_genfunc_reads_exact_lam_and_x():
    # lam and x go through the one point conversion, so a Fraction is read
    # as its value, as a float equal to it is
    assert genfunc_check(F(1, 2), F(1, 2), 0.5) == genfunc_check(0.5, 0.5, 0.5)


QUICK_SCAN = dict(
    n_max=40, x_values=(-0.9, -0.5, 0.1, 0.7), r_values=(0.9, 0.999), n_theta=160
)


def test_arg_bound_holds_below_threshold():
    rep = arg_bound_check(0.24, **QUICK_SCAN)
    assert rep.passed
    assert rep.max_abs_arg < rep.threshold


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-9])
def test_arg_bound_refuses_a_non_finite_or_non_positive_lambda(lam):
    # a NaN |arg| beats no running maximum, and near lambda = 0 every partial
    # sum stays close to C_0 = 1 (C_k^0 = 0 for k >= 1): either scan would pass
    with pytest.raises(ValueError, match="finite"):
        arg_bound_check(lam, n_max=3)


def test_arg_bound_fails_above_threshold():
    # negative control: lambda = 1/2 exceeds the critical exponent range and
    # the sampled sums leave the sector
    rep = arg_bound_check(0.5, **QUICK_SCAN)
    assert not rep.passed
    assert rep.max_abs_arg > rep.threshold


def test_nonvanishing_on_sampled_disk():
    rep = arg_bound_check(0.24, **QUICK_SCAN)
    assert rep.min_abs_value > 0.1


def test_a_vanishing_sample_never_passes_the_arg_bound():
    # np.angle(0) = 0, so a sum that vanishes at a sample has |arg| 0 there
    zero = DiskSample(n=3, r=0.5, theta=1.0, value=0j, arg=0.0)
    assert not ArgBoundReport(math.pi / 3, 0.0, 0.0, 1, zero, 0.1).passed
    assert ArgBoundReport(math.pi / 3, 0.0, 1e-300, 1, zero, 0.1).passed


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


def test_partial_sum_reads_a_fraction_mu_as_its_quotient():
    assert partial_sum(F(1, 2), 3, 0.5) == partial_sum(mp.mpf("0.5"), 3, 0.5)
    z = mp.mpc("0.3", "0.2")
    assert partial_sum(F(1, 3), 9, z) == partial_sum(mp.mpf(1) / 3, 9, z)


def test_partial_sum_reads_a_fraction_z_as_its_quotient():
    assert partial_sum(F(1, 2), 3, F(1, 2)) == partial_sum(F(1, 2), 3, 0.5)
    assert partial_sum(F(1, 3), 9, F(-3, 4)) == partial_sum(F(1, 3), 9, -0.75)


def test_partial_sum_guard():
    with pytest.raises(ValueError):
        partial_sum(mp.mpf("0.5"), -1, 0.5)


def test_sector_check_quick():
    rep = subordination_sector_check(
        F(1, 3), 0.49, n_max=8, r_values=(0.9,), n_theta=120
    )
    assert rep.passed
    assert rep.threshold == pytest.approx(np.pi / 6)
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


@pytest.mark.parametrize("scan", [
    lambda: subordination_sector_check(F(1, 3), 0.49, n_max=0),
    lambda: subordination_sector_check(F(1, 3), 0.49, r_values=()),
    lambda: weak_conjecture_check(F(1, 2), 0.85, n_max=0),
    lambda: arg_bound_check(0.9, n_max=0),
    lambda: arg_bound_check(0.9, x_values=()),
    lambda: arg_bound_check(0.9, n_theta=0),
], ids=["sector-n0", "sector-no-r", "weak-n0", "arg-n0", "arg-no-x", "arg-no-theta"])
def test_a_scan_with_no_samples_is_an_error(scan):
    with pytest.raises(ValueError, match="no samples"):
        scan()


def test_a_nan_exponent_never_passes_a_scan():
    # a NaN score is the first sample's and no later one beats it
    assert math.isnan(subordination_sector_check(F(1, 3), math.nan, n_max=3).max_abs_arg)
    assert not weak_conjecture_check(F(1, 2), math.nan, n_max=3).passed
    # a NaN sample wins wherever it falls: in the only x, beside a finite x, or in r
    for rep in (arg_bound_check(0.24, n_max=5, x_values=(math.nan,)),
                arg_bound_check(0.24, n_max=5, x_values=(0.3, math.nan)),
                arg_bound_check(0.24, n_max=5, r_values=(0.5, math.nan))):
        assert not rep.passed
        assert math.isnan(rep.max_abs_arg) and math.isnan(rep.min_abs_value)


EXACT_FIELDS = {"worst.r", "worst.theta", "worst_x"}  # where the worst sample is


def assert_report_is(report, want):
    """Every field of a disk-scan report against its pinned value: ints and
    the worst sample's position exactly, every other float and complex to a
    relative 1e-12."""
    fields = dict(vars(report), type=type(report).__name__)
    if "worst" in fields:
        fields.update({f"worst.{k}": v for k, v in vars(fields.pop("worst")).items()})
    assert set(fields) == set(want)
    for name, value in want.items():
        if isinstance(value, (float, complex)) and name not in EXACT_FIELDS:
            assert fields[name] == pytest.approx(value, rel=1e-12, abs=0), name
        else:
            assert fields[name] == value, name


def test_criterion_09_and_10_scan_reports_are_pinned():
    # criterion 09's scans, with mu = 0.999 times the midpoint of the mu*
    # enclosure at rho = 1/3 and rho = 2/3, as the floats the scans read
    sector = subordination_sector_check(F(1, 3), 0.4961946737162157, n_max=30,
                                        r_values=(0.999, 1 - 1e-6))
    assert_report_is(sector, {
        "type": "SectorReport", "threshold": math.pi / 6,
        "max_abs_arg": 0.5212971456534469, "samples": 43200,
        "worst.n": 1, "worst.r": 0.999999, "worst.theta": 0.004469252647551868,
        "worst.value": 0.21371646813709747 - 0.12273426800671003j,
        "worst.arg": 0.5212971456534469,
    })
    weak = weak_conjecture_check(F(2, 3), 0.8460087127212447, n_max=30,
                                 r_values=(0.999, 1 - 1e-6))
    assert_report_is(weak, {
        "type": "WeakFormReport", "min_real": 0.0743508810723783, "samples": 43200,
        "boundary_max_diff": 6.310887241768095e-30,
        "worst.n": 1, "worst.r": 0.999999, "worst.theta": 0.0001,
        "worst.value": 0.0743508810723783 - 0.04259052560391572j,
        "worst.arg": -0.5202030559890847,  # the signed arg of w, not a score
    })
    # and criterion 10's argument-bound scan
    assert_report_is(arg_bound_check(0.24, n_max=50), {
        "type": "ArgBoundReport", "threshold": math.pi / 3,
        "max_abs_arg": 0.7211117953136131, "min_abs_value": 0.568432, "samples": 360000,
        "worst_x": -0.9, "worst.n": 49, "worst.r": 0.999, "worst.theta": 2.6159704521521707,
        "worst.value": 1.424288358728051 - 1.2520019700207072j,
        "worst.arg": 0.7211117953136131,
    })
