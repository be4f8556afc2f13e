"""Ultraspherical recurrences, conversion formulas, disk scans."""

from fractions import Fraction
from itertools import islice

import pytest
from mpmath import mp

from oracles import gegenbauer_C_explicit
from trigpos.gegenbauer import (
    _gegenbauer_terms,
    arg_bound_check,
    check_jacobi_relation,
    gegenbauer_C,
    genfunc_check,
    jacobi_P,
    relation_printed,
    relation_standard,
)
from trigpos.trigsums import chebyshev_U

F = Fraction
mp.dps = 30

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
            assert gegenbauer_C(n, F(1, 2), x) == jacobi_P(n, F(0), F(0), x)


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


def test_check_jacobi_relation_report():
    rep = check_jacobi_relation(4, 0.75, 0.3)
    assert rep.standard_agrees
    assert not rep.printed_agrees
    assert rep.n == 4 and rep.lam == 0.75 and rep.x == 0.3


def test_recurrence_guards():
    with pytest.raises(ValueError):
        gegenbauer_C(-1, F(1), F(0))
    with pytest.raises(ValueError):
        jacobi_P(-2, F(0), F(0), F(0))


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
