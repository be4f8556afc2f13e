"""Exact polynomial arithmetic, Sturm chains, enclosures, envelopes."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from trigpos.exact import (
    Enclosure,
    Polynomial,
    _as_fraction,
    count_roots_in,
    poly_gcd,
    poly_with_interval_coeffs,
    squarefree_part,
    sturm_chain,
)

F = Fraction


def test_polynomial_basic_arithmetic():
    p = Polynomial([1, 2, 3])  # 1 + 2x + 3x^2
    q = Polynomial([0, 1])
    assert (p + q).coeffs == (F(1), F(3), F(3))
    assert (p - p).is_zero()
    assert (p * q).coeffs == (F(0), F(1), F(2), F(3))
    assert p(F(1, 2)) == F(1) + F(1) + F(3, 4)
    assert p.degree == 2
    assert Polynomial([0, 0]).degree == -1


def test_trailing_zeros_are_normalized():
    assert Polynomial([1, 0, 0]).coeffs == (F(1),)
    assert Polynomial([1, 0, 0]) == Polynomial([1])


def test_divmod_reconstructs():
    rng = random.Random(101)
    for _ in range(40):
        a = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(7)])
        b = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_derivative():
    p = Polynomial([5, 0, 3, 2])  # 5 + 3x^2 + 2x^3
    assert p.derivative().coeffs == (F(0), F(6), F(6))


def test_sign_at_matches_evaluation():
    rng = random.Random(77)
    for _ in range(60):
        p = Polynomial([F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(6)])
        x = F(rng.randint(-30, 30), rng.randint(1, 11))
        v = p(x)
        s = (v > 0) - (v < 0)
        assert p.sign_at(x) == s


def test_poly_gcd_of_shared_factor():
    shared = Polynomial([-1, 1])          # x - 1
    a = shared * Polynomial([2, 1])       # (x-1)(x+2)
    b = shared * Polynomial([3, 0, 1])    # (x-1)(x^2+3)
    g = poly_gcd(a, b)
    # gcd is monic; must be exactly x - 1
    assert g == Polynomial([-1, 1])


def test_squarefree_part_drops_multiplicity():
    p = Polynomial([-1, 1]) * Polynomial([-1, 1]) * Polynomial([-2, 1])
    sf = squarefree_part(p)
    assert sf(F(1)) == 0 and sf(F(2)) == 0
    assert sf.degree == 2


def test_count_roots_known_cubic():
    # (x-1)(x-2)(x-3)
    p = Polynomial([-6, 11, -6, 1])
    chain = sturm_chain(p)
    assert count_roots_in(chain, 0, 4) == 3
    assert count_roots_in(chain, F(3, 2), F(5, 2)) == 1
    assert count_roots_in(chain, 10, 20) == 0


def test_count_roots_half_open_semantics():
    p = Polynomial([-6, 11, -6, 1])
    chain = sturm_chain(p)
    # (a, b] includes b, excludes a
    assert count_roots_in(chain, 1, 3) == 2
    assert count_roots_in(chain, F(1, 2), 1) == 1
    assert count_roots_in(chain, 3, 4) == 0


def test_count_roots_no_real_roots():
    chain = sturm_chain(Polynomial([1, 0, 1]))  # x^2 + 1
    assert count_roots_in(chain, -100, 100) == 0


def test_count_roots_with_multiple_root():
    # (x-1)^2 (x+1): distinct roots are {-1, 1}
    p = Polynomial([-1, 1]) * Polynomial([-1, 1]) * Polynomial([1, 1])
    chain = sturm_chain(p)
    assert count_roots_in(chain, -2, 2) == 2
    assert count_roots_in(chain, 0, 2) == 1


def test_empty_interval_raises():
    chain = sturm_chain(Polynomial([-1, 1]))
    with pytest.raises(ValueError):
        count_roots_in(chain, 1, 1)


def test_enclosure_arithmetic():
    a = Enclosure(F(1, 2), F(3, 4))
    b = Enclosure(F(-1, 3), F(1, 3))
    s = a + b
    assert s.lo == F(1, 2) - F(1, 3) and s.hi == F(3, 4) + F(1, 3)
    p = a * b
    assert p.lo == F(3, 4) * F(-1, 3)
    assert p.hi == F(3, 4) * F(1, 3)
    assert (-a).lo == -F(3, 4)
    assert F(2, 3) in a
    assert F(1, 4) not in a
    assert Enclosure.exact(5).is_exact()
    with pytest.raises(ValueError):
        Enclosure(F(1), F(0))


def test_as_fraction_reads_mpf_exactly():
    assert _as_fraction(mp.mpf(0)) == 0
    assert _as_fraction(mp.mpf(-0.0)) == 0
    assert _as_fraction(mp.mpf("-2.5")) == F(-5, 2)
    assert _as_fraction(mp.mpf(3) * 2**70) == 3 * 2**70
    # 1/10 is not a binary fraction: the result is the mpf's exact binary
    # value, which differs from 1/10 by less than half an ulp
    with mp.workdps(30):
        tenth = mp.mpf(1) / 10
        got = _as_fraction(tenth)
        assert got != F(1, 10)
        assert got.denominator == 2 ** (got.denominator.bit_length() - 1)
        assert abs(got - F(1, 10)) < F(1, 10**30)
        assert mp.mpf(got.numerator) / got.denominator == tenth
        third = _as_fraction(-mp.mpf(1) / 3)
        assert third < 0 and abs(third + F(1, 3)) < F(1, 10**30)
    for special in (mp.inf, mp.nan):
        with pytest.raises(ValueError):
            _as_fraction(special)


def test_enclosure_sub_contains_difference():
    rng = random.Random(5)
    for _ in range(50):
        a_lo = F(rng.randint(-8, 8), rng.randint(1, 6))
        b_lo = F(rng.randint(-8, 8), rng.randint(1, 6))
        a = Enclosure(a_lo, a_lo + F(rng.randint(0, 5), 7))
        b = Enclosure(b_lo, b_lo + F(rng.randint(0, 5), 9))
        d = a - b
        # every pointwise difference must land inside
        for x, y in ((a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi)):
            assert d.lo <= x - y <= d.hi


def test_envelopes_bound_all_choices():
    rng = random.Random(11)
    coeffs = [
        Enclosure(F(1, 3), F(1, 2)),
        Enclosure(F(-2), F(-1)),
        Enclosure(F(0), F(1, 5)),
        Enclosure(F(3), F(3)),
    ]
    lower, upper = poly_with_interval_coeffs(coeffs, (F(0), F(2)))
    for _ in range(80):
        x = F(rng.randint(0, 200), 100)
        picked = Polynomial([
            c.lo + (c.hi - c.lo) * F(rng.randint(0, 16), 16) for c in coeffs
        ])
        assert lower(x) <= picked(x) <= upper(x)


def test_envelopes_negative_interval_flips_odd_terms():
    coeffs = [Enclosure(F(0), F(1)), Enclosure(F(2), F(3))]
    lower, upper = poly_with_interval_coeffs(coeffs, (F(-1), F(0)))
    # at x = -1: lower must use hi of the odd coefficient
    assert lower(F(-1)) == F(0) - F(3)
    assert upper(F(-1)) == F(1) - F(2)


def test_envelopes_straddling_interval_rejected():
    with pytest.raises(ValueError):
        poly_with_interval_coeffs([Enclosure(F(0), F(1))], (F(-1), F(1)))
