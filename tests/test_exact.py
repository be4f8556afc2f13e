"""Exact polynomial arithmetic, Sturm chains, enclosures."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from mpmath import mp

from oracles import poly_mul, rational_root_count, rational_sturm_chain
from trigpos.exact import (
    Enclosure,
    Polynomial,
    _as_fraction,
    count_roots_in,
    sturm_chain,
)

F = Fraction


def test_polynomial_basic_arithmetic():
    p = Polynomial([1, 2, 3])  # 1 + 2x + 3x^2
    assert p(F(1, 2)) == F(1) + F(1) + F(3, 4)
    assert p.degree == 2
    assert Polynomial([0, 0]).degree == -1


def test_trailing_zeros_are_normalized():
    assert Polynomial([1, 0, 0]).coeffs == (F(1),)
    assert Polynomial([1, 0, 0]) == Polynomial([1])


def test_sign_at_matches_evaluation():
    rng = random.Random(77)
    for _ in range(60):
        p = Polynomial([F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(6)])
        x = F(rng.randint(-30, 30), rng.randint(1, 11))
        v = p(x)
        s = (v > 0) - (v < 0)
        assert p.sign_at(x) == s


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
    p = Polynomial([1, -1, -1, 1])
    chain = sturm_chain(p)
    assert count_roots_in(chain, -2, 2) == 2
    assert count_roots_in(chain, 0, 2) == 1
    # (2x-1)^2 (3x+1)^3 (x-5): a non-monic gcd, divided out on integers
    chain = sturm_chain(Polynomial(reduce(poly_mul, [[-1, 2]] * 2 + [[1, 3]] * 3 + [[-5, 1]])))
    assert chain.p0.coeffs == tuple(reduce(poly_mul, ([-1, 2], [1, 3], [-5, 1])))
    assert count_roots_in(chain, -1, 6) == 3
    assert count_roots_in(chain, F(-1, 3), F(1, 2)) == 1
    assert count_roots_in(chain, F(1, 2), 5) == 1
    assert all(type(c) is int for q in chain.chain for c in q.coeffs)


def test_empty_interval_raises():
    chain = sturm_chain(Polynomial([-1, 1]))
    with pytest.raises(ValueError):
        count_roots_in(chain, 1, 1)


def test_enclosure_arithmetic():
    a = Enclosure(F(1, 2), F(3, 4))
    b = Enclosure(F(-1, 3), F(1, 3))
    s = a + b
    assert s.lo == F(1, 2) - F(1, 3) and s.hi == F(3, 4) + F(1, 3)
    with pytest.raises(TypeError):  # enclosures multiply exact scalars only
        a * b
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


def test_as_fraction_defers_to_fraction_for_non_mpf_numbers():
    # int, float and str go through Fraction(): a float by its binary value
    assert _as_fraction(3) == 3 and _as_fraction("-7/4") == F(-7, 4)
    assert _as_fraction(0.1) == F(0.1) != F(1, 10)
    for special in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            _as_fraction(special)
    with pytest.raises(TypeError):
        _as_fraction(None)


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


# ---------------------------------------------------------------------------
# The integer remainder sequence against the rational Euclid oracle
# ---------------------------------------------------------------------------


def _repeated_roots(rng):
    # a few rational roots of multiplicity up to 3 times a quadratic with no
    # real root, so the roots are known; two of the roots, or a root and a
    # nearby rational, are the interval ends
    roots = list({F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
    p = [rng.choice((-3, -1, 1, 2))]
    for r in roots:
        for _ in range(rng.randint(1, 3)):
            p = poly_mul(p, [-r, 1])
    p = Polynomial(poly_mul(p, [rng.randint(2, 5), rng.randint(-2, 2), 1]))
    ends = roots + [roots[0] + F(rng.randint(1, 9), 5), roots[-1] - F(rng.randint(1, 9), 5)]
    a, b = sorted(rng.sample(ends, 2))
    return p, a, b, roots


def _small(rng):
    deg = rng.randint(1, 8)
    p = Polynomial([F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(deg)]
                   + [rng.choice((-7, -1, 1, 4))])
    a = F(rng.randint(-40, 30), 9)
    return p, a, a + F(rng.randint(1, 60), 9), None


def _envelope_like(rng):
    # like the Q and R envelopes over a 1e-20 exponent enclosure: even, of
    # degree 12..18, coefficients of about 300 bits over one dyadic denominator
    deg, den = rng.choice((12, 14, 16, 18)), 2 ** rng.randint(280, 320)
    p = Polynomial([F(rng.getrandbits(300) - 2**299, den) if k % 2 == 0 else 0
                    for k in range(deg + 1)])
    a = F(rng.randint(-24, 20), 16)
    return p, a, a + F(rng.randint(1, 16), 16), None


def _positive_multiple(got, ref):
    if len(got) != len(ref) or not ref:
        return False
    lam = F(got[-1]) / ref[-1]
    return lam > 0 and all(g == lam * r for g, r in zip(got, ref))


@pytest.mark.parametrize("family, count, seed", [
    (_repeated_roots, 90, 31), (_small, 80, 32), (_envelope_like, 40, 33),
], ids=["repeated-roots", "small", "envelope-like"])
def test_integer_chain_is_a_positive_multiple_of_the_rational_chain(family, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        p, a, b, roots = family(rng)
        want = rational_sturm_chain(p.coeffs)
        chain = sturm_chain(p)
        assert all(type(c) is int for q in chain.chain for c in q.coeffs)
        assert len(chain.chain) == len(want), p
        for got, ref in zip(chain.chain, want):
            assert _positive_multiple(got.coeffs, ref), p
        count = count_roots_in(chain, a, b)
        assert count == rational_root_count(want, a, b), (p, a, b)
        if roots is not None:  # the half-open (a, b], ends included or not by hand
            assert count == sum(a < r <= b for r in roots), (p, a, b)
