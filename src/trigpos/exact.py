"""Exact rational polynomial arithmetic, Sturm root counts and rational enclosures.

Everything here is exact: coefficients are integers or `fractions.Fraction`,
sign evaluations go through integer arithmetic, and a root count is the true
count of distinct real roots.  No arithmetic here is floating point: a float
or an mpmath mpf input is read by its binary value, through _as_fraction,
the package's one reader of an mpf's bits.

Sturm chains, gcds and squarefree parts run on integer coefficient lists,
along Collins' primitive polynomial remainder sequence.  A polynomial is
scaled to integers by the lcm of its denominators.  Each step takes a
sign-preserving pseudo-remainder: the dividend is scaled by positive factors
that divide a power of |lc| of the divisor, never by lc itself, before the
divisor's multiples are subtracted.  The positive content of the result is
then divided out.  So every element is a positive multiple of the one
Euclid's algorithm over the rationals gives: its sign at every point, and so
every sign variation and root count, is the same, while its coefficients
stay integers with no common factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = [
    "Polynomial",
    "SturmChain",
    "Enclosure",
    "sturm_chain",
    "count_roots_in",
]


def _as_fraction(x) -> Fraction:
    """x as an exact rational: an mpmath mpf by its binary value, anything
    else as Fraction() reads it (an int, a float by its binary value, a
    string); an infinity or a NaN raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if hasattr(x, "_mpf_"):
        # int(): gmpy-backend fields are mpz and must not leak into Fraction arithmetic
        sign, man, exp, bc = x._mpf_
        man, exp = (-int(man) if sign else int(man)), int(exp)
        if man == 0:
            if bc:  # mpmath encodes inf and nan with a zero mantissa
                raise ValueError(f"{x!r} has no exact rational value")
            return Fraction(0)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    try:
        return Fraction(x)
    except OverflowError:  # a float infinity; a float NaN raises ValueError itself
        raise ValueError(f"{x!r} has no exact rational value") from None


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense univariate polynomial over the rationals; ``coeffs[k]``
    multiplies x^k.  Integer coefficients stay ints, the others are read
    exactly as Fractions.

    Immutable.  The zero polynomial has an empty coefficient tuple and, by
    convention, degree -1.
    """

    __slots__ = ("coeffs", "_int_coeffs")

    def __init__(self, coeffs: Iterable) -> None:
        cs = [c if type(c) is int else _as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int | Fraction, ...] = tuple(cs)
        self._int_coeffs = self.coeffs if all(type(c) is int for c in cs) else None

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    # -- exact evaluation ----------------------------------------------------

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        xf = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xf + c
        return acc

    # -- sign evaluation without Fraction overhead --------------------------

    def _ints(self) -> tuple[int, ...]:
        """Integer coefficients of a positive rational multiple of self."""
        if self._int_coeffs is None:
            lcm = math.lcm(*(c.denominator for c in self.coeffs))
            self._int_coeffs = tuple(c.numerator * (lcm // c.denominator) for c in self.coeffs)
        return self._int_coeffs

    def sign_at(self, x) -> int:
        """Exact sign of self(x) for rational x, via integer Horner.

        With x = p/q (q > 0), the sign of self(x) equals the sign of
        sum_k c_k p^k q^(deg-k), an all-integer Horner accumulation.
        """
        ints = self._ints()
        if not ints:
            return 0
        xf = _as_fraction(x)
        p, q = xf.numerator, xf.denominator  # q > 0
        deg = len(ints) - 1
        acc = ints[deg]
        qpow = 1
        for k in range(deg - 1, -1, -1):
            qpow *= q
            acc = acc * p + ints[k] * qpow
        return (acc > 0) - (acc < 0)


# ---------------------------------------------------------------------------
# Primitive remainder sequences on integer coefficient lists
# ---------------------------------------------------------------------------


def _primitive(cs) -> list[int]:
    """Nonzero integer coefficients divided by their positive gcd."""
    g = math.gcd(*cs)
    return list(cs) if g == 1 else [c // g for c in cs]


def _pseudo_remainder(a, b) -> list[int]:
    """A positive multiple of the remainder of a by b (b nonzero).

    Each step cancels the top coefficient c of the running remainder with the
    top coefficient lc > 0 of b or -b (the same remainder): the remainder is
    scaled by lc / g and (c / g) x^s b taken off, g = gcd(c, lc).  Every
    scale is positive and the product of all of them divides a power of |lc|.
    """
    if b[-1] < 0:
        b = [-c for c in b]
    lc, n = b[-1], len(b) - 1
    r = list(a)
    while len(r) > n:
        c = r.pop()
        if c:
            g = math.gcd(c, lc)
            if g != lc:
                s = lc // g
                r = [s * x for x in r]
            f, shift = c // g, len(r) - n
            for j in range(n):
                r[shift + j] -= f * b[j]
    while r and not r[-1]:
        r.pop()
    return r


def _exact_quotient(a, b) -> list[int]:
    """a / b for integer coefficient lists where b divides a over the
    integers; raises ArithmeticError where it does not."""
    r, q, n = list(a), [], len(b) - 1
    while len(r) > n:
        f, m = divmod(r.pop(), b[-1])
        if m:
            raise ArithmeticError("gcd does not divide the polynomial")
        shift = len(r) - n
        for j in range(n):
            r[shift + j] -= f * b[j]
        q.append(f)
    if any(r):
        raise ArithmeticError("gcd does not divide the polynomial")
    return q[::-1]


def _remainder_sequence(a, b) -> list[list[int]]:
    """a, b (b nonzero), then the negated primitive pseudo-remainder of the
    last two, up to the last nonzero one.  Element by element a positive
    multiple of the rational sequence a, b, -rem, ...; the last element is
    gcd(a, b) up to a nonzero factor."""
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        g = -math.gcd(*r)
        seq.append([c // g for c in r])
    return seq


def _sturm_ints(p: "Polynomial") -> list[list[int]]:
    """Integer Sturm sequence of a positive multiple of the squarefree part
    of p (nonzero), ending in a nonzero constant."""
    p0 = _primitive(p._ints())
    if len(p0) == 1:
        return [p0]
    while True:
        seq = _remainder_sequence(p0, _primitive([k * c for k, c in enumerate(p0)][1:]))
        g = seq[-1]
        if len(g) == 1:
            return seq
        # a zero remainder: g is gcd(p0, p0') up to a factor, so p0 has a
        # multiple root.  g is primitive, so with its lead made positive,
        # p0 / g is integral (Gauss's lemma), squarefree and a positive
        # multiple of p0 over the monic gcd
        p0 = _exact_quotient(p0, g if g[-1] > 0 else [-c for c in g])


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SturmChain:
    """Sturm chain of the squarefree part of a polynomial, on integers.

    chain[0] is a positive multiple of the squarefree part p0, chain[1] of
    p0', and each further element of the negated Euclidean remainder of the
    two before it; the positive factors leave every sign variation as it is.
    The last element is a nonzero constant, so sign variation counts are
    defined everywhere.
    """

    chain: tuple[Polynomial, ...]

    def variations(self, x) -> int:
        """Number of sign changes in the chain evaluated at x (zeros skipped)."""
        signs = [p.sign_at(x) for p in self.chain]
        signs = [s for s in signs if s != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s * t < 0)

    @property
    def p0(self) -> Polynomial:
        return self.chain[0]


def sturm_chain(p: Polynomial) -> SturmChain:
    """Build the Sturm chain of the squarefree part of p.

    Raises ValueError for the zero polynomial.  For a nonzero constant the
    chain is the single constant (no roots anywhere).
    """
    if p.is_zero():
        raise ValueError("Sturm chain of the zero polynomial is undefined")
    return SturmChain(tuple(map(Polynomial, _sturm_ints(p))))


def count_roots_in(chain: SturmChain, a, b) -> int:
    """Exact number of distinct real roots of chain.p0 in (a, b], also when a
    or b is a root: V(a) - V(b), V the sign variations at a point.

    Two neighbours in the chain of a squarefree p0 never vanish together,
    and where an inner element vanishes its neighbours have opposite signs,
    so V changes only at a root r of p0.  Just left of r, p0 and p0' have
    opposite signs and at and right of r they do not (p0 = 0 is dropped), so
    V falls by one as x reaches r and stays there: r counts for the interval
    it closes on the right.
    """
    af, bf = _as_fraction(a), _as_fraction(b)
    if af >= bf:
        raise ValueError(f"empty interval: [{af}, {bf}]")
    return chain.variations(af) - chain.variations(bf)


# ---------------------------------------------------------------------------
# Enclosures (rational intervals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Enclosure:
    """Closed rational interval [lo, hi] certified to contain the true value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_fraction(self.lo))
        object.__setattr__(self, "hi", _as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, v) -> "Enclosure":
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return self.lo if self.lo == self.hi else (self.lo + self.hi) / 2

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, v) -> bool:
        vf = _as_fraction(v)
        return self.lo <= vf <= self.hi

    # interval arithmetic (only the operations the case polynomials need)

    def __add__(self, other) -> "Enclosure":
        o = other if isinstance(other, Enclosure) else Enclosure.exact(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other) -> "Enclosure":
        return -(-self + other)

    def __rsub__(self, other) -> "Enclosure":
        return (-self) + other

    def __mul__(self, other) -> "Enclosure":
        """self times an exact scalar; an Enclosure raises TypeError
        (_as_fraction reads no Enclosure)."""
        s = other if isinstance(other, (int, Fraction)) else _as_fraction(other)
        lo, hi = self.lo * s, self.hi * s
        return Enclosure(lo, hi) if s >= 0 else Enclosure(hi, lo)

