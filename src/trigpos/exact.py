"""Exact rational polynomial arithmetic, Sturm root counts and rational enclosures.

Everything here is exact: coefficients are `fractions.Fraction`, sign
evaluations go through integer arithmetic, and a root count is the true
count of distinct real roots -- there is no floating point anywhere in this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Polynomial",
    "SturmChain",
    "Enclosure",
    "sturm_chain",
    "count_roots_in",
    "poly_with_interval_coeffs",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # Exact binary value of the float; callers who care pass Fractions.
        return Fraction(x)
    if hasattr(x, "_mpf_"):
        # Exact binary value of an mpmath mpf.  int(): gmpy-backend fields
        # are mpz and must not leak into Fraction arithmetic.
        sign, man, exp, bc = x._mpf_
        man, exp = (-int(man) if sign else int(man)), int(exp)
        if man == 0:
            if bc:  # mpmath encodes inf and nan with a zero mantissa
                raise ValueError(f"{x!r} has no exact rational value")
            return Fraction(0)
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense univariate polynomial over Fraction; ``coeffs[k]`` multiplies x^k.

    Immutable.  The zero polynomial has an empty coefficient tuple and, by
    convention, degree -1.
    """

    __slots__ = ("coeffs", "_int_coeffs")

    def __init__(self, coeffs: Iterable) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self._int_coeffs: tuple[int, ...] | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic (exact) -------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial([])
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        s = _as_fraction(other)
        return Polynomial([c * s for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        xf = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xf + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact polynomial division: self = q * divisor + r, deg r < deg divisor."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = divisor.leading()
        ddeg = divisor.degree
        q = [Fraction(0)] * max(0, len(rem) - ddeg)
        for i in range(len(rem) - 1, ddeg - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / dlead
            q[i - ddeg] = f
            for j, dc in enumerate(divisor.coeffs):
                rem[i - ddeg + j] -= f * dc
        return Polynomial(q), Polynomial(rem)

    # -- sign evaluation without Fraction overhead --------------------------

    def _ints(self) -> tuple[int, ...]:
        """Integer coefficients of a positive rational multiple of self."""
        if self._int_coeffs is None:
            if self.is_zero():
                self._int_coeffs = ()
            else:
                lcm = 1
                for c in self.coeffs:
                    d = c.denominator
                    g = _gcd_int(lcm, d)
                    lcm = lcm // g * d
                self._int_coeffs = tuple(int(c * lcm) for c in self.coeffs)
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


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials (exact Euclid)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * (1 / a.leading())


def squarefree_part(p: Polynomial) -> Polynomial:
    """p divided by gcd(p, p'): same distinct roots, all simple."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = p.divmod(g)
    assert r.is_zero(), "gcd must divide p exactly"
    return q


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SturmChain:
    """Sturm chain of the squarefree part of a polynomial.

    chain[0] is the squarefree part p0, chain[1] = p0', and each further
    element is the negated Euclidean remainder of the two before it.  The
    last element is a nonzero constant, so sign variation counts are defined
    everywhere.
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
    p0 = squarefree_part(p)
    if p0.degree == 0:
        return SturmChain((p0,))
    chain = [p0, p0.derivative()]
    while chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero():
            # cannot happen for a squarefree p0, but fail loudly if it does
            raise ArithmeticError("unexpected zero remainder in Sturm chain")
        chain.append(-r)
    return SturmChain(tuple(chain))


def _cauchy_bound(p: Polynomial) -> Fraction:
    """All real roots of p lie in [-B, B]."""
    lead = abs(p.leading())
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lead


def _endpoint_nudge(p0: Polynomial, a: Fraction, room: Fraction) -> Fraction:
    """A positive rational delta such that p0 has no root in (a, a + delta]
    other than possibly a itself, given p0(a) = 0.

    a is rational, so (x - a) divides p0 exactly; the bound comes from the
    deflated polynomial h: |h(a)| = |lc| * prod |a - r_i| over the remaining
    roots, each of which is at most |a| + CauchyBound(h) away.
    """
    q, r = p0.divmod(Polynomial([-a, 1]))
    assert r.is_zero(), "endpoint was not an exact root"
    h = q
    if h.degree <= 0:
        return room / 2
    ha = abs(h(a))
    assert ha != 0, "input polynomial was not squarefree"
    bound = abs(h.leading()) * (abs(a) + _cauchy_bound(h)) ** (h.degree)
    dist = ha / bound  # strictly below the distance to the nearest other root
    return min(dist / 2, room / 2)


def count_roots_in(chain: SturmChain, a, b) -> int:
    """Exact number of distinct real roots of chain.p0 in (a, b].

    Rational endpoints that happen to be roots are handled by exact inward
    nudges (the nudge provably skips no other root), so the returned count is
    always the true count for the half-open interval.
    """
    af, bf = _as_fraction(a), _as_fraction(b)
    if af >= bf:
        raise ValueError(f"empty interval: [{af}, {bf}]")
    p0 = chain.p0
    if p0.degree <= 0:
        return 0
    extra = 0
    if p0.sign_at(bf) == 0:
        extra = 1  # b itself is a root and belongs to (a, b]
        bf = bf - _endpoint_nudge(p0, bf, bf - af)
    if p0.sign_at(af) == 0:
        af = af + _endpoint_nudge(p0, af, bf - af)
    return chain.variations(af) - chain.variations(bf) + extra


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
        vf = _as_fraction(v)
        return cls(vf, vf)

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

    # interval arithmetic (only the operations the reductions need)

    def __add__(self, other) -> "Enclosure":
        o = other if isinstance(other, Enclosure) else Enclosure.exact(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other) -> "Enclosure":
        o = other if isinstance(other, Enclosure) else Enclosure.exact(other)
        return self + (-o)

    def __rsub__(self, other) -> "Enclosure":
        return (-self) + other

    def __mul__(self, other) -> "Enclosure":
        o = other if isinstance(other, Enclosure) else Enclosure.exact(other)
        products = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi]
        return Enclosure(min(products), max(products))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Envelope polynomials for interval coefficients
# ---------------------------------------------------------------------------


def poly_with_interval_coeffs(coeffs: Sequence[Enclosure | Fraction | int],
                              x_interval) -> tuple[Polynomial, Polynomial]:
    """Lower/upper envelope polynomials for interval coefficients.

    For every choice of coefficients inside the enclosures and every x in the
    stated interval, lower(x) <= p(x) <= upper(x).  The stated interval must
    be sign-definite (entirely >= 0 or entirely <= 0): the envelope choice per
    term depends on the sign of x^k, which is then determined by parity.
    """
    xlo, xhi = _as_fraction(x_interval[0]), _as_fraction(x_interval[1])
    if xlo > xhi:
        raise ValueError("empty x interval")
    if xlo < 0 < xhi:
        raise ValueError("x interval must not straddle 0 (envelopes are per-sign)")
    encl = [c if isinstance(c, Enclosure) else Enclosure.exact(c) for c in coeffs]
    lower, upper = [], []
    nonneg_x = xlo >= 0
    for k, c in enumerate(encl):
        term_nonneg = nonneg_x or k % 2 == 0  # sign of x^k on the interval
        if term_nonneg:
            lower.append(c.lo)
            upper.append(c.hi)
        else:
            lower.append(c.hi)
            upper.append(c.lo)
    return Polynomial(lower), Polynomial(upper)
