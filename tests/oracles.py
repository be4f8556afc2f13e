"""Independent references for the checks that production routes are tested against.

osc_integral -- the oscillatory integrals of trigpos.quadrature,

    osc_integral(kind, eta, mu, x) = integral_0^x g(t + eta) t^(mu-1) dt

by mpmath.quad (tanh-sinh) at 45 digits, or at dps digits when given.  The
substitution u = t^mu removes the endpoint singularity,

    integral_0^x g(t + eta) t^(mu-1) dt = (1/mu) integral_0^(x^mu) g(u^(1/mu) + eta) du,

and the u-range is split at the images of a pi/4 grid in t so that no panel
spans more than an eighth of an oscillation.  This shares no code with the
series route it checks.

poly_add, poly_mul -- sums and products of coefficient lists, for tests that
build polynomials.

rational_sturm_chain, rational_gcd, rational_root_count -- the Sturm layer of
trigpos.exact the classical way: Euclid's algorithm over Fraction coefficient
lists (coeffs[k] multiplies x^k), with a monic gcd, the squarefree part
p / gcd(p, p'), and root counts as plain sign-variation differences.  The
integer primitive remainder sequence it checks must give, element by
element, positive multiples of this chain.

chebyshev_T_coeffs, chebyshev_U_coeffs -- the Chebyshev polynomials as
Fraction coefficient lists from their explicit binomial sums (Mason and
Handscomb, Chebyshev Polynomials, 2003), with no recurrence:

    U_n(x) = sum_k (-1)^k C(n - k, k) (2x)^(n - 2k),
    T_n(x) = (n/2) sum_k (-1)^k C(n - k, k) / (n - k) (2x)^(n - 2k),  n >= 1,

k = 0..floor(n/2), and T_0 = 1.

rational_poch_table -- the (mu)_k / k! recurrence of trigsums._pochhammer in
Fractions, every step of an interval mu taken exactly and then rounded
outward to a multiple of 2^-bits by Fraction floor and ceiling; the
production route carries each endpoint as an integer over 2^bits instead.

rising, gegenbauer_C_explicit -- the Pochhammer symbol (a)_k as a plain
product, and the Gegenbauer polynomials from their explicit sum (Abramowitz
and Stegun, Handbook of Mathematical Functions, 22.3.4), with no recurrence:

    C_n^lam(x) = sum_k (-1)^k (lam)_(n-k) / (k! (n - 2k)!) (2x)^(n - 2k),

k = 0..floor(n/2).

jacobi_P_explicit, relation_standard, relation_printed -- the Jacobi
polynomials from their terminating hypergeometric sum (DLMF 18.5.7), with
no recurrence,

    P_n^(a,b)(x) = ((a+1)_n / n!) sum_m (-n)_m (n+a+b+1)_m / ((a+1)_m m!) ((1-x)/2)^m,

m = 0..n, and two Gegenbauer->Jacobi conversions built on it: the standard
one (DLMF 18.7.1), C_n^lam = ((2 lam)_n / (lam + 1/2)_n) P_n^(lam-1/2, lam-1/2),
and a printed variant, ((2 lam + 1)_n / n!) P_n^(lam,lam)(x) / P_n^(lam,lam)(1),
which reproduces C_n^(lam + 1/2), not C_n^lam.  Both read an int lam exactly.

closed_form_full_sum -- (1 - z)^(-mu) on the principal branch, the
n -> infinity limit of the disk partial sums s_n(z) of gegenbauer.partial_sum.
"""

from fractions import Fraction
from math import ceil, comb, factorial, floor

from mpmath import mp

ORACLE_DPS = 45


def osc_integral(kind, eta, mu, x, dps=ORACLE_DPS):
    g = {"sin": mp.sin, "cos": mp.cos}[kind]
    with mp.workdps(dps):
        mu, x, eta = mp.mpf(mu), mp.mpf(x), mp.mpf(eta)
        inv_mu = 1 / mu
        panels = max(1, int(mp.ceil(x / (mp.pi / 4))))
        breaks = [(x * j / panels) ** mu for j in range(panels + 1)]
        return mp.quad(lambda u: g(u**inv_mu + eta), breaks) / mu


def _trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _divmod(a, b):
    """(quotient, remainder) of a by b over the rationals."""
    r, n = _trim(a), len(b) - 1
    q = [Fraction(0)] * max(0, len(r) - n)
    for i in range(len(r) - 1, n - 1, -1):
        f = q[i - n] = r[i] / b[-1]
        for j, c in enumerate(b):
            r[i - n + j] -= f * c
    return _trim(q), _trim(r[:n])


def poly_add(a, b):
    """a + b on coefficient lists."""
    out = [Fraction(0)] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    return _trim(out)


def poly_mul(a, b):
    """a * b on coefficient lists."""
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _derivative(cs):
    return _trim([k * c for k, c in enumerate(cs)][1:])


def rational_gcd(a, b):
    """Monic gcd by Euclid's algorithm over the rationals ([] when both are 0)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def rational_sturm_chain(coeffs):
    """p0 = p / gcd(p, p') for nonzero p, p0', then each negated Euclidean
    remainder of the two before it, down to a nonzero constant."""
    p = _trim(coeffs)
    p0 = _divmod(p, rational_gcd(p, _derivative(p)))[0]
    chain = [p0] if len(p0) == 1 else [p0, _derivative(p0)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    assert chain[-1], "zero remainder: p0 was not squarefree"
    return chain


def rational_root_count(chain, a, b):
    """Distinct roots of chain[0] in (a, b], a < b: V(a) - V(b), with V the
    sign variations after dropping zeros.  V steps down just after a root of
    chain[0] and is continuous elsewhere, so no endpoint needs a nudge."""
    def variations(x):
        signs = []
        for cs in chain:
            v = Fraction(0)
            for c in reversed(cs):
                v = v * x + c
            if v:
                signs.append(v > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(Fraction(a)) - variations(Fraction(b))


def _binomial_sum(n, weight):
    """sum_k weight(k) (-1)^k C(n - k, k) (2x)^(n - 2k) as a coefficient list."""
    cs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        cs[n - 2 * k] = weight(k) * (-1) ** k * comb(n - k, k) * 2 ** (n - 2 * k)
    return cs


def chebyshev_U_coeffs(n):
    return _binomial_sum(n, lambda k: Fraction(1))


def chebyshev_T_coeffs(n):
    return [Fraction(1)] if n == 0 else _binomial_sum(n, lambda k: Fraction(n, 2 * (n - k)))


def rational_poch_table(lo, hi, n, bits):
    """[(lo_k, hi_k)] for k = 0..n: (mu)_k / k! on both ends of [lo, hi] by
    d_(k+1) = d_k (mu + k) / (k + 1) in Fractions, for lo < hi every step
    rounded outward (lo down, hi up) to a multiple of 2^-bits; exact mu
    (lo == hi) is never rounded."""
    grain = Fraction(1, 1 << bits)
    table = [(Fraction(1), Fraction(1))]
    a, b = table[0]
    for k in range(n):
        a = a * (lo + k) / (k + 1)
        b = a if lo == hi else b * (hi + k) / (k + 1)
        if lo != hi:
            a, b = floor(a / grain) * grain, ceil(b / grain) * grain
        table.append((a, b))
    return table


def rising(a, k):
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


def gegenbauer_C_explicit(n, lam, x):
    return sum((-1) ** k * rising(lam, n - k) / (factorial(k) * factorial(n - 2 * k))
               * (2 * x) ** (n - 2 * k) for k in range(n // 2 + 1))


def jacobi_P_explicit(n, a, b, x):
    y = (1 - Fraction(x)) / 2
    return rising(a + 1, n) / factorial(n) * sum(
        rising(-n, m) * rising(n + a + b + 1, m) / (rising(a + 1, m) * factorial(m)) * y ** m
        for m in range(n + 1))


def relation_standard(n, lam, x):
    half = Fraction(1, 2)
    return rising(2 * lam, n) / rising(lam + half, n) * jacobi_P_explicit(
        n, lam - half, lam - half, x)


def relation_printed(n, lam, x):
    return (rising(2 * lam + 1, n) / factorial(n) * jacobi_P_explicit(n, lam, lam, x)
            / jacobi_P_explicit(n, lam, lam, 1))


def closed_form_full_sum(mu, z):
    return mp.power(1 - mp.mpc(z), -mp.mpf(mu))
