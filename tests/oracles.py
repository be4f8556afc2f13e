"""Independent reference for the oscillatory integrals of trigpos.quadrature.

    osc_integral(kind, eta, mu, x) = integral_0^x g(t + eta) t^(mu-1) dt

by mpmath.quad (tanh-sinh) at 45 digits, or at dps digits when given.  The
substitution u = t^mu removes the endpoint singularity,

    integral_0^x g(t + eta) t^(mu-1) dt = (1/mu) integral_0^(x^mu) g(u^(1/mu) + eta) du,

and the u-range is split at the images of a pi/4 grid in t so that no panel
spans more than an eighth of an oscillation.  This shares no code with the
series route it checks.
"""

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
