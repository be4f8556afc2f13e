"""Independent soundness checks, run by run.py outside the timed region.

They use mpmath directly and share no code with trigpos:

* the series-route references for mu*(2/3) and nu*(1/3) in pinned.json
  must lie inside the pinned grid-sweep enclosures and inside the
  enclosure each proof report prints in its `inputs`;
* every certified grid-sweep sum must be positive, and every refuted one
  negative at its witness, when the sum is summed afresh in mpmath at the
  reference exponent (or at the exact exponent it was given).
"""

from __future__ import annotations

import random
from fractions import Fraction

from mpmath import mp

from common import INTERVALS, VARSIGMA_RHO

DPS = 60
SPOT_POINTS = 5
# which reference exponent lies inside each pinned enclosure
_REFERENCE_OF = {"mu23": "mu_star_2_3", "nu13": "nu_star_1_3"}


def _mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def contains(lo, hi, reference: str) -> bool:
    with mp.workdps(DPS):
        return _mpf(lo) <= mp.mpf(reference) <= _mpf(hi)


def check_pinned(pinned: dict) -> list[str]:
    """Failures of the pinned enclosures against the series references."""
    bad = []
    for name, (lo, hi) in pinned["enclosures"].items():
        ref = pinned["reference"][_REFERENCE_OF[name.split("-")[0]]]
        if not contains(Fraction(lo), Fraction(hi), ref):
            bad.append(f"pinned enclosure {name} misses the reference {ref[:24]}")
    return bad


def check_printed_enclosure(text: str, reference: str) -> bool:
    """text is a report's '[lo, hi]' field."""
    lo, hi = text.strip("[]").split(",")
    return contains(lo.strip(), hi.strip(), reference)


def trig_sum(family: str, mu, n: int, theta):
    """U_n or varsigma_n at theta, from the definitions, in mpmath."""
    d = mp.mpf(1)
    total = mp.mpf(0)
    rho = _mpf(VARSIGMA_RHO)
    for k in range(n + 1):
        if k:
            d = d * (mu + k - 1) / k
        if family == "U":
            total += d * mp.cos((2 * k + mp.mpf(1) / 3) * theta - mp.pi / 6)
        else:
            total += d * mp.sin((2 * k + rho) * theta)
    return total


def spot_check(requests: list, verdicts: list, pinned: dict, seed: int) -> list[bool]:
    """Per request: does the fresh mpmath sum agree with the verdict?"""
    rng = random.Random(f"oracle-{seed}")
    ok = []
    with mp.workdps(30):
        for req, verdict in zip(requests, verdicts):
            name = req["mu"]
            if name in pinned["enclosures"]:
                mu = mp.mpf(pinned["reference"][_REFERENCE_OF[name.split("-")[0]]])
            else:
                mu = _mpf(Fraction(name))
            if verdict["status"] == "certified":
                a, b = (float(x) for x in INTERVALS[req["family"]])
                points = [rng.uniform(a, b) for _ in range(SPOT_POINTS)]
                ok.append(all(trig_sum(req["family"], mu, req["n"], mp.mpf(t)) > 0
                              for t in points))
            elif verdict["status"] == "refuted":
                t = mp.mpf(verdict["witness"])
                ok.append(trig_sum(req["family"], mu, req["n"], t) < 0)
            else:
                ok.append(False)
    return ok
