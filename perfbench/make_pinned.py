"""Regenerate perfbench/pinned.json: the benchmark's fixed inputs and tables.

    PYTHONPATH=src python3 perfbench/make_pinned.py

It records three things.

* reference: mu*(2/3) and nu*(1/3) as roots of the series route
  (`quadrature.series_reference`) at 60 digits, with the method used.  The
  benchmark checks every enclosure it sees against these values.
* enclosures: `mustar.mu_star` at the default precision for rho = 2/3 and
  1/3 at widths 1e-9 and 1e-20, as exact fractions.  The grid sweep reads
  them from here, so it runs no quadrature.
* verdicts: the expected `certify_positive_trig` status of every
  (family, mu input, n) the grid sweep can draw, one letter per n
  (c = certified, r = refuted).  An inconclusive verdict stops the script,
  because the sweep must hold only operations that succeed.

Rerun it only when the program's verdicts are meant to change, and review
the diff of pinned.json.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from mpmath import mp

from common import COMBOS, INTERVALS, PINNED_PATH, SWEEP_NMAX, VARSIGMA_RHO

REFERENCE_DPS = 60
_PRECISION_VAR = "TRIGPOS_PRECISION"
_GUESSES = {"mu_star_2_3": (Fraction(2, 3), "0.8468555683"),
            "nu_star_1_3": (Fraction(1, 3), "0.4966913651")}


def series_roots() -> dict:
    from trigpos.quadrature import series_reference

    os.environ[_PRECISION_VAR] = str(REFERENCE_DPS)
    try:
        out = {}
        with mp.workdps(REFERENCE_DPS + 15):
            for name, (rho, guess) in _GUESSES.items():
                r = mp.mpf(rho.numerator) / rho.denominator

                def defect(mu, r=r):
                    return series_reference("sin", mu, (r + 1) * mp.pi, eta=-r * mp.pi)

                g = mp.mpf(guess)
                root = mp.findroot(defect, (g - mp.mpf("1e-8"), g + mp.mpf("1e-8")),
                                   solver="anderson")
                step = mp.mpf(10) ** (-(REFERENCE_DPS - 5))
                if not defect(root - step) < 0 < defect(root + step):
                    raise ArithmeticError(f"{name}: no sign change around the root")
                out[name] = mp.nstr(root, REFERENCE_DPS, strip_zeros=False)
    finally:
        del os.environ[_PRECISION_VAR]
    out["method"] = (
        "root in mu of quadrature.series_reference('sin', mu, (rho+1)*pi, "
        f"eta=-rho*pi) by mpmath.findroot (anderson) at {_PRECISION_VAR}="
        f"{REFERENCE_DPS}; sign change checked at root -/+ 1e-{REFERENCE_DPS - 5}"
    )
    return out


def pinned_enclosures() -> dict:
    from trigpos.mustar import mu_star

    out = {}
    for prefix, rho in (("mu23", Fraction(2, 3)), ("nu13", Fraction(1, 3))):
        for width in ("1e-9", "1e-20"):
            enc = mu_star(rho, width=Fraction(1, 10 ** int(width[3:]))).enclosure
            out[f"{prefix}-{width}"] = [str(enc.lo), str(enc.hi)]
    return out


def verdict_table(enclosures: dict) -> dict:
    from trigpos.engine import certify_positive_trig
    from trigpos.exact import Enclosure
    from trigpos.trigsums import build_U_n, build_varsigma

    table = {}
    for family, mu_name in COMBOS:
        if mu_name in enclosures:
            mu = Enclosure(*(Fraction(v) for v in enclosures[mu_name]))
        else:
            mu = Fraction(mu_name)
        letters = []
        for n in range(1, SWEEP_NMAX + 1):
            tsum = (build_U_n(n, mu) if family == "U"
                    else build_varsigma(n, VARSIGMA_RHO, mu))
            status = certify_positive_trig(tsum, INTERVALS[family]).status
            if status not in ("certified", "refuted"):
                raise SystemExit(f"{family} {mu_name} n={n}: {status}")
            letters.append(status[0])
        table[f"{family} {mu_name}"] = "".join(letters)
        print(f"{family} {mu_name}: {table[f'{family} {mu_name}']}", flush=True)
    return table


def main() -> int:
    if os.environ.get(_PRECISION_VAR) is not None:
        print(f"unset {_PRECISION_VAR}: pins use the default precision", file=sys.stderr)
        return 2
    reference = series_roots()
    enclosures = pinned_enclosures()
    pinned = {
        "reference": reference,
        "enclosures": enclosures,
        "verdicts": verdict_table(enclosures),
        "verdict_legend": "one letter per n = 1..100: c certified, r refuted",
    }
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
