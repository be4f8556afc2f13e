"""Working-precision policy for the numeric layers.

working_dps() is the working precision in digits: 30 by default, roughly 15
guard digits beyond the 10--13 digits the certified constants are quoted
to, or $TRIGPOS_PRECISION (floor of 20, the digits mustar.PROOF_WIDTH
needs; a non-integer raises ValueError).  Every proof computes inside
workdps(), mp and mpmath.iv at working_dps() + 15 digits whatever the
caller's.  _as_mpf is the one conversion of a point to an mpf at the
current precision, and _iv_ends the one reader of an iv interval's ends.
"""

import os
from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv, mp

DEFAULT_DPS = 30
_ENV_VAR = "TRIGPOS_PRECISION"


def working_dps() -> int:
    """Digits of working precision, from $TRIGPOS_PRECISION or the default;
    ValueError when the variable is set but not an integer."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_DPS
    try:
        return max(20, int(raw))
    except ValueError:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None


@contextmanager
def workdps(dps: int | None = None):
    """mp and mpmath.iv both at dps digits inside the block, by default the
    proof precision working_dps() + 15; the caller's precisions after."""
    dps, saved = working_dps() + 15 if dps is None else dps, iv.prec
    iv.dps = dps
    try:
        with mp.workdps(dps):
            yield
    finally:
        iv.prec = saved


def _as_mpf(v):
    """v rounded once to an mpf at the current mp precision: a Fraction as
    its quotient, anything else as mp.mpf reads it (mpf, int, float, str)."""
    return mp.mpf(v.numerator) / v.denominator if isinstance(v, Fraction) else mp.mpf(v)


def _iv_ends(x):
    """(lo, hi), the exact endpoints of the mpmath.iv interval x as mpfs,
    not rounded to the current mp precision."""
    return tuple(mp.make_mpf(end) for end in x._mpi_)
