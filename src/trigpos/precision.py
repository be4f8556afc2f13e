"""Working-precision policy for the numeric layers.

All mpmath computations run at ``working_dps()`` significant digits.  The
default of 30 keeps roughly 15 guard digits beyond the 10--13 digits the
certified constants are quoted to; the ``TRIGPOS_PRECISION`` environment
variable overrides it (floor of 20, the digits mustar.PROOF_WIDTH needs); a
value that is not an integer raises ValueError.  _as_mpf is the one
conversion of a point to an mpf for evaluation at the current precision,
and _iv_ends the one reader of an mpmath.iv interval's exact endpoints.
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
def iv_dps(dps: int):
    """mpmath.iv at dps digits inside the block, the caller's precision after."""
    saved = iv.prec
    iv.dps = dps
    try:
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
