"""One precision for every proof: precision.workdps.

Every proof entry point computes inside workdps(), mp and mpmath.iv together
at the proof precision working_dps() + 15, so its result does not depend on
the precision its caller runs at.  Each entry point below takes exact
arguments and is called with the caller's mp and iv at 15, 30 and 50
digits; all three results must be equal.
"""

from fractions import Fraction as F

import pytest
from mpmath import iv, mp

from trigpos.bounds import REGIONS, L_region, two_thirds_master_bound
from trigpos.engine import _Prefixes, certify_partial_sums
from trigpos.exact import Enclosure
from trigpos.mustar import defect_integral
from trigpos.precision import workdps, working_dps
from trigpos.quadrature import (chi_reference_integral, frak_K, fractional_osc_integral,
                                min_over_upper_limit)
from trigpos.trigsums import build_varsigma, sturm_case_plan

NU0 = Enclosure(F(49669136508, 10**11), F(49669136509, 10**11))  # holds mu*(1/3)
MU23 = Enclosure(F(84685556828, 10**11), F(84685556830, 10**11))  # holds mu*(2/3)
# varsigma_n at nu = mu*(1/3) + 1/100 is refuted from n = 14 on, at a witness
# near 3.0174 that the fixed-point bound, from the seed boxes, proves negative
PAST = (build_varsigma(16, F(1, 3), Enclosure(NU0.lo + F(1, 100), NU0.hi + F(1, 100))),
        (F(1, 1000), F(314, 100)))

ENTRY_POINTS = {
    "defect_integral": lambda: defect_integral(F(2, 3), MU23),
    "fractional_osc_integral": lambda: fractional_osc_integral("cos", F(-1, 7), F(1, 3), F(5, 2)),
    "frak_K": lambda: frak_K(F(1, 2), F(3), F(1, 3), NU0),
    "chi_reference_integral": lambda: chi_reference_integral(MU23),
    "min_over_upper_limit": lambda: min_over_upper_limit("cos", F(-1, 2), MU23, F(3, 2)),
    "L_region": lambda: [L_region(region, nu=NU0) for region in REGIONS],
    "two_thirds_master_bound": lambda: two_thirds_master_bound(MU23),
    "sturm_case_plan": lambda: sturm_case_plan(MU23),
    "certify_partial_sums": lambda: certify_partial_sums(*PAST),
    "refutation_bound": lambda: _Prefixes(*PAST).upper_bound(16, 3.0173828125),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_proofs_ignore_the_callers_precision(entry):
    results = []
    for dps in (15, 30, 50):
        with workdps(dps):
            results.append(entry())
    assert results[0] == results[1] == results[2]


def test_workdps_sets_mp_and_iv_and_restores_both():
    with mp.workdps(20):
        saved = iv.prec
        with pytest.raises(ZeroDivisionError), workdps():
            assert mp.dps == iv.dps == working_dps() + 15
            1 / 0
        assert (mp.dps, iv.prec) == (20, saved)
        with workdps(60):
            assert mp.dps == iv.dps == 60
        assert (mp.dps, iv.prec) == (20, saved)
