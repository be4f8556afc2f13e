"""Command-line front end: named, scriptable verification cases.

    trigpos mustar RHO [--json]
    trigpos verify CASE [--nmax N] [--rho RHO] [--json]

argparse parses every flag, its `type` guarding the range; CASES maps each
CASE name to a runner of the parsed flags:

    thm-2-3        full pipeline at rho = 2/3: the n = 1 closed form, exact
                   root counts for the P/Q/R cases, the small-angle constants
                   and cosine-integral minima, the composite master bound,
                   and grid certificates for U_n up to --nmax
    thm-1-3        full pipeline at rho = 1/3: q_n root counts, a
                   rho-neighborhood scan whose centre gives the five region
                   bounds, and grid certificates for varsigma_n up to --nmax
    sturm:NAME     one root-counting obligation (q1, q2, q3, q3-derived,
                   P-near-0, P-mid, Q, R, or all); gates on every literal
                   point claim, including the one the theorem pipelines
                   cannot use (see sturm_case_plan)
    bounds:NAME    one composite bound (1, 2, 31, 32, 33 at --rho, master, or all)
    gegenbauer     ultraspherical cross-checks at fixed inputs: generating
                   function, argument bound (lambda = 0.24, n <= 50) and
                   Chebyshev specialization

Exit status: 0 when every sub-check passes, 1 when any sub-check fails or is
inconclusive, 2 for usage errors: an unknown case or flag, or any flag
value, whether or not the case reads it, that does not parse or lies out of
range (rho outside (0, 1], nmax outside 1..999998).  A computation that
cannot decide at all (an ArithmeticError, such as a defect sign the series
route cannot resolve at rho = 1e-50) is inconclusive too: it exits 1 with
one "error:" line in place of the report.

Every proof and bound check runs on one mu*(rho) enclosure per rho, of
width mustar.PROOF_WIDTH, and `mustar` prints that enclosure (at rho = 1
the exact root [1, 1], which D's one zero proves: an enclosure missing 1 fails).
The `trigpos` script and `python -m trigpos.cli` run entry_point: main(),
then gc.freeze(); tests call main() in process.  Reports
are deterministic: identical invocations at the same precision print
byte-identical output apart from the wall-time figure.  The env var
TRIGPOS_PRECISION (decimal digits, default 30, at least 20) sets the working
precision; a value that is not an integer is a usage error.  The gates on
the paper's printed figures (MASTER_MIN, MASTER_TOL, CHI_TOL) and
GENFUNC_TOL are module constants, not settings.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from mpmath import iv, mp

from trigpos.bounds import (
    REGIONS,
    SCAN_RHOS,
    L_region,
    p_decreasing,
    q_decreasing,
    small_angle_constant,
    two_thirds_master_bound,
    u1_closed_form,
    wedge,
    wedge_increasing,
)
from trigpos.exact import Enclosure
from trigpos.mustar import PROOF_WIDTH, _verified_sign, defect_integral, mu_star
from trigpos.precision import _as_mpf, workdps, working_dps
from trigpos.quadrature import QuadResult, _mid_rad, chi_reference_integral, min_over_upper_limit
from trigpos.trigsums import (
    _MAX_TERMS,
    MU_STURM,
    Q_STURM,
    STURM_NAMES,
    build_U_n,
    build_varsigma,
    chebyshev_U,
    run_sturm_target,
    sturm_case_plan,
)

__all__ = ["CheckResult", "VerificationReport", "main"]

BOUND_NAMES = REGIONS + ("master",)

CHI_REFERENCE = "-0.3212698190821"
CHI_TOL = 1e-10
MASTER_REFERENCE = "0.207809"
MASTER_TOL = 1e-4
MASTER_MIN = 0.2078  # the floor the master bound must clear
GENFUNC_TOL = 1e-10
_GEGENBAUER_LAM = 0.24  # the argument-bound scan's exponent
_GEGENBAUER_NMAX = 50  # and its largest n

_TINY = Fraction(1, 10**12)
_GRID_U = (Fraction(1, 1000), Fraction(math.pi) / 2 + _TINY)
_GRID_VARSIGMA = (Fraction(1, 1000), Fraction(math.pi) - Fraction(1, 1000) + _TINY)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One sub-certificate: id, pass/fail/inconclusive, formatted value."""

    check_id: str
    status: str
    value: str = ""
    error: str = ""
    detail: str = ""


@dataclass
class VerificationReport:
    case: str
    inputs: dict
    method: str
    reference: str
    checks: list[CheckResult] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def status(self) -> str:
        if any(c.status == "fail" for c in self.checks):
            return "fail"
        if any(c.status == "inconclusive" for c in self.checks):
            return "inconclusive"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {**asdict(self), "status": self.status}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"case: {self.case}", f"status: {self.status.upper()}", f"method: {self.method}"]
        if self.inputs:
            lines.append("inputs: " + " ".join(f"{k}={v}" for k, v in self.inputs.items()))
        lines.append("checks:")
        for c in self.checks:
            body = f"  [{c.status.upper()}] {c.check_id}"
            if c.value:
                body += f"  value={c.value}"
            if c.error:
                body += f" +/- {c.error}"
            if c.detail:
                body += f"  ({c.detail})"
            lines.append(body)
        lines.append(f"reference: {self.reference}")
        lines.append(f"wall time: {self.wall_time_s:.2f} s")
        return "\n".join(lines)


def _fmt(x, digits: int = 12) -> str:
    """Deterministic decimal rendering of a number, a Fraction exactly, at fixed precision."""
    with mp.workdps(working_dps() + 10):
        return mp.nstr(_as_mpf(x), digits, strip_zeros=True)


def _fmt_enclosure(enc: Enclosure) -> str:
    """[lo, hi] at 24 digits, which tell the ends of a PROOF_WIDTH enclosure apart."""
    with mp.workdps(max(working_dps(), 34)):
        lo, hi = (mp.nstr(_as_mpf(f), 24, strip_zeros=True) for f in (enc.lo, enc.hi))
    return f"[{lo}, {hi}]"


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# mustar
# ---------------------------------------------------------------------------


def run_mustar(rho: Fraction) -> VerificationReport:
    res = mu_star(rho, width=PROOF_WIDTH)
    enc = res.enclosure
    if rho == 1:
        signed, signs = enc.lo <= 1 <= enc.hi, "boundary root mu = 1"
        how = ("D(1, 1) = 1 + cos(pi) = 0, and pi^-mu D(1, mu) increases in mu, "
               "so D(1, mu) < 0 for every mu < 1")
    else:
        how = "verified signs D(lo) < 0 < D(hi)"
        try:
            d_lo, d_hi = (_verified_sign(rho, mu) for mu in (enc.lo, enc.hi))
            signed, signs = d_lo < 0 < d_hi, f"D(lo) = {_fmt(d_lo, 3)}, D(hi) = {_fmt(d_hi, 3)}"
        except ArithmeticError as exc:
            signed, signs = False, str(exc)
    checks = [
        CheckResult(
            "enclosure-width",
            _status(enc.width <= PROOF_WIDTH),
            value=_fmt_enclosure(enc),
            detail=f"width {_fmt(enc.width, 3)} <= PROOF_WIDTH {_fmt(PROOF_WIDTH, 3)}",
        ),
        CheckResult(
            "sign-change",
            _status(signed),
            value=signs,
            detail=f"{how}; defect at midpoint {_fmt(defect_integral(rho, enc.mid).value, 6)}; "
            f"{res.route} search, {res.probes} verified probes",
        ),
    ]
    return VerificationReport(
        case="mustar",
        inputs={"rho": str(rho), "width": _fmt(PROOF_WIDTH, 3)},
        method="verified-sign false position (Anderson-Bjorck) on the oscillatory defect integral",
        reference="critical exponent mu*(rho)",
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Shared sub-check builders
# ---------------------------------------------------------------------------


def _sturm_check(target, gate_all_points: bool) -> CheckResult:
    out = run_sturm_target(target)
    # positive on the lower envelope, which minorizes every admissible coefficient choice
    label, positive = target.anchor[0], out.anchor_signs[0] > 0
    a, b = target.x_interval
    detail = (f"0 roots in ({float(a):.10g}, {float(b):.10g}] expected; "
              f"{label} {'>0' if positive else '<=0'}")
    status = _status(not any(out.root_counts) and positive)
    if target.ungated and not gate_all_points:
        detail += f" [not gated: {target.ungated}]"
        status = _status(not any(out.root_counts))
        if status == "pass" and max(out.anchor_signs) >= 0:  # root-free, sign not shown
            status = "inconclusive"
            detail += f"; inconclusive: not every envelope is < 0 at {label}"
    return CheckResult(f"sturm-{target.name}", status,
                       value=f"root counts {list(out.root_counts)}", detail=detail)


def _grid_check(check_id: str, tsum, interval, var: str) -> CheckResult:
    # imported here, so that only the cases that run a grid load numpy
    from trigpos.engine import certify_partial_sums

    certs = certify_partial_sums(tsum, interval)[1:]
    bad = [(n, c.status) for n, c in enumerate(certs, 1) if not c.certified]
    a, b = float(interval[0]), float(interval[1])
    detail = f"n = 1..{len(certs)}, {var} in [{a:.6g}, {b:.6g}]"
    if bad:
        detail += "; failed: " + ", ".join(f"n={n} {s}" for n, s in bad[:5])
        status = "fail" if any(s == "refuted" for _, s in bad) else "inconclusive"
    else:
        detail += (f"; slimmest certified margin {min(c.margin for c in certs):.3e} "
                   f"(grid min - M2 h^2/8 - eval error), grids of up to "
                   f"{max(c.nodes for c in certs)} nodes")
        status = "pass"
    value = f"{len(certs) - len(bad)}/{len(certs)} certified"
    return CheckResult(check_id, status, value=value, detail=detail)


# ---------------------------------------------------------------------------
# thm-2-3
# ---------------------------------------------------------------------------


def _check_u1(mu_enc: Enclosure) -> CheckResult:
    # U_1 must be sin(phi/3 + pi/3) + d_1 sin(7 phi/3 + pi/3) with d_1
    # enclosing mu; that sum is u1_closed_form(d_1, phi) exactly
    u1 = build_U_n(1, mu_enc)
    d0, d1 = (t.coeff for t in u1.terms)
    terms_ok = ((u1.alpha, u1.beta) == (Fraction(1, 3), Fraction(1, 3))
                and d0 == Enclosure.exact(1) and d1.lo <= mu_enc.lo and mu_enc.hi <= d1.hi)
    with workdps():
        low = u1_closed_form(d1, iv.mpf([0, 1]) * iv.pi / 2).a
    return CheckResult(
        "closed-form-n1",
        _status(terms_ok and low > 0),
        value=f"lower bound {_fmt(low, 6)}",
        detail="U_1 = (1 - mu) sin(phi/3 + pi/3) + 2 mu sin(4phi/3 + pi/3) cos(phi), "
        "termwise nonnegative on [0, pi/2]; proved over the mu enclosure by one "
        "mpmath.iv evaluation on that box" + ("" if terms_ok else "; U_1 has other terms"),
    )


def _check_prop_constants(mu_enc: Enclosure) -> list[CheckResult]:
    with workdps():
        const = small_angle_constant(mu_enc)
        value, rad = _mid_rad(const)
        w = _mid_rad(wedge(iv.pi / 5, mu_enc))[0]
        box = iv.mpf([0, 1]) * iv.pi / 5  # the largest range the master bound uses

        # minima over the upper limit, over the mu enclosure: the first (x = 5pi/3)
        # is -D(2/3, mu), as cos(t - pi/6) = -sin(t - 2pi/3), zero at mu*
        try:
            arg1, m1 = min_over_upper_limit("cos", -iv.pi / 6, mu_enc, mp.pi / 2)
            arg2, m2 = min_over_upper_limit("cos", -iv.pi / 3, mu_enc, mp.pi / 2)
            chi = chi_reference_integral(mu_enc)
        except ValueError:  # an enclosure reaching mu = 0: no finite integrals, both fail
            arg1 = arg2 = mp.nan
            m1 = m2 = chi = QuadResult(mp.nan, mp.inf)
        minima_ok = (mp.almosteq(arg1, 5 * mp.pi / 3) and abs(m1.value) <= m1.err
                     and m2.value - m2.err > 0)
        diff = abs(chi.value - mp.mpf(CHI_REFERENCE))
        return [
            CheckResult(
                "small-angle-constant", _status(const.a > 0),
                value=_fmt(value), error=_fmt(rad, 3),
                detail="mu cos(2pi/3 - mu pi/2) - wedge(pi/5) in mpmath.iv over the mu "
                f"enclosure; wedge(pi/5) = {_fmt(w, 8)}",
            ),
            CheckResult(
                "wedge-monotone", _status(wedge_increasing(mu_enc, box)),
                detail="wedge positive and increasing on (0, pi/5]: for every mu in (0, 1) "
                "and t in (0, pi/2], with a = 1 - mu and s = sin t/t, the numerator of "
                "wedge' is at least a s^(a-1) t^2 (12 - t^2)/72 > 0; proved over the mu "
                "enclosure when it lies in (0, 1)",
            ),
            CheckResult(
                "pq-factors-decreasing", _status(p_decreasing(box) and q_decreasing(box)),
                detail="sin(phi/3 + pi/6)/sin(phi) and sin(phi)/sin(phi/3) positive, "
                "decreasing on (0, pi/5]: q' = -(4/3) sin(2phi/3) < 0, and p' has the sign of "
                "cos(phi/3 + pi/6) sin(phi)/3 - sin(phi/3 + pi/6) cos(phi) < 0 in one "
                "mpmath.iv box; neither depends on mu, so proved over the mu enclosure; "
                "p alone turns increasing again before pi/2",
            ),
            CheckResult(
                "cosine-integral-minima", _status(minima_ok),
                value=f"-D(2/3, mu) = {_fmt(m1.value, 4)} +/- {_fmt(m1.err, 3)} at "
                f"x={_fmt(arg1, 8)}; {_fmt(m2.value, 6)} at x={_fmt(arg2, 8)}",
                detail="min over upper limits of the two shifted integrals, over the mu "
                "enclosure in mpmath.iv; global, since t^(mu-1) decreases and later arches "
                "shrink (the lemma in quadrature.min_over_upper_limit); the first is "
                "-D(2/3, mu), zero at mu* by definition",
            ),
            CheckResult(
                "chi-integral", _status(diff + chi.err <= CHI_TOL),
                value=_fmt(chi.value, 14), error=_fmt(chi.err, 3),
                detail=f"over the mu enclosure in mpmath.iv; reference {CHI_REFERENCE}, "
                f"diff {_fmt(diff, 3)}",
            ),
        ]


def _check_master(mu_enc: Enclosure) -> CheckResult:
    rep = two_thirds_master_bound(mu_enc)  # on the PROOF_WIDTH enclosure of mu*(2/3)
    with workdps():
        diff = abs(rep.value - mp.mpf(MASTER_REFERENCE))
        ok = rep.positive and rep.value - rep.err > MASTER_MIN and diff <= MASTER_TOL
        comps = ", ".join(f"{k}={_fmt(v, 8)}" for k, v in rep.components.items())
    return CheckResult(
        "master-bound",
        _status(ok),
        value=_fmt(rep.value, 12),
        error=_fmt(rep.err, 3),
        detail=f"> {MASTER_MIN:g} required, reference {MASTER_REFERENCE}; {comps}",
    )


def run_thm_2_3(nmax: int) -> VerificationReport:
    rho = Fraction(2, 3)
    tight = mu_star(rho, width=PROOF_WIDTH).enclosure
    checks = [_check_u1(tight)]
    for target in sturm_case_plan(tight, MU_STURM):
        checks.append(_sturm_check(target, gate_all_points=False))
    checks.extend(_check_prop_constants(tight))
    checks.append(_check_master(tight))
    checks.append(_grid_check("grid-U", build_U_n(nmax, tight), _GRID_U, "phi"))
    return VerificationReport(
        case="thm-2-3",
        inputs={
            "rho": "2/3",
            "mu": _fmt_enclosure(tight),
            "nmax": nmax,
            "interval": f"[{float(_GRID_U[0]):.6g}, {float(_GRID_U[1]):.6g}]",
        },
        method="closed form + exact Sturm counts + singular quadrature + grid certificates",
        reference="positivity of the cosine sums U_n at rho = 2/3",
        checks=checks,
    )


# ---------------------------------------------------------------------------
# thm-1-3
# ---------------------------------------------------------------------------


def _bound_check(check_id: str, rho: Fraction, rep) -> CheckResult:
    comps = ", ".join(f"{k}={_fmt(v, 8)}" for k, v in rep.components.items())
    detail = f"rho = {rho}; margin {_fmt(rep.value - rep.err, 6)}"
    if comps:
        detail += f"; {comps}"
    return CheckResult(
        check_id,
        _status(rep.positive),
        value=_fmt(rep.value, 12),
        error=_fmt(rep.err, 3),
        detail=detail,
    )


def run_thm_1_3(nmax: int) -> VerificationReport:
    rho = Fraction(1, 3)
    nus = {r: mu_star(r, width=PROOF_WIDTH).enclosure for r in SCAN_RHOS}
    tight = nus[rho]
    checks = []
    for target in sturm_case_plan(None, Q_STURM):
        checks.append(_sturm_check(target, gate_all_points=True))
    # every region's bound at every scanned rho; its check is the one at rho
    scans = {(region, r): L_region(region, rho=r, nu=nus[r])
             for region in REGIONS for r in SCAN_RHOS}
    checks.extend(_bound_check(f"bound-{region}", rho, scans[region, rho]) for region in REGIONS)
    (worst_region, worst_rho), worst = min(scans.items(), key=lambda kv: kv[1].value - kv[1].err)
    bad = sum(not rep.positive for rep in scans.values())
    checks.append(CheckResult(
        "neighborhood-scan",
        _status(bad == 0),
        value=f"{bad} of {len(scans)} not positive" if bad else f"{len(scans)} bounds positive",
        detail=f"sampled at rho = {', '.join(map(str, SCAN_RHOS))} only, "
        f"nothing between them proved; worst margin "
        f"{_fmt(worst.value - worst.err, 6)} at L({worst_region}), rho = {worst_rho}",
    ))
    checks.append(_grid_check("grid-varsigma", build_varsigma(nmax, rho, tight),
                              _GRID_VARSIGMA, "theta"))
    return VerificationReport(
        case="thm-1-3",
        inputs={
            "rho": str(rho),
            "nu": _fmt_enclosure(tight),
            "nmax": nmax,
            "interval": f"[{float(_GRID_VARSIGMA[0]):.6g}, {float(_GRID_VARSIGMA[1]):.6g}]",
        },
        method="exact Sturm counts + composite oscillatory bounds + grid certificates",
        reference="positivity of the sine sums varsigma_n at rho = 1/3",
        checks=checks,
    )


# ---------------------------------------------------------------------------
# sturm:<name> / bounds:<name> / gegenbauer
# ---------------------------------------------------------------------------


def run_sturm_case(name: str) -> VerificationReport:
    names = STURM_NAMES if name == "all" else (name,)
    needs_mu = any(n in MU_STURM for n in names)
    mu_enc = mu_star(Fraction(2, 3), width=PROOF_WIDTH).enclosure if needs_mu else None
    checks = [_sturm_check(t, gate_all_points=True) for t in sturm_case_plan(mu_enc, names)]
    inputs = {"target": name}
    if mu_enc is not None:
        inputs["mu"] = _fmt_enclosure(mu_enc)
    return VerificationReport(
        case=f"sturm:{name}",
        inputs=inputs,
        method="exact Sturm chains over rational coefficient envelopes",
        reference="root-freeness of the reduced case polynomials",
        checks=checks,
    )


def run_bounds_case(name: str, rho: Fraction) -> VerificationReport:
    checks = []
    names = BOUND_NAMES if name == "all" else (name,)
    # the regions run at --rho and master at 2/3: one enclosure per distinct rho
    rhos = [Fraction(2, 3) if n == "master" else rho for n in names]
    nus = {r: mu_star(r, width=PROOF_WIDTH).enclosure for r in dict.fromkeys(rhos)}
    for n, r in zip(names, rhos):
        if n == "master":
            checks.append(_check_master(nus[r]))
        else:
            checks.append(_bound_check(f"bound-{n}", r, L_region(n, rho=r, nu=nus[r])))
    return VerificationReport(
        case=f"bounds:{name}",
        inputs={"region": name, "rho": str(rho)},
        method="power series with proven remainder, in mpmath.iv over the exponent enclosure",
        reference="composite lower bounds for the tail-dominated ranges",
        checks=checks,
    )


def run_gegenbauer() -> VerificationReport:
    from trigpos.gegenbauer import arg_bound_check, gegenbauer_C, genfunc_check

    checks = []

    reps = [genfunc_check(lam_g, x, z, tol=GENFUNC_TOL / 100)
            for lam_g in (0.24, 0.5, 1.0, 1.7) for x in (-0.9, -0.3, 0.2, 0.8)
            for z in (0.5, 0.5j, -0.35 + 0.35j, 0.25 - 0.4j)]
    worst = max(rep.diff + rep.tail_bound for rep in reps)
    checks.append(
        CheckResult(
            "generating-function",
            _status(worst <= GENFUNC_TOL),
            value=f"worst diff {worst:.3e}",
            detail=f"sampled: {len(reps)} (lambda, x, z) combos, |z| <= 0.5, tol {GENFUNC_TOL:g}",
        )
    )

    rep = arg_bound_check(_GEGENBAUER_LAM, n_max=_GEGENBAUER_NMAX)
    checks.append(
        CheckResult(
            "argument-bound",
            _status(rep.passed),
            value=f"max |arg| {rep.max_abs_arg:.6f}",
            detail=f"sampled disk: lambda = {_GEGENBAUER_LAM:g}, n <= {_GEGENBAUER_NMAX}, "
            f"threshold pi/3 = {rep.threshold:.6f}; worst at n={rep.worst.n}, x={rep.worst_x:g}",
        )
    )

    xs = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7),
          Fraction(-2, 5), Fraction(1), Fraction(-1))
    cheb_ok = all(gegenbauer_C(n, 1, x) == un(x)
                  for n, un in enumerate(map(chebyshev_U, range(13))) for x in xs)
    checks.append(
        CheckResult(
            "chebyshev-specialization",
            _status(cheb_ok),
            detail="C_n^1 equals the degree-n second-kind Chebyshev polynomial "
            f"exactly at {len(xs)} sampled rational inputs, n <= 12",
        )
    )

    return VerificationReport(
        case="gegenbauer",
        inputs={"nmax": _GEGENBAUER_NMAX, "lambda": f"{_GEGENBAUER_LAM:g}"},
        method="three-term recurrences against closed forms and sampling",
        reference="ultraspherical coefficient cross-checks",
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Argument handling: argparse parses the flags, one table maps the cases
# ---------------------------------------------------------------------------


def _parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a rational number") from exc


def _parse_nmax(text) -> int:
    nmax = _parse_rational(text)
    # a grid check takes nmax + 1 terms
    if nmax.denominator != 1 or not 1 <= nmax < _MAX_TERMS - 1:
        raise UsageError(f"--nmax must lie in 1..{_MAX_TERMS - 2}, got {text!r}")
    return int(nmax)


def _parse_rho(text) -> Fraction:
    rho = _parse_rational(text)
    if not 0 < rho <= 1:
        raise UsageError(f"rho must lie in (0, 1], got {text}")
    return rho


# case name -> runner of the parsed flags; the lambdas look the runners up
# when called, so a patched module attribute takes effect
CASES = {
    "thm-2-3": lambda a: run_thm_2_3(a.nmax),
    "thm-1-3": lambda a: run_thm_1_3(a.nmax),
    **{f"sturm:{name}": lambda a, name=name: run_sturm_case(name)
       for name in STURM_NAMES + ("all",)},
    **{f"bounds:{name}": lambda a, name=name: run_bounds_case(name, a.rho)
       for name in BOUND_NAMES + ("all",)},
    "gegenbauer": lambda a: run_gegenbauer(),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, which main returns as 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The two commands.  argparse runs each `type` on every value given and
    on the string defaults, so a bad value is a usage error also where the
    case does not read it; it lets the UsageError of a guard through."""
    ap = _Parser(
        prog="trigpos",
        description="verified positivity checks for fractional trigonometric sums",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    m = sub.add_parser("mustar", help="enclose the critical exponent mu*(rho) at PROOF_WIDTH")
    m.add_argument("rho", type=_parse_rho, help="rho in (0, 1], rational or decimal")
    v = sub.add_parser("verify", help="run a named verification case")
    v.add_argument("case", help="thm-2-3 | thm-1-3 | sturm:<name> | bounds:<name> | gegenbauer")
    v.add_argument("--nmax", type=_parse_nmax, default="100",
                   help="largest partial-sum index for grid cases (default %(default)s)")
    v.add_argument("--rho", type=_parse_rho, default="1/3",
                   help="rho for the region bounds of bounds:* (default %(default)s)")
    for p in (m, v):
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            working_dps()  # a malformed TRIGPOS_PRECISION stops before any case runs
        except ValueError as exc:
            raise UsageError(exc) from None
        start = time.perf_counter()
        if args.command == "mustar":
            report = run_mustar(args.rho)
        elif args.case in CASES:
            report = CASES[args.case](args)
        else:
            raise UsageError(f"unknown case {args.case!r}; choose from {', '.join(CASES)}")
        report.wall_time_s = time.perf_counter() - start
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # undecided: inconclusive
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(report.to_json() if args.json else report.to_text(), flush=True)
    except BrokenPipeError:
        # the reader closed stdout (say `| head`): send what is left to
        # devnull, so that the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.passed else 1


def entry_point() -> int:
    """main(), then gc.freeze(): the exit skips the collector's last walk."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry_point())
