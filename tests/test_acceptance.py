"""Acceptance gate: the eleven headline checks, one test (and one printed
pass/fail line) per criterion, each at its stated tolerance.

Criterion 05 asserts the stated L(1)/L(31) display figures, which the
implementation does not reproduce; the derivation of those two composites is
not in the repository, so neither the code nor the figures can be shown wrong
here, and the test fails honestly rather than being weakened.  Criterion 06
checks the exact value P(-pi/3) = -mu(mu+1)/4 < 0 in place of the stated
positivity there, which exact arithmetic refutes.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from mpmath import mp

from oracles import osc_integral
from trigpos import mustar
from trigpos.bounds import L_region, two_thirds_master_bound
from trigpos.cli import main as cli_main
from trigpos.engine import certify_positive_trig
from trigpos.exact import count_roots_in, sturm_chain, Polynomial
from trigpos.gegenbauer import (
    arg_bound_check,
    gegenbauer_C,
    genfunc_check,
    subordination_sector_check,
    weak_conjecture_check,
)
from trigpos.mustar import PROOF_WIDTH, mu_star
from trigpos.quadrature import chi_reference_integral, fractional_osc_integral
from trigpos.trigsums import (
    build_U_n,
    build_varsigma,
    case_P,
    chebyshev_U,
    run_sturm_target,
    sturm_case_plan,
)

F = Fraction

TIGHT = F(1, 10**20)


def _line(num: int, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"acceptance criterion {num:2d}: {tag}{suffix}")


def test_criterion_01_mustar_two_thirds():
    start = time.perf_counter()
    res = mu_star(F(2, 3))
    elapsed = time.perf_counter() - start
    ok = (
        res.enclosure.width <= F(1, 10**9)
        and F("0.8468555683") in res.enclosure
        and elapsed < 5.0
    )
    _line(1, ok, f"width={float(res.enclosure.width):.2e} time={elapsed:.2f}s")
    assert res.enclosure.width <= F(1, 10**9)
    assert F("0.8468555683") in res.enclosure
    assert elapsed < 5.0


def test_criterion_02_mustar_one_third():
    start = time.perf_counter()
    res = mu_star(F(1, 3))
    elapsed = time.perf_counter() - start
    half_lo = res.enclosure.lo / 2
    half_hi = res.enclosure.hi / 2
    # the four-digit figure 0.2483 is a display abbreviation of
    # (1/2) mu*(1/3) = 0.2483456...; the sound containment statement is that
    # every point of the halved enclosure abbreviates to it
    rounds_ok = (
        round(float(half_lo), 4) == 0.2483 and round(float(half_hi), 4) == 0.2483
    )
    ok = (
        res.enclosure.width <= F(1, 10**9)
        and F("0.4966913651") in res.enclosure
        and rounds_ok
        and elapsed < 5.0
    )
    _line(2, ok, f"width={float(res.enclosure.width):.2e} time={elapsed:.2f}s")
    assert res.enclosure.width <= F(1, 10**9)
    assert F("0.4966913651") in res.enclosure
    assert rounds_ok
    assert elapsed < 5.0


def test_criterion_03_chi_reference():
    enc = mu_star(F(2, 3), width=TIGHT).enclosure
    mid = enc.mid
    chi = chi_reference_integral(mp.mpf(mid.numerator) / mid.denominator)
    diff = abs(chi.value - mp.mpf("-0.3212698190821"))
    ok = diff < mp.mpf("1e-10")
    _line(3, ok, f"chi={mp.nstr(chi.value, 14)} diff={mp.nstr(diff, 3)}")
    assert ok


def test_criterion_04_master_bound():
    rep = two_thirds_master_bound(mu_star(F(2, 3), width=PROOF_WIDTH).enclosure)
    ok = (
        rep.value - rep.err > mp.mpf("0.2078")
        and abs(rep.value - mp.mpf("0.207809")) < mp.mpf("1e-4")
    )
    _line(4, ok, f"value={mp.nstr(rep.value, 12)} err={mp.nstr(rep.err, 3)}")
    assert rep.value - rep.err > mp.mpf("0.2078")
    assert abs(rep.value - mp.mpf("0.207809")) < mp.mpf("1e-4")


def test_criterion_05_L_region_values():
    stated = {
        "1": (mp.mpf("1.00046"), mp.mpf("1e-4")),
        "2": (mp.mpf("0.0106517"), mp.mpf("1e-5")),
        "31": (mp.mpf("0.435939"), mp.mpf("1e-4")),
        "32": (mp.mpf("0.00620342"), mp.mpf("1e-6")),
        "33": (mp.mpf("0.123105"), mp.mpf("1e-5")),
    }
    failures = []
    nu = mu_star(F(1, 3), width=PROOF_WIDTH).enclosure
    for region, (want, tol) in stated.items():
        rep = L_region(region, nu=nu)
        if not rep.value - rep.err > 0:
            failures.append(f"L({region}) not positive beyond error")
        if abs(rep.value - want) > tol:
            failures.append(
                f"L({region})={mp.nstr(rep.value, 9)} vs stated {mp.nstr(want, 6)}"
            )
    _line(5, not failures, "; ".join(failures) or "all five reproduced")
    # the stated L(1) and L(31) figures are not reproduced by any single
    # change of a constant in the composite formulas, while L(2), L(32) and
    # L(33) match; the derivation is not in the repository, so this stays
    # unsettled.  The computed values (0.259448..., 0.764116...) are
    # themselves frozen and dual-checked in test_bounds
    assert not failures, "; ".join(failures)


def test_criterion_06_sturm_certifications():
    start = time.perf_counter()
    enc = mu_star(F(2, 3), width=TIGHT).enclosure
    plan = sturm_case_plan(enc)
    outcomes = {t.name: run_sturm_target(t) for t in plan}
    anchors = {t.name: t.anchor[0] for t in plan}
    failures = []
    for name in ("q1", "q2", "q3", "P-near-0", "P-mid", "Q", "R"):
        out = outcomes[name]
        if any(c != 0 for c in out.root_counts):
            failures.append(f"{name} root counts {out.root_counts}")
    for name, label in (
        ("q1", "q1(0)"),
        ("q2", "q2(0)"),
        ("q3", "q3(0.37059)"),
        ("P-mid", "P(0)"),
        ("Q", "Q(pi/2)/sin"),
        ("R", "R(pi/2)/sin"),
    ):
        # the lower envelope minorizes every coefficient choice in the enclosure
        if anchors[name] != label or not outcomes[name].anchor_signs[0] > 0:
            failures.append(f"{label} not positive")
    # P minorizes 2 sin(phi) U_n(phi), which vanishes at t = -pi/3 (phi = 0),
    # so P cannot be positive there: it equals -mu(mu+1)/4 exactly, checked
    # at both rational ends of the enclosure, and the plan must report it
    for mu in (enc.lo, enc.hi):
        value = Polynomial(c.lo for c in case_P(mu))(F(1, 2))
        if value != -mu * (mu + 1) / 4:
            failures.append(f"P(-pi/3) = {float(value)} is not -mu(mu+1)/4")
    if anchors["P-near-0"] != "P(-pi/3)" or outcomes["P-near-0"].anchor_signs[0] > 0:
        failures.append("P(-pi/3) reported positive")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _line(6, not failures, "; ".join(failures) or f"time={elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_07_grid_certification():
    start = time.perf_counter()
    tiny = F(1, 10**12)
    enc23 = mu_star(F(2, 3)).enclosure
    enc13 = mu_star(F(1, 3)).enclosure
    u_interval = (F(1, 1000), F(math.pi) / 2 + tiny)
    v_interval = (F(1, 1000), F(math.pi) - F(1, 1000) + tiny)
    worst = None
    for n in range(1, 101):
        cert = certify_positive_trig(build_U_n(n, enc23), u_interval)
        assert cert.certified, f"U_{n}: {cert.status} {cert.detail}"
        assert cert.min_value > 0
        if worst is None or cert.min_value < worst[1]:
            worst = (f"U_{n}", cert.min_value)
    for n in range(1, 101):
        cert = certify_positive_trig(build_varsigma(n, F(1, 3), enc13), v_interval)
        assert cert.certified, f"vs_{n}: {cert.status} {cert.detail}"
        assert cert.min_value > 0
        if cert.min_value < worst[1]:
            worst = (f"vs_{n}", cert.min_value)
    elapsed = time.perf_counter() - start
    ok = elapsed < 600.0
    _line(7, ok, f"200 certificates, slimmest {worst[0]}={worst[1]:.3e}, "
                 f"time={elapsed:.1f}s")
    assert ok


def _oracle_roots_float(coeffs: list[int]):
    """All real roots of the integer polynomial, via numpy's companion
    matrix; returns them sorted (float precision)."""
    arr = np.array(coeffs[::-1], dtype=float)
    roots = np.roots(arr)
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)


def _oracle_panels(coeffs: list[int], a: Fraction, b: Fraction, real_roots):
    """Brute-force root count in (a, b], first half: the panels of a dense
    sign grid where the sign changes, as (lo, hi) arrays.  Returns None when
    the configuration is ambiguous at float precision (caller resamples the
    interval).

    Only used on polynomials whose real roots are pairwise >= 0.01 apart, so
    a 2000-panel grid cannot straddle two roots in one panel.
    """
    af, bf = float(a), float(b)
    if any(abs(r - af) < 1e-6 or abs(r - bf) < 1e-6 for r in real_roots):
        return None
    xs = np.linspace(af, bf, 2001)
    cf = np.array(coeffs[::-1], dtype=float)
    vs = np.polyval(cf, xs)
    scale = float(np.max(np.abs(vs)))
    if scale == 0.0 or np.any(np.abs(vs) < 1e-9 * scale):
        return None
    signs = np.sign(vs)
    crossings = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    return xs[crossings], xs[crossings + 1]


def _oracle_roots(coeffs: list[int], lo, hi):
    """Second half: refine every panel at once by 60 bisection steps; a
    panel whose midpoint evaluates to exactly 0 stops there (lo = hi = mid).
    Returns the root estimates 0.5 (lo + hi)."""
    cf = np.array(coeffs[::-1], dtype=float)
    lo, hi = lo.copy(), hi.copy()
    flo = np.polyval(cf, lo)
    live = np.ones(len(lo), bool)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = np.polyval(cf, mid)
        hit = live & (fmid == 0.0)
        lo[hit] = hi[hit] = mid[hit]
        live &= ~hit
        same = live & ((flo < 0) == (fmid < 0))
        lo[same], flo[same] = mid[same], fmid[same]
        other = live & ~same
        hi[other] = mid[other]
    return 0.5 * (lo + hi)


def test_criterion_08_oracle_equivalence():
    rng = random.Random(20260813)
    disagreements = []
    polys_done = 0
    while polys_done < 500:
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [
            rng.choice((-9, -5, -2, -1, 1, 2, 5, 9))
        ]
        real_roots = _oracle_roots_float(coeffs)
        if any(y - x < 0.01 for x, y in zip(real_roots, real_roots[1:])):
            continue  # regenerate: grid oracle needs separated roots
        chain = sturm_chain(Polynomial([F(c) for c in coeffs]))
        accepted = []
        attempts = 0
        while len(accepted) < 100 and attempts < 2000:
            attempts += 1
            ka, kb = sorted(rng.randint(-3500, 3500) for _ in range(2))
            if kb - ka < 20:
                continue
            a, b = F(ka, 1009), F(kb, 1009)
            panels = _oracle_panels(coeffs, a, b, real_roots)
            if panels is None:
                continue  # ambiguous for the oracle: resample the interval
            accepted.append((ka, kb, panels))
        assert len(accepted) == 100, "interval resampling budget exhausted"
        # the panels of all 100 intervals are bisected together
        roots = _oracle_roots(coeffs, np.concatenate([p[0] for _, _, p in accepted]),
                              np.concatenate([p[1] for _, _, p in accepted]))
        start = 0
        for ka, kb, panels in accepted:
            mine = roots[start:start + len(panels[0])]
            start += len(panels[0])
            af, bf = float(F(ka, 1009)), float(F(kb, 1009))
            got_oracle = int(np.count_nonzero((af < mine) & (mine <= bf)))
            got_sturm = count_roots_in(chain, F(ka, 1009), F(kb, 1009))
            if got_sturm != got_oracle:
                disagreements.append((coeffs, (ka, kb), got_sturm, got_oracle))
        polys_done += 1

    quad_failures = 0
    checked = 0
    for kind in ("sin", "cos"):
        for mu in (mp.mpf("0.3"), mp.mpf("0.49669136508129942616"),
                   mp.mpf("0.84685556828952869987")):
            for x in (mp.mpf("0.1"), mp.mpf(1), mp.pi, 2 * mp.pi):
                for eta in (mp.mpf(0), -mp.pi / 10):
                    quad = fractional_osc_integral(kind, eta, mu, x)
                    ref = osc_integral(kind, eta, mu, x)
                    checked += 1
                    if abs(quad.value - ref) > quad.err + mp.mpf("1e-24"):
                        quad_failures += 1
    ok = not disagreements and quad_failures == 0
    _line(8, ok, f"50000 root counts, {checked} quadrature pairs, "
                 f"{len(disagreements)} disagreements")
    assert not disagreements, disagreements[:3]
    assert quad_failures == 0


def test_criterion_09_subordination_sampling():
    mid = mu_star(F(1, 3)).enclosure.mid
    nu0 = mp.mpf(mid.numerator) / mid.denominator
    sector = subordination_sector_check(
        F(1, 3), mp.mpf("0.999") * nu0, n_max=30, r_values=(0.999, 1 - 1e-6)
    )
    mid = mu_star(F(2, 3)).enclosure.mid
    mu23 = mp.mpf(mid.numerator) / mid.denominator
    weak = weak_conjecture_check(
        F(2, 3), mp.mpf("0.999") * mu23, n_max=30, r_values=(0.999, 1 - 1e-6)
    )
    ok = sector.passed and weak.passed
    _line(9, ok, f"max|arg|={sector.max_abs_arg:.6f} (< {sector.threshold:.6f}), "
                 f"min Re={weak.min_real:.6f}")
    assert sector.passed and sector.max_abs_arg < np.pi / 6
    assert weak.passed and weak.min_real > 0
    assert weak.boundary_max_diff is not None and weak.boundary_max_diff < 1e-20


def test_criterion_10_gegenbauer():
    worst = 0.0
    for lam in (0.24, 0.5, 1.0, 1.7):
        for x in (-0.9, -0.3, 0.2, 0.8):
            for z in (0.5, 0.5j, -0.35 + 0.35j, 0.25 - 0.4j):
                rep = genfunc_check(lam, x, z, tol=1e-12)
                worst = max(worst, rep.diff)
                assert rep.diff < 1e-10, (lam, x, z)
    scan = arg_bound_check(0.24, n_max=50)
    assert scan.passed, scan.max_abs_arg
    exact_ok = all(
        gegenbauer_C(n, F(1), x) == chebyshev_U(n)(x)
        for n in range(13)
        for x in (F(0), F(1, 2), F(-1, 2), F(3, 7), F(-2, 5), F(1), F(-1))
    )
    _line(10, exact_ok and scan.passed,
          f"genfunc worst diff={worst:.2e}, max|arg|={scan.max_abs_arg:.4f}")
    assert exact_ok


def test_criterion_11_cli_exit_code_contract(capsys):
    start = time.perf_counter()
    outcomes = {
        "mustar 1.0": cli_main(["mustar", "1.0"]),
        "verify sturm:q3": cli_main(["verify", "sturm:q3"]),
        "verify bounds:master": cli_main(["verify", "bounds:master"]),
        "verify gegenbauer": cli_main(["verify", "gegenbauer"]),
        "verify sturm:P-near-0": cli_main(["verify", "sturm:P-near-0"]),
        "verify no-such-case": cli_main(["verify", "no-such-case"]),
    }
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    expected = {
        "mustar 1.0": 0,
        "verify sturm:q3": 0,
        "verify bounds:master": 0,
        "verify gegenbauer": 0,
        "verify sturm:P-near-0": 1,
        "verify no-such-case": 2,
    }
    ok = outcomes == expected
    _line(11, ok, f"exit codes {outcomes} time={elapsed:.1f}s")
    assert outcomes == expected
