"""Command-line interface: exit codes, JSON shape, flag handling."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mp

import trigpos
from trigpos import cli, engine, mustar, trigsums
from trigpos.cli import main
from trigpos.exact import Enclosure
from trigpos.mustar import MuStarResult, mu_star
from trigpos.precision import workdps
from trigpos.quadrature import QuadResult
from trigpos.trigsums import TrigSum, TrigTerm

REPORT_KEYS = {"case", "inputs", "method", "status", "checks", "reference",
               "wall_time_s"}
THM_2_3_CHECKS = [
    "closed-form-n1", "sturm-P-near-0", "sturm-P-mid", "sturm-Q", "sturm-R",
    "small-angle-constant", "wedge-monotone", "pq-factors-decreasing",
    "cosine-integral-minima", "chi-integral", "master-bound", "grid-U",
]


@pytest.fixture(autouse=True)
def _cli_precision():
    # the suite runs at mp.dps = 30 (conftest.py); each test here drives
    # the CLI at mpmath's default 15 digits, mp and iv, as a user's process does
    with workdps(15):
        yield


def test_mustar_boundary_passes(capsys):
    assert main(["mustar", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "status: PASS" in out
    assert "enclosure" in out


def test_mustar_shifted_enclosure_fails(monkeypatch, capsys):
    # moved by its own width, the enclosure sits wholly above the root, so
    # D > 0 at both ends
    def shifted(rho, width):
        res = mu_star(rho, width=width)
        enc = Enclosure(res.enclosure.lo + width, res.enclosure.hi + width)
        return MuStarResult(enc)

    monkeypatch.setattr(cli, "mu_star", shifted)
    assert main(["mustar", "2/3"]) == 1
    assert "[FAIL] sign-change" in capsys.readouterr().out


def test_mustar_one_fails_an_enclosure_that_misses_one(monkeypatch, capsys):
    # at rho = 1 the sign check rests on D's one zero being mu = 1, so it
    # passes only an enclosure that contains 1
    near_half = Enclosure(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**21))
    monkeypatch.setattr(cli, "mu_star", lambda rho, width: MuStarResult(near_half))
    assert main(["mustar", "1"]) == 1
    out = capsys.readouterr().out
    assert "status: FAIL" in out and "[FAIL] sign-change" in out


def test_mustar_reports_its_search(capsys):
    assert main(["mustar", "2/3"]) == 0
    assert "verified search, 8 verified probes" in capsys.readouterr().out
    assert main(["mustar", "1"]) == 0
    assert "boundary search, 0 verified probes" in capsys.readouterr().out


def test_mustar_rejects_bad_rho(capsys):
    for bad in ("1.5", "0", "-0.3", "abc"):
        assert main(["mustar", bad]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rho, case, key", [("2/3", "thm-2-3", "mu"), ("1/3", "thm-1-3", "nu")])
def test_mustar_prints_the_proofs_enclosure(capsys, rho, case, key):
    # one mu* enclosure per rho: `mustar` prints the one the proofs run on
    assert main(["mustar", rho, "--json"]) == 0
    checks = {c["check_id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    proof = _json_report(capsys, [case, "--nmax", "2"], 0)
    assert checks["enclosure-width"]["value"] == proof["inputs"][key]


def test_unknown_case_is_usage_error(capsys):
    assert main(["verify", "nonsense"]) == 2
    assert main(["verify", "sturm:zz"]) == 2
    assert main(["verify", "bounds:99"]) == 2
    capsys.readouterr()


def test_sturm_q3_passes(capsys):
    assert main(["verify", "sturm:q3"]) == 0
    out = capsys.readouterr().out
    assert "status: PASS" in out


def test_sturm_p_near_0_reports_failure(capsys):
    # the labeled-point check at the negative special point cannot pass;
    # the standalone case gates on it, so the exit code must be 1
    assert main(["verify", "sturm:P-near-0"]) == 1
    out = capsys.readouterr().out
    assert "status: FAIL" in out


def test_ungated_p_near_0_needs_every_envelope_negative():
    # "with 0 roots P < 0 on the whole interval" holds only when the upper
    # envelope is negative too; over mu in [4/5, 9/10] it is positive at both
    # ends of the interval, so the root-free envelopes show no sign
    target, = trigsums.sturm_case_plan(Enclosure(Fraction(4, 5), Fraction(9, 10)),
                                       ["P-near-0"])
    check = cli._sturm_check(target, gate_all_points=False)
    assert (check.status, check.value) == ("inconclusive", "root counts [0, 0]")
    assert check.detail.endswith("; inconclusive: not every envelope is < 0 at P(-pi/3)")
    # on the proofs' enclosure both envelopes are negative there, so it passes
    tight = mu_star(Fraction(2, 3), width=Fraction(1, 10**20)).enclosure
    target, = trigsums.sturm_case_plan(tight, ["P-near-0"])
    assert cli._sturm_check(target, gate_all_points=False) == cli.CheckResult(
        "sturm-P-near-0", "pass", "root counts [0, 0]",
        detail="0 roots in (0.5, 0.6862416379] expected; P(-pi/3) <=0 [not gated: equals "
        "-mu(mu+1)/4; with 0 roots P < 0 on the whole interval, so this certifies "
        "root-freeness only, no sign]")


# each check of `verify sturm:all` as (status, value, detail): the root
# counts, the rational x intervals and the anchor signs of every case
# polynomial, on the 1e-20 enclosure of mu*(2/3)
STURM_ALL = {
    "sturm-q1": ("pass", "root counts [0]", "0 roots in (0, 1] expected; q1(0) >0"),
    "sturm-q2": ("pass", "root counts [0]", "0 roots in (0, 1] expected; q2(0) >0"),
    "sturm-q3": ("pass", "root counts [0]",
                 "0 roots in (0.37059, 1] expected; q3(0.37059) >0"),
    "sturm-q3-derived": ("pass", "root counts [0]",
                         "0 roots in (0.3705904774, 0.5868240888] expected; "
                         "q3(cos^2(7pi/24)) >0"),
    "sturm-P-near-0": ("fail", "root counts [0, 0]",
                       "0 roots in (0.5, 0.6862416379] expected; P(-pi/3) <=0"),
    "sturm-P-mid": ("pass", "root counts [0, 0]",
                    "0 roots in (0.8090169944, 1] expected; P(0) >0"),
    "sturm-Q": ("pass", "root counts [0, 0]",
                "0 roots in (0, 0.5] expected; Q(pi/2)/sin >0"),
    "sturm-R": ("pass", "root counts [0, 0]",
                "0 roots in (0, 0.5] expected; R(pi/2)/sin >0"),
}


def _json_report(capsys, argv, code):
    """The `--json` report of `trigpos verify ARGV` without wall_time_s, the
    one field that differs between runs, after checking the exit code."""
    assert main(["verify", *argv, "--json"]) == code
    data = json.loads(capsys.readouterr().out)
    data.pop("wall_time_s")
    return data


def _check(check_id, value, detail):
    return {"check_id": check_id, "status": "pass", "value": value, "error": "",
            "detail": detail}


def test_sturm_all_report_is_pinned(capsys):
    payload = _json_report(capsys, ["sturm:all"], 1)  # P-near-0's anchor, by design
    assert payload["inputs"]["mu"] == ("[0.846855568289528699862079, "
                                       "0.846855568289528699872079]")
    assert {c["check_id"]: (c["status"], c["value"], c["detail"])
            for c in payload["checks"]} == STURM_ALL
    assert [c["check_id"] for c in payload["checks"]] == list(STURM_ALL)


# `verify bounds:all`, whose master-bound detail renders the fixed gates; its
# checks are the proof cases' own (test_bounds_cases_match_the_proof_checks)
BOUNDS_ALL = {
    "case": "bounds:all",
    "inputs": {"region": "all", "rho": "1/3"},
    "method": "power series with proven remainder, in mpmath.iv over the exponent enclosure",
    "reference": "composite lower bounds for the tail-dominated ranges",
    "status": "pass",
    "checks": [
        {"check_id": "bound-1", "status": "pass", "value": "0.259448166766",
         "error": "6.17e-19",
         "detail": "rho = 1/3; margin 0.259448; L1=1.2548941, L2=-0.88516425, "
                   "L3=0.11028172, S_2pi=0.86487899, C_7pi4=0.94933633, q0=-0.71077218, "
                   "r0=0.70342228, L_minus_L3=0.25944817, L_plus_L3=0.4800116"},
        {"check_id": "bound-2", "status": "pass", "value": "0.0106516529274",
         "error": "7.95e-21",
         "detail": "rho = 1/3; margin 0.0106517; main=0.32289928, tail=0.31224763"},
        {"check_id": "bound-31", "status": "pass", "value": "0.764115524303",
         "error": "5.7e-19",
         "detail": "rho = 1/3; margin 0.764116; L1=0.27830482, L2=0.83514514, "
                   "L3=0.34933444, q0=0.96456765, r_theta0=0.32512805, "
                   "wedge_theta0=0.033759144, L_minus_L3=0.76411552, L_plus_L3=1.4627844"},
        {"check_id": "bound-32", "status": "pass", "value": "0.00620342326722",
         "error": "4.3e-19",
         "detail": "rho = 1/3; margin 0.00620342; L1=-0.63010884, L2=0.82646048, "
                   "L3=0.19014822, q0=0.96456765, r_theta0=0.34527393, "
                   "wedge_theta0=0.045888146, L_minus_L3=0.0062034233, L_plus_L3=0.38649987"},
        {"check_id": "bound-33", "status": "pass", "value": "0.123104696089",
         "error": "3.27e-19",
         "detail": "rho = 1/3; margin 0.123105; L1=-0.53843324, L2=0.77504993, "
                   "L3=0.11351199, q0=0.96456765, r_theta0=0.42418771, "
                   "wedge_theta0=0.10528517, L_minus_L3=0.1231047, L_plus_L3=0.35012868"},
        {"check_id": "master-bound", "status": "pass", "value": "0.207808570447",
         "error": "3.04e-19",
         "detail": "> 0.2078 required, reference 0.207809; prop_term=0.66272937, "
                   "chi=-0.32126982, sigma_tail=0.010231573, tau_tail=0.014582847, "
                   "delta_tail=0.10883656"},
    ],
}


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "sturm:Q"], id="sturm:Q"),
    pytest.param(["verify", "bounds:2"], id="bounds:2"),
    pytest.param(["mustar", "2/3"], id="mustar"),
])
def test_lowest_precision_still_reaches_the_proof_width(capsys, monkeypatch, argv):
    # the precision floor admits a mu* enclosure PROOF_WIDTH wide
    monkeypatch.setenv("TRIGPOS_PRECISION", "15")
    assert main(argv) == 0
    assert "status: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("raw", ["abc", "3.5", ""], ids=["abc", "3.5", "empty"])
@pytest.mark.parametrize("argv", [["mustar", "2/3"], ["verify", "thm-2-3"]],
                         ids=["mustar", "verify"])
def test_malformed_precision_is_a_usage_error(capsys, monkeypatch, raw, argv):
    # not read as the default: the CLI stops before any case runs
    monkeypatch.setenv("TRIGPOS_PRECISION", raw)
    _refuse_every_case(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: TRIGPOS_PRECISION must be an integer, got {raw!r}\n")


def test_bounds_all_report_is_pinned(capsys):
    assert _json_report(capsys, ["bounds:all"], 0) == BOUNDS_ALL


def _sturm_all_check(check_id):
    status, value, detail = STURM_ALL[check_id]
    return {"check_id": check_id, "status": status, "value": value, "error": "",
            "detail": detail}


# the two proofs' reports: their Sturm checks are those of `verify sturm:all`
# (P-near-0 passes, ungated), their bound checks those of `verify bounds:all`
THM_2_3_NMAX_90 = {
    "case": "thm-2-3",
    "inputs": {"interval": "[0.001, 1.5708]",
               "mu": "[0.846855568289528699862079, 0.846855568289528699872079]",
               "nmax": 90, "rho": "2/3"},
    "method": "closed form + exact Sturm counts + singular quadrature + grid certificates",
    "reference": "positivity of the cosine sums U_n at rho = 2/3",
    "status": "pass",
    "checks": [
        _check("closed-form-n1", "lower bound 0.132627",
               "U_1 = (1 - mu) sin(phi/3 + pi/3) + 2 mu sin(4phi/3 + pi/3) cos(phi), termwise "
               "nonnegative on [0, pi/2]; proved over the mu enclosure by one mpmath.iv "
               "evaluation on that box"),
        _check("sturm-P-near-0", "root counts [0, 0]",
               "0 roots in (0.5, 0.6862416379] expected; P(-pi/3) <=0 [not gated: equals "
               "-mu(mu+1)/4; with 0 roots P < 0 on the whole interval, so this certifies "
               "root-freeness only, no sign]"),
        *map(_sturm_all_check, ["sturm-P-mid", "sturm-Q", "sturm-R"]),
        {**_check("small-angle-constant", "0.594114395824",
                  "mu cos(2pi/3 - mu pi/2) - wedge(pi/5) in mpmath.iv over the mu enclosure; "
                  "wedge(pi/5) = 0.01728617"), "error": "8.77e-21"},
        _check("wedge-monotone", "",
               "wedge positive and increasing on (0, pi/5]: for every mu in (0, 1) and t in "
               "(0, pi/2], with a = 1 - mu and s = sin t/t, the numerator of wedge' is at least "
               "a s^(a-1) t^2 (12 - t^2)/72 > 0; proved over the mu enclosure when it lies in "
               "(0, 1)"),
        _check("pq-factors-decreasing", "",
               "sin(phi/3 + pi/6)/sin(phi) and sin(phi)/sin(phi/3) positive, decreasing on "
               "(0, pi/5]: q' = -(4/3) sin(2phi/3) < 0, and p' has the sign of cos(phi/3 + "
               "pi/6) sin(phi)/3 - sin(phi/3 + pi/6) cos(phi) < 0 in one mpmath.iv box; "
               "neither depends on mu, so proved over the mu enclosure; p alone turns "
               "increasing again before pi/2"),
        _check("cosine-integral-minima",
               "-D(2/3, mu) = -1.514e-22 +/- 1.81e-19 at x=5.2359878; 0.309812 at x=5.7595865",
               "min over upper limits of the two shifted integrals, over the mu enclosure in "
               "mpmath.iv; global, since t^(mu-1) decreases and later arches shrink (the lemma "
               "in quadrature.min_over_upper_limit); the first is -D(2/3, mu), zero at mu* by "
               "definition"),
        {**_check("chi-integral", "-0.32126981902369",
                  "over the mu enclosure in mpmath.iv; reference -0.3212698190821, diff "
                  "5.84e-11"), "error": "2.86e-19"},
        BOUNDS_ALL["checks"][5],  # master-bound
        _check("grid-U", "90/90 certified",
               "n = 1..90, phi in [0.001, 1.5708]; slimmest certified margin 1.868e-03 (grid "
               "min - M2 h^2/8 - eval error), grids of up to 2049 nodes"),
    ],
}
THM_1_3_NMAX_10 = {
    "case": "thm-1-3",
    "inputs": {"interval": "[0.001, 3.14059]", "nmax": 10,
               "nu": "[0.49669136508129942615829, 0.49669136508129942616829]",
               "rho": "1/3"},
    "method": "exact Sturm counts + composite oscillatory bounds + grid certificates",
    "reference": "positivity of the sine sums varsigma_n at rho = 1/3",
    "status": "pass",
    "checks": [
        *map(_sturm_all_check, ["sturm-q1", "sturm-q2", "sturm-q3", "sturm-q3-derived"]),
        *BOUNDS_ALL["checks"][:5],  # bound-1 .. bound-33
        _check("neighborhood-scan", "25 bounds positive",
               "sampled at rho = 97/300, 197/600, 1/3, 203/600, 103/300 only, nothing between "
               "them proved; worst margin 0.000892566 at L(32), rho = 103/300"),
        _check("grid-varsigma", "10/10 certified",
               "n = 1..10, theta in [0.001, 3.14059]; slimmest certified margin 1.489e-03 "
               "(grid min - M2 h^2/8 - eval error), grids of up to 1025 nodes"),
    ],
}


@pytest.mark.parametrize("argv, want", [
    (["thm-2-3", "--nmax", "90"], THM_2_3_NMAX_90),
    (["thm-1-3", "--nmax", "10"], THM_1_3_NMAX_10),
], ids=["thm-2-3", "thm-1-3"])
def test_proof_report_is_pinned(capsys, argv, want):
    assert _json_report(capsys, argv, 0) == want


def test_bounds_cases_match_the_proof_checks(capsys):
    # one mu* enclosure per rho: each bound prints what the proof prints
    def checks(argv):
        return {c["check_id"]: c for c in _json_report(capsys, argv, 0)["checks"]}

    bounds = checks(["bounds:all"])
    proofs = {**checks(["thm-1-3", "--nmax", "10"]), **checks(["thm-2-3", "--nmax", "10"])}
    ids = ["bound-1", "bound-2", "bound-31", "bound-32", "bound-33", "master-bound"]
    assert list(bounds) == ids
    for check_id in ids:
        assert bounds[check_id] == proofs[check_id]


@pytest.mark.parametrize("argv, code, calls", [
    (["thm-1-3", "--nmax", "5"], 0, 5),
    (["thm-2-3", "--nmax", "5"], 0, 1),
    (["bounds:all"], 0, 2),
    (["bounds:all", "--rho", "2/3"], 1, 1),  # the region bounds hold near 1/3 only
    (["sturm:all"], 1, 1),
], ids=["thm-1-3", "thm-2-3", "bounds-all", "bounds-all-at-2-3", "sturm-all"])
def test_each_case_encloses_each_rho_once(capsys, monkeypatch, argv, code, calls):
    # the case computes each distinct rho's enclosure once and passes it to
    # every check: thm-1-3 one per scanned rho, bounds:all one at --rho and
    # one at 2/3 for master, shared when --rho is 2/3
    seen = []

    def counted(rho, width):
        seen.append((rho, width))
        return mu_star(rho, width=width)

    monkeypatch.setattr(cli, "mu_star", counted)
    assert main(["verify", *argv]) == code
    capsys.readouterr()
    assert len(seen) == len(set(seen)) == calls, seen


@pytest.mark.parametrize("argv", [
    ["mustar", "0.005"],
    ["verify", "bounds:1", "--rho", "0.005"],
    ["verify", "bounds:2", "--rho", "0.005"],
    ["mustar", "1/169"],
    ["mustar", "1/170"],
    ["mustar", "1/1000"],
    ["mustar", "1/1000000"],
    ["verify", "bounds:all", "--rho", "0.001"],
])
def test_small_rho_is_enclosed(capsys, argv):
    # mu*(rho) < 1/100 for rho <= 1/170: the bracket [rho, 2 rho] holds it
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "status: PASS" in out and err == ""


@pytest.mark.parametrize("rho", ["1e-40", "1e-50", "1e-300", "1e-400"])
def test_tiny_rho_is_enclosed_by_its_bracket(capsys, rho):
    # the bracket [rho, 2 rho] is narrower than PROOF_WIDTH, so it is the
    # enclosure, both ends' signs verified.  As rho -> 0,
    # D(rho, mu) ~ Si(pi) - rho pi/mu, which is Si(pi) - pi < 0 at mu = rho and
    # Si(pi) - pi/2 > 0 at mu = 2 rho; the ends are binary fractions, which
    # the series reads as points, so no radius of mu ~ rho widens D.  The
    # width, about rho, prints exactly, also below float64's range
    assert main(["mustar", rho, "--json"]) == 0
    width, signs = json.loads(capsys.readouterr().out)["checks"]
    assert width["value"] == f"[1.0{rho[1:]}, 2.0{rho[1:]}]"
    assert width["detail"] == f"width 1.0{rho[1:]} <= PROOF_WIDTH 1.0e-20"
    assert signs["status"] == "pass"
    assert signs["detail"].endswith("verified search, 2 verified probes")
    d_lo, d_hi = map(float, re.fullmatch(r"D\(lo\) = (\S+), D\(hi\) = (\S+)",
                                         signs["value"]).groups())
    assert d_lo == pytest.approx(float(mp.si(mp.pi) - mp.pi), abs=0.01)
    assert d_hi == pytest.approx(float(mp.si(mp.pi) - mp.pi / 2), abs=0.01)


def test_hostile_rho_ends_in_no_wrong_pass(capsys, monkeypatch):
    # rho = 0.999999: D(rho, 1) = 1 + cos(rho pi) is about 5e-12, and the root
    # lies below 1, not at the boundary
    assert main(["mustar", "0.999999", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    hi = Fraction(payload["checks"][0]["value"].strip("[]").split(", ")[1])
    assert payload["status"] == "pass" and hi < 1
    # a defect whose sign never verifies: one error line, exit 1
    monkeypatch.setattr(mustar, "defect_integral",
                        lambda rho, mu: QuadResult(mp.mpf(0), mp.mpf(1)))
    assert main(["mustar", "1e-50"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: cannot enclose mu*(rho) at rho = 1.0e-50: ")
    # rho and mu print as decimals, not as fractions of about 100 digits
    assert not re.search(r"\d{20}", err), err


def test_bounds_master_json_shape(capsys):
    assert main(["verify", "bounds:master", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == REPORT_KEYS
    assert payload["case"] == "bounds:master"
    assert payload["status"] == "pass"
    assert isinstance(payload["wall_time_s"], float)
    assert payload["checks"], "checks must not be empty"
    for chk in payload["checks"]:
        assert {"check_id", "status", "value", "error", "detail"} <= set(chk)
        assert chk["status"] in ("pass", "fail", "inconclusive")


def test_json_output_is_deterministic(capsys):
    def run():
        return json.dumps(_json_report(capsys, ["bounds:master"], 0), sort_keys=True)

    assert run() == run()


def test_thm_2_3_passes_every_check(capsys):
    argv = ["thm-2-3", "--nmax", "10"]
    first = _json_report(capsys, argv, 0)
    assert [c["check_id"] for c in first["checks"]] == THM_2_3_CHECKS
    assert all(c["status"] == "pass" for c in first["checks"])
    assert _json_report(capsys, argv, 0) == first


GEGENBAUER = {
    "case": "gegenbauer",
    "inputs": {"lambda": "0.24", "nmax": 50},
    "method": "three-term recurrences against closed forms and sampling",
    "reference": "ultraspherical coefficient cross-checks",
    "status": "pass",
    "checks": [
        _check("generating-function", "worst diff 9.944e-13",
               "sampled: 64 (lambda, x, z) combos, |z| <= 0.5, tol 1e-10"),
        _check("argument-bound", "max |arg| 0.721112", "sampled disk: lambda = 0.24, "
               "n <= 50, threshold pi/3 = 1.047198; worst at n=49, x=-0.9"),
        _check("chebyshev-specialization", "",
               "C_n^1 equals the degree-n second-kind Chebyshev polynomial exactly "
               "at 7 sampled rational inputs, n <= 12"),
    ],
}


# `verify gegenbauer` reads no flag: --nmax, parsed for the grid cases,
# leaves its report as it is
@pytest.mark.parametrize("argv, code, want", [
    ([], 0, GEGENBAUER),
    (["--nmax", "8"], 0, GEGENBAUER),
])
def test_gegenbauer_report_is_pinned(capsys, argv, code, want):
    assert _json_report(capsys, ["gegenbauer", *argv], code) == want


def _mu_2_3():
    return mu_star(Fraction(2, 3), width=Fraction(1, 10**20)).enclosure


def test_closed_form_n1_refuses_mu_reaching_1():
    assert cli._check_u1(_mu_2_3()).status == "pass"
    assert cli._check_u1(Enclosure(Fraction(9, 10), 1)).status == "fail"


@pytest.mark.parametrize("change", [
    {"beta": Fraction(2, 3)},  # cos(... + pi/6)
    {"alpha": Fraction(1, 6)},
    {"coeff": Enclosure(Fraction(2, 5), Fraction(2, 5))},
])
def test_closed_form_n1_refuses_another_u1(monkeypatch, change):
    real = cli.build_U_n

    def altered(n, mu):
        u1 = real(n, mu)
        alpha = change.get("alpha", u1.alpha)
        coeffs = (u1.terms[0].coeff, change.get("coeff", u1.terms[1].coeff))
        return TrigSum(alpha, change.get("beta", u1.beta),
                       tuple(TrigTerm(c) for c in coeffs))

    monkeypatch.setattr(cli, "build_U_n", altered)
    assert cli._check_u1(_mu_2_3()).status == "fail"


def test_integral_checks_need_mu_star_in_the_enclosure():
    # the first cosine minimum is -D(2/3, mu): over an enclosure 1e-16 above
    # mu* it is about -4e-16, which no slack may forgive
    enc = _mu_2_3()
    above = Enclosure(enc.hi + Fraction(1, 10**16), enc.hi + Fraction(101, 10**18))
    for mu, expected in ((enc, "pass"), (above, "fail")):
        status = {c.check_id: c.status for c in cli._check_prop_constants(mu)}
        assert status["cosine-integral-minima"] == expected
        assert status["chi-integral"] == "pass"


@pytest.mark.parametrize("mu", [Enclosure(0, Fraction(1, 2)), Enclosure(Fraction(1, 2), 1)])
def test_wedge_monotone_refuses_mu_touching_0_or_1(mu):
    status = {c.check_id: c.status for c in cli._check_prop_constants(mu)}
    assert status["wedge-monotone"] == "fail"
    assert status["pq-factors-decreasing"] == "pass"


@pytest.mark.parametrize("argv", [
    ["verify", "gegenbauer", "--nmax", "ten"],
    ["verify", "thm-1-3", "--rho", "abc"],
    ["verify", "thm-2-3", "--nmax", "[1]"],
    ["verify", "bounds:1", "--rho", "2"],
    ["mustar", "1/0"],
])
def test_bad_flag_values_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _refuse_every_case(monkeypatch):
    def refuse(*args):
        raise AssertionError("a case ran")

    for runner in ("run_mustar", "run_thm_2_3", "run_thm_1_3", "run_sturm_case",
                   "run_bounds_case", "run_gegenbauer"):
        monkeypatch.setattr(cli, runner, refuse)


@pytest.mark.parametrize("argv", [
    ["verify", "thm-2-3", "--master-min", "0.2"],
    ["verify", "bounds:master", "--master-min=-1e300"],
    ["verify", "thm-2-3", "--master-tol", "1e300"],
    ["verify", "bounds:all", "--master-tol", "1e300"],
    ["verify", "thm-2-3", "--chi-tol", "1e300"],
    ["verify", "gegenbauer", "--genfunc-tol", "1e300"],
    ["verify", "gegenbauer", "--config", "cfg.json"],
    ["mustar", "1", "--config", "cfg.json"],
    ["mustar", "1", "--width", "zz"],
    ["mustar", "0.5", "--width=-1e-9"],
    ["mustar", "0.5", "--width", "1/2e3"],
    ["mustar", "2/3", "--width", "1e-9"],
    ["verify", "gegenbauer", "--lam", "nan"],
    ["verify", "gegenbauer", "--lam", "0"],
    ["verify", "gegenbauer", "--lam", "inf"],
    ["verify", "gegenbauer", "--lam=-inf"],
    ["verify", "gegenbauer", "--lam=-1"],
    ["verify", "gegenbauer", "--lam", "1e-400"],
    ["verify", "gegenbauer", "--lam", "1e400"],
    ["verify", "thm-2-3", "--lam", "nan"],
    ["verify", "bounds:master", "--lam", "0"],
])
def test_the_reference_gates_are_not_settings(capsys, monkeypatch, tmp_path, argv):
    # the gates on the paper's figures are constants, `mustar` prints the
    # one PROOF_WIDTH enclosure per rho, and `gegenbauer` scans at fixed
    # lambda and n: no flag or config file changes them, and trying is a
    # usage error before any case runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text("{}")
    _refuse_every_case(monkeypatch)
    assert main(argv) == 2
    assert "error: unrecognized arguments: " + argv[2] in capsys.readouterr().err


def test_parser_errors_return_2_and_help_exits_0(capsys):
    assert main(["verify"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["verify", "gegenbauer", "--nmax", "0"],
    ["verify", "sturm:q1", "--nmax", "0"],
    ["verify", "thm-2-3", "--rho", "3/2"],
    ["verify", "bounds:master", "--nmax", "1/2"],
    ["verify", "gegenbauer", "--rho", "0"],
])
def test_bad_values_are_usage_errors_when_unread(capsys, monkeypatch, argv):
    # every setting given is parsed, also when the case does not read it
    _refuse_every_case(monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and argv[2].lstrip("-") in err


@pytest.mark.parametrize("command, defaults", [
    ("mustar", {}),
    ("verify", {"nmax": "100", "rho": "1/3"}),
], ids=["mustar", "verify"])
def test_help_lists_exactly_the_flags_of_each_command(capsys, command, defaults):
    # every option, so that a new one shows up here as a test edit
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert set(re.findall(r"--[a-z][\w-]*", text)) == {
        "--help", "--json", *(f"--{key}" for key in defaults)}
    for key, default in defaults.items():
        assert re.search(rf"--{key} {key.upper()} [^()]*\(default {re.escape(default)}\)", text)


def test_unknown_case_error_names_every_case(capsys):
    assert main(["verify", "sturm:zz"]) == 2
    err = capsys.readouterr().err
    assert len(cli.CASES) == 3 + len(cli.STURM_NAMES) + len(cli.BOUND_NAMES) + 2
    for name in cli.CASES:
        assert name in err


def test_nmax_guard(capsys):
    assert main(["verify", "gegenbauer", "--nmax", "0"]) == 2
    capsys.readouterr()


def test_nmax_at_a_million_terms_is_a_usage_error(capsys, monkeypatch):
    # the grid bounds hold below 10^6 terms, and a grid check takes nmax + 1;
    # the guard fires before any coefficient is built
    monkeypatch.setattr(cli, "build_U_n", None)
    for nmax in ("1000000", "999999"):
        assert main(["verify", "thm-2-3", "--nmax", nmax]) == 2
        assert "--nmax must lie in 1..999998" in capsys.readouterr().err


def test_nmax_cap_is_the_grid_term_cap(capsys, monkeypatch):
    # one constant in trigsums: the largest nmax the CLI accepts needs
    # nmax + 1 terms, which engine._Prefixes still takes
    cap = trigsums._MAX_TERMS
    assert cli._MAX_TERMS is cap and engine._MAX_TERMS is cap
    accepted = []

    def record(nmax):
        accepted.append(nmax)
        return cli.VerificationReport("thm-2-3", {}, "", "")

    monkeypatch.setattr(cli, "run_thm_2_3", record)
    assert main(["verify", "thm-2-3", "--nmax", str(cap - 1)]) == 2
    assert main(["verify", "thm-2-3", "--nmax", str(cap - 2)]) == 0
    capsys.readouterr()
    assert accepted == [cap - 2]
    def stand_in(size):  # a sum of placeholder terms, which no TrigSum takes
        return SimpleNamespace(alpha=Fraction(1, 3), beta=Fraction(1, 3), terms=[None] * size)

    with pytest.raises(ValueError, match="below"):
        engine._Prefixes(stand_in(cap), (0, 1))
    # nmax + 1 placeholders pass the cap and fail only on their first use
    with pytest.raises(AttributeError):
        engine._Prefixes(stand_in(accepted[0] + 1), (0, 1))


def _fresh_env() -> dict:
    """os.environ with PYTHONPATH leading to the same trigpos as this
    process, also when pytest put src/ on sys.path itself (pythonpath in
    pyproject.toml)."""
    src = str(Path(trigpos.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    """python args in a fresh interpreter that imports the same trigpos."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=_fresh_env())


def _without_wall_time(text: str) -> str:
    return re.sub(r"(?m)^wall time: .*$", "", text)


def test_module_entry_point_subprocess(capsys):
    # python -m trigpos.cli runs main(), then freezes the collector's
    # objects before the exit: the exit code and the report are main()'s
    for case, code in (("sturm:q1", 0), ("sturm:P-near-0", 1), ("no-such-case", 2)):
        proc = _run_fresh(["-m", "trigpos.cli", "verify", case])
        assert proc.returncode == main(["verify", case]) == code, proc.stderr
        out, err = capsys.readouterr()
        assert _without_wall_time(proc.stdout) == _without_wall_time(out)
        assert proc.stderr == err


def test_closed_stdout_ends_quietly():
    # the reader goes away before the report is printed, as `| head` may
    proc = subprocess.Popen([sys.executable, "-m", "trigpos.cli", "verify", "sturm:q3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_fresh_env())
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 0
    assert err == ""  # no Traceback, not even an "Exception ignored" line


_LOADED = """\
import contextlib, io, sys
from trigpos import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(sys.argv[1:])
print(" ".join(m for m in ("numpy", "trigpos.engine", "trigpos.gegenbauer")
               if m in sys.modules))
"""


@pytest.mark.parametrize("argv, loaded", [
    ([], ""),
    (["verify", "sturm:q1"], ""),
    (["verify", "bounds:2"], ""),
    (["mustar", "1/2"], ""),
    (["verify", "thm-1-3", "--nmax", "2"], "numpy trigpos.engine"),
    (["verify", "gegenbauer"], "numpy trigpos.gegenbauer"),
])
def test_only_grid_cases_load_numpy(argv, loaded):
    # a fresh process, so the imports of this test session hide nothing
    proc = _run_fresh(["-c", _LOADED, *argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == loaded
