"""perfbench's traced runs still produce every metric BENCHMARK.json names.

perfbench/tracer.py wraps trigpos functions by name and reads attributes of
their results (QuadResult.flagged, SturmChain.p0.degree, ...), so renaming
or deleting one of them breaks the benchmark, not the package.  Each case
runs perfbench/child.py with --trace in its own interpreter, so the wrapping
never reaches the package the pytest process imported, and feeds the spans
to tracer.aggregate.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]

SWEEP = {
    "requests": [{"family": "U", "mu": "mu23-1e-9", "n": 4},
                 {"family": "varsigma", "mu": "3/5", "n": 3}],
    "enclosures": json.loads((BENCH / "pinned.json").read_text(encoding="utf-8"))["enclosures"],
}
CASES = {
    "thm-1-3": ["cli", "--trace", "verify", "thm-1-3", "--nmax", "3", "--json"],
    "thm-2-3": ["cli", "--trace", "verify", "thm-2-3", "--nmax", "5", "--json"],
    "sweep": ["sweep", "--trace"],
}
# what the tracer reads off the built sums (tsum.terms[i].coeff): the terms
# the wrapped builders return and the largest coefficient endpoint, in bits
SUM_COUNTS = {"thm-1-3": (17, 168), "thm-2-3": (21, 168), "sweep": (9, 168)}


def _aggregate():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.aggregate


@pytest.mark.parametrize("case", list(CASES))
def test_traced_child_yields_every_per_layer_metric(case):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("TRIGPOS_PRECISION", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *CASES[case]], cwd=ROOT, env=env,
        input=json.dumps(SWEEP) if case == "sweep" else "", capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    if case == "sweep":
        assert not [v for v in out["verdicts"] if v["status"].startswith("error")], out
    else:
        assert out["exit"] == 0, out["stdout"]
    metrics = _aggregate()([out["spans"]], traced_wall_s=1.0, untraced_wall_s=1.0, cpu_s=0.0)
    assert [name for name in PER_LAYER if name not in metrics] == []
    assert (metrics["trigsums.terms"], metrics["trigsums.coeff_bits_max"]) == SUM_COUNTS[case]
    if case == "sweep":
        assert metrics["engine.sums"] == len(SWEEP["requests"])
    else:
        assert metrics["quadrature.integrals"] > 0 and metrics["exact.chains"] > 0
