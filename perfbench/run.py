"""trigpos benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload proof-2-3 --seed 1 --seconds 5 --trace 0

Run it from the root of a source checkout; trigpos is imported from
./src.  Workloads, metrics and units are described in perfbench/README.md.

Every timed operation runs in a fresh interpreter, one process at a time,
so no run profits from the in-process caches (mustar's enclosure cache, the
Gauss-Legendre node cache) that a CLI user never hits either.  A run
repeats whole rounds of its workload until --seconds have passed, starting
a new round only when it still fits the time limit; every round of the
shipped workloads lasts longer than the run length in BENCHMARK.json, so
each run measures one round.

--trace 0 reports the end-to-end metrics: wall_s is the median round time,
from spawning the first process to the exit of the last; setup_s is the
median of SETUP_SPAWNS spawns that only import trigpos.cli.  --trace 1
reports the per-layer metrics: each round runs the workload untraced and
then traced, both with the same code, checks that the verdicts agree, and
turns the traced round's spans into metrics; each metric is the median
over the rounds.  The names and units of the metrics come from
BENCHMARK.json.  The last line of stdout is the result object; the lines
before it give a readable summary and a `record:` line with the machine
information and the digest of the work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import common
import oracle
from tracer import aggregate

ROOT = common.HERE.parent
SRC = ROOT / "src"
CHILD = str(common.HERE / "child.py")
PRECISION = "30"  # trigpos' default working precision, pinned for every run
SETUP_SPAWNS = 10
RUN_LIMIT_S = 170.0

ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "TRIGPOS_PRECISION": PRECISION,
    # numpy's BLAS must not start a thread pool: one thread, one process
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
PY = sys.executable

MACHINE_CODE = """\
import json, os, sys, mpmath, mpmath.libmp, numpy, trigpos, trigpos.cli
from trigpos.precision import DEFAULT_DPS
print(json.dumps({"python": sys.version.split()[0], "mpmath": mpmath.__version__,
    "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__,
    "nproc": len(os.sched_getaffinity(0)), "precision": trigpos.working_dps(),
    "default_precision": DEFAULT_DPS}))
"""
SETUP_CODE = "import time, trigpos.cli; print(time.monotonic_ns())"

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class ChildError(RuntimeError):
    pass


@dataclass
class Proc:
    code: int
    out: bytes
    wall_s: float
    rss_mb: float
    cpu_s: float
    start_ns: int


def spawn(cmd: list[str], stdin: bytes | None = None, timeout: float = RUN_LIMIT_S) -> Proc:
    """Run cmd to completion; wait4 gives the child's own CPU time and peak RSS."""
    start = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = (time.monotonic_ns() - start) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, out, wall, usage.ru_maxrss / 1024,
                usage.ru_utime + usage.ru_stime, start)


@dataclass
class Round:
    wall_s: float
    rss_mb: float
    cpu_s: float
    outcomes: list  # per operation: dict with "ok" and what was checked
    spans: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Proof:
    """One CLI proof per round, `python3 -m trigpos.cli ...` in a fresh process."""

    def __init__(self, name: str, pinned: dict):
        self.spec = common.PROOFS[name]
        self.pinned = pinned
        self.work = {"workload": name, "argv": self.spec["argv"]}

    def round(self, traced: bool) -> Round:
        if traced:
            p = spawn([PY, CHILD, "cli", "--trace", *self.spec["argv"]])
            if p.code != 0:
                raise ChildError(f"traced CLI child exited {p.code}")
            out = json.loads(p.out)
            code, stdout, spans = out["exit"], out["stdout"], [out["spans"]]
        else:
            p = spawn([PY, "-m", "trigpos.cli", *self.spec["argv"]])
            code, stdout, spans = p.code, p.out, []
        return Round(p.wall_s, p.rss_mb, p.cpu_s, [self.check(code, stdout)], spans)

    def check(self, code: int, stdout) -> dict:
        try:
            report = json.loads(stdout)
        except ValueError:
            return {"ok": False, "why": f"exit {code}, no JSON report", "verdicts": []}
        seen = [(c["check_id"], c["status"]) for c in report["checks"]]
        want = [(c, "pass") for c in self.spec["checks"]]
        ref = self.pinned["reference"][self.spec["reference"]]
        printed = report.get("inputs", {}).get(self.spec["enclosure_key"])
        inside = printed is not None and oracle.check_printed_enclosure(printed, ref)
        why = []
        if code != 0:
            why.append(f"exit {code}")
        if seen != want:
            why.append(f"checks {seen}")
        if not inside:
            why.append("printed enclosure misses the series reference")
        return {"ok": not why, "why": "; ".join(why),
                "verdicts": [s for _, s in seen]}


class GridSweep:
    """Sixty seeded library requests per round, all in one fresh process."""

    def __init__(self, seed: int, pinned: dict):
        self.seed = seed
        self.pinned = pinned
        self.requests = common.sweep_requests(seed)
        self.payload = json.dumps({"requests": self.requests,
                                   "enclosures": pinned["enclosures"]}).encode()
        self.work = {"workload": "grid-sweep", "requests": self.requests,
                     "enclosures": pinned["enclosures"]}

    def round(self, traced: bool) -> Round:
        cmd = [PY, CHILD, "sweep"] + (["--trace"] if traced else [])
        p = spawn(cmd, stdin=self.payload)
        if p.code != 0:
            raise ChildError(f"sweep child exited {p.code}")
        out = json.loads(p.out)
        verdicts = out["verdicts"]
        if len(verdicts) != len(self.requests):
            raise ChildError("sweep child returned too few verdicts")
        sound = oracle.spot_check(self.requests, verdicts, self.pinned, self.seed)
        outcomes = []
        for req, verdict, mpmath_ok in zip(self.requests, verdicts, sound):
            letter = self.pinned["verdicts"][f"{req['family']} {req['mu']}"][req["n"] - 1]
            why = []
            if verdict["status"][0] != letter:
                why.append(f"{verdict['status']}, expected {letter}")
            if not mpmath_ok:
                why.append("mpmath spot check disagrees")
            outcomes.append({"ok": not why, "why": "; ".join(why), "request": req,
                             "verdicts": [verdict["status"]]})
        spans = [out["spans"]] if traced else []
        return Round(p.wall_s, p.rss_mb, p.cpu_s, outcomes, spans)


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    """Also the warm-up spawn: it compiles the package's bytecode once."""
    p = spawn([PY, "-c", MACHINE_CODE])
    if p.code != 0:
        raise ChildError("cannot import trigpos from ./src")
    return json.loads(p.out)


def setup_times(count: int) -> list[float]:
    times = []
    for _ in range(count):
        p = spawn([PY, "-c", SETUP_CODE])
        if p.code != 0:
            raise ChildError("import-only spawn failed")
        times.append((int(p.out) - p.start_ns) / 1e9)
    return times


def run_rounds(make_round, seconds: float, deadline: float) -> list:
    """Whole rounds until `seconds` have passed; a round that might end
    after `deadline` is not started."""
    start = time.monotonic()
    rounds = []
    while True:
        r0 = time.monotonic()
        rounds.append(make_round())
        now = time.monotonic()
        if now - start >= seconds or now + 1.5 * (now - r0) > deadline:
            return rounds


def verdict_digest(rnd: Round) -> str:
    return common.digest([o["verdicts"] for o in rnd.outcomes])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trigpos" / "cli.py").is_file():
        print(f"no trigpos source tree at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    pinned = common.load_pinned()
    workload = (GridSweep(args.seed, pinned) if args.workload == "grid-sweep"
                else Proof(args.workload, pinned))
    problems = oracle.check_pinned(pinned)
    machine = machine_info()
    if machine["precision"] != machine["default_precision"]:
        problems.append(f"precision {machine['precision']} is not the default")

    work_digest = common.digest(workload.work)
    if not args.trace:
        # half the import-only spawns before the rounds and half after, so
        # that one slow spell of the host does not set the median
        setup = setup_times(SETUP_SPAWNS // 2)
        rounds = run_rounds(lambda: [workload.round(False)], args.seconds, deadline)
        setup += setup_times(SETUP_SPAWNS - len(setup))
    else:
        rounds = run_rounds(lambda: [workload.round(False), workload.round(True)],
                            args.seconds, deadline)
    measured = [r[-1] for r in rounds]

    outcomes = [o for r in measured for o in r.outcomes]
    failed = sum(not o["ok"] for o in outcomes)
    for o in outcomes:
        if not o["ok"]:
            problems.append(f"{o.get('request', args.workload)}: {o['why']}")

    if not args.trace:
        values = {
            "wall_s": statistics.median(r.wall_s for r in measured),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r.rss_mb for r in measured),
        }
        units = END_TO_END_UNITS
    else:
        if any(verdict_digest(u) != verdict_digest(t) for u, t in rounds):
            problems.append("traced verdicts differ from untraced ones")
        per_round = [aggregate(t.spans, traced_wall_s=t.wall_s,
                               untraced_wall_s=u.wall_s, cpu_s=t.cpu_s)
                     for u, t in rounds]
        values = {k: statistics.median(v[k] for v in per_round) for k in per_round[0]}
        units = PER_LAYER_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": work_digest, "rounds": len(rounds),
        "machine": machine, "failed_frac": failed / len(outcomes),
        "run_s": time.monotonic() - t_start, "problems": problems[:20],
    }
    print(f"workload {args.workload}  seed {args.seed}  digest {record['digest']}  "
          f"rounds {len(rounds)}  ops {len(outcomes)}")
    for k, m in metrics.items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':28s} {record['failed_frac']:.6g} ratio")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
