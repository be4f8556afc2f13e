"""Workload process, started fresh by run.py for every operation it times.

    python3 perfbench/child.py sweep [--trace]      # requests as JSON on stdin
    python3 perfbench/child.py cli --trace ARGS...  # trigpos.cli.main(ARGS)

`sweep` runs the grid-sweep requests in the given order through the
library: build_U_n / build_varsigma, then certify_positive_trig.  `cli`
exists only for the traced run; untraced CLI operations run as
`python3 -m trigpos.cli ARGS`, exactly as users run them.  With --trace the
spans are recorded in memory and printed with the result, as one JSON
object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

from common import INTERVALS, VARSIGMA_RHO
from tracer import Tracer


def sweep(payload: dict) -> list:
    from trigpos.engine import certify_positive_trig
    from trigpos.exact import Enclosure
    from trigpos.trigsums import build_U_n, build_varsigma

    mus = {name: Enclosure(Fraction(lo), Fraction(hi))
           for name, (lo, hi) in payload["enclosures"].items()}
    verdicts = []
    for req in payload["requests"]:
        mu = mus[req["mu"]] if req["mu"] in mus else Fraction(req["mu"])
        n = req["n"]
        try:
            tsum = (build_U_n(n, mu) if req["family"] == "U"
                    else build_varsigma(n, VARSIGMA_RHO, mu))
            cert = certify_positive_trig(tsum, INTERVALS[req["family"]])
        except Exception as exc:  # an operation that raised counts as failed
            verdicts.append({"status": f"error: {exc!r}", "witness": None})
            continue
        verdicts.append({"status": cert.status, "witness": cert.witness})
    return verdicts


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    trace = bool(args) and args[0] == "--trace"
    if trace:
        args = args[1:]
    tracer = Tracer()
    if trace:
        tracer.install()
    if mode == "sweep":
        out = {"verdicts": sweep(json.load(sys.stdin))}
    elif mode == "cli" and trace:
        from trigpos import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(args)
            except Exception as exc:  # as `python -m trigpos.cli` would exit
                print(f"{exc!r}", file=sys.stderr)
                code = 1
        out = {"exit": code, "stdout": buf.getvalue()}
    else:
        print(__doc__, file=sys.stderr)
        return 2
    if trace:
        out["spans"] = tracer.spans
    json.dump(out, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
