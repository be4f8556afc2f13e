"""Span tracing around trigpos' public functions, from outside the package.

`install()` runs in a child process before the workload starts.  It wraps
every function a layer module lists in `__all__`, in every `trigpos.*`
namespace that binds it (the package uses `from ... import`, so one
function object is bound in several modules), plus the `TrigSum` bound
methods.  Each call appends one span (layer, name, parent, start_ns,
end_ns, info) to an in-memory list; `info` holds the counters read from
the call's arguments or result.  The child writes the list out when the
workload ends, and `aggregate()` turns it into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
child spans; the counters are read after the end timestamp is taken.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "mustar", "quadrature", "bounds", "trigsums", "engine", "exact")
TRIGSUM_METHODS = ("lipschitz", "coeff_err")
BUILDERS = ("build_U_n", "build_varsigma", "build_ell", "build_omega")


def _frac_bits(f) -> int:
    return max(f.numerator.bit_length(), f.denominator.bit_length())


def _sum_info(tsum):
    bits = max((max(_frac_bits(t.coeff.lo), _frac_bits(t.coeff.hi)) for t in tsum.terms),
               default=0)
    return {"terms": len(tsum.terms), "bits": bits}


def _chain_info(chain):
    return {"degree": chain.p0.degree,
            "bits": max((_frac_bits(c) for p in chain.chain for c in p.coeffs), default=0)}


def _tol_info(args, kwargs):
    tol = args[2] if len(args) > 2 else kwargs.get("tol")
    return {"tol": tol is not None}


# name -> info(args, kwargs, result)
_INFO = {
    "fractional_osc_integral": lambda a, k, r: {"flagged": bool(r.flagged)},
    "defect_integral": lambda a, k, r: _tol_info(a, k),
    "certify_positive_trig": lambda a, k, r: {
        "status": r.status, "wedge": r.detail.startswith("wedge")},
    "sturm_chain": lambda a, k, r: _chain_info(r),
    **{b: (lambda a, k, r: _sum_info(r)) for b in BUILDERS},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        name = fn.__name__
        info = _INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [layer, name, stack[-1] if stack else -1, clock(), 0, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function everywhere it is bound."""
        modules = {layer: importlib.import_module(f"trigpos.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self.wrap(layer, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("trigpos"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(mod, attr, wrappers[id(value)])
        trigsum = modules["trigsums"].TrigSum
        for name in TRIGSUM_METHODS:
            setattr(trigsum, name, self.wrap("trigsums", getattr(trigsum, name)))


def aggregate(spans: list, traced_wall_s: float, untraced_wall_s: float,
              cpu_s: float) -> dict:
    """Per-layer metrics of one traced round.

    `spans` holds one span list per process of the round, because a span's
    parent is an index into its own process's list.  Times are in seconds.
    """
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    counts = dict.fromkeys((
        "quadrature.integrals", "quadrature.flagged", "quadrature.series_calls",
        "quadrature.sign_retries", "mustar.calls", "mustar.cache_hits",
        "bounds.reports", "trigsums.terms", "engine.sums", "engine.certified",
        "engine.refuted", "engine.inconclusive", "engine.wedge_hits",
        "exact.chains"), 0)
    build_s = bound_s = plan_s = sturm_s = 0.0
    bits_max = degree_max = chain_bits_max = 0
    miss_integrals = 0
    for proc in spans:
        child_ns = [0] * len(proc)
        for layer, name, parent, t0, t1, info in proc:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        # integrals below each mu_star span, found through the nearest
        # mu_star ancestor of every integral
        below = {}
        for sid, (layer, name, parent, t0, t1, info) in enumerate(proc):
            self_s = (t1 - t0 - child_ns[sid]) / 1e9
            m[f"{layer}.self_s"] += self_s
            if name == "fractional_osc_integral":
                counts["quadrature.integrals"] += 1
                counts["quadrature.flagged"] += info["flagged"]
                p = parent
                while p >= 0 and proc[p][1] != "mu_star":
                    p = proc[p][2]
                if p >= 0:
                    below[p] = below.get(p, 0) + 1
            elif name == "series_reference":
                counts["quadrature.series_calls"] += 1
            elif name == "defect_integral":
                counts["quadrature.sign_retries"] += info["tol"]
            elif name in ("L_region", "two_thirds_master_bound"):
                counts["bounds.reports"] += 1
            elif name in BUILDERS or name == "pochhammer_coeff":
                build_s += self_s
                if info:
                    counts["trigsums.terms"] += info["terms"]
                    bits_max = max(bits_max, info["bits"])
            elif name in TRIGSUM_METHODS:
                bound_s += self_s
            elif name == "sturm_case_plan":
                plan_s += (t1 - t0) / 1e9
            elif name == "certify_positive_trig":
                counts["engine.sums"] += 1
                counts[f"engine.{info['status']}"] += 1
                counts["engine.wedge_hits"] += info["wedge"]
            elif name in ("sturm_chain", "count_roots_in"):
                sturm_s += (t1 - t0) / 1e9
                if info:
                    counts["exact.chains"] += 1
                    degree_max = max(degree_max, info["degree"])
                    chain_bits_max = max(chain_bits_max, info["bits"])
        for sid, span in enumerate(proc):
            if span[1] == "mu_star":
                counts["mustar.calls"] += 1
                if sid in below:
                    miss_integrals += below[sid]
                else:
                    counts["mustar.cache_hits"] += 1
    m.update(counts)
    misses = counts["mustar.calls"] - counts["mustar.cache_hits"]
    layer_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m.update({
        "proc.cpu_s": cpu_s,
        "quadrature.ms_per_integral": (
            1000 * m["quadrature.self_s"] / counts["quadrature.integrals"]
            if counts["quadrature.integrals"] else 0.0),
        "mustar.integrals_per_miss": miss_integrals / misses if misses else 0.0,
        "trigsums.build_s": build_s,
        "trigsums.coeff_bits_max": bits_max,
        "trigsums.bound_s": bound_s,
        "trigsums.plan_s": plan_s,
        "engine.decided_frac": (
            (counts["engine.certified"] + counts["engine.refuted"]) / counts["engine.sums"]
            if counts["engine.sums"] else 0.0),
        "exact.sturm_s": sturm_s,
        "exact.degree_max": degree_max,
        "exact.chain_bits_max": chain_bits_max,
        "trace.wall_s": traced_wall_s,
        "trace.outside_s": traced_wall_s - layer_self,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1,
    })
    return m
