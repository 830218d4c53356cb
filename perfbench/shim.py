"""Run one benchmark job with spans recorded at the ribbon_schur layer boundaries.

    python perfbench/shim.py SPANS_JSON cli ARGV...
    python perfbench/shim.py SPANS_JSON lib ARGV...

The shim wraps, in every ribbon_schur module and in the package namespace,
each function imported from another ribbon_schur module, where callers look
it up (``cli.normalize``, ``oracle.h_fingerprint``, ...), plus the methods
listed in ``METHODS``.  It then calls ``cli.main(argv)`` or ``libjob.run``
and writes the spans as JSON at exit.  Stdout and the exit code are those of
the untraced job.

A span is ``[name, start, end, parent, leaf_s]``; ``name`` is
``<module>.<function>`` of the callee.  Calls that are frequent and cheap
(``HOT`` and the leaf methods) are summed into ``leaf`` as ``[calls,
seconds]`` instead of recorded one by one; their time is charged to the
enclosing span's ``leaf_s``.  Work done to count, after a leaf call, is
summed in ``trace_s``.  Pool workers inherit the wrappers but never write
their spans.

``overhead_s`` estimates what the tracing cost the job: the time to install
the wrappers, plus each recorded span and summed call times the cost of one
such wrapper around a no-op, measured after the job (``calibrate_s`` is how
long that measurement took), plus ``trace_s``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from functools import cache
from math import inf

perf = time.perf_counter

MODULES = ("cli", "oracle", "factorization", "dirichlet", "lengthpolys",
           "compositions", "bfile", "seqcache")
# (host module, name) of lookups made once per composition, summed as leaves;
# h_fingerprint is looked up inside its own module by cross_validate
HOT = {("oracle", "_normal_form"), ("oracle", "h_fingerprint"),
       ("oracle", "composition_parts_from_mask")}
# (module, class, method, recorded as a leaf)
METHODS = [
    ("lengthpolys", "LengthPoly", "__mul__", True),
    ("dirichlet", "DirichletSeries", "__mul__", True),
    ("dirichlet", "DirichletSeries", "inverse", True),
    ("seqcache", "SequenceCache", "load", False),
    ("seqcache", "SequenceCache", "store", False),
]
CALIBRATE_CALLS = 1000  # per wrapper kind and repetition; takes a few ms


@cache
def _divisor_pairs(bound: int) -> int:
    # number of (d, n/d) products in one Dirichlet convolution up to the bound
    return sum(bound // d for d in range(1, bound + 1))


def _counters(name: str, args: tuple, result, counts: dict) -> None:
    def add(key: str, value: int) -> None:
        counts[key] = counts.get(key, 0) + value

    layer, func = name.split(".", 1)
    if name == "compositions.parse_composition":
        add("compositions.parts_parsed", len(result))
    elif layer == "factorization" and func in (
            "normalize", "irreducible_factorization", "equivalence_class", "_normal_form"):
        add("factorization.calls", 1)
        add("factorization.input_parts", len(args[0]))
        if func == "irreducible_factorization":
            add("factorization.factors_out", len(result))
    elif name == "oracle.h_fingerprint":
        add("oracle.coarsenings", 1 << (len(args[0]) - 1))
    elif name in ("oracle.brute_force_classes", "oracle.brute_force_length_histogram"):
        add("oracle.compositions_enumerated", 1 << (args[0] - 1))
    elif name == "dirichlet.__mul__":
        add("dirichlet.convolutions", 1)
        add("dirichlet.conv_terms", _divisor_pairs(args[0].bound))
    elif name == "dirichlet.inverse":
        add("dirichlet.convolutions", 1)
        add("dirichlet.conv_terms", _divisor_pairs(args[0].bound) - args[0].bound)
    elif name == "lengthpolys.__mul__":
        add("lengthpolys.mul_coeff_products", len(args[0].coeffs) * len(args[1].coeffs))
    elif name == "seqcache.load":
        add("seqcache.misses" if result is None else "seqcache.hits", 1)
    elif name == "seqcache.store":
        add("seqcache.bytes_written", args[0].path_for(args[1], args[2]).stat().st_size)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.leaf: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.trace_s = 0.0
        self.install_s = 0.0
        self.calibrate_s = 0.0
        self.overhead_s = 0.0

    def span(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name, perf(), 0.0, stack[-1], 0.0])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = perf()
            _counters(name, args, result, counts)
            return result

        return wrapper

    def leaf_call(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        acc = self.leaf.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            t1 = perf()
            _counters(name, args, result, counts)
            t2 = perf()
            acc[0] += 1
            acc[1] += t1 - t0
            self.trace_s += t2 - t1
            if stack[-1] >= 0:
                spans[stack[-1]][4] += t2 - t0
            return result

        return wrapper

    def install(self) -> None:
        import ribbon_schur

        hosts = [ribbon_schur] + [importlib.import_module(f"ribbon_schur.{m}") for m in MODULES]
        start = perf()  # the imports are the job's own cost
        for host in hosts:
            short = host.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(host).items()):
                module = getattr(value, "__module__", None) or ""
                name = f"{module.rsplit('.', 1)[-1]}.{attr}"
                if (short, attr) in HOT:
                    setattr(host, attr, self.leaf_call(name, value))
                elif (callable(value) and not isinstance(value, type)
                        and module.startswith("ribbon_schur.") and module != host.__name__
                        and not attr.startswith("_")):
                    setattr(host, attr, self.span(name, value))
        for module, cls_name, method, is_leaf in METHODS:
            cls = getattr(importlib.import_module(f"ribbon_schur.{module}"), cls_name)
            wrap = self.leaf_call if is_leaf else self.span
            setattr(cls, method, wrap(f"{module}.{method}", getattr(cls, method)))
        self.install_s = perf() - start

    def estimate_overhead(self) -> None:
        start = perf()
        span_cost, leaf_cost = calibrate()
        self.calibrate_s = perf() - start
        leaf_calls = sum(calls for calls, _ in self.leaf.values())
        self.overhead_s = (self.install_s + len(self.spans) * span_cost
                           + leaf_calls * leaf_cost + self.trace_s)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "leaf": self.leaf, "counts": self.counts,
                       "trace_s": self.trace_s, "calibrate_s": self.calibrate_s,
                       "overhead_s": self.overhead_s}, handle)


def calibrate() -> tuple[float, float]:
    """Seconds that a span wrapper and a leaf wrapper add to a call of a no-op."""
    def noop():
        return None

    probe = Tracer()
    costs = []
    for fn in (noop, probe.span("calibrate.noop", noop), probe.leaf_call("calibrate.noop", noop)):
        best = inf
        for _ in range(3):
            start = perf()
            for _ in range(CALIBRATE_CALLS):
                fn()
            best = min(best, perf() - start)
        costs.append(best / CALIBRATE_CALLS)
    return costs[1] - costs[0], costs[2] - costs[0]


def main() -> int:
    spans_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    if mode == "cli":
        from ribbon_schur import cli
        root, fn = "cli.main", cli.main
    else:
        import libjob
        root, fn = "libjob.run", libjob.run
    try:
        return tracer.span(root, fn)(argv)
    finally:
        sys.stdout.flush()
        tracer.estimate_overhead()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
