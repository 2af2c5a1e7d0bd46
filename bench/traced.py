"""Replay one `stlmon` command in this process with a timing span around
each layer's public functions, then write the spans as JSON.

    python traced.py SPANS.json ARG...   # same as `stlmon ARG...`

The wrappers replace module attributes of `stlmon.cli`, `stlmon.robustness`
and `stlmon.metrics`, the names through which those modules call into each
layer. A layer's self time is its span time minus the time of the spans it
caused. An attribute a later version no longer has is reported as missing,
and its time falls to its caller.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402


# layer name -> (module, attribute, counts taken from the result)
LAYERS = {
    "parser.parse_spec": ("stlmon.cli", "parse_spec", None),
    "traces.load_csv": ("stlmon.cli", "load_trace_csv",
                        lambda t: {"cells": len(t) * (1 + len(t.channels))}),
    "traces.load_json": ("stlmon.cli", "load_trace_json",
                         lambda t: {"values": len(t) * len(t.channels)}),
    "traces.write_csv": ("stlmon.cli", "write_trace_csv", lambda text: {"bytes": len(text)}),
    "traces.eval_expr": ("stlmon.robustness", "eval_expr", None),
    "robustness.evaluate": ("stlmon.cli", "evaluate_specification",
                            lambda results: {"evals": len(results)}),
    "metrics.fleet_report": ("stlmon.cli", "fleet_report", None),
    "metrics.compare_fleets": ("stlmon.cli", "compare_fleets", None),
    "metrics.mann_whitney_u": ("stlmon.metrics", "mann_whitney_u", None),
    "sim.simulate_fleet": ("stlmon.cli", "simulate_fleet",
                           lambda eps: {"episodes": len(eps), "steps": sum(e.steps for e in eps)}),
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()  # "<layer>.<count>", including "<layer>.calls"
        self._child_s = []  # per open span: time spent in the spans it caused

    def wrap(self, layer, fn, count=None):
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.counts[layer + ".calls"] += 1
            for key, value in (count(result) if count else {}).items():
                self.counts[f"{layer}.{key}"] += value
            return result

        return traced


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import stlmon.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = []
    for layer, (module_name, attr, count) in LAYERS.items():
        module = sys.modules.get(module_name)
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(layer, getattr(module, attr), count))
        else:
            missing.append(layer)
    rc = tracer.wrap("cli", stlmon.cli.run)(argv)
    sys.stdout.flush()
    inproc_s = time.perf_counter() - T0
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"import_s": import_s, "inproc_s": inproc_s, "self_s": tracer.self_s,
                   "counts": tracer.counts, "missing": missing}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
