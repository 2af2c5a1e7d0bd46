"""stlmon benchmark: the real CLI, timed end to end, with per-layer spans.

    python3 bench/run.py --workload fleet-1000 --seed 7 --seconds 45 --trace 0
    python3 bench/run.py --seed 7            # every workload, both passes
    python3 bench/run.py --smoke             # tiny sizes, every workload and check

One closed-loop client runs one `stlmon` child process at a time. The
untraced pass cycles through the workload's commands for --seconds and
gives the end-to-end metrics, with each time scaled to a reference speed
measured between commands (bench/README.md#noise). With --trace 1 each cycle is followed by a
traced replay through `stlmon.cli.run` under timing spans (bench/traced.py),
and each rule is timed directly; that gives the per-layer metrics. Every
command's exit code and output are checked; see bench/README.md. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from proc import BENCH, CLI, ROOT, SRC, TRACED, reference, run_cli, spawn

REFERENCE = ROOT / "tests" / "reference.py"
WORK_ROOT = BENCH / ".work"
OPS = ("simulate", "report", "compare", "check")
KERNEL_REPS = 3
COVERAGE_FLOOR = 0.9
# Timings are reported at a fixed machine speed: the seconds a command
# would take where the reference child (proc.REFERENCE) takes REF_S. That
# is about its median on the 2-vCPU Xeon VM the bounds were set on.
REF_S = 0.15

# name -> (unit, better); BENCHMARK.json declares the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "check_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "samples_per_s": ("1/s", "higher"),
}
SPAN_LAYERS = (
    "parser.parse_spec", "traces.load_csv", "traces.load_json", "traces.write_csv",
    "traces.eval_expr", "robustness.evaluate", "metrics.fleet_report",
    "metrics.compare_fleets", "metrics.mann_whitney_u", "sim.simulate_fleet",
)
RULES = ("until_unbounded", "until_bounded", "until_window", "gf_nested",
         "no_sharp_turns", "timed_completion", "dont_linger")
PER_LAYER = {
    "import.s": ("s", "lower"),
    **{f"{layer}.s": ("s", "lower") for layer in SPAN_LAYERS},
    "traces.load_csv.calls": ("count", "lower"),
    "traces.load_csv.cells": ("count", "lower"),
    "traces.load_csv.ns_per_cell": ("ns", "lower"),
    "traces.load_json.values": ("count", "lower"),
    "traces.eval_expr.calls": ("count", "lower"),
    "traces.write_csv.bytes": ("B", "lower"),
    "robustness.evaluate.evals": ("count", "lower"),
    "robustness.evaluate.us_per_eval": ("us", "lower"),
    **{f"robustness.rule.{rule}.s": ("s", "lower") for rule in RULES},
    "robustness.until_unbounded.growth": ("ratio", "lower"),
    "robustness.gf_nested.growth": ("ratio", "lower"),
    "sim.episodes": ("count", "lower"),
    "sim.steps": ("count", "lower"),
    "cli.self.s": ("s", "lower"),
    "process.overhead.s": ("s", "lower"),
    **{f"coverage.{op}": ("ratio", "higher") for op in OPS},
    "trace.overhead.s": ("s", "lower"),
}


def machine(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def at_ref_speed(walls: list[float], refs: list[float]) -> list[float]:
    """Wall times scaled to the reference speed. refs[i] and refs[i + 1]
    ran just before and just after walls[i]; each wall time is scaled by
    the median of the four reference runs nearest to it."""
    return [wall * REF_S / statistics.median(refs[max(0, i - 1):i + 3]) for i, wall in enumerate(walls)]


def time_setup(wl, scratch: Path) -> tuple[list[float], list[float]]:
    """Set the workload up at least 3 times and for at least 1 s; the last
    set-up's inputs are the ones measured. Returns the wall times and the
    reference times around them (see at_ref_speed)."""
    walls, refs = [], [reference(scratch)]
    while len(walls) < 3 or (sum(walls) < 1.0 and len(walls) < 15):
        start = time.perf_counter()
        wl.setup()
        walls.append(time.perf_counter() - start)
        refs.append(reference(scratch))
    return walls, refs


def measure(wl, seconds: float, trace: bool, out: Path) -> tuple[list, list, list]:
    """Cycle through the workload's commands until `seconds` have passed;
    the last cycle runs to its end.

    With `trace`, the first run of each distinct command in a cycle is
    followed at once by a traced replay of it (bench/traced.py), which
    records the untraced run's wall time beside its own. The
    reference child runs before the first untraced command and after each.
    Returns the untraced runs, the reference times (see at_ref_speed) and,
    per cycle, the traced runs."""
    runs, traced_cycles = [], []
    spans = out.with_suffix(".spans")
    ref = out.with_suffix(".ref")
    refs = [reference(ref)]
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        tags = (str(cycle), f"traced-{cycle}")
        traced = []
        for op, replay in zip(wl.ops(tags[0]), wl.ops(tags[1])):
            wall, rc, rss = run_cli(op.argv, out)
            runs.append((op, wall, rc, rss, out.read_bytes()))
            refs.append(reference(ref))
            if trace and all(replay.name != r[0].name for r in traced):
                t_wall, t_rc, t_rss = spawn(TRACED + (str(spans),) + replay.argv, out)
                dump = json.loads(spans.read_text(encoding="utf-8"))
                traced.append((replay, t_wall, t_rc, t_rss, out.read_bytes(), dump, wall))
        wl.after_pass(tags[0])
        if trace:
            wl.after_pass(tags[1])
            traced_cycles.append(traced)
        cycle += 1
    return runs, refs, traced_cycles


def kernel_times(wl) -> dict[tuple[str, str], float]:
    """Median time of direct `robustness` calls, per (rule, trace group)."""
    import stlmon

    spec, groups = wl.kernel_cases()
    times = {}
    for label, traces in groups.items():
        for rule in spec.rules:
            samples = []
            for _ in range(KERNEL_REPS):
                start = time.perf_counter()
                for trace in traces:
                    stlmon.robustness(rule.formula, trace, rule.name)
                samples.append(time.perf_counter() - start)
            times[(rule.name, label)] = statistics.median(samples)
    return times


def cycle_layers(traced: list[tuple]) -> tuple[dict, set]:
    """Per-layer metrics of the traced replays of one cycle. Coverage and
    tracing overhead compare each replay with the untraced run just before
    it, so that a drift of the machine's speed does not show in them."""
    self_s, counts, missing = Counter(), Counter(), set()
    m = {"import.s": 0.0, "process.overhead.s": 0.0, "trace.overhead.s": 0.0,
         **{f"coverage.{op}": 0.0 for op in OPS}}
    for op, wall, _, _, _, dump, untraced_wall in traced:
        self_s.update(dump["self_s"])
        counts.update(dump["counts"])
        missing.update(dump["missing"])
        process_s = wall - dump["inproc_s"]  # interpreter start and teardown
        layers_s = dump["import_s"] + sum(dump["self_s"].values()) + process_s
        m["import.s"] += dump["import_s"]
        m["process.overhead.s"] += process_s
        m["trace.overhead.s"] += wall - untraced_wall
        m[f"coverage.{op.name}"] = layers_s / untraced_wall

    def per(layer: str, count: str, scale: float) -> float:
        n = counts[f"{layer}.{count}"]
        return self_s[layer] / n * scale if n else 0.0

    m.update({f"{layer}.s": self_s[layer] for layer in SPAN_LAYERS})
    m.update({
        "traces.load_csv.calls": counts["traces.load_csv.calls"],
        "traces.load_csv.cells": counts["traces.load_csv.cells"],
        "traces.load_csv.ns_per_cell": per("traces.load_csv", "cells", 1e9),
        "traces.load_json.values": counts["traces.load_json.values"],
        "traces.eval_expr.calls": counts["traces.eval_expr.calls"],
        "traces.write_csv.bytes": counts["traces.write_csv.bytes"],
        "robustness.evaluate.evals": counts["robustness.evaluate.evals"],
        "robustness.evaluate.us_per_eval": per("robustness.evaluate", "evals", 1e6),
        "sim.episodes": counts["sim.simulate_fleet.episodes"],
        "sim.steps": counts["sim.simulate_fleet.steps"],
        "cli.self.s": self_s["cli"],
    })
    return m, missing


def layer_metrics(wl, traced_cycles, kernels) -> tuple[dict, list[str]]:
    """Median over the traced cycles of each layer metric; the direct
    per-rule kernel times and their growth between the two longest traces."""
    cycles = [cycle_layers(traced) for traced in traced_cycles]
    m = {key: statistics.median(c[key] for c, _ in cycles) for key in cycles[0][0]}
    missing = set().union(*(miss for _, miss in cycles))
    ran = {op.name for op, *_ in traced_cycles[0]}
    for rule in RULES:
        m[f"robustness.rule.{rule}.s"] = sum(s for (r, _), s in kernels.items() if r == rule)
    sizes = getattr(wl, "sizes", ())
    for rule in ("until_unbounded", "gf_nested"):
        base = kernels.get((rule, str(sizes[1]))) if sizes else None
        m[f"robustness.{rule}.growth"] = kernels[(rule, str(sizes[2]))] / base if base else 0.0
    m = {key: m[key] for key in PER_LAYER}  # the declared metrics, in order
    notes = [f"FLAG coverage.{op} = {m[f'coverage.{op}']:.3f} < {COVERAGE_FLOOR}"
             for op in OPS if op in ran and m[f"coverage.{op}"] < COVERAGE_FLOOR]
    notes += [f"FLAG layer {layer}: stlmon no longer has the traced attribute" for layer in sorted(missing)]
    return m, notes


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool, log) -> dict:
    name = workload.name
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        out = work / "stdout"
        spawn(CLI[:1] + ("-c", "import stlmon.cli"), out)  # compile bytecode before timing
        wl = workload(work, seed, smoke)
        setup_walls, setup_refs = time_setup(wl, out)
        setup_times = at_ref_speed(setup_walls, setup_refs)
        runs, refs, traced_cycles = measure(wl, seconds, trace, out)
        traced = [run for cycle in traced_cycles for run in cycle]
        wl.expect()
        oracle_ok = wl.oracle_ok(load_reference())
        failed = sum(
            not (oracle_ok and wl.verify(op, rc, stdout))
            for op, _, rc, _, stdout, *_ in runs + traced
        )
        attempted = len(runs) + len(traced)

        walls, scaled = defaultdict(list), defaultdict(list)
        for (op, wall, *_), t in zip(runs, at_ref_speed([run[1] for run in runs], refs)):
            walls[op.name].append(wall)
            scaled[op.name].append(t)
        at_ref = {op: statistics.median(ws) for op, ws in scaled.items()}
        e2e = {
            "setup_s": statistics.median(setup_times),
            "check_s": at_ref["check"],
            "pass_s": sum(at_ref.values()),
            "peak_rss_mb": max(run[3] for run in runs),
            "samples_per_s": wl.samples() / sum(at_ref[op] for op in wl.eval_ops),
        }

        log(f"# workload {name}: seed {seed}, {seconds:g} s, trace {int(trace)}")
        log(f"# machine {json.dumps(machine(seed))}")
        q1, q2, q3 = quartiles(refs)
        log(f"# reference child: median {q2:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s; REF_S {REF_S} s")
        log(f"# setup: {len(setup_times)} runs, median {e2e['setup_s']:.4f} s at reference speed "
            f"[{' '.join(f'{t:.3f}' for t in setup_times)}], wall "
            f"[{' '.join(f'{w:.3f}' for w in setup_walls)}]")
        for op, ws in walls.items():
            for label, values in (("wall", ws), ("at reference speed", scaled[op])):
                q1, q2, q3 = quartiles(values)
                log(f"# op {op}, {label}: {len(values)} runs, median {q2:.4f} s, q1 {q1:.4f} s, "
                    f"q3 {q3:.4f} s [{' '.join(f'{w:.3f}' for w in values)}]")
        log(f"# correctness: {attempted} ops, {failed} failed, failed_frac {failed / attempted:.4f}, "
            f"reference oracle {'agrees' if oracle_ok else 'DISAGREES'}")
        for key, value in e2e.items():
            unit, better = END_TO_END[key]
            log(f"# e2e {key} = {value:.6g} {unit} ({better} is better)")
        metrics = e2e
        if trace:
            metrics, notes = layer_metrics(wl, traced_cycles, kernel_times(wl))
            for key, value in metrics.items():
                unit, better = PER_LAYER[key]
                log(f"# layer {key} = {value:.6g} {unit} ({better} is better)")
            for note in notes:
                log(f"# {note}")
        units = PER_LAYER if trace else END_TO_END
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_reference():
    spec = importlib.util.spec_from_file_location("stlmon_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def declared_names_match() -> bool:
    """BENCHMARK.json declares exactly the metrics this script prints."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return all(
        {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        == table
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER))
    )


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a 1 s pass: exercises every workload and check")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 1.0

    def log(line: str) -> None:
        print(line, flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), args.smoke, log) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    if args.smoke and not declared_names_match():
        log("# BENCHMARK.json does not declare the metrics this script prints")
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "stlmon" / "cli.py").is_file() or not REFERENCE.is_file():
        sys.stderr.write(f"error: {ROOT} has no stlmon source tree (src/stlmon) "
                         "or reference evaluator (tests/reference.py)\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
