"""Command-line front door for the regulator workflow.

Subcommands:

  check     evaluate every rule on individual traces; exit 0/1/2
  report    aggregate a trace directory into per-rule fleet metrics
  compare   statistically compare two trace directories (pre vs post)
  simulate  generate a synthetic trace fleet with the bundled simulator

Exit codes: 0 success (no violations for `check`), 1 violations found
(`check` only), 2 usage or input error. All ordering is deterministic:
rules in specification order, traces in lexicographic file-name order.

`simulate`, `report` and `compare` run on every CPU the process may use:
each splits its seeds or trace files into ordered chunks for a pool of
forked workers (`_ordered_map`), so outputs and the reported first fault
do not depend on the CPU count. `check` runs in this process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from functools import partial
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from .formula import SignalKind, Specification, format_number
from .metrics import CompareReport, FleetReport, compare_fleets, fleet_report
from .parser import ParseError, parse_spec
from .robustness import RobustnessResult, Verdict, evaluate_specification, profile_specification
from .sim import (
    ConfigError,
    builtin_presets,
    format_config,
    parse_config_text,
    sample_goal,
    simulate_fleet,
)
from .traces import (
    EvalError,
    Series,
    Trace,
    TraceError,
    load_csv_bodies,
    load_trace_csv,  # kept only for bench/traced.py's traces.load_csv layer (ROADMAP item 6)
    load_trace_json,
    split_trace_csv,
    write_columns_csv,
    write_trace_csv,
)

BUILTIN_PREFIX = "builtin:"

# Live samples per chunk of trace files evaluated with one call; a longer
# trace is a chunk of its own.
BLOCK_SAMPLES = 1 << 13


class CliError(Exception):
    """Input problem that should terminate with exit code 2."""


@contextmanager
def _faults(verb: str, what: str, source: str | Path | None = None):
    """Turn an error raised in the block into one CliError line: an OSError
    into `cannot <verb> <what>: <reason>`, a UnicodeDecodeError into `<what>
    is not UTF-8: <reason>`, and a fault in the contents of the input file
    `source` (ParseError, TraceError or ConfigError) into `<source>:
    <reason>`. Every file-system call of the CLI runs in one."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot {verb} {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} is not UTF-8: {exc}") from None
    except (ParseError, TraceError, ConfigError) as exc:
        if source is None:
            raise
        raise CliError(f"{source}: {exc}") from None


def builtin_spec_path(name: str) -> Path:
    """Path of a bundled specification file ('mario' or 'turtlebot')."""
    path = Path(__file__).with_name("specs") / f"{name}.stl"
    if not path.is_file():
        raise CliError(f"no builtin specification '{name}'")
    return path


def _load_spec(spec_arg: str) -> Specification:
    if spec_arg.startswith(BUILTIN_PREFIX):
        path = builtin_spec_path(spec_arg[len(BUILTIN_PREFIX):])
    else:
        path = Path(spec_arg)
    with _faults("read", f"specification {path}", path):
        spec = parse_spec(path.read_text(encoding="utf-8"))
    if not spec.rules:
        raise CliError("specification has no rules")
    return spec


def _trace_paths(directory: str) -> list[str]:
    root = Path(directory)
    with _faults("read", f"directory {directory}"):
        if not root.is_dir():
            raise CliError(f"not a directory: {directory}")
        with os.scandir(root) as entries:  # a subdirectory is no trace, whatever its name
            paths = sorted(os.fspath(root / e.name) for e in entries
                           if _stem_suffix(e.name)[1] in (".csv", ".json") and not e.is_dir())
    if not paths:
        raise CliError(f"no .csv or .json traces in {directory}")
    return paths


def _stem_suffix(path: str) -> tuple[str, str]:
    name = os.path.basename(path)  # split as pathlib splits a name
    dot = name.rfind(".")
    return (name[:dot], name[dot:]) if 0 < dot < len(name) - 1 else (name, "")


def _open_nonblocking(path: str, flags: int) -> int:
    """`open`'s opener for a trace file: a FIFO opens at once, without
    waiting for a writer."""
    return os.open(path, flags | os.O_NONBLOCK)


def _read(spec: Specification, path: str) -> tuple:
    """(decls, lines) of a CSV trace file (`split_trace_csv`), or (None,
    Trace) of a JSON one; the file's bytes and text are not kept. A read
    or decode fault is a CliError naming the file. A FIFO is opened
    without waiting for a writer and then read as a pipe is, to the end of
    its writers' output: one that no process writes to reads as empty at
    once, a decode fault, where a plain open would wait for ever."""
    with _faults("read", f"trace {path}", path):
        with open(path, "rb", opener=_open_nonblocking) as file:
            os.set_blocking(file.fileno(), True)
            data = file.read()
        if _stem_suffix(path)[1] == ".json":
            return None, load_trace_json(data, spec)
        return split_trace_csv(data, spec)


def _decoded(files: list) -> Iterator[list[Trace]]:
    """The traces of a chunk of read (path, decls, lines or Trace) files,
    as one list. Each run of CSV files with one header is parsed with one
    `load_csv_bodies` call, which yields its traces in file order and
    raises at the first faulty file: the traces before it are yielded,
    then its CliError is raised."""
    traces = []
    try:
        for decls, run in groupby(files, itemgetter(1)):
            paths, _, payloads = zip(*run)
            if decls is None:  # JSON traces, decoded when read
                traces += payloads
            else:
                traces.extend(load_csv_bodies(decls, payloads,
                                              [_stem_suffix(path)[0] for path in paths]))
    except TraceError as exc:
        if traces:
            yield traces
        raise CliError(f"{files[len(traces)][0]}: {exc}") from None
    if traces:
        yield traces


def _chunks(spec: Specification, paths: Iterable[str]) -> Iterator[list[Trace]]:
    """Read and decode trace files in path order, in chunks of about
    BLOCK_SAMPLES samples to evaluate with one call each. A CSV file is
    counted by its body lines before any cell is parsed, and a closed
    chunk's CSV files are parsed together (`_decoded`). A read or decode
    fault is raised after the chunk of the files before it, so the first
    faulty file in path order is the one reported."""
    files: list = []
    samples = 0
    for path in paths:
        try:
            decls, payload = _read(spec, path)
        except CliError:
            yield from _decoded(files)
            raise
        if files and samples + len(payload) > BLOCK_SAMPLES:
            yield from _decoded(files)
            files, samples = [], 0
        files.append((path, decls, payload))
        samples += len(payload)
    yield from _decoded(files)


def _evaluated(spec: Specification, paths: list[str]) -> list[RobustnessResult]:
    """Every rule's result on each trace file, flat in (path, rule) order."""
    return [r for chunk in _chunks(spec, paths) for r in evaluate_specification(spec, *chunk)]


def _fleet_reports(spec: Specification, *fleets: list[str]) -> list[list[FleetReport]]:
    """Each fleet's per-rule reports, from one ordered pass over the files
    of all the fleets, whose chunks may span two fleets."""
    results = _ordered_map(partial(_evaluated, spec), [path for fleet in fleets for path in fleet])
    k, start, reports = len(spec.rules), 0, []
    for fleet in fleets:
        end = start + len(fleet) * k
        reports.append([fleet_report(rule.name, results[start + j:end:k])
                        for j, rule in enumerate(spec.rules)])
        start = end
    return reports


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ordered_map(job, items) -> list:
    """`job(items)`, computed a slice of items at a time: `job` maps a slice
    to a list, and the lists are joined in item order.

    Where there is one CPU, no fork or only one chunk, this is the single
    call `job(items)` in this process, and `multiprocessing` is never
    imported. Otherwise ordered chunks of about an eighth of a worker's
    share go to a process pool with one worker per CPU, so that uneven
    items (episodes of 100 to 800 steps, trace files of any length) even
    out. The chunks' results are read in order, so an exception raised by
    a job is raised here after the results of the chunks before it: the
    first fault in item order is the one raised. The chunks the workers
    have already taken then finish, the rest are cancelled, and no worker
    is killed; a worker that dies raises BrokenProcessPool, which `run`
    reports with exit code 2. A fork that fails is a CliError, raised once
    the workers forked before it are stopped. The workers are forked: a
    spawned one would first start an interpreter and import numpy, 0.13 s
    on a 2-vCPU Xeon, before its first chunk."""
    workers = _cpu_count()
    size = -(-len(items) // (8 * workers))
    if workers == 1 or size >= len(items) or not hasattr(os, "fork"):
        return job(items)
    import multiprocessing
    import warnings
    from concurrent.futures import ProcessPoolExecutor

    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    others = set(multiprocessing.active_children())  # the caller's, if any
    sys.stdout.flush()  # a forked worker must not inherit buffered output
    with ProcessPoolExecutor(min(workers, len(chunks)),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        with warnings.catch_warnings():
            # The first submit forks every worker. From Python 3.12 a fork in
            # a process with other threads warns that the child may deadlock.
            # Those threads are numpy's BLAS pool, and the workers call no BLAS
            # routine: this package uses no dot, matmul or linalg.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) "
                r"may lead to deadlocks in the child\.$", DeprecationWarning,
            )
            try:
                with _faults("start", "worker processes"):
                    parts = pool.map(job, chunks)
            except CliError:  # a fork failed: the workers forked before it wait for work
                for child in set(multiprocessing.active_children()) - others:
                    child.terminate()
                    child.join()
                raise
        return [x for part in parts for x in part]


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    """Write text to the file `out`, or to standard output if out is None."""
    if out:
        with _faults("write", out):
            Path(out).write_text(text, encoding="utf-8")
        return
    try:
        with _faults("write", "standard output"):
            sys.stdout.write(text)
            sys.stdout.flush()
    except CliError:
        # Drop the unwritten rest, or the interpreter's own flush at exit
        # fails on it again and turns exit 2 into 120.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _display_pct(value: float) -> str:
    if math.isinf(value):
        return "n/a"
    rounded = int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))
    return f"{'+' if rounded >= 0 else ''}{rounded}%"


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    evaluate = profile_specification if args.profile_out else evaluate_specification
    rows = []
    profiled: set[str] = set()
    for chunk in _chunks(spec, (os.fspath(Path(p)) for p in args.traces)):
        results = evaluate(spec, *chunk)
        rows.extend(zip([trace.id for trace in chunk for _ in spec.rules], results))
        if args.profile_out:
            _write_profiles(args.profile_out, chunk, results, profiled)

    if args.format == "json":
        payload = [
            {
                "trace": trace_id,
                "rule": r.rule_name,
                "rho": r.rho,
                "verdict": r.verdict.value,
            }
            for trace_id, r in rows
        ]
        _emit(_json_dump(payload), None)
    else:
        width = max(len(t) for t, _ in rows)
        rule_width = max(len(r.rule_name) for _, r in rows)
        _emit("".join(
            f"{trace_id:<{width}}  {r.rule_name:<{rule_width}}  "
            f"rho={r.rho:.6g}  {r.verdict.value}\n"
            for trace_id, r in rows
        ), None)
    violated = any(r.verdict is Verdict.VIOLATED for _, r in rows)
    return 1 if violated else 0


def _write_profiles(out_dir: str, chunk: list[Trace], profiles, written: set[str]) -> None:
    """Write each trace's profiles, flat in (trace, rule) order, trace by trace."""
    k = len(profiles) // len(chunk)
    root = Path(out_dir)
    for i, trace in enumerate(chunk):
        if any(c in trace.id for c in "/\\\0"):
            raise CliError(f"trace '{trace.id}': id must be a plain file name for --profile-out")
        if trace.id in written:
            raise CliError(f"trace '{trace.id}': duplicate id for --profile-out")
        written.add(trace.id)
        with _faults("write", f"profiles to {out_dir}"):
            if i == 0:  # once per call, after the first id is checked
                root.mkdir(parents=True, exist_ok=True)
            for profile in profiles[i * k:(i + 1) * k]:
                columns = {p: Series(SignalKind.REAL, s) for p, s in sorted(profile.series.items())}
                (root / f"{trace.id}__{profile.rule_name}.csv").write_text(
                    write_columns_csv(trace.times, columns), encoding="utf-8"
                )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _summary(r: FleetReport) -> dict:
    """A fleet's regulator metrics, in the key order of the JSON outputs."""
    return {"n": r.n_traces, "satisfaction_pct": r.satisfaction_pct, "trv": r.trv, "lrv": r.lrv}


def _report_payload(reports: list[FleetReport]) -> dict:
    return {r.rule_name: {**_summary(r), "rho": list(r.rho_values)} for r in reports}


def _report_table(reports: list[FleetReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"Rule: {r.rule_name} (n={r.n_traces})")
        lines.append(f"  Satisfaction Percentage    {r.satisfaction_pct:.1f}%")
        lines.append(f"  TRV (sum of margins)       {r.trv:.6g}")
        lines.append(f"  LRV (worst violation)      {r.lrv:.6g}")
        lines.append("")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    spec = _load_spec(args.spec)
    [reports] = _fleet_reports(spec, _trace_paths(args.trace_dir))
    if args.format == "json":
        _emit(_json_dump(_report_payload(reports)), args.out)
    else:
        _emit(_report_table(reports), args.out)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _compare_payload(pre: FleetReport, post: FleetReport, cmp: CompareReport) -> dict:
    change = cmp.satisfaction_change_pct
    return {
        "pre": _summary(pre),
        "post": _summary(post),
        "u_statistic": cmp.u_statistic,
        "p_value": cmp.p_value,
        "method": cmp.method,
        "alpha": cmp.alpha,
        "significant": cmp.significant,
        "satisfaction_change_pct": "n/a" if math.isinf(change) else change,
    }


def _compare_table(rows: list[tuple[FleetReport, FleetReport, CompareReport]]) -> str:
    lines = []
    for pre, post, cmp in rows:
        lines.append(f"Rule: {cmp.rule_name}")
        lines.append(f"{'':26}{'Pre-Analysis':>14}{'Post-Analysis':>15}")
        lines.append(
            f"  Satisfaction Percentage {pre.satisfaction_pct:>13.1f}% {post.satisfaction_pct:>13.1f}%"
        )
        lines.append(f"  TRV {pre.trv:>34.6g} {post.trv:>14.6g}")
        lines.append(f"  LRV {pre.lrv:>34.6g} {post.lrv:>14.6g}")
        sig = "yes" if cmp.significant else "no"
        lines.append(
            f"  Mann-Whitney U={cmp.u_statistic:.6g}, p={cmp.p_value:.3g} "
            f"({cmp.method}), significant at alpha={cmp.alpha:g}: {sig}"
        )
        lines.append(f"  Satisfaction change: {_display_pct(cmp.satisfaction_change_pct)}")
        lines.append("")
    return "\n".join(lines)


def _cmd_compare(args) -> int:
    if not 0 < args.alpha < 1:
        raise CliError("alpha must be in (0, 1)")
    spec = _load_spec(args.spec)
    pre_paths, post_paths = _trace_paths(args.dir_pre), _trace_paths(args.dir_post)
    pre_reports, post_reports = _fleet_reports(spec, pre_paths, post_paths)
    rows = [(pre, post, compare_fleets(pre.rule_name, pre, post, args.alpha))
            for pre, post in zip(pre_reports, post_reports)]
    if args.format == "json":
        payload = {cmp.rule_name: _compare_payload(pre, post, cmp) for pre, post, cmp in rows}
        _emit(_json_dump(payload), args.out)
    else:
        _emit(_compare_table(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_chunk(cfg, params, out_dir: Path, digits: int, seeds: range) -> list[str]:
    """Simulate a run of seeds one episode at a time, write each episode's
    CSV into out_dir and return only the episodes' manifest rows. Seeds are
    zero-padded to `digits`, the fleet's widest, so names sort in seed order."""
    rows = []
    for seed in seeds:
        [ep] = simulate_fleet(cfg, params, 1, seed)
        name = f"trace_{ep.seed:0{digits}d}.csv"
        text = write_trace_csv(ep.trace)
        with _faults("write", f"fleet to {out_dir}"):
            (out_dir / name).write_text(text, encoding="utf-8")
        rows.append(f"{name},{ep.outcome},{ep.steps},"
                    f"{format_number(ep.goal[0])},{format_number(ep.goal[1])}")
    return rows


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    if args.seed + args.n > 1 << 64:  # the noise stream reduces a seed mod 2^64
        raise CliError("--seed + --n - 1 must be < 2^64")
    if args.preset:
        cfg, pre, post = builtin_presets()
        policies = {"pre": pre, "post": post}
    else:
        with _faults("read", f"config {args.config}", args.config):
            cfg, policies = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
    if args.policy not in policies:
        raise CliError(f"config defines no policy '{args.policy}'")
    params = policies[args.policy]
    seeds = range(args.seed, args.seed + args.n)
    for seed in seeds:  # every goal is placeable, so no worker can fail on one
        sample_goal(cfg, seed)

    out_dir = Path(args.out)
    with _faults("write", f"fleet to {out_dir}"):
        out_dir.mkdir(parents=True, exist_ok=True)
        if next(out_dir.iterdir(), None) is not None:  # an earlier fleet would mix into this one
            raise OSError("directory is not empty")
    digits = max(6, len(str(seeds[-1])))
    rows = _ordered_map(partial(_simulate_chunk, cfg, params, out_dir, digits), seeds)

    manifest = [
        "# fleet manifest",
        f"policy = {args.policy}",
        f"n = {args.n}",
        f"base_seed = {args.seed}",
        f"seeds = {args.seed}..{args.seed + args.n - 1}",
        "time_unit = timesteps",
        "",
        "# scenario and policy parameters",
        format_config(cfg, {args.policy: params}).rstrip("\n"),
        "",
        "# episodes: file,outcome,steps,goal_x,goal_y",
        *rows,
    ]
    with _faults("write", f"fleet to {out_dir}"):
        (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    _emit(f"wrote {len(rows)} traces to {out_dir}\n", None)
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlmon",
        description="Offline robustness monitoring and fleet compliance reporting "
        "for rollout traces. Specification arguments accept a path or "
        "'builtin:mario' / 'builtin:turtlebot'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate rules on individual traces")
    p_check.add_argument("spec", help="specification file (.stl)")
    p_check.add_argument("traces", nargs="+", help="trace files (.csv or .json)")
    p_check.add_argument("--format", choices=("table", "json"), default="table")
    p_check.add_argument(
        "--profile-out", metavar="DIR", help="also write per-node robustness profile CSVs"
    )

    p_report = sub.add_parser("report", help="fleet metrics over a trace directory")
    p_report.add_argument("spec")
    p_report.add_argument("trace_dir")
    p_report.add_argument("--format", choices=("table", "json"), default="json")
    p_report.add_argument("--out", metavar="FILE", help="write to file instead of stdout")

    p_compare = sub.add_parser("compare", help="compare two trace directories")
    p_compare.add_argument("spec")
    p_compare.add_argument("dir_pre")
    p_compare.add_argument("dir_post")
    p_compare.add_argument("--alpha", type=float, default=0.05)
    p_compare.add_argument("--format", choices=("table", "json"), default="json")
    p_compare.add_argument("--out", metavar="FILE")

    p_sim = sub.add_parser("simulate", help="generate a synthetic trace fleet")
    source = p_sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", action="store_true", help="use the shipped scenario")
    source.add_argument("--config", metavar="FILE", help="scenario/policy config file")
    p_sim.add_argument("--policy", required=True, help="a policy the config defines")
    p_sim.add_argument("--n", type=int, required=True, help="number of episodes (>= 1)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="base seed, >= 0, with seed + n - 1 < 2^64 (default 0)")
    p_sim.add_argument("--out", required=True, metavar="DIR")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "check": _cmd_check,
        "report": _cmd_report,
        "compare": _cmd_compare,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (CliError, EvalError, ConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        # A pool worker died. Its class is imported with the pool, which
        # `check` never starts.
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, BrokenProcessPool):
            raise
        sys.stderr.write(f"error: {args.command}: a worker process died "
                         f"({type(exc).__name__}: {exc})\n")
        return 2


def main() -> None:
    gc.freeze()  # import's objects live to exit: no collection, shutdown's too, scans them
    sys.exit(run())


if __name__ == "__main__":
    main()
