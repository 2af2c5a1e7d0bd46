"""The benchmark's three workloads: their inputs, CLI commands and checks.

Each workload makes every input from the seed in `setup`, lists one pass
of `stlmon` commands in `ops`, and afterwards checks each command's exit
code and output against results computed in this process through the
public library API (`expect`, `verify`). `oracle_ok` re-checks a fixed
seeded subset of those results against the naive reference evaluator in
`tests/reference.py`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import stlmon
from stlmon.cli import builtin_spec_path

from proc import BENCH, run_cli

UNTIL_SPEC = BENCH / "until.stl"
SCHEMA = ("x", "y", "phi", "dist_obst", "goal_reached", "speed")
ORACLE_TRACES = 24  # fleet traces re-checked against the reference evaluator


@dataclass(frozen=True)
class Op:
    name: str  # simulate, report, compare or check
    argv: tuple[str, ...]  # arguments after `stlmon`
    out_dir: Path | None = None  # the directory `simulate` writes


def synthetic_signals(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Turtlebot-schema channels of n samples: a wandering robot with rare
    sharp turns, a varying speed and an obstacle distance that dips below
    the rule thresholds now and then; the goal is reached in the last 1%."""
    t = np.arange(n)
    spikes = np.where(rng.random(n) < 0.02, rng.choice([-0.5, 0.5], n), 0.0)
    phi = np.cumsum(rng.normal(0.0, 0.05, n) + spikes)
    speed = 0.8 + 0.6 * np.sin(t / 40.0 + rng.uniform(0, 6.3)) + rng.normal(0, 0.05, n)
    dist = 1.0 + 0.8 * np.sin(t / 37.0 + rng.uniform(0, 6.3)) + rng.normal(0, 0.1, n)
    return {
        "x": np.cumsum(speed * np.cos(phi)).round(6),
        "y": np.cumsum(speed * np.sin(phi)).round(6),
        "phi": phi.round(9),
        "dist_obst": dist.round(9),
        "goal_reached": t >= n - max(2, n // 100),
        "speed": speed.round(9),
    }


def _csv_text(signals: dict[str, np.ndarray]) -> str:
    n = len(signals["x"])
    columns = [list(map(str, range(n)))]
    for name in SCHEMA:
        values = signals[name]
        if values.dtype == np.bool_:
            columns.append(np.where(values, "true", "false").tolist())
        else:
            columns.append(list(map(repr, values.tolist())))
    rows = map(",".join, zip(*columns))
    return ",".join(("time",) + SCHEMA) + "\n" + "\n".join(rows) + "\n"


def _json_text(trace_id: str, signals: dict[str, np.ndarray]) -> str:
    payload = {k: v.tolist() for k, v in signals.items()}
    return json.dumps({"id": trace_id, "dt": 1.0, "signals": payload})


def _subset_equal(expected, actual) -> bool:
    """Every key of `expected` is in `actual` with an equal value."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and _subset_equal(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_subset_equal(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


def _check_payload(rows) -> list[dict]:
    return [
        {"trace": tid, "rule": r.rule_name, "rho": r.rho, "verdict": r.verdict.value}
        for tid, r in rows
    ]


def _check_rc(rows) -> int:
    return 1 if any(r.verdict is stlmon.Verdict.VIOLATED for _, r in rows) else 0


def _parse_json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


class Workload:
    """Base: a workload whose ops are `check --format json` runs."""

    name = ""
    eval_ops = ("check",)  # the ops whose medians give samples_per_s

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.seed = seed
        self.expected: dict[str, tuple[int, object]] = {}  # op -> (exit code, payload)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, tag: str) -> list[Op]:
        raise NotImplementedError

    def after_pass(self, tag: str) -> None:
        """Called after each pass of `ops(tag)`, outside the timed commands."""

    def expect(self) -> None:
        raise NotImplementedError

    def samples(self) -> int:
        """Trace samples evaluated by one run of each of `eval_ops`."""
        raise NotImplementedError

    def verify(self, op: Op, rc: int, stdout: bytes) -> bool:
        want_rc, payload = self.expected[op.name]
        return rc == want_rc and _subset_equal(payload, _parse_json(stdout))

    def oracle_ok(self, reference) -> bool:
        return True

    def kernel_cases(self) -> tuple[stlmon.Specification, dict[str, list[stlmon.Trace]]]:
        """The spec and labelled trace groups for direct per-rule timing."""
        raise NotImplementedError


class FleetWorkload(Workload):
    """The README regulator loop at fleet scale (n = 1000 per fleet).

    `check` is short, so a pass runs it between the other commands, where
    it samples the machine at several moments."""

    name = "fleet-1000"
    eval_ops = ("report", "compare")

    def __init__(self, work: Path, seed: int, smoke: bool):
        super().__init__(work, seed, smoke)
        self.n = 20 if smoke else 1000
        self.pre = work / "pre"
        self.check_trace = self.pre / f"trace_{seed + random.Random(seed).randrange(self.n):06d}.csv"
        self.digests: dict[str, str] = {}  # fleet directory -> content digest
        self.reference_post: Path | None = None

    def _simulate(self, policy: str, out: Path) -> tuple[str, ...]:
        return ("simulate", "--preset", "--policy", policy, "--n", str(self.n),
                "--seed", str(self.seed), "--out", str(out))

    def setup(self) -> None:
        shutil.rmtree(self.pre, ignore_errors=True)
        rc = run_cli(self._simulate("pre", self.pre), self.work / "setup.out")[1]
        if rc != 0:
            raise RuntimeError(f"simulating the pre fleet exited {rc}")

    def ops(self, tag: str) -> list[Op]:
        post = self.work / f"post-{tag}"
        shutil.rmtree(post, ignore_errors=True)
        check = Op("check", ("check", "--format", "json", "builtin:turtlebot", str(self.check_trace)))
        return [
            check,
            Op("simulate", self._simulate("post", post), post),
            check,
            Op("report", ("report", "builtin:turtlebot", str(post))),
            check,
            Op("compare", ("compare", "builtin:turtlebot", str(self.pre), str(post))),
            check,
        ]

    def after_pass(self, tag: str) -> None:
        # Every pass must write the same fleet: keep the first, and a digest
        # of each later one.
        post = self.work / f"post-{tag}"
        digest = hashlib.sha256()
        for path in sorted(post.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        self.digests[str(post)] = digest.hexdigest()
        if self.reference_post is None:
            self.reference_post = post
        else:
            shutil.rmtree(post)

    def expect(self) -> None:
        self.spec = spec = stlmon.parse_spec(builtin_spec_path("turtlebot").read_text(encoding="utf-8"))
        self.fleets = {}
        reports = {}
        for side, directory in (("pre", self.pre), ("post", self.reference_post)):
            paths = sorted(p for p in directory.iterdir() if p.suffix == ".csv")
            traces = [stlmon.load_trace_csv(p.read_bytes(), spec, trace_id=p.stem) for p in paths]
            results = [stlmon.evaluate_specification(spec, t) for t in traces]
            self.fleets[side] = list(zip(traces, results))
            reports[side] = {
                rule.name: stlmon.fleet_report(rule.name, [rs[k] for rs in results])
                for k, rule in enumerate(spec.rules)
            }

        def side(r):
            return {"n": r.n_traces, "satisfaction_pct": r.satisfaction_pct, "trv": r.trv, "lrv": r.lrv}

        compare = {}
        for name, pre in reports["pre"].items():
            post = reports["post"][name]
            c = stlmon.compare_fleets(name, pre, post)
            change = c.satisfaction_change_pct
            compare[name] = {
                "pre": side(pre), "post": side(post), "u_statistic": c.u_statistic,
                "p_value": c.p_value, "method": c.method, "alpha": c.alpha,
                "significant": c.significant,
                "satisfaction_change_pct": "n/a" if math.isinf(change) else change,
            }
        report = {name: dict(side(r), rho=list(r.rho_values)) for name, r in reports["post"].items()}
        rows = [(t.id, r) for t, rs in self.fleets["pre"] if t.id == self.check_trace.stem for r in rs]
        self.expected = {
            "report": (0, report),
            "compare": (0, compare),
            "check": (_check_rc(rows), _check_payload(rows)),
        }
        self.simulate_ok = self._simulate_matches_library()

    def _simulate_matches_library(self) -> bool:
        """A seeded subset of the CLI's post fleet equals the library's output."""
        cfg, _, post = stlmon.builtin_presets()
        names = [p.name for p in self.reference_post.iterdir() if p.suffix == ".csv"]
        if len(names) != self.n or not (self.reference_post / "manifest.txt").is_file():
            return False
        for i in random.Random(self.seed + 1).sample(range(self.n), min(8, self.n)):
            episode = stlmon.simulate_episode(cfg, post, self.seed + i)
            path = self.reference_post / f"trace_{self.seed + i:06d}.csv"
            if path.read_text(encoding="utf-8") != stlmon.write_trace_csv(episode.trace):
                return False
        return True

    def verify(self, op: Op, rc: int, stdout: bytes) -> bool:
        if op.name == "simulate":
            return (
                rc == 0
                and self.simulate_ok
                and stdout.startswith(f"wrote {self.n} traces".encode())
                and self.digests.get(str(op.out_dir)) == self.digests[str(self.reference_post)]
            )
        return super().verify(op, rc, stdout)

    def samples(self) -> int:
        # report evaluates the post fleet, compare the pre and post fleets
        return sum(len(t) for side in ("post", "pre", "post") for t, _ in self.fleets[side])

    def oracle_ok(self, reference) -> bool:
        pairs = self.fleets["pre"] + self.fleets["post"]
        chosen = random.Random(self.seed).sample(pairs, min(ORACLE_TRACES, len(pairs)))
        chosen += [(t, rs) for t, rs in self.fleets["pre"] if t.id == self.check_trace.stem]
        return all(
            reference.naive_rho(rule.formula, trace) == r.rho
            for trace, rs in chosen
            for rule, r in zip(self.spec.rules, rs)
        )

    def kernel_cases(self):
        return self.spec, {"fleet": [t for t, _ in self.fleets["post"]]}


class UntilWorkload(Workload):
    """Until-heavy rules on synthetic JSON traces of growing length."""

    name = "until-json"

    def __init__(self, work: Path, seed: int, smoke: bool):
        super().__init__(work, seed, smoke)
        self.sizes = (100, 400, 1600) if smoke else (1000, 4000, 16000)
        self.paths = [work / f"until-{n}.json" for n in self.sizes]

    def setup(self) -> None:
        for n, path in zip(self.sizes, self.paths):
            signals = synthetic_signals(np.random.default_rng([self.seed, n]), n)
            path.write_text(_json_text(f"until-{n}", signals), encoding="utf-8")

    def ops(self, tag: str) -> list[Op]:
        return [Op("check", ("check", "--format", "json", str(UNTIL_SPEC), *map(str, self.paths)))]

    def expect(self) -> None:
        self.spec = stlmon.parse_spec(UNTIL_SPEC.read_text(encoding="utf-8"))
        self.traces = [stlmon.load_trace_json(p.read_bytes(), self.spec) for p in self.paths]
        rows = [(t.id, r) for t in self.traces for r in stlmon.evaluate_specification(self.spec, t)]
        self.rows = rows
        self.expected = {"check": (_check_rc(rows), _check_payload(rows))}

    def samples(self) -> int:
        return sum(self.sizes)

    def oracle_ok(self, reference) -> bool:
        shortest = self.traces[0]
        got = {r.rule_name: r.rho for tid, r in self.rows if tid == shortest.id}
        return all(reference.naive_rho(rule.formula, shortest) == got[rule.name]
                   for rule in self.spec.rules)

    def kernel_cases(self):
        return self.spec, {str(n): [t] for n, t in zip(self.sizes, self.traces)}


class LongCsvWorkload(Workload):
    """One long synthetic turtlebot-schema CSV checked against the turtlebot rules."""

    name = "long-csv"

    def __init__(self, work: Path, seed: int, smoke: bool):
        super().__init__(work, seed, smoke)
        self.n = 5000 if smoke else 250_000
        self.path = work / "long.csv"

    def setup(self) -> None:
        signals = synthetic_signals(np.random.default_rng([self.seed, self.n]), self.n)
        self.path.write_text(_csv_text(signals), encoding="utf-8")

    def ops(self, tag: str) -> list[Op]:
        return [Op("check", ("check", "--format", "json", "builtin:turtlebot", str(self.path)))]

    def expect(self) -> None:
        self.spec = stlmon.parse_spec(builtin_spec_path("turtlebot").read_text(encoding="utf-8"))
        self.trace = stlmon.load_trace_csv(self.path.read_bytes(), self.spec, trace_id=self.path.stem)
        rows = [(self.trace.id, r) for r in stlmon.evaluate_specification(self.spec, self.trace)]
        self.expected = {"check": (_check_rc(rows), _check_payload(rows))}

    def samples(self) -> int:
        return self.n

    def kernel_cases(self):
        return self.spec, {"long": [self.trace]}


WORKLOADS = {w.name: w for w in (FleetWorkload, UntilWorkload, LongCsvWorkload)}
