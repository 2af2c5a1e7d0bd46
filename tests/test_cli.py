"""End-to-end CLI fixtures: exit codes, report schema, output stability."""

import gc
import importlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stlmon
import stlmon.cli
from stlmon.cli import BLOCK_SAMPLES, builtin_spec_path, run

ROOT = Path(__file__).resolve().parents[1]

SPEC_SRC = """\
signal speed : real
rule speed_limit: G[0, inf] (speed < 900)
"""

COMPLIANT = "time,speed\n0,850\n1,870\n2,860\n"
BREACHING = "time,speed\n0,850\n1,950\n2,860\n"


@pytest.fixture
def workspace(tmp_path):
    spec = tmp_path / "rules.stl"
    spec.write_text(SPEC_SRC)
    ok = tmp_path / "ok.csv"
    ok.write_text(COMPLIANT)
    bad = tmp_path / "bad.csv"
    bad.write_text(BREACHING)
    return tmp_path


def fill_dir(path, rhos):
    """Directory of single-signal traces whose speed-limit rho is as given."""
    path.mkdir(exist_ok=True)
    for i, rho in enumerate(rhos):
        v = 900 - rho
        (path / f"t{i:03d}.csv").write_text(f"time,speed\n0,{v}\n1,{v}\n")
    return path


def fault_on_each_cpu_count(monkeypatch, capsys, argv) -> str:
    """Run `argv` as if on 1, 2 and 3 CPUs. Each run must exit 2 with no
    output and the same one error; that error is returned."""
    errors = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(stlmon.cli, "_cpu_count", lambda n=cpus: n)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[1:] == errors[:1] * 2, errors
    return errors[0]


class TestCheck:
    def test_compliant_trace_exits_zero(self, workspace, capsys):
        code = run(["check", str(workspace / "rules.stl"), str(workspace / "ok.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "Satisfied" in out
        assert "rho=30" in out

    def test_violation_exits_one(self, workspace, capsys):
        code = run(["check", str(workspace / "rules.stl"), str(workspace / "bad.csv")])
        out = capsys.readouterr().out
        assert code == 1
        assert "Violated" in out
        assert "rho=-50" in out

    def test_missing_trace_exits_two(self, workspace, capsys):
        code = run(["check", str(workspace / "rules.stl"), str(workspace / "nope.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_spec_exits_two(self, workspace, capsys):
        bad_spec = workspace / "broken.stl"
        bad_spec.write_text("rule r: velocity < 1\n")
        code = run(["check", str(bad_spec), str(workspace / "ok.csv")])
        assert code == 2
        assert "unknown signal" in capsys.readouterr().err

    def test_json_format(self, workspace, capsys):
        code = run(["check", str(workspace / "rules.stl"), str(workspace / "ok.csv"),
                    "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [
            {"trace": "ok", "rule": "speed_limit", "rho": 30.0, "verdict": "Satisfied"}
        ]

    def test_profile_out_writes_node_series(self, workspace, capsys, tmp_path):
        prof_dir = tmp_path / "profiles"
        code = run(["check", str(workspace / "rules.stl"), str(workspace / "ok.csv"),
                    "--profile-out", str(prof_dir)])
        assert code == 0
        csv_file = prof_dir / "ok__speed_limit.csv"
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "time,root,root.child"
        assert lines[1] == "0,30,50"


class TestReport:
    def test_json_schema_and_values(self, workspace, capsys, tmp_path):
        fill_dir(tmp_path / "fleet", [1.5, -0.5, 2.0])
        code = run(["report", str(workspace / "rules.stl"), str(tmp_path / "fleet")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["speed_limit"]
        assert entry["n"] == 3
        assert entry["trv"] == 3.0
        assert entry["lrv"] == -0.5
        assert round(entry["satisfaction_pct"], 1) == 66.7
        assert entry["rho"] == [1.5, -0.5, 2.0]

    def test_empty_directory_exits_two(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["report", str(workspace / "rules.stl"), str(empty)]) == 2

    def test_unreadable_trace_fails_fast_naming_file(self, workspace, tmp_path, capsys):
        fleet = fill_dir(tmp_path / "fleet", [1.0])
        (fleet / "corrupt.csv").write_text("time,speed\n0,850\n")  # single row
        code = run(["report", str(workspace / "rules.stl"), str(fleet)])
        assert code == 2
        assert "corrupt.csv" in capsys.readouterr().err

    def test_byte_identical_output(self, workspace, tmp_path, capsys):
        fill_dir(tmp_path / "fleet", [3.0, -1.0, 0.25])
        args = ["report", str(workspace / "rules.stl"), str(tmp_path / "fleet")]
        run(args)
        first = capsys.readouterr().out
        run(args)
        assert capsys.readouterr().out == first

    def test_concatenated_directories_merge(self, workspace, tmp_path, capsys):
        a = fill_dir(tmp_path / "a", [1.0, 2.0])
        b = fill_dir(tmp_path / "b", [-3.0, 0.5, 4.0])
        both = tmp_path / "both"
        both.mkdir()
        for i, src in enumerate(sorted(a.iterdir()) + sorted(b.iterdir())):
            (both / f"u{i:03d}.csv").write_text(src.read_text())

        def fetch(d):
            run(["report", str(workspace / "rules.stl"), str(d)])
            return json.loads(capsys.readouterr().out)["speed_limit"]

        ra, rb, rall = fetch(a), fetch(b), fetch(both)
        assert rall["trv"] == pytest.approx(ra["trv"] + rb["trv"], abs=1e-12)
        assert rall["lrv"] == min(ra["lrv"], rb["lrv"])
        assert rall["n"] == ra["n"] + rb["n"]

    def test_table_format_rows(self, workspace, tmp_path, capsys):
        fill_dir(tmp_path / "fleet", [1.5, -0.5, 2.0])
        run(["report", str(workspace / "rules.stl"), str(tmp_path / "fleet"),
             "--format", "table"])
        out = capsys.readouterr().out
        assert "Satisfaction Percentage" in out
        assert "TRV" in out and "LRV" in out
        assert "66.7%" in out

    def test_traces_in_case_sensitive_file_name_order(self, workspace, tmp_path, capsys):
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        names = ["b.csv", "B.csv", "a10.csv", "a9.csv", "a.json", "a_1.csv", "a.csv"]
        for rho, name in enumerate(names):
            v = 900 - rho
            (fleet / name).write_text(
                f'{{"id": "j", "dt": 1, "signals": {{"speed": [{v}, {v}]}}}}'
                if name.endswith(".json") else f"time,speed\n0,{v}\n1,{v}\n")
        assert run(["report", str(workspace / "rules.stl"), str(fleet)]) == 0
        rho = json.loads(capsys.readouterr().out)["speed_limit"]["rho"]
        assert rho == [float(names.index(n)) for n in sorted(names)]


class TestCompare:
    def test_identical_directories(self, workspace, tmp_path, capsys):
        fill_dir(tmp_path / "fleet", [1.0, -1.0, 2.0])
        code = run(["compare", str(workspace / "rules.stl"),
                    str(tmp_path / "fleet"), str(tmp_path / "fleet")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["speed_limit"]
        assert payload["satisfaction_change_pct"] == 0.0
        assert payload["p_value"] > 0.9
        assert payload["significant"] is False

    def test_separated_fleets_flagged_significant(self, workspace, tmp_path, capsys):
        fill_dir(tmp_path / "pre", [-(1 + 0.01 * i) for i in range(30)])
        fill_dir(tmp_path / "post", [1 + 0.01 * i for i in range(30)])
        code = run(["compare", str(workspace / "rules.stl"),
                    str(tmp_path / "pre"), str(tmp_path / "post")])
        assert code == 0  # analysis, not a gate
        payload = json.loads(capsys.readouterr().out)["speed_limit"]
        assert payload["significant"] is True
        assert payload["p_value"] < 0.05
        assert payload["satisfaction_change_pct"] == "n/a"  # pre satisfied nothing

    def test_table_shows_rounded_change(self, workspace, tmp_path, capsys):
        fill_dir(tmp_path / "pre", [1.0] * 3 + [-1.0] * 7)
        fill_dir(tmp_path / "post", [2.0] * 10)
        run(["compare", str(workspace / "rules.stl"),
             str(tmp_path / "pre"), str(tmp_path / "post"), "--format", "table"])
        out = capsys.readouterr().out
        assert "+233%" in out  # 30% -> 100% satisfaction
        assert "Pre-Analysis" in out and "Post-Analysis" in out

    def test_bad_alpha_exits_two(self, workspace, tmp_path):
        fill_dir(tmp_path / "fleet", [1.0])
        assert run(["compare", str(workspace / "rules.stl"), str(tmp_path / "fleet"),
                    str(tmp_path / "fleet"), "--alpha", "1.5"]) == 2


class TestSimulate:
    def test_preset_writes_traces_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        code = run(["simulate", "--preset", "--policy", "pre", "--n", "3",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "manifest.txt", "trace_000007.csv", "trace_000008.csv", "trace_000009.csv",
        ]
        manifest = (out / "manifest.txt").read_text()
        assert "policy = pre" in manifest
        assert "base_seed = 7" in manifest
        assert "angular_menu" in manifest

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--preset", "--policy", "post", "--n", "2",
                        "--seed", "3", "--out", str(out)]) == 0
        for name in ("trace_000003.csv", "trace_000004.csv", "manifest.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_episodes_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--preset", "--policy", "pre", "--n", "0",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --n must be >= 1\n")
        assert not (tmp_path / "x").exists()

    def test_config_file_simulation(self, tmp_path, capsys):
        from stlmon import builtin_presets
        from stlmon.sim import format_config

        cfg, pre, post = builtin_presets()
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(format_config(cfg, {"pre": pre, "post": post}))
        out = tmp_path / "fleet"
        code = run(["simulate", "--config", str(cfg_file), "--policy", "post",
                    "--n", "2", "--seed", "0", "--out", str(out)])
        assert code == 0
        # identical to the preset path given identical parameters
        preset_out = tmp_path / "fleet2"
        run(["simulate", "--preset", "--policy", "post", "--n", "2",
             "--seed", "0", "--out", str(preset_out)])
        assert (out / "trace_000000.csv").read_bytes() == (
            preset_out / "trace_000000.csv"
        ).read_bytes()

    def test_config_defined_policy_simulates(self, tmp_path, capsys):
        from stlmon.sim import format_config

        cfg, pre, _ = stlmon.builtin_presets()
        cfg_file = tmp_path / "fast.cfg"
        cfg_file.write_text(format_config(cfg, {"fast": pre}))
        out = tmp_path / "fleet"
        code = run(["simulate", "--config", str(cfg_file), "--policy", "fast",
                    "--n", "2", "--out", str(out)])
        assert code == 0
        assert "policy = fast\n" in (out / "manifest.txt").read_text()
        capsys.readouterr()
        code = run(["simulate", "--preset", "--policy", "fast", "--n", "2",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "error: config defines no policy 'fast'\n"
        assert not (tmp_path / "x").exists()

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("dt = -1\n")
        code = run(["simulate", "--config", str(cfg_file), "--policy", "pre",
                    "--n", "1", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_simulated_fleet_loads_under_builtin_spec(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        run(["simulate", "--preset", "--policy", "post", "--n", "2",
             "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        code = run(["report", "builtin:turtlebot", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"no_sharp_turns", "timed_completion", "dont_linger"}

    def test_out_naming_a_file_exits_two_before_any_episode(self, tmp_path, monkeypatch, capfd):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        ran = []
        monkeypatch.setattr(stlmon.cli, "simulate_fleet", lambda *a: ran.append(a) or [])
        code = run(["simulate", "--preset", "--policy", "pre", "--n", "3", "--out", str(out)])
        assert code == 2
        err = capfd.readouterr().err
        assert err.startswith(f"error: cannot write fleet to {out}: ")
        assert err.count("\n") == 1
        assert ran == []
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_write_error_in_a_worker_exits_two(self, tmp_path, monkeypatch, capfd, cpus):
        import multiprocessing

        monkeypatch.setattr(stlmon.cli, "_cpu_count", lambda: cpus)
        write_text = Path.write_text

        def failing(path, *args, **kwargs):  # forked workers inherit the patch
            if path.name == "trace_000020.csv":
                raise IsADirectoryError(21, "Is a directory", str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        out = tmp_path / "fleet"
        code = run(["simulate", "--preset", "--policy", "post", "--n", "40",
                    "--seed", "7", "--out", str(out)])
        assert code == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write fleet to {out}: ")
        assert "trace_000020.csv" in captured.err
        assert captured.err.count("\n") == 1  # one line: no traceback from any process
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.txt").exists()

    def test_non_empty_out_exits_two_before_any_episode(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "fleet"
        out.mkdir()  # an existing empty directory is allowed
        args = ["simulate", "--preset", "--policy", "pre", "--out", str(out)]
        assert run([*args, "--n", "3", "--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        ran = []
        monkeypatch.setattr(stlmon.cli, "simulate_fleet", lambda *a: ran.append(a) or [])
        assert run([*args, "--n", "1", "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write fleet to {out}: directory is not empty\n"
        assert ran == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unplaceable_goal_exits_two_and_creates_no_out(self, tmp_path, capsys):
        from stlmon.sim import format_config

        cfg, pre, post = stlmon.builtin_presets()
        text = format_config(cfg, {"pre": pre, "post": post})
        config = tmp_path / "far.cfg"
        config.write_text(text.replace("goal_sampler = 2025,1.6,1.9", "goal_sampler = 2025,8,9"))
        out = tmp_path / "fleet"
        code = run(["simulate", "--config", str(config), "--policy", "pre",
                    "--n", "5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: goal sampler cannot place a goal clear of obstacles and walls\n"
        )
        assert not out.exists()


class TestBuiltinSpecs:
    def test_builtin_paths_parse(self):
        from stlmon import parse_spec

        for name in ("mario", "turtlebot"):
            spec = parse_spec(builtin_spec_path(name).read_text(encoding="utf-8"))
            assert len(spec.rules) == 3

    def test_unknown_builtin(self, workspace, capsys):
        code = run(["check", "builtin:nope", str(workspace / "ok.csv")])
        assert code == 2

    def test_docs_rule_file_matches_bundled_specs(self):
        from stlmon import parse_spec

        docs = parse_spec((ROOT / "docs" / "rules.stl").read_text(encoding="utf-8"))
        bundled = {}
        for name in ("mario", "turtlebot"):
            spec = parse_spec(builtin_spec_path(name).read_text(encoding="utf-8"))
            bundled.update((rule.name, rule) for rule in spec.rules)
        assert sorted(rule.name for rule in docs.rules) == sorted(bundled)
        for rule in docs.rules:
            assert rule == bundled[rule.name]


class TestLayerHooks:
    """`bench/traced.py` times each layer by replacing these module attributes,
    so evaluation must keep calling through them."""

    def test_check_calls_through_module_attributes(self, tmp_path, monkeypatch, capsys):
        # the package's `robustness` function shadows the module's name
        evaluator = importlib.import_module("stlmon.robustness")
        assert callable(evaluator.eval_expr)
        calls = []
        evaluate = stlmon.cli.evaluate_specification

        def recorded(spec, *traces):
            results = evaluate(spec, *traces)
            calls.append(([t.id for t in traces], [r.rule_name for r in results]))
            return results

        monkeypatch.setattr(stlmon.cli, "evaluate_specification", recorded)
        spec = tmp_path / "r.stl"
        spec.write_text(
            "signal speed : real\nsignal done : bool\n"
            "rule a: G[0, inf] ((speed < 900) && (abs(deriv(speed)) <= 100))\n"
            "rule b: (F[0, 1] (done)) || (speed > 0)\n"
        )
        traces = [tmp_path / "t0.csv", tmp_path / "t1.csv"]
        traces[0].write_text("time,speed,done\n0,850,false\n1,870,true\n")
        traces[1].write_text("time,speed,done\n0,800,false\n1,800,false\n")
        assert run(["check", str(spec), "--format", "json", *map(str, traces)]) == 0
        # one call for the chunk, its results flat in (trace, rule) order
        assert calls == [(["t0", "t1"], ["a", "b", "a", "b"])]
        rows = json.loads(capsys.readouterr().out)
        assert [(r["trace"], r["rule"], r["rho"]) for r in rows] == [
            ("t0", "a", 30.0), ("t0", "b", 850.0), ("t1", "a", 100.0), ("t1", "b", 800.0),
        ]


class TestOneFileAtATime:
    """`check`, `report` and `compare` share one loop that reads and decodes
    trace files in path order and evaluates them a chunk at a time, so all
    three report the first faulty file in path order, whatever the kind of
    fault."""

    @pytest.fixture
    def faulty_dir(self, tmp_path):
        (tmp_path / "r.stl").write_text("signal x : real\nsignal y : real\nrule r: y > 0\n")
        d = tmp_path / "d"
        d.mkdir()
        (d / "a.csv").write_text("time,x\n0,1\n1,2\n")  # evaluation fault: no y
        (d / "b.csv").write_text("time,x,y\n0,1,1\n")  # decode fault: one row
        return tmp_path

    @pytest.mark.parametrize("command", ["check", "report", "compare"])
    def test_first_faulty_file_in_path_order_is_reported(
        self, faulty_dir, command, monkeypatch, capsys
    ):
        d = faulty_dir / "d"
        targets = {
            "check": [str(d / "a.csv"), str(d / "b.csv")],
            "report": [str(d)],
            "compare": [str(d), str(d)],
        }
        argv = [command, str(faulty_dir / "r.stl"), *targets[command]]
        assert fault_on_each_cpu_count(monkeypatch, capsys, argv) == (
            "error: trace 'a': rule 'r': signal 'y' missing from trace 'a'\n"
        )

    def test_compare_lists_both_directories_before_reading_a_file(self, faulty_dir, capsys):
        missing = faulty_dir / "missing"
        assert run(["compare", str(faulty_dir / "r.stl"), str(faulty_dir / "d"),
                    str(missing)]) == 2
        assert capsys.readouterr().err == f"error: not a directory: {missing}\n"

    @staticmethod
    def log_calls(monkeypatch):
        """Log each CSV file split into lines, with its row count; each
        parse of a run of CSV bodies, with their trace ids; each JSON and
        each one-file CSV load; each evaluation call with its traces; and
        each one-trace profile call, all made in this process: on one CPU,
        `report` and `compare` start no worker whose calls would be lost."""
        monkeypatch.setattr(stlmon.cli, "_cpu_count", lambda: 1)
        log = []
        split = stlmon.cli.split_trace_csv
        parse = stlmon.cli.load_csv_bodies
        load = stlmon.cli.load_trace_csv
        load_json = stlmon.cli.load_trace_json

        def logged_split(data, spec):
            decls, body = split(data, spec)
            log.append(("split", len(body)))
            return decls, body

        def logged_parse(decls, bodies, ids):
            log.append(("parse", tuple(ids)))
            return parse(decls, bodies, ids)

        def logged_load(data, spec, trace_id):
            log.append(("load", trace_id))
            return load(data, spec, trace_id=trace_id)

        def logged_json(data, spec):
            trace = load_json(data, spec)
            log.append(("json", trace.id))
            return trace

        def logged(evaluate):
            def call(spec, *traces):
                log.append(("evaluate", tuple(t.id for t in traces), sum(map(len, traces))))
                return evaluate(spec, *traces)
            return call

        monkeypatch.setattr(stlmon.cli, "split_trace_csv", logged_split)
        monkeypatch.setattr(stlmon.cli, "load_csv_bodies", logged_parse)
        monkeypatch.setattr(stlmon.cli, "load_trace_csv", logged_load)
        monkeypatch.setattr(stlmon.cli, "load_trace_json", logged_json)
        for name in ("evaluate_specification", "profile_specification"):
            monkeypatch.setattr(stlmon.cli, name, logged(getattr(stlmon.cli, name)))
        evaluator = importlib.import_module("stlmon.robustness")
        one_row = evaluator.robustness_profile

        def logged_profile(*args, **kwargs):
            log.append(("robustness_profile",))
            return one_row(*args, **kwargs)

        monkeypatch.setattr(evaluator, "robustness_profile", logged_profile)
        monkeypatch.setattr(stlmon.cli, "robustness_profile", logged_profile, raising=False)
        return log

    @pytest.mark.parametrize("command", ["check", "check --profile-out", "report", "compare"])
    def test_each_chunk_is_evaluated_with_one_call(self, workspace, tmp_path, monkeypatch, command):
        fleet = fill_dir(tmp_path / "fleet", [1.0, 2.0, 3.0])
        log = self.log_calls(monkeypatch)
        targets = {
            "check": sorted(map(str, fleet.iterdir())),
            "check --profile-out": [*sorted(map(str, fleet.iterdir())),
                                    "--profile-out", str(tmp_path / "prof")],
            "report": [str(fleet)],
            "compare": [str(fleet), str(fleet)],
        }
        assert run([command.split()[0], str(workspace / "rules.stl"), *targets[command]]) == 0
        # one parse and one evaluation for the chunk's three files
        one_pass = [("split", 2), ("split", 2), ("split", 2),
                    ("parse", ("t000", "t001", "t002")),
                    ("evaluate", ("t000", "t001", "t002"), 6)]
        assert log == one_pass * (2 if command == "compare" else 1)

    def test_fleet_over_the_budget_is_evaluated_in_several_chunks(
        self, workspace, tmp_path, monkeypatch
    ):
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        piece = BLOCK_SAMPLES // 3
        lengths = [piece] * 4 + [BLOCK_SAMPLES + 5] + [piece] * 2
        for i, n in enumerate(lengths):
            rows = "".join(f"{t},{850 + t % 7}\n" for t in range(n))
            (fleet / f"t{i:02d}.csv").write_text("time,speed\n" + rows)
        log = self.log_calls(monkeypatch)
        assert run(["report", str(workspace / "rules.stl"), str(fleet)]) == 0
        ids = [f"t{i:02d}" for i in range(len(lengths))]
        assert [entry[1] for entry in log if entry[0] == "split"] == lengths
        assert [i for entry in log if entry[0] == "parse" for i in entry[1]] == ids
        calls = [entry[1:] for entry in log if entry[0] == "evaluate"]
        assert [i for traces, _ in calls for i in traces] == ids
        assert len(calls) == 4
        for traces, samples in calls:
            assert samples <= BLOCK_SAMPLES or len(traces) == 1
        # a chunk is parsed and evaluated as soon as the next file's row
        # count does not fit in it
        split = [("split", n) for n in lengths]
        assert log == [
            *split[:4], ("parse", tuple(ids[:3])), ("evaluate", tuple(ids[:3]), 3 * piece),
            split[4], ("parse", (ids[3],)), ("evaluate", (ids[3],), piece),
            split[5], ("parse", (ids[4],)), ("evaluate", (ids[4],), BLOCK_SAMPLES + 5),
            split[6], ("parse", tuple(ids[5:])), ("evaluate", tuple(ids[5:]), 2 * piece),
        ]
        # a decode fault in the last file comes after every earlier chunk
        # and the part of its own chunk before it are evaluated
        (fleet / "t06.csv").write_text("time,speed\n" + rows.replace("\n", ",\n", 1))
        log.clear()
        assert run(["report", str(workspace / "rules.stl"), str(fleet)]) == 2
        assert log[-4:] == [
            ("evaluate", (ids[4],), BLOCK_SAMPLES + 5), split[6],
            ("parse", tuple(ids[5:])), ("evaluate", (ids[5],), piece),
        ]

    def test_mixed_runs_with_a_bad_cell_after_an_evaluation_fault(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "r.stl").write_text("signal x : real\nsignal y : real\nrule r: y > 0\n")
        d = tmp_path / "d"
        d.mkdir()
        (d / "a.csv").write_text("time,x,y\n0,1,1\n1,2,2\n")
        (d / "b.csv").write_text("time,y,x\n0,1,1\n1,2,2\n")  # the header changes
        (d / "c.json").write_text('{"id": "c", "dt": 1, "signals": {"x": [1, 2], "y": [1, 2]}}')
        (d / "d.csv").write_text("time,y,x\n0,1,1\n1,2,2\n")  # b's header, after a JSON file
        (d / "e.csv").write_text("time,x\n0,1\n1,2\n")  # evaluation fault: no y
        (d / "f.csv").write_text("time,x\n0,1\n1,zz\n")  # decode fault: a bad cell
        log = self.log_calls(monkeypatch)
        out = tmp_path / "prof"
        argv = ["check", str(tmp_path / "r.stl"), *sorted(map(str, d.iterdir())),
                "--profile-out", str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace 'e': rule 'r': signal 'y' missing from trace 'e'\n"
        assert not out.exists()
        # one parse per run of one header; the run with the bad cell yields
        # e before it raises at f, and the files before f are evaluated with
        # one call
        assert log == [
            ("split", 2), ("split", 2), ("json", "c"), ("split", 2), ("split", 2), ("split", 2),
            ("parse", ("a",)), ("parse", ("b",)), ("parse", ("d",)), ("parse", ("e", "f")),
            ("evaluate", ("a", "b", "c", "d", "e"), 10),
        ]
        # without the evaluation fault, f's cell is the error, after the
        # profiles of the files before it are written
        (d / "e.csv").write_text("time,x,y\n0,1,1\n1,2,2\n")
        log.clear()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {d / 'f.csv'}: row 3, column 2: bad real value 'zz'\n"
        assert sorted(p.name for p in out.iterdir()) == [f"{t}__r.csv" for t in "abcde"]
        assert log[-2:] == [("parse", ("f",)), ("evaluate", ("a", "b", "c", "d", "e"), 10)]


class TestFleetOutputs:
    """`report` and `compare` split their files over worker processes; what
    they print must not depend on how many there are."""

    @pytest.fixture(scope="class")
    def fleets(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fleets")
        for policy in ("pre", "post"):
            assert run(["simulate", "--preset", "--policy", policy, "--n", "40",
                        "--seed", "7", "--out", str(root / policy)]) == 0
        return root

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_outputs_do_not_depend_on_the_cpu_count(self, fleets, fmt, monkeypatch, capsys):
        capsys.readouterr()
        commands = [["report", str(fleets / "pre")], ["report", str(fleets / "post")],
                    ["compare", str(fleets / "pre"), str(fleets / "post")]]
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(stlmon.cli, "_cpu_count", lambda n=cpus: n)
            for command, *dirs in commands:
                assert run([command, "builtin:turtlebot", *dirs, "--format", fmt]) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                outputs.append(captured.out)
        one_cpu = outputs[:3]
        assert ('"n": 40' if fmt == "json" else "(n=40)") in one_cpu[0]
        assert outputs == one_cpu * 3


class TestChunkFaultOrder:
    """Chunking keeps the reported fault that of the first faulty file in
    path order, and within it the first faulty rule in evaluation order,
    with the same message as when each file is evaluated alone."""

    @staticmethod
    def spec(tmp_path, text="signal x : real\nsignal y : real\nrule r: y > 0\n"):
        (tmp_path / "r.stl").write_text(text)
        return str(tmp_path / "r.stl")

    @staticmethod
    def targets(command, d):
        return {
            "check": sorted(map(str, d.iterdir())),
            "report": [str(d)],
            "compare": [str(d), str(d)],
        }[command]

    @pytest.mark.parametrize("command", ["check", "report", "compare"])
    def test_evaluation_fault_before_a_decode_fault_in_one_chunk(
        self, tmp_path, command, monkeypatch, capsys
    ):
        d = tmp_path / "d"
        d.mkdir()
        for name in ("f1", "f3", "f4"):
            (d / f"{name}.csv").write_text("time,x,y\n0,1,1\n1,2,2\n")
        (d / "f2.csv").write_text("time,x\n0,1\n1,2\n")  # evaluation fault: no y
        (d / "f5.csv").write_text("time,x,y\n0,1,1\n")  # decode fault: one row
        argv = [command, self.spec(tmp_path), *self.targets(command, d)]
        assert fault_on_each_cpu_count(monkeypatch, capsys, argv) == (
            "error: trace 'f2': rule 'r': signal 'y' missing from trace 'f2'\n"
        )

    @pytest.mark.parametrize("command", ["check", "report", "compare"])
    def test_earlier_path_then_earliest_rule_in_one_block(
        self, tmp_path, command, monkeypatch, capsys
    ):
        spec = self.spec(
            tmp_path,
            "signal x : real\nsignal y : real\nsignal z : real\n"
            "rule r1: G[0, inf] (y > 0)\nrule r2: (x > 0) && (z > 0)\n",
        )
        d = tmp_path / "d"
        d.mkdir()
        (d / "a.csv").write_text("time,x,y\n0,1,1\n1,2,2\n")  # r2 faults: no z
        (d / "b.csv").write_text("time,x\n0,1\n1,2\n")  # r1 and r2 fault
        argv = [command, spec, *self.targets(command, d)]
        assert fault_on_each_cpu_count(monkeypatch, capsys, argv) == (
            "error: trace 'a': rule 'r2': signal 'z' missing from trace 'a'\n"
        )
        (d / "a.csv").write_text("time,x\n0,1\n1,2\n")  # now r1 faults first
        assert fault_on_each_cpu_count(monkeypatch, capsys, argv) == (
            "error: trace 'a': rule 'r1': signal 'y' missing from trace 'a'\n"
        )

    @pytest.mark.parametrize("command", ["check", "report", "compare"])
    def test_fault_in_the_first_file_after_a_chunk_boundary(
        self, tmp_path, command, monkeypatch, capsys
    ):
        d = tmp_path / "d"
        d.mkdir()
        n = BLOCK_SAMPLES // 4
        good = "time,x,y\n" + "".join(f"{t},1,{t + 1}\n" for t in range(n))
        for i in range(4):  # exactly fills the first chunk
            (d / f"f{i}.csv").write_text(good)
        (d / "f4.csv").write_text("time,x,y\n0,1,1\n1,2,0\n2,3,-1\n")  # rho -1: no fault
        (d / "f5.csv").write_text("time,x\n0,1\n1,2\n")  # evaluation fault
        (d / "f6.csv").write_text("time,x,y\n0,1\n")  # decode fault
        argv = [command, self.spec(tmp_path), *self.targets(command, d)]
        assert fault_on_each_cpu_count(monkeypatch, capsys, argv) == (
            "error: trace 'f5': rule 'r': signal 'y' missing from trace 'f5'\n"
        )

    def test_unaligned_interval_under_mixed_dt(self, tmp_path, monkeypatch, capsys):
        spec = self.spec(tmp_path, "signal x : real\nrule al: G[0, 0.25] (x > 0)\n")
        d = tmp_path / "d"
        d.mkdir()
        for name, dt in (("a", 0.05), ("b", 0.1), ("c", 0.05), ("d", 0.1)):
            (d / f"{name}.json").write_text(json.dumps(
                {"id": name, "dt": dt, "signals": {"x": [1, 2, 3]}}
            ))
        for command in ("check", "report", "compare"):
            argv = [command, spec, *self.targets(command, d)]
            assert fault_on_each_cpu_count(monkeypatch, capsys, argv) == (
                "error: trace 'b': rule 'al': interval bound 0.25 is not a whole number "
                "of samples at dt=0.1\n"
            )


class TestProfileOut:
    def test_duplicate_trace_id_exits_two_before_overwriting(self, tmp_path, capsys):
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nrule r: x > 0\n")
        paths = []
        for sub, x in (("d1", 1), ("d2", 5)):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "a.csv")
            paths[-1].write_text(f"time,x\n0,{x}\n1,{x}\n")
        prof = tmp_path / "prof"
        assert run(["check", str(spec), *map(str, paths), "--profile-out", str(prof)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace 'a': duplicate id for --profile-out\n"
        # the first trace's profile stays, and nothing else was written
        assert sorted(p.name for p in prof.iterdir()) == ["a__r.csv"]
        assert (prof / "a__r.csv").read_text() == "time,root\n0,1\n1,1\n"

    @pytest.mark.parametrize("trace_id", ["../escaped", "sub/dir", "back\\slash", "nul\u0000"])
    def test_path_like_trace_id_exits_two_and_writes_nothing(self, tmp_path, trace_id, capsys):
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nrule r: x > 0\n")
        trace = tmp_path / "j.json"
        trace.write_text(json.dumps({"id": trace_id, "dt": 1, "signals": {"x": [1, 2]}}))
        before = sorted(tmp_path.rglob("*"))
        code = run(["check", str(spec), str(trace), "--profile-out", str(tmp_path / "prof")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: trace '{trace_id}': id must be a plain file name for --profile-out\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    def test_chunk_profiles_match_one_trace_profiles(self, tmp_path):
        from stlmon import Series, SignalKind, load_trace_csv, parse_spec, robustness_profile
        from stlmon.traces import write_columns_csv

        text = (
            "signal x : real\nsignal y : real\n"
            "rule a: (G[0, 2] (abs(deriv(x)) < 3)) && (F[0, 1] (abs(deriv(x)) < 3))\n"
            "rule b: (y > 0) U[1, inf] (abs(deriv(x)) >= 3)\n"
        )
        (tmp_path / "r.stl").write_text(text)
        d = tmp_path / "d"
        d.mkdir()
        # one chunk of ragged traces: lengths 4, 5 and 7 share a block, 2 has its own
        for name, n in (("p", 4), ("q", 7), ("s", 2), ("t", 5)):
            rows = "".join(f"{i},{(i * i) % 5 - 1},{2 - i}\n" for i in range(n))
            (d / f"{name}.csv").write_text("time,x,y\n" + rows)
        prof = tmp_path / "prof"
        paths = sorted(d.iterdir())
        assert run(["check", str(tmp_path / "r.stl"), *map(str, paths), "--profile-out", str(prof)]) == 1
        spec = parse_spec(text)
        expected = {}
        for path in paths:
            trace = load_trace_csv(path.read_bytes(), spec, trace_id=path.stem)
            for rule in spec.rules:
                profile = robustness_profile(rule.formula, trace, rule.name)
                columns = {p: Series(SignalKind.REAL, s) for p, s in sorted(profile.series.items())}
                expected[f"{trace.id}__{rule.name}.csv"] = write_columns_csv(trace.times, columns)
        assert {p.name: p.read_text() for p in prof.iterdir()} == expected


class TestWriteErrors:
    """An output that cannot be written exits 2 with one named error line."""

    @staticmethod
    def assert_one_error(capsys, err):
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")

    @pytest.mark.parametrize("command", ["report", "compare"])
    def test_out_in_a_missing_directory(self, workspace, command, capsys):
        out = workspace / "missing" / "x.json"
        dirs = [str(workspace)] * (2 if command == "compare" else 1)
        assert run([command, str(workspace / "rules.stl"), *dirs, "--out", str(out)]) == 2
        self.assert_one_error(
            capsys, f"cannot write {out}: [Errno 2] No such file or directory: '{out}'"
        )
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["report", "compare"])
    def test_out_naming_a_directory(self, workspace, command, capsys):
        out = workspace / "taken"
        out.mkdir()
        dirs = [str(workspace)] * (2 if command == "compare" else 1)
        args = [command, str(workspace / "rules.stl"), *dirs, "--format", "table"]
        assert run([*args, "--out", str(out)]) == 2
        self.assert_one_error(capsys, f"cannot write {out}: [Errno 21] Is a directory: '{out}'")

    def test_profile_out_naming_a_file(self, workspace, capsys):
        out = workspace / "taken"
        out.write_text("not a directory\n")
        args = ["check", str(workspace / "rules.stl"), str(workspace / "ok.csv")]
        assert run([*args, "--profile-out", str(out)]) == 2
        self.assert_one_error(
            capsys, f"cannot write profiles to {out}: [Errno 17] File exists: '{out}'"
        )
        assert out.read_text() == "not a directory\n"


class TestEvaluationFaults:
    SPEC = "signal x : real\nsignal y : real\nrule r: y > 0\n"

    def test_profile_out_keeps_only_earlier_chunks(self, tmp_path, capsys):
        (tmp_path / "r.stl").write_text(self.SPEC)
        d = tmp_path / "d"
        d.mkdir()
        rows = "".join(f"{t},1,1\n" for t in range(BLOCK_SAMPLES))
        (d / "a.csv").write_text("time,x,y\n" + rows)  # fills the first chunk
        (d / "b.csv").write_text("time,x,y\n0,1,1\n1,2,2\n")
        (d / "c.csv").write_text("time,x\n0,1\n1,2\n")  # evaluation fault: no y
        prof = tmp_path / "prof"
        args = ["check", str(tmp_path / "r.stl"), *sorted(map(str, d.iterdir()))]
        assert run([*args, "--profile-out", str(prof)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace 'c': rule 'r': signal 'y' missing from trace 'c'\n"
        # the chunk holding b and c faults as a whole: no profile of b is written
        assert sorted(p.name for p in prof.iterdir()) == ["a__r.csv"]

    def test_profile_out_of_one_faulty_chunk_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "r.stl").write_text(self.SPEC)
        (tmp_path / "a.csv").write_text("time,x,y\n0,1,1\n1,2,2\n")
        (tmp_path / "b.csv").write_text("time,x\n0,1\n1,2\n")  # evaluation fault: no y
        prof = tmp_path / "prof"
        args = ["check", str(tmp_path / "r.stl"), str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        assert run([*args, "--profile-out", str(prof)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace 'b': rule 'r': signal 'y' missing from trace 'b'\n"
        assert not prof.exists()

    def test_other_exceptions_are_not_usage_errors(self, workspace, monkeypatch):
        def broken(spec, *traces):
            raise RuntimeError("evaluator bug")

        monkeypatch.setattr(stlmon.cli, "evaluate_specification", broken)
        with pytest.raises(RuntimeError, match="evaluator bug"):
            run(["check", str(workspace / "rules.stl"), str(workspace / "ok.csv")])

    def test_other_exceptions_in_a_worker_are_not_usage_errors(self, workspace, monkeypatch):
        import multiprocessing

        def broken(spec, *traces):  # forked workers inherit the patch
            raise RuntimeError("evaluator bug")

        monkeypatch.setattr(stlmon.cli, "_cpu_count", lambda: 2)
        monkeypatch.setattr(stlmon.cli, "evaluate_specification", broken)
        with pytest.raises(RuntimeError, match="evaluator bug"):
            run(["report", str(workspace / "rules.stl"), str(workspace)])
        assert multiprocessing.active_children() == []


class TestPoolFaults:
    """A fault stops the pool without killing a worker, and a worker that
    dies is an error, not a wait."""

    def test_faulty_file_terminates_no_worker(self, workspace, tmp_path, monkeypatch, capsys):
        from multiprocessing.process import BaseProcess

        fleet = fill_dir(tmp_path / "fleet", range(40))
        (fleet / "t013.csv").write_text("time,speed\n0,850\n")  # single row
        terminated = []
        terminate = BaseProcess.terminate

        def logged(process):
            terminated.append(process.pid)
            terminate(process)

        monkeypatch.setattr(BaseProcess, "terminate", logged)
        monkeypatch.setattr(stlmon.cli, "_cpu_count", lambda: 3)
        assert run(["report", str(workspace / "rules.stl"), str(fleet)]) == 2
        assert capsys.readouterr().err == f"error: {fleet / 't013.csv'}: fewer than 2 rows\n"
        assert terminated == []

    def test_dead_worker_is_an_error_not_a_wait(self, workspace, tmp_path):
        fleet = fill_dir(tmp_path / "fleet", range(40))
        code = (
            "import os, signal, sys, stlmon.cli\n"
            "stlmon.cli._cpu_count = lambda: 2\n"
            "evaluate = stlmon.cli.evaluate_specification\n"
            "def dying(spec, *traces):\n"
            "    if any(trace.id == 't013' for trace in traces):\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return evaluate(spec, *traces)\n"
            "stlmon.cli.evaluate_specification = dying\n"
            f"sys.exit(stlmon.cli.run(['report', {str(workspace / 'rules.stl')!r}, "
            f"{str(fleet)!r}]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stlmon.__file__).parents[1]))
        # A session of its own, so that a timeout can stop the workers too.
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("report still waiting on a dead worker after 60 s")
        assert proc.returncode == 2
        assert "BrokenProcessPool" in err
        assert err.startswith("error: report: a worker process died (BrokenProcessPool: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestEntryPoints:
    @pytest.mark.parametrize("trace", ["ok.csv", "bad.csv"])
    def test_module_forms_match_main(self, workspace, trace):
        env = dict(os.environ, PYTHONPATH=str(Path(stlmon.__file__).parents[1]))
        args = ["check", str(workspace / "rules.stl"), str(workspace / trace)]
        results = [
            subprocess.run([sys.executable, *prefix, *args], capture_output=True, env=env)
            for prefix in (
                ["-c", "from stlmon.cli import main; main()"],
                ["-m", "stlmon.cli"],
                ["-m", "stlmon"],
            )
        ]
        expected = results[0]
        assert expected.returncode == (0 if trace == "ok.csv" else 1)
        assert b"rho=" in expected.stdout
        for got in results[1:]:
            assert (got.returncode, got.stdout) == (expected.returncode, expected.stdout)

    @pytest.mark.parametrize("trace, code", [("ok.csv", 0), ("bad.csv", 1), ("missing.csv", 2)])
    def test_every_entry_form_freezes_the_start_up_heap(self, workspace, tmp_path, trace, code):
        """`main` freezes what import built, whichever way the CLI starts;
        the exit code and stdout are those of a run without the probe."""
        hooks = tmp_path / "hooks"
        hooks.mkdir()
        (hooks / "sitecustomize.py").write_text(
            "import atexit, gc, sys\n"
            "atexit.register(lambda: sys.stderr.write(f'frozen={gc.get_freeze_count()}\\n'))\n"
        )
        src = str(Path(stlmon.__file__).parents[1])
        args = ["check", str(workspace / "rules.stl"), str(workspace / trace)]
        plain = subprocess.run([sys.executable, "-m", "stlmon", *args], capture_output=True,
                               text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert plain.returncode == code
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hooks), src]))
        for prefix in (["-c", "from stlmon.cli import main; main()"],
                       ["-m", "stlmon.cli"],
                       ["-m", "stlmon"]):
            got = subprocess.run([sys.executable, *prefix, *args], capture_output=True,
                                 text=True, env=env, timeout=120)
            assert (got.returncode, got.stdout) == (code, plain.stdout), prefix
            frozen = got.stderr.splitlines()[-1]
            assert frozen.startswith("frozen=") and int(frozen[7:]) > 0, (prefix, got.stderr)


    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["check", "report", "compare", "simulate"])
    def test_failed_stdout_write_exits_two_with_one_line(self, workspace, command):
        spec = str(workspace / "rules.stl")
        argv = {
            "check": [spec, str(workspace / "ok.csv")],
            "report": [spec, str(workspace)],
            "compare": [spec, str(workspace), str(workspace)],
            "simulate": ["--preset", "--policy", "pre", "--n", "2",
                         "--out", str(workspace / "fleet")],
        }[command]
        # Buffered stdout, as on a plain run: the unwritten rest must not make
        # the interpreter's own flush at exit fail again.
        env = dict(os.environ, PYTHONPATH=str(Path(stlmon.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "stlmon", command, *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=120)
        assert (proc.returncode, proc.stderr) == (
            2, "error: cannot write standard output: [Errno 28] No space left on device\n"
        )


class TestColdStart:
    def test_importing_the_cli_starts_no_process_machinery(self):
        # -S: no site-packages .pth file may import a module that this
        # checks for, so only the package and numpy are on the path.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(stlmon.__file__).parents[1]), str(Path(np.__file__).parents[1])]))
        code = ("import sys, stlmon.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures', 'decimal', "
                "'importlib.resources'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_run_in_process_freezes_nothing(self, workspace, capsys):
        before = gc.get_freeze_count()
        assert run(["check", str(workspace / "rules.stl"), str(workspace / "ok.csv")]) == 0
        assert gc.get_freeze_count() == before


    def test_one_cpu_scores_fleets_in_process(self, workspace):
        env = dict(os.environ, PYTHONPATH=str(Path(stlmon.__file__).parents[1]))
        spec, d = str(workspace / "rules.stl"), str(workspace)
        for cpus, forked in ((1, False), (2, True)):
            code = (
                "import sys, stlmon.cli\n"
                f"stlmon.cli._cpu_count = lambda: {cpus}\n"
                f"codes = [stlmon.cli.run(['report', {spec!r}, {d!r}]),\n"
                f"         stlmon.cli.run(['compare', {spec!r}, {d!r}, {d!r}])]\n"
                "print(codes, 'multiprocessing' in sys.modules)\n"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert proc.stdout.splitlines()[-1] == f"[0, 0] {forked}", proc.stderr

    def test_forking_workers_raises_no_deprecation_warning(self, workspace):
        """From Python 3.12, forking a process with threads (numpy's BLAS
        pool) warns; the pool start ignores that one warning."""
        env = dict(os.environ, PYTHONPATH=str(Path(stlmon.__file__).parents[1]))
        code = (
            "import sys, stlmon.cli\n"
            "stlmon.cli._cpu_count = lambda: 2\n"
            f"sys.exit(stlmon.cli.run(['report', {str(workspace / 'rules.stl')!r}, "
            f"{str(workspace)!r}, '--format', 'table']))\n"
        )
        proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("Rule: speed_limit (n=2)\n")


class TestCheckOutputContract:
    def test_exact_zero_prints_positive_zero(self, tmp_path, capsys):
        spec = tmp_path / "zero.stl"
        spec.write_text("signal x : real\nrule r: !(x > 0)\n")
        trace = tmp_path / "z.csv"
        trace.write_text("time,x\n0,0\n1,0\n")
        code = run(["check", str(spec), str(trace), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert '"rho": 0.0,' in out
        assert "-0" not in out
        assert run(["check", str(spec), str(trace)]) == 0
        assert capsys.readouterr().out == "z  r  rho=0  ExactlySatisfied\n"

    def test_evaluation_error_names_trace_and_rule(self, tmp_path, capsys):
        spec = tmp_path / "al.stl"
        spec.write_text("signal x : real\nrule al: G[0, 0.25] (x > 0)\n")
        trace = tmp_path / "j.json"
        trace.write_text('{"id": "j", "dt": 0.1, "signals": {"x": [1, 2, 3]}}')
        assert run(["check", str(spec), str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: trace 'j': rule 'al': interval bound 0.25 is not a whole number "
            "of samples at dt=0.1\n"
        )

    def test_overflowing_margin_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nsignal y : real\nrule r: x > y\n")
        trace = tmp_path / "o.csv"
        trace.write_text("time,x,y\n0,1e308,-1e308\n1,1,1\n")
        assert run(["check", str(spec), str(trace), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trace 'o': rule 'r': non-finite result at sample 0\n"

    def test_non_finite_time_is_a_trace_error(self, tmp_path, capsys):
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nrule r: G[0, 1] (x > 0)\n")
        trace = tmp_path / "nan.csv"
        trace.write_text("time,x\n0,1\n1,2\nnan,3\n3,4\n")
        profiles = tmp_path / "profiles"
        code = run(["check", str(spec), str(trace), "--profile-out", str(profiles)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {trace}: row 4, column 1: non-finite value 'nan'\n"
        assert not profiles.exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            ("time,x\n0,1\r2\n1,2\n", "row 3: malformed row: expected 2 cells, got 1"),
            ("time,x\n0,1\n1,%s\n" % ("z" * 131073),
             "row 3, column 2: bad real value '%s'" % ("z" * 131073)),
        ],
        ids=["bare_cr", "cell_over_csv_field_limit"],
    )
    def test_csv_reader_faults_are_trace_errors(self, tmp_path, capsys, text, error):
        """Inputs that `csv.reader` refused with its own exception."""
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nrule r: x > 0\n")
        trace = tmp_path / "t.csv"
        trace.write_bytes(text.encode())
        assert run(["check", str(spec), str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {trace}: {error}\n"

    def test_profile_csv_pins_its_layout(self, tmp_path):
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nrule r: G[0, 1] (x > 0.5)\n")
        trace = tmp_path / "p.csv"
        trace.write_text("time,x\n0,1\n0.5,-0\n1,2.25\n")
        assert run(["check", str(spec), str(trace), "--profile-out", str(tmp_path)]) == 1
        assert (tmp_path / "p__r.csv").read_text() == (
            "time,root,root.child\n0,-0.5,0.5\n0.5,-0.5,-0.5\n1,1.75,1.75\n"
        )

    @pytest.mark.parametrize("command", ["check", "report", "compare"])
    def test_spec_without_rules_exits_two(self, workspace, command, capsys):
        empty = workspace / "empty.stl"
        empty.write_text("signal speed : real\n")
        targets = {
            "check": [str(workspace / "ok.csv")],
            "report": [str(workspace)],
            "compare": [str(workspace), str(workspace)],
        }
        assert run([command, str(empty), *targets[command]]) == 2
        assert capsys.readouterr().err == "error: specification has no rules\n"
