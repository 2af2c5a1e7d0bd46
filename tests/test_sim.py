"""Simulator: determinism, kinematics, obstacle distances, and config I/O."""

import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stlmon import (
    ConfigError,
    GoalSampler,
    Obstacle,
    PolicyParams,
    ScenarioConfig,
    SplitMix64,
    builtin_presets,
    parse_config_text,
    simulate_episode,
    simulate_fleet,
    write_trace_csv,
)
import stlmon.cli
from stlmon.cli import run
from stlmon.sim import format_config

QUIET = PolicyParams(
    turn_gain=2.0, noise_std=0.0, repulsion_gain=0.0, repulsion_range=0.0, turn_smoothing=0.0
)

GOAL_RADII = "goal radii must be finite and satisfy 0 <= min <= max"

# `simulate --preset --policy P --n 40 --seed 7`: sha256 of the lines
# "<file> <sha256 of its bytes>" for every file of the fleet, in name order.
# A fleet's bytes are pinned: no change to the simulator, the CSV writer or
# the worker pool may alter a fleet that was published.
FLEET_DIGESTS = {
    "pre": "fb5543906ed663dc01ed63452b9e55c2fb5d1b8a497fffdf4d931af44f5a310e",
    "post": "f99b73d5e1089d53def598c0518390f01070b9bdbee0fd01cf7333aa2c3ffaea",
}


def open_arena(**overrides):
    base = dict(
        map_half_extent=5.0,
        obstacles=(),
        goal_sampler=GoalSampler(seed=1, min_radius=1.0, max_radius=1.0),
        linear_speed=0.2,
        dt=0.1,
        max_steps=400,
        angular_menu=(-1.5, -0.75, 0.0, 0.75, 1.5),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRng:
    def test_golden_values_pin_the_stream(self):
        # frozen outputs guard the documented cross-implementation contract
        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(3)] == [
            10996452266160306281,
            2958219263312191191,
            3069497704473277141,
        ]

    def test_uniform_range_and_determinism(self):
        a = SplitMix64(7, 9)
        b = SplitMix64(7, 9)
        xs = [a.uniform() for _ in range(1000)]
        assert xs == [b.uniform() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_normal_moments(self):
        rng = SplitMix64(3)
        xs = [rng.normal() for _ in range(20000)]
        assert abs(np.mean(xs)) < 0.03
        assert abs(np.std(xs) - 1.0) < 0.03


class TestConfigValidation:
    def test_preset_passes_invariants(self):
        cfg, pre, post = builtin_presets()
        assert len(cfg.angular_menu) == 5
        assert post.turn_smoothing > pre.turn_smoothing

    def test_menu_must_be_symmetric(self):
        with pytest.raises(ConfigError, match="symmetric"):
            open_arena(angular_menu=(-1.0, -0.5, 0.1, 0.5, 1.0))

    def test_menu_must_have_five_entries(self):
        with pytest.raises(ConfigError, match="5 entries"):
            open_arena(angular_menu=(-1.0, 0.0, 1.0))

    def test_obstacle_may_not_cover_origin(self):
        with pytest.raises(ConfigError, match="covers the origin"):
            open_arena(obstacles=(Obstacle(0.1, 0.0, 0.5),))

    def test_nonpositive_dt(self):
        with pytest.raises(ConfigError, match="dt"):
            open_arena(dt=0.0)

    def test_policy_invariants(self):
        with pytest.raises(ConfigError):
            PolicyParams(1.0, -0.1, 1.0, 0.5, 0.5)
        with pytest.raises(ConfigError):
            PolicyParams(1.0, 0.1, 1.0, 0.5, 1.5)


class TestEpisodes:
    def test_deterministic_episode(self):
        cfg, pre, _ = builtin_presets()
        a = simulate_episode(cfg, pre, 7)
        b = simulate_episode(cfg, pre, 7)
        assert write_trace_csv(a.trace) == write_trace_csv(b.trace)
        assert a.goal == b.goal
        assert a.outcome == b.outcome

    def test_straight_line_kinematics(self):
        # find a seed whose goal lands nearly dead ahead, then the robot
        # should hold heading and cover (1 - 0.2) m at 0.02 m/step
        cfg = open_arena()
        probe = open_arena(max_steps=1)
        seed = next(
            s
            for s in range(20000)
            if abs(math.atan2(*simulate_episode(probe, QUIET, s).goal[::-1])) < 0.004
        )
        ep = simulate_episode(cfg, QUIET, seed)
        assert ep.outcome == "goal"
        assert 39 <= ep.steps <= 41
        phis = ep.trace.channels["phi"].values
        assert np.all(phis == phis[0])

    def test_goal_at_origin_emits_two_sample_trace(self):
        cfg = open_arena(goal_sampler=GoalSampler(seed=1, min_radius=0.0, max_radius=0.0))
        ep = simulate_episode(cfg, QUIET, 5)
        assert ep.outcome == "goal"
        assert len(ep.trace) == 2
        assert list(ep.trace.channels["goal_reached"].values) == [True, True]

    def test_kinematic_consistency(self):
        cfg, pre, post = builtin_presets()
        for params, seed in ((pre, 1), (pre, 2), (post, 3), (post, 4)):
            ep = simulate_episode(cfg, params, seed)
            xs = ep.trace.channels["x"].values
            ys = ep.trace.channels["y"].values
            expected = cfg.linear_speed * cfg.dt
            for i in range(ep.steps):  # live steps only
                step = math.hypot(xs[i + 1] - xs[i], ys[i + 1] - ys[i])
                assert abs(step - expected) <= 1e-9

    def test_heading_rate_bounded_by_menu(self):
        cfg, pre, _ = builtin_presets()
        limit = max(abs(m) for m in cfg.angular_menu) * cfg.dt
        for seed in range(5):
            phis = simulate_episode(cfg, pre, seed).trace.channels["phi"].values
            assert np.max(np.abs(np.diff(phis))) <= limit + 1e-12

    def test_dist_obst_brute_force(self):
        cfg, pre, _ = builtin_presets()
        ep = simulate_episode(cfg, pre, 11)
        xs = ep.trace.channels["x"].values
        ys = ep.trace.channels["y"].values
        dists = ep.trace.channels["dist_obst"].values
        for i in range(len(ep.trace)):
            wall = cfg.map_half_extent - max(abs(xs[i]), abs(ys[i]))
            candidates = [wall] + [
                math.hypot(ob.x - xs[i], ob.y - ys[i]) - ob.radius for ob in cfg.obstacles
            ]
            assert dists[i] == min(candidates)

    def test_goal_latch_monotone(self):
        cfg, pre, post = builtin_presets()
        for seed in range(8):
            flags = simulate_episode(cfg, post, seed).trace.channels["goal_reached"].values
            assert np.all(np.diff(flags.astype(int)) >= 0)

    def test_speed_channel_constant(self):
        cfg, pre, _ = builtin_presets()
        ep = simulate_episode(cfg, pre, 3)
        assert set(ep.trace.channels["speed"].values) == {cfg.linear_speed}

    def test_collision_ends_episode(self):
        # a ring of obstacles with a tiny gap budget: aggressive noisy policy
        # must eventually hit something or time out; if a collision happens
        # the final sample is the only one at nonpositive clearance
        cfg = open_arena(
            obstacles=tuple(
                Obstacle(1.2 * math.cos(a), 1.2 * math.sin(a), 0.45)
                for a in np.linspace(0, 2 * math.pi, 7)[:-1]
            ),
            goal_sampler=GoalSampler(seed=3, min_radius=3.0, max_radius=3.5),
            max_steps=300,
        )
        wild = PolicyParams(3.0, 4.0, 0.0, 0.0, 0.0)
        outcomes = set()
        for seed in range(10):
            ep = simulate_episode(cfg, wild, seed)
            outcomes.add(ep.outcome)
            dists = ep.trace.channels["dist_obst"].values
            if ep.outcome == "collision":
                assert dists[-1] <= 0
                assert np.all(dists[:-1] > 0)
        assert "collision" in outcomes


    def test_wall_repulsion_turns_away(self):
        # No goal seeking and no noise: the robot drives straight at the +x
        # wall and, without repulsion, hits it. With repulsion it turns right
        # once the wall is in range, then circles clear of all four walls.
        cfg = open_arena(map_half_extent=2.0, linear_speed=0.3,
                         goal_sampler=GoalSampler(seed=1, min_radius=1.2, max_radius=1.2))
        blind = PolicyParams(0.0, 0.0, 0.0, 0.8, 0.0)
        assert simulate_episode(cfg, blind, 0).outcome == "collision"
        ep = simulate_episode(cfg, PolicyParams(0.0, 0.0, 3.0, 0.8, 0.0), 0)
        xs, ys, phis, dists = (ep.trace.channels[k].values for k in ("x", "y", "phi", "dist_obst"))
        turn = np.flatnonzero(phis)[0]  # first sample after a turn
        assert 2.0 - xs[turn - 1] < 0.8
        assert phis[turn] < 0
        assert (ep.outcome, ep.steps) == ("timeout", 400)
        assert dists.min() > 0
        for values in (xs, ys):  # each wall came within range
            assert values.min() < -1.2 and values.max() > 1.2
        assert hashlib.sha256(write_trace_csv(ep.trace).encode()).hexdigest() == (
            "888a38294991e35a94ea22179b419a2ec6c65092937cae9e02ad4c064a3a19a8"
        )

class TestFleets:
    def test_fleet_matches_individual_episodes(self):
        cfg, pre, _ = builtin_presets()
        fleet = simulate_fleet(cfg, pre, 3, 100)
        for i, ep in enumerate(fleet):
            solo = simulate_episode(cfg, pre, 100 + i)
            assert write_trace_csv(ep.trace) == write_trace_csv(solo.trace)

    def test_distinct_goals_across_seeds(self):
        cfg, pre, _ = builtin_presets()
        goals = {ep.goal for ep in simulate_fleet(cfg, pre, 20, 0)}
        assert len(goals) == 20

    def test_fleet_size_must_be_positive(self):
        cfg, pre, _ = builtin_presets()
        with pytest.raises(ConfigError):
            simulate_fleet(cfg, pre, 0, 0)


def fleet_digest(directory: Path) -> str:
    listing = "".join(
        f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        for path in sorted(directory.iterdir())
    )
    return hashlib.sha256(listing.encode()).hexdigest()


class TestFleetBytes:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("policy", ["pre", "post"])
    def test_fleet_bytes_do_not_depend_on_the_cpu_count(
        self, tmp_path, monkeypatch, capsys, policy, cpus
    ):
        monkeypatch.setattr(stlmon.cli, "_cpu_count", lambda: cpus)
        out = tmp_path / "fleet"
        code = run(["simulate", "--preset", "--policy", policy, "--n", "40",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote 40 traces to {out}\n"
        assert fleet_digest(out) == FLEET_DIGESTS[policy]
        manifest = (out / "manifest.txt").read_text()
        rows = manifest.split("# episodes: file,outcome,steps,goal_x,goal_y\n")[1].splitlines()
        assert [row.split(",")[0] for row in rows] == [f"trace_{s:06d}.csv" for s in range(7, 47)]

    def test_one_cpu_simulates_in_process(self, tmp_path):
        code = (
            "import sys, stlmon.cli\n"
            "stlmon.cli._cpu_count = lambda: 1\n"
            f"rc = stlmon.cli.run(['simulate', '--preset', '--policy', 'post', '--n', '40',"
            f" '--seed', '7', '--out', {str(tmp_path / 'fleet')!r}])\n"
            "print(rc, 'multiprocessing' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stlmon.cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
        assert fleet_digest(tmp_path / "fleet") == FLEET_DIGESTS["post"]


class TestConfigFile:
    def test_round_trip(self):
        cfg, pre, post = builtin_presets()
        text = format_config(cfg, {"pre": pre, "post": post})
        cfg2, policies = parse_config_text(text)
        assert cfg2 == cfg
        assert policies == {"pre": pre, "post": post}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("gravity = 9.8\n")

    def test_menu_size_checked_when_parsing(self):
        cfg, pre, _ = builtin_presets()
        text = format_config(cfg, {"pre": pre})
        text = re.sub(r"(?m)^angular_menu = .*$", "angular_menu = -1,0,1", text)
        with pytest.raises(ConfigError, match="^angular_menu must have exactly 5 entries$"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dt", "nan", "dt must be finite and > 0"),
            ("dt", "inf", "dt must be finite and > 0"),
            ("dt", "0", "dt must be finite and > 0"),
            ("linear_speed", "nan", "linear_speed must be finite and > 0"),
            ("linear_speed", "inf", "linear_speed must be finite and > 0"),
            ("map_half_extent", "nan", "map_half_extent must be finite and > 0"),
            ("map_half_extent", "-inf", "map_half_extent must be finite and > 0"),
            ("max_steps", "2.9", "max_steps must be a whole number: '2.9'"),
            ("max_steps", "nan", "max_steps must be a whole number: 'nan'"),
            ("max_steps", "inf", "max_steps must be a whole number: 'inf'"),
            ("pre.turn_gain", "nan", "policy 'pre': turn_gain must be finite"),
            ("pre.turn_gain", "inf", "policy 'pre': turn_gain must be finite"),
            ("pre.noise_std", "nan", "policy 'pre': noise_std must be finite"),
            ("pre.repulsion_gain", "-inf", "policy 'pre': repulsion_gain must be finite"),
            ("pre.repulsion_range", "nan", "policy 'pre': repulsion_range must be finite"),
            ("pre.turn_smoothing", "nan", "policy 'pre': turn_smoothing must be finite"),
            ("angular_menu", "-inf,-1.25,0,1.25,inf", "angular_menu entries must be finite"),
            ("angular_menu", "-2.5,-1.25,nan,1.25,2.5", "angular_menu entries must be finite"),
            ("obstacles", "inf,0,0.28; -1,0,0.2", "obstacle 0 must have finite x, y and radius"),
            ("obstacles", "1,0,0.2; -1,0,nan", "obstacle 1 must have finite x, y and radius"),
            ("goal_sampler", "2025,1.6,inf", GOAL_RADII),
            ("goal_sampler", "2025,inf,inf", GOAL_RADII),
            ("goal_sampler", "2025,nan,1.9", GOAL_RADII),
        ],
    )
    def test_non_finite_and_fractional_settings_rejected(self, key, value, message):
        cfg, pre, _ = builtin_presets()
        text = format_config(cfg, {"pre": pre})
        text = re.sub(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", text)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text(text)

    def test_simulate_rejects_nan_dt_with_exit_two(self, tmp_path, capsys):
        cfg, pre, post = builtin_presets()
        text = format_config(cfg, {"pre": pre, "post": post})
        config = tmp_path / "nan.cfg"
        config.write_text(re.sub(r"(?m)^dt = .*$", "dt = nan", text))
        code = run(["simulate", "--config", str(config), "--policy", "pre",
                    "--n", "1", "--out", str(tmp_path / "fleet")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}: dt must be finite and > 0\n"

    def test_simulate_rejects_nan_gain_with_exit_two(self, tmp_path, capsys):
        cfg, pre, post = builtin_presets()
        text = format_config(cfg, {"pre": pre, "post": post})
        config = tmp_path / "nan.cfg"
        config.write_text(re.sub(r"(?m)^pre\.turn_gain = .*$", "pre.turn_gain = nan", text))
        code = run(["simulate", "--config", str(config), "--policy", "pre",
                    "--n", "1", "--out", str(tmp_path / "fleet")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: policy 'pre': turn_gain must be finite\n"
        )

    def test_simulate_rejects_infinite_obstacle_before_writing(self, tmp_path, capsys):
        cfg, pre, post = builtin_presets()
        text = format_config(cfg, {"pre": pre, "post": post})
        config = tmp_path / "inf.cfg"
        config.write_text(re.sub(r"(?m)^obstacles = .*$", "obstacles = inf,0,0.28", text))
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        code = run(["simulate", "--config", str(config), "--policy", "pre",
                    "--n", "2", "--out", str(fleet)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: obstacle 0 must have finite x, y and radius\n"
        )
        assert list(fleet.iterdir()) == []

    @pytest.mark.parametrize(
        "pattern, replacement, message",
        [
            (r"\Z", "dt 0.1\n", "line 13: expected 'key = value'"),
            (r"\Z", "pre.gain = 1\n", "line 13: unknown policy key 'pre.gain'"),
            (r"\Z", "dt = 0.2\n", "line 13: duplicate key 'dt'"),
            (r"\Z", "pre.noise_std = 99\n", "line 13: duplicate key 'pre.noise_std'"),
            (r"^dt = .*$", "dt = fast", "bad number for 'dt': 'fast'"),
            (r"^goal_sampler = .*$", "goal_sampler = 2025,1.6",
             "goal_sampler needs 'seed,min_radius,max_radius'"),
            (r"^angular_menu = .*$", "angular_menu = a,b,c,d,e",
             "bad config value: could not convert string to float: 'a'"),
            (r"^pre\.turn_smoothing = .*\n", "", "policy 'pre' missing keys: turn_smoothing"),
        ],
    )
    def test_reader_faults_named_exactly(self, pattern, replacement, message):
        cfg, pre, _ = builtin_presets()
        text = re.sub(pattern, replacement, format_config(cfg, {"pre": pre}), flags=re.M)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text(text)

    def test_missing_scenario_keys_reported(self):
        with pytest.raises(ConfigError, match="missing scenario keys"):
            parse_config_text("dt = 0.1\n")

    def test_comments_and_blank_lines_ok(self):
        cfg, pre, _ = builtin_presets()
        text = "# header\n\n" + format_config(cfg, {"pre": pre})
        cfg2, policies = parse_config_text(text)
        assert cfg2 == cfg
        assert policies["pre"] == pre
