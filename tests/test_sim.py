"""Simulator: determinism, kinematics, obstacle distances, and config I/O."""

import math
import re

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
from stlmon.sim import format_config

QUIET = PolicyParams(
    turn_gain=2.0, noise_std=0.0, repulsion_gain=0.0, repulsion_range=0.0, turn_smoothing=0.0
)


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

    def test_missing_scenario_keys_reported(self):
        with pytest.raises(ConfigError, match="missing scenario keys"):
            parse_config_text("dt = 0.1\n")

    def test_comments_and_blank_lines_ok(self):
        cfg, pre, _ = builtin_presets()
        text = "# header\n\n" + format_config(cfg, {"pre": pre})
        cfg2, policies = parse_config_text(text)
        assert cfg2 == cfg
        assert policies["pre"] == pre
