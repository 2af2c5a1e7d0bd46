"""Seeded 2D unicycle navigation simulator.

Generates rollout-trace fleets from two hand-parameterized policies so
the full regulator loop (simulate, monitor, report, compare) runs at
desk scale. The robot starts at the origin with heading 0 and drives at
constant linear speed toward a randomly sampled goal, picking one of
five discrete angular velocities per step.

Determinism: all randomness comes from SplitMix64 streams derived from
the episode seed, so identical inputs produce bit-identical fleets on
any platform. The exact generator is documented in docs/formats.md.
An episode's control noise is computed 128 draws at a time
(`SplitMix64.normals`), each block when the last runs out; the draws
left over when the episode ends are discarded, so a fleet is the same as
with one draw per step.

Trace time unit: the emitted time column counts timesteps (0, 1, 2, ...),
matching how the shipped rule files phrase their windows; the config `dt`
is the physics integration step in seconds and does not appear in the
time column.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain

import numpy as np

from .formula import SignalKind, _Record
from .traces import Series, Trace

GOAL_RADIUS = 0.2  # meters; reaching within this ends the episode
GOAL_OBSTACLE_CLEARANCE = 0.6  # goals are sampled at least this far from obstacle surfaces
GOAL_WALL_CLEARANCE = 0.6  # ... and from the arena walls
_GOAL_STREAM = 0x676F616C  # stream tags keep goal and noise draws independent
_NOISE_STREAM = 0x6E6F6973
_NOISE_BLOCK = 128  # draws computed together; preset episodes average 114 (post), 150 (pre) steps

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ConfigError(ValueError):
    pass


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 generator; tiny, portable, and fully documented.

    Seeding folds each word in turn: state <- scramble(state + word).
    """

    def __init__(self, *seed_words: int):
        state = 0
        for word in seed_words:
            state = _scramble((state + (word & _MASK64)) & _MASK64)
        self._state = state

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _scramble(self._state)

    def uniform(self) -> float:
        """Uniform in [0, 1): top 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two words."""
        return self.normals(1)[0]

    def normals(self, k: int) -> list[float]:
        """The next k standard normals, as k calls of `normal` give them.

        The 2k words are stepped and scrambled together in numpy uint64
        arithmetic, which wraps mod 2^64; every operand is a uint64, as on
        numpy 1.x a Python int mixed with a uint64 makes float64.
        Box-Muller then runs on each pair of words in `math`, whose log and
        cos `np.log` and `np.cos` do not always match.
        """
        u64 = np.uint64
        z = np.arange(1, 2 * k + 1, dtype=u64) * u64(_GOLDEN) + u64(self._state)
        self._state = (self._state + 2 * k * _GOLDEN) & _MASK64
        z ^= z >> u64(30)
        z *= u64(0xBF58476D1CE4E5B9)
        z ^= z >> u64(27)
        z *= u64(0x94D049BB133111EB)
        z ^= z >> u64(31)
        words = iter((z >> u64(11)).tolist())
        sqrt, log, cos = math.sqrt, math.log, math.cos
        # u1 = (w + 1) * 2^-53 is in (0, 1]; u2 = w * 2^-53 is uniform in [0, 1)
        return [sqrt(-2.0 * log((w1 + 1) * 2.0**-53)) * cos(2.0 * math.pi * (w2 * 2.0**-53))
                for w1, w2 in zip(words, words)]


class Obstacle(_Record):
    x: float
    y: float
    radius: float


class GoalSampler(_Record):
    seed: int
    min_radius: float
    max_radius: float


class ScenarioConfig(_Record):
    map_half_extent: float
    obstacles: tuple[Obstacle, ...]
    goal_sampler: GoalSampler
    linear_speed: float
    dt: float
    max_steps: int
    angular_menu: tuple[float, float, float, float, float]

    def __post_init__(self):
        # `not 0 < v < inf` also rejects NaN, which fails every comparison
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be finite and > 0")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if not 0 < self.map_half_extent < math.inf:
            raise ConfigError("map_half_extent must be finite and > 0")
        if not 0 < self.linear_speed < math.inf:
            raise ConfigError("linear_speed must be finite and > 0")
        if len(self.angular_menu) != 5:
            raise ConfigError("angular_menu must have exactly 5 entries")
        if not all(map(math.isfinite, self.angular_menu)):
            raise ConfigError("angular_menu entries must be finite")
        ordered = sorted(self.angular_menu)
        if any(ordered[i] != -ordered[4 - i] for i in range(5)):
            raise ConfigError("angular_menu must be symmetric about 0")
        for i, ob in enumerate(self.obstacles):
            if not all(map(math.isfinite, (ob.x, ob.y, ob.radius))):
                raise ConfigError(f"obstacle {i} must have finite x, y and radius")
            if ob.radius <= 0:
                raise ConfigError(f"obstacle {i} has nonpositive radius")
            if math.hypot(ob.x, ob.y) <= ob.radius:
                raise ConfigError(f"obstacle {i} covers the origin")
        gs = self.goal_sampler
        if not 0 <= gs.seed <= _MASK64:  # the goal stream reduces a seed mod 2^64
            raise ConfigError("goal_sampler seed must be >= 0 and < 2^64")
        if not 0 <= gs.min_radius <= gs.max_radius < math.inf:
            raise ConfigError("goal radii must be finite and satisfy 0 <= min <= max")


class PolicyParams(_Record):
    turn_gain: float
    noise_std: float
    repulsion_gain: float
    repulsion_range: float
    turn_smoothing: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if not 0 <= self.turn_smoothing <= 1:
            raise ConfigError("turn_smoothing must be in [0, 1]")
        if self.repulsion_range < 0:
            raise ConfigError("repulsion_range must be >= 0")


class EpisodeRecord(_Record, eq=False):
    trace: Trace
    seed: int
    goal: tuple[float, float]
    outcome: str  # "goal" | "collision" | "timeout"
    steps: int  # live steps executed (trace has steps+1 samples, min 2)


def sample_goal(cfg: ScenarioConfig, episode_seed: int) -> tuple[float, float]:
    """The goal of the episode with this seed; ConfigError if the sampler
    finds no spot clear of obstacles and walls."""
    rng = SplitMix64(_GOAL_STREAM, cfg.goal_sampler.seed, episode_seed)
    lo, hi = cfg.goal_sampler.min_radius, cfg.goal_sampler.max_radius
    for _ in range(1000):
        theta = 2.0 * math.pi * rng.uniform()
        radius = lo + (hi - lo) * rng.uniform()
        gx = radius * math.cos(theta)
        gy = radius * math.sin(theta)
        if radius == 0.0:
            return gx, gy  # degenerate goal-at-origin configuration
        if max(abs(gx), abs(gy)) > cfg.map_half_extent - GOAL_WALL_CLEARANCE:
            continue
        clear = all(
            math.hypot(ob.x - gx, ob.y - gy) - ob.radius >= GOAL_OBSTACLE_CLEARANCE
            for ob in cfg.obstacles
        )
        if clear:
            return gx, gy
    raise ConfigError("goal sampler cannot place a goal clear of obstacles and walls")


def simulate_episode(cfg: ScenarioConfig, params: PolicyParams, seed: int) -> EpisodeRecord:
    """Run one episode; deterministic given (cfg, params, seed).

    Per step: the policy forms a desired turn rate
        smoothing * previous + (1 - smoothing) * (gain * heading_error
                                                  + repulsion + noise),
    snaps it to the nearest menu entry (the first of equally near ones),
    then the unicycle integrates x += v cos(phi) dt, y += v sin(phi) dt,
    phi += omega dt. Angles are wrapped as atan2(sin a, cos a). The
    episode ends on goal reach (within GOAL_RADIUS), collision
    (dist_obst <= 0), or max_steps.

    Repulsion is a turn-rate push away from nearby hazards: each obstacle
    surface, then the walls at +x, -x, +y and -y, that lies within
    repulsion_range and ahead of the shoulder line adds
    gain * (1 - max(dist, 0) / range), away from its bearing; hazards
    behind are ignored and ties at dead-ahead steer right.

    The loop keeps every per-episode constant in a local, and each
    position's obstacle gaps serve both its dist_obst sample and the next
    step's repulsion; every float expression is evaluated in the order
    written above, so fleets are bit-identical across versions. The noise
    is the next draw of the episode's noise stream, taken from a block of
    128 draws; the next block is computed only when a step needs it, and
    the draws left at the end are discarded.
    """
    gx, gy = sample_goal(cfg, seed)
    # iter(f, None) calls f for each block: normals never returns None
    noise = chain.from_iterable(
        iter(partial(SplitMix64(_NOISE_STREAM, seed).normals, _NOISE_BLOCK), None))
    hypot, atan2, sin, cos = math.hypot, math.atan2, math.sin, math.cos
    v, dt, e, max_steps = cfg.linear_speed, cfg.dt, cfg.map_half_extent, cfg.max_steps
    obstacles = [(ob.x, ob.y, ob.radius) for ob in cfg.obstacles]
    menu, rest = cfg.angular_menu[0], cfg.angular_menu[1:]
    turn_gain, noise_std = params.turn_gain, params.noise_std
    smoothing = params.turn_smoothing
    keep = 1.0 - smoothing
    gain, reach = params.repulsion_gain, params.repulsion_range
    # hazards nearer than `cutoff` repel; none do when repulsion is off
    cutoff = -math.inf if gain == 0.0 or reach <= 0.0 else reach
    half_pi = 0.5 * math.pi

    x = y = phi = desired = 0.0
    xs, ys, phis, dists, flags = [], [], [], [], []
    steps = 0
    while True:
        # sense at (x, y): clearance, goal latch, and the hazards in range
        d = e - max(abs(x), abs(y))
        near = []
        for ox, oy, r in obstacles:
            gap = hypot(ox - x, oy - y) - r
            if gap < d:
                d = gap
            if gap < cutoff:
                near.append((gap, atan2(oy - y, ox - x)))
        reached = hypot(gx - x, gy - y) <= GOAL_RADIUS
        xs.append(x)
        ys.append(y)
        phis.append(phi)
        dists.append(d)
        flags.append(reached)
        if reached:
            outcome = "goal"
            break
        if d <= 0:
            outcome = "collision"
            break
        if steps == max_steps:
            outcome = "timeout"
            break

        # act: heading error, repulsion, noise, smoothing, menu snap
        a = atan2(gy - y, gx - x) - phi
        heading_error = atan2(sin(a), cos(a))
        if e - x < cutoff:
            near.append((e - x, 0.0))
        if e + x < cutoff:
            near.append((e + x, math.pi))
        if e - y < cutoff:
            near.append((e - y, half_pi))
        if e + y < cutoff:
            near.append((e + y, -half_pi))
        repulsion = 0.0
        for dist, bearing in near:
            b = bearing - phi
            rel = atan2(sin(b), cos(b))
            if abs(rel) >= half_pi:
                continue
            strength = gain * (1.0 - max(dist, 0.0) / reach)
            repulsion += -strength if rel >= 0 else strength
        raw = turn_gain * heading_error + repulsion + noise_std * next(noise)
        desired = smoothing * desired + keep * raw
        omega, best_err = menu, abs(menu - desired)
        for m in rest:
            err = abs(m - desired)
            if err < best_err:
                omega, best_err = m, err

        x += v * cos(phi) * dt
        y += v * sin(phi) * dt
        phi += omega * dt
        steps += 1

    if len(xs) < 2:  # instant termination still emits a 2-sample trace
        xs.append(xs[-1])
        ys.append(ys[-1])
        phis.append(phis[-1])
        dists.append(dists[-1])
        flags.append(flags[-1])

    n = len(xs)
    channels = {
        "x": Series(SignalKind.REAL, np.asarray(xs)),
        "y": Series(SignalKind.REAL, np.asarray(ys)),
        "phi": Series(SignalKind.REAL, np.asarray(phis)),
        "dist_obst": Series(SignalKind.REAL, np.asarray(dists)),
        "goal_reached": Series(SignalKind.BOOL, np.asarray(flags, dtype=np.bool_)),
        "speed": Series(SignalKind.REAL, np.full(n, v)),
    }
    trace = Trace(f"ep{seed:06d}", 1.0, np.arange(n, dtype=np.float64), channels)
    return EpisodeRecord(trace, seed, (gx, gy), outcome, steps)


def simulate_fleet(
    cfg: ScenarioConfig, params: PolicyParams, n: int, base_seed: int
) -> list[EpisodeRecord]:
    """Episodes under seeds base_seed .. base_seed+n-1, goals resampled per episode."""
    if n < 1:
        raise ConfigError("fleet size must be >= 1")
    return [simulate_episode(cfg, params, base_seed + i) for i in range(n)]


def builtin_presets() -> tuple[ScenarioConfig, PolicyParams, PolicyParams]:
    """The shipped scenario plus (pre, post) policy parameter sets.

    The pre policy is noisy, jerky and weakly repelled; the post policy
    is smoothed, quiet and strongly repelled, so fleets from the two
    show the pre-to-post compliance improvement on the shipped rules.
    """
    # Obstacle centers at radius 1.25 with radius 0.28 leave a corridor
    # clearance of ~0.60 m between neighbours, so a careful policy can
    # cross the field without dipping under the 0.5 m lingering threshold.
    cfg = ScenarioConfig(
        map_half_extent=2.5,
        obstacles=(
            Obstacle(1.25, 0.0, 0.28),
            Obstacle(-1.25, 0.0, 0.28),
            Obstacle(0.0, 1.25, 0.28),
            Obstacle(0.0, -1.25, 0.28),
        ),
        goal_sampler=GoalSampler(seed=2025, min_radius=1.6, max_radius=1.9),
        linear_speed=0.15,
        dt=0.1,
        max_steps=800,
        angular_menu=(-2.5, -1.25, 0.0, 1.25, 2.5),
    )
    pre = PolicyParams(
        turn_gain=1.2,
        noise_std=4.5,
        repulsion_gain=0.6,
        repulsion_range=0.3,
        turn_smoothing=0.0,
    )
    post = PolicyParams(
        turn_gain=1.5,
        noise_std=0.3,
        repulsion_gain=4.0,
        repulsion_range=0.65,
        turn_smoothing=0.7,
    )
    return cfg, pre, post


# ---------------------------------------------------------------------------
# Plain key-value configuration files
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = set(ScenarioConfig._fields)
_POLICY_KEYS = set(PolicyParams._fields)


def parse_config_text(text: str) -> tuple[ScenarioConfig, dict[str, PolicyParams]]:
    """Parse `key = value` scenario/policy configuration text.

    Scenario keys are the ScenarioConfig field names; policy keys are the
    PolicyParams field names prefixed with the policy name (`pre.noise_std`),
    and each key may appear once. `#` starts a comment. Example values:

        obstacles = 1.2,1.2,0.35; -1.2,1.2,0.35
        goal_sampler = 2025,1.0,1.8
        angular_menu = -2.5,-1.25,0,1.25,2.5
    """
    scenario: dict[str, str] = {}
    policies: dict[str, dict[str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." in key:
            policy, field = key.split(".", 1)
            if field not in _POLICY_KEYS:
                raise ConfigError(f"line {lineno}: unknown policy key '{key}'")
            values = policies.setdefault(policy, {})
        elif key in _SCENARIO_KEYS:
            values, field = scenario, key
        else:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if field in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        values[field] = value

    missing = _SCENARIO_KEYS - scenario.keys()
    if missing:
        raise ConfigError(f"missing scenario keys: {', '.join(sorted(missing))}")

    def number(key):
        try:
            return float(scenario[key])
        except ValueError:
            raise ConfigError(f"bad number for '{key}': {scenario[key]!r}") from None

    gs_parts = scenario["goal_sampler"].split(",")
    if len(gs_parts) != 3:
        raise ConfigError("goal_sampler needs 'seed,min_radius,max_radius'")
    try:
        obstacles = tuple(
            Obstacle(*(float(c) for c in triple.split(",")))
            for triple in scenario["obstacles"].split(";")
            if triple.strip()
        )
        goal_sampler = GoalSampler(int(gs_parts[0]), float(gs_parts[1]), float(gs_parts[2]))
        menu = tuple(float(c) for c in scenario["angular_menu"].split(","))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None

    max_steps = number("max_steps")
    if not max_steps.is_integer():
        raise ConfigError(f"max_steps must be a whole number: {scenario['max_steps']!r}")
    cfg = ScenarioConfig(
        map_half_extent=number("map_half_extent"),
        obstacles=obstacles,
        goal_sampler=goal_sampler,
        linear_speed=number("linear_speed"),
        dt=number("dt"),
        max_steps=int(max_steps),
        angular_menu=menu,  # type: ignore[arg-type]
    )

    parsed_policies: dict[str, PolicyParams] = {}
    for name, values in policies.items():
        missing = _POLICY_KEYS - values.keys()
        if missing:
            raise ConfigError(f"policy '{name}' missing keys: {', '.join(sorted(missing))}")
        try:
            parsed_policies[name] = PolicyParams(**{k: float(v) for k, v in values.items()})
        except ValueError as exc:
            raise ConfigError(f"policy '{name}': {exc}") from None
    return cfg, parsed_policies


def format_config(cfg: ScenarioConfig, policies: dict[str, PolicyParams]) -> str:
    """Inverse of parse_config_text with a fixed key order."""
    from .formula import format_number as fmt

    lines = [
        f"map_half_extent = {fmt(cfg.map_half_extent)}",
        "obstacles = " + "; ".join(
            f"{fmt(ob.x)},{fmt(ob.y)},{fmt(ob.radius)}" for ob in cfg.obstacles
        ),
        f"goal_sampler = {cfg.goal_sampler.seed},{fmt(cfg.goal_sampler.min_radius)},"
        f"{fmt(cfg.goal_sampler.max_radius)}",
        f"linear_speed = {fmt(cfg.linear_speed)}",
        f"dt = {fmt(cfg.dt)}",
        f"max_steps = {cfg.max_steps}",
        "angular_menu = " + ",".join(fmt(m) for m in cfg.angular_menu),
    ]
    for name in sorted(policies):
        lines += (f"{name}.{key} = {fmt(value)}" for key, value in vars(policies[name]).items())
    return "\n".join(lines) + "\n"
