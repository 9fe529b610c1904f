"""Deterministic seeded 2D environment.

Static maps (bottleneck, warehouse squeeze, open space), scripted moving
obstacles with per-step process noise, noisy range-limited observations,
and episode stepping with sub-stepped collision checking.

All randomness is derived from counter-based seed tuples
(episode seed, stream tag, step, obstacle id), so trajectories are
bit-reproducible from (config, seed) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict
from typing import Optional

import numpy as np

from .geometry import (
    Disc,
    Pose,
    VelocityCommand,
    WallSegment,
    clearance,
    goal_distance,
    step_unicycle,
)

# Stream tags keep the per-purpose RNG substreams disjoint.
_TAG_BUILD = 1
_TAG_OBS = 2
_TAG_ACT = 3
_TAG_PROC = 4

N_SUBSTEPS = 4

BEHAVIORS = ("crossing", "patrolling", "gap-blocking")


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


@dataclass(frozen=True)
class StaticMap:
    walls: tuple[WallSegment, ...]
    bounds: tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)

    def to_dict(self) -> dict:
        return {
            "walls": [[list(w.a), list(w.b)] for w in self.walls],
            "bounds": list(self.bounds),
        }

    @staticmethod
    def from_dict(d: dict) -> "StaticMap":
        walls = tuple(WallSegment(tuple(a), tuple(b)) for a, b in d["walls"])
        return StaticMap(walls=walls, bounds=tuple(d["bounds"]))


@dataclass(frozen=True)
class ObstacleSpec:
    position: tuple[float, float]
    radius: float
    behavior: str
    speed: float
    direction: tuple[float, float] = (1.0, 0.0)
    trigger_distance: float = 0.0          # gap-blocking only
    target: Optional[tuple[float, float]] = None  # gap-blocking only
    retreat: Optional[tuple[float, float]] = None  # gap-blocking fallback point
    patrol_span: Optional[float] = None    # patrolling turnaround span, meters
    hold_time: float = 0.0                 # gap-blocking dwell at target, seconds
    sigma: float = 0.0                     # process noise, m/s per step

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {self.behavior!r}")
        if self.radius <= 0 or self.speed < 0 or self.sigma < 0:
            raise ValueError("invalid obstacle spec")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ObstacleSpec":
        return ObstacleSpec(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in d.items()})


@dataclass(frozen=True)
class EnvironmentConfig:
    name: str
    static_map: StaticMap
    obstacles: tuple[ObstacleSpec, ...]
    start: Pose
    goal: tuple[float, float]
    goal_radius: float
    robot_radius: float
    dt: float
    max_steps: int
    v_max: float
    omega_max: float
    sigma_obs: float
    sensing_radius: float
    sigma_act: float
    command_delay: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.max_steps <= 0:
            raise ValueError("dt and max_steps must be positive")
        x0, y0, x1, y1 = self.static_map.bounds
        if not (x0 <= self.goal[0] <= x1 and y0 <= self.goal[1] <= y1):
            raise ValueError("goal outside map bounds")

    def to_dict(self) -> dict:
        """Every field as is, apart from the four whose JSON form differs."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "static_map": self.static_map.to_dict(),
            "obstacles": [o.to_dict() for o in self.obstacles],
            "start": [self.start.x, self.start.y, self.start.heading],
            "goal": list(self.goal),
        }

    @staticmethod
    def from_dict(d: dict) -> "EnvironmentConfig":
        """The inverse of to_dict; a missing or unknown key raises."""
        return EnvironmentConfig(**{
            **d,
            "static_map": StaticMap.from_dict(d["static_map"]),
            "obstacles": tuple(ObstacleSpec.from_dict(o)
                               for o in d["obstacles"]),
            "start": Pose(*d["start"]),
            "goal": tuple(d["goal"]),
        })


@dataclass(frozen=True)
class Observation:
    robot: Pose
    obstacles: tuple[tuple[int, tuple[float, float], float], ...]  # (id, noisy xy, radius)
    step: int


@dataclass
class WorldState:
    seed: int
    robot: Pose
    positions: np.ndarray    # (n_obs, 2) true positions
    directions: np.ndarray   # (n_obs, 2) unit travel directions
    phase: np.ndarray        # (n_obs,) int, gap-blocking phase machine state
    timer: np.ndarray        # (n_obs,) float, gap-blocking hold time left, s
    anchors: np.ndarray      # (n_obs, 2) behavior anchor (home / patrol center)
    step: int = 0
    outcome: str = "running"
    pending: list = field(default_factory=list)  # command-delay queue


@dataclass(frozen=True)
class StepOutcome:
    status: str
    clearance: float
    executed: VelocityCommand


def _rect_walls(x0, y0, x1, y1) -> list[WallSegment]:
    return [
        WallSegment((x0, y0), (x1, y0)),
        WallSegment((x1, y0), (x1, y1)),
        WallSegment((x1, y1), (x0, y1)),
        WallSegment((x0, y1), (x0, y0)),
    ]


def build_environment(name: str, seed: int) -> tuple[EnvironmentConfig, "WorldState"]:
    """Construct one of the named environments.

    The seed perturbs obstacle phases and passage geometry within fixed
    generator ranges, so every (name, seed) pair is a distinct but
    reproducible episode layout.
    """
    rng = _rng(seed, _TAG_BUILD)
    bounds = (0.0, 0.0, 12.0, 10.0)
    common = dict(
        goal_radius=0.4,
        robot_radius=0.3,
        dt=0.1,
        max_steps=600,
        v_max=1.0,
        omega_max=1.5,
        sigma_obs=0.03,
        sensing_radius=6.0,
        sigma_act=0.02,
    )

    if name == "open-space":
        static_map = StaticMap(walls=(), bounds=bounds)
        obstacles = (
            ObstacleSpec(position=(6.0, 8.5), radius=0.35, behavior="crossing",
                         speed=0.3, direction=(0.0, -1.0), sigma=0.02),
        )
        cfg = EnvironmentConfig(
            name=name, static_map=static_map, obstacles=obstacles,
            start=Pose(1.0, 5.0, 0.0), goal=(11.0, 5.0), **common,
        )
    elif name == "bottleneck":
        gap_width = 1.2 + 0.6 * rng.random()
        gap_center = 5.0 + 0.8 * (rng.random() - 0.5)
        lo = gap_center - gap_width / 2.0
        hi = gap_center + gap_width / 2.0
        walls = _rect_walls(*bounds)
        # Thick interior barrier: the slab corners make sidling along the
        # wall toward the gap progressively costly instead of just flat.
        walls.extend(_rect_walls(5.5, 0.0, 6.0, lo))
        walls.extend(_rect_walls(5.5, hi, 6.0, 10.0))
        # Funnel walls on the approach: keep evasive maneuvers near the
        # corridor axis so the robot always faces the gap head-on.
        walls.append(WallSegment((2.8, gap_center - 1.3), (5.5, gap_center - 1.3)))
        walls.append(WallSegment((2.8, gap_center + 1.3), (5.5, gap_center + 1.3)))
        static_map = StaticMap(walls=tuple(walls), bounds=bounds)
        # Staged due east of the gap on the corridor centerline: the transit
        # approach is head-on, so a constant-velocity extrapolation covers
        # the whole slot rather than leaving an apparent side opening.  The
        # trigger fires early so the blocker arrives in the slot just as a
        # full-speed straight-line crossing would pass through it.
        blocker_home = (9.2, gap_center)
        obstacles = (
            ObstacleSpec(position=blocker_home, radius=0.55, behavior="gap-blocking",
                         speed=0.8, direction=(-1.0, 0.0), trigger_distance=7.2,
                         target=(5.75, gap_center),
                         retreat=(9.0, min(gap_center + 2.2, 9.4)),
                         hold_time=6.0, sigma=0.03),
            ObstacleSpec(position=(2.4, 8.0 + 0.5 * (rng.random() - 0.5)),
                         radius=0.35, behavior="crossing", speed=0.4,
                         direction=(0.0, -1.0), sigma=0.03),
        )
        cfg = EnvironmentConfig(
            name=name, static_map=static_map, obstacles=obstacles,
            start=Pose(1.0, gap_center, 0.0), goal=(6.8, gap_center), **common,
        )
    elif name == "warehouse-squeeze":
        aisle_lo, aisle_hi = 3.9, 6.3
        walls = _rect_walls(*bounds)
        walls.extend(_rect_walls(4.5, 0.0, 8.5, aisle_lo))
        walls.extend(_rect_walls(4.5, aisle_hi, 8.5, 10.0))
        # Parallel channel walls on the approach: they keep evasive
        # maneuvers near the aisle axis, so the robot never ends up
        # heading-locked against a shelf corner.
        walls.append(WallSegment((2.5, aisle_hi), (4.5, aisle_hi)))
        walls.append(WallSegment((2.5, aisle_lo), (4.5, aisle_lo)))
        static_map = StaticMap(walls=tuple(walls), bounds=bounds)
        mid = (aisle_lo + aisle_hi) / 2.0
        phase = 2.0 * (rng.random() - 0.5)
        obstacles = (
            # The patrol sweep stays east of the aisle mouth: a controller
            # that yields at the mouth can wait out the inbound leg and
            # trail the outbound one all the way through, while one that
            # drives straight in meets the inbound leg with no room to
            # pass.
            ObstacleSpec(position=(8.0 + 0.3 * phase, mid), radius=0.3,
                         behavior="patrolling", speed=0.6,
                         direction=(-1.0, 0.0), patrol_span=6.0, sigma=0.02),
            ObstacleSpec(position=(10.5, 8.0 + phase / 2.0), radius=0.35,
                         behavior="crossing", speed=0.35,
                         direction=(0.0, -1.0), sigma=0.02),
        )
        cfg = EnvironmentConfig(
            name=name, static_map=static_map, obstacles=obstacles,
            start=Pose(1.0, mid, 0.0), goal=(10.2, 7.0), **common,
        )
    else:
        raise ValueError(f"unknown environment {name!r}")

    return cfg, init_world(cfg, seed)


def init_world(config: EnvironmentConfig, seed: int) -> WorldState:
    n = len(config.obstacles)
    positions = np.array([o.position for o in config.obstacles], dtype=float).reshape(n, 2)
    directions = np.zeros((n, 2))
    for i, o in enumerate(config.obstacles):
        d = np.asarray(o.direction, dtype=float)
        nrm = np.hypot(*d)
        directions[i] = d / nrm if nrm > 0 else np.array([1.0, 0.0])
    return WorldState(
        seed=seed,
        robot=config.start,
        positions=positions,
        directions=directions,
        phase=np.zeros(n, dtype=int),
        timer=np.zeros(n),
        anchors=positions.copy(),
    )


# Gap-blocking phase machine states.
GB_IDLE, GB_TRANSIT, GB_HOLD, GB_RETREAT, GB_DONE = range(5)
_GB_ARRIVE = 0.1  # meters; waypoint arrival threshold


def _seek(pos: np.ndarray, waypoint: np.ndarray, speed: float) -> np.ndarray:
    to = waypoint - pos
    nrm = float(np.hypot(*to))
    if nrm < 1e-9:
        return np.zeros(2)
    return speed * to / nrm


def _behavior_velocity(state: WorldState, i: int, spec: ObstacleSpec,
                       bounds, dt: float) -> np.ndarray:
    """Deterministic behavioral velocity before process noise."""
    pos = state.positions[i]
    d = state.directions[i]
    x0, y0, x1, y1 = bounds

    if spec.behavior == "gap-blocking":
        # Phase machine: wait at home until the robot comes near, move to
        # guard the target point, hold it, then retreat home for good.
        target = np.asarray(spec.target, dtype=float)
        if state.phase[i] == GB_IDLE:
            rp = np.array([state.robot.x, state.robot.y])
            if np.hypot(*(rp - pos)) <= spec.trigger_distance:
                state.phase[i] = GB_TRANSIT
        if state.phase[i] == GB_TRANSIT:
            if np.hypot(*(target - pos)) <= _GB_ARRIVE:
                state.phase[i] = GB_HOLD
                state.timer[i] = spec.hold_time
            else:
                return _seek(pos, target, spec.speed)
        if state.phase[i] == GB_HOLD:
            state.timer[i] -= dt
            if state.timer[i] > 0:
                return np.zeros(2)
            state.phase[i] = GB_RETREAT
        if state.phase[i] == GB_RETREAT:
            fallback = (np.asarray(spec.retreat, dtype=float)
                        if spec.retreat is not None else state.anchors[i])
            if np.hypot(*(fallback - pos)) <= _GB_ARRIVE:
                state.phase[i] = GB_DONE
            else:
                return _seek(pos, fallback, spec.speed)
        return np.zeros(2)

    # Patrolling turnaround: reverse once the obstacle passes the far end of
    # its span (measured along the travel direction from the patrol center).
    if spec.behavior == "patrolling" and spec.patrol_span is not None:
        along = float((pos - state.anchors[i]) @ d)
        if along > spec.patrol_span / 2.0:
            state.directions[i] = -d
            d = state.directions[i]

    vel = spec.speed * d
    # Reflect at map bounds.
    nxt = pos + vel * 1e-6
    if nxt[0] < x0 or nxt[0] > x1:
        state.directions[i] = d * np.array([-1.0, 1.0])
        vel = spec.speed * state.directions[i]
    if nxt[1] < y0 or nxt[1] > y1:
        state.directions[i] = state.directions[i] * np.array([1.0, -1.0])
        vel = spec.speed * state.directions[i]
    return vel


def observe(state: WorldState, config: EnvironmentConfig) -> Observation:
    """Range-limited observation with seeded Gaussian position noise."""
    rp = np.array([state.robot.x, state.robot.y])
    visible = []
    for i, spec in enumerate(config.obstacles):
        pos = state.positions[i]
        if np.hypot(*(pos - rp)) > config.sensing_radius:
            continue
        if config.sigma_obs > 0:
            noise = _rng(state.seed, _TAG_OBS, state.step, i).normal(
                0.0, config.sigma_obs, 2)
        else:
            noise = np.zeros(2)
        noisy = pos + noise
        visible.append((i, (float(noisy[0]), float(noisy[1])), spec.radius))
    return Observation(robot=state.robot, obstacles=tuple(visible), step=state.step)


def current_clearance(state: WorldState, config: EnvironmentConfig) -> float:
    discs = [Disc(tuple(state.positions[i]), config.obstacles[i].radius)
             for i in range(len(config.obstacles))]
    return clearance(Disc((state.robot.x, state.robot.y), config.robot_radius),
                     discs, config.static_map.walls)


def step_world(
    state: WorldState, cmd: VelocityCommand, config: EnvironmentConfig,
) -> tuple[WorldState, Observation, StepOutcome]:
    """Advance the world one control step.

    Applies seeded multiplicative actuation noise to the command, moves the
    robot and obstacles in N_SUBSTEPS sub-steps (checking clearance at each
    to prevent tunneling), and classifies the outcome.  Collision takes
    precedence over success.
    """
    if state.outcome != "running":
        raise RuntimeError("cannot step a terminal world state")

    cmd = cmd.clamped(config.v_max, config.omega_max)

    # Optional command latency: execute the command issued `delay` steps ago.
    if config.command_delay > 0:
        state.pending.append(cmd)
        if len(state.pending) > config.command_delay:
            cmd = state.pending.pop(0)
        else:
            cmd = VelocityCommand(0.0, 0.0)

    if config.sigma_act > 0:
        eps = _rng(state.seed, _TAG_ACT, state.step).normal(0.0, config.sigma_act, 2)
        executed = VelocityCommand(cmd.v * (1.0 + eps[0]),
                                   cmd.omega * (1.0 + eps[1])).clamped(
            config.v_max, config.omega_max)
    else:
        executed = cmd

    # Per-step obstacle displacement: behavioral velocity plus process noise.
    n = len(config.obstacles)
    disp = np.zeros((n, 2))
    for i, spec in enumerate(config.obstacles):
        vel = _behavior_velocity(state, i, spec, config.static_map.bounds,
                                 config.dt)
        if spec.sigma > 0:
            vel = vel + _rng(state.seed, _TAG_PROC, state.step, i).normal(
                0.0, spec.sigma, 2)
        disp[i] = vel * config.dt

    sub_dt = config.dt / N_SUBSTEPS
    min_clear = math.inf
    for _ in range(N_SUBSTEPS):
        state.robot = step_unicycle(state.robot, executed, sub_dt)
        state.positions += disp / N_SUBSTEPS
        min_clear = min(min_clear, current_clearance(state, config))

    # Keep obstacle centers inside bounds.
    x0, y0, x1, y1 = config.static_map.bounds
    np.clip(state.positions[:, 0], x0, x1, out=state.positions[:, 0])
    np.clip(state.positions[:, 1], y0, y1, out=state.positions[:, 1])

    state.step += 1

    if min_clear < 0.0:
        status = "collision"
    elif goal_distance(state.robot, config.goal) <= config.goal_radius:
        status = "success"
    elif state.step >= config.max_steps:
        status = "timeout"
    else:
        status = "running"
    state.outcome = status

    obs = observe(state, config)
    return state, obs, StepOutcome(status=status, clearance=float(min_clear),
                                   executed=executed)
