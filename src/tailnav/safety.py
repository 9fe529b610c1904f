"""Fixed discrete barrier-style execution filter.

The filter sees only the current observation, the tracked obstacle
velocity means, and the static map: it never touches the conjecture
posterior, scenario batches, or CVaR values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .beliefs import ObstacleBelief
from .geometry import Pose, VelocityCommand, clearance_points, goal_distance
from .planner import CommandLattice, tie_break_key
from .scenarios import lattice_paths, obstacles_as_arrays, walls_as_arrays
from .world import Observation, StaticMap


# FilterParams fields filled from the environment, not from the config's
# "filter" block.
ENV_FIELDS = ("dt", "robot_radius", "v_max", "omega_max")


@dataclass(frozen=True)
class FilterParams:
    c_hard: float = 0.15        # hard clearance margin, m
    kappa: float = 0.5          # barrier gain on margin erosion
    horizon: int = 10           # filter rollout steps
    w_progress: float = 1.0
    w_clearance: float = 2.0
    w_deviation: float = 0.5
    dt: float = 0.1
    robot_radius: float = 0.3
    v_max: float = 1.0
    omega_max: float = 1.5

    def __post_init__(self):
        bad = {n: getattr(self, n) for n in ("c_hard", "kappa", "horizon",
                                             "w_progress", "w_clearance",
                                             "w_deviation")
               if not 0 < getattr(self, n) < math.inf}
        if bad:
            raise ValueError(f"filter parameters must be positive and "
                             f"finite, got {bad}")
        if not isinstance(self.horizon, int):
            raise ValueError(f"horizon must be an integer, "
                             f"got {self.horizon!r}")

    @classmethod
    def for_env(cls, env, **params) -> "FilterParams":
        """Filter parameters whose ENV_FIELDS are taken from env."""
        return cls(**{k: getattr(env, k) for k in ENV_FIELDS}, **params)


def filter_rollouts(
    commands: Sequence[VelocityCommand],
    obs: Observation,
    beliefs: Mapping[int, ObstacleBelief],
    static_map: StaticMap,
    horizon: int,
    dt: float,
    robot_radius: float,
    goal: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Short local rollouts: constant commands, obstacles extrapolated
    linearly at their tracked velocity means.

    Returns (C,) minimum predicted clearance over each command's rollout,
    including the current pose, and (C,) goal-distance reduction over it.
    All C paths are measured in one clearance call over (C, horizon+1)
    points.
    """
    start = obs.robot
    xy = np.empty((len(commands), horizon + 1, 2))
    xy[:, 0] = start.x, start.y
    xy[:, 1:] = lattice_paths(commands, start, horizon, dt)

    pos0, radii = obstacles_as_arrays(obs)
    vels = np.array([
        beliefs[oid].vel_mean if oid in beliefs else np.zeros(2)
        for oid, _, _ in obs.obstacles
    ], dtype=float).reshape(-1, 2)
    ks = np.arange(horizon + 1)[:, None, None]
    traj = pos0[None, :, :] + ks * dt * vels[None, :, :]      # (H+1, n, 2)
    clear = clearance_points(xy, robot_radius, traj, radii,
                             *walls_as_arrays(static_map))
    d0 = goal_distance(start, goal)
    progress = np.array([d0 - goal_distance(Pose(x, y, 0.0), goal)
                         for x, y in xy[:, -1].tolist()])
    return clear.min(axis=1), progress


def filter_rollout(
    u: VelocityCommand,
    obs: Observation,
    beliefs: Mapping[int, ObstacleBelief],
    static_map: StaticMap,
    horizon: int,
    dt: float,
    robot_radius: float,
    goal: tuple[float, float],
) -> tuple[float, float]:
    """One command's `filter_rollouts`: (minimum predicted clearance over
    the rollout, including the current pose, and goal-distance reduction
    over the rollout)."""
    c_min, progress = filter_rollouts((u,), obs, beliefs, static_map,
                                      horizon, dt, robot_radius, goal)
    return float(c_min[0]), float(progress[0])


def is_feasible(u: VelocityCommand, c_t: float, c_min: float,
                params: FilterParams) -> bool:
    """Barrier conditions: margin kept, and margin erosion bounded."""
    return (c_min >= params.c_hard
            and (c_min - params.c_hard) + params.kappa * (c_t - params.c_hard) >= 0.0)


def command_deviation(u: VelocityCommand, u_nom: VelocityCommand,
                      params: FilterParams) -> float:
    """Euclidean distance in (v, omega) with omega rescaled to speed units."""
    scale = params.v_max / params.omega_max
    return math.hypot(u.v - u_nom.v, scale * (u.omega - u_nom.omega))


def apply_filter(
    u_nom: VelocityCommand,
    obs: Observation,
    beliefs: Mapping[int, ObstacleBelief],
    lattice: CommandLattice,
    goal: tuple[float, float],
    static_map: StaticMap,
    params: FilterParams,
) -> VelocityCommand:
    """Select the executed command from {u_nom} union the lattice.

    Feasible candidates are scored by progress, predicted clearance, and
    closeness to u_nom.  If every candidate is infeasible the filter falls
    back to the candidate with the highest predicted clearance.
    """
    candidates = [u_nom] + list(lattice.commands)

    # Current clearance from the observation alone.
    rxy = np.array([obs.robot.x, obs.robot.y])
    c_t = float(clearance_points(rxy, params.robot_radius,
                                 *obstacles_as_arrays(obs),
                                 *walls_as_arrays(static_map)))

    # u_nom may be any command; the lattice is rolled as one batch.
    rollout = (params.horizon, params.dt, params.robot_radius, goal)
    nominal = filter_rollout(u_nom, obs, beliefs, static_map, *rollout)
    c_mins, progresses = filter_rollouts(lattice.commands, obs, beliefs,
                                         static_map, *rollout)
    rollouts = [nominal, *zip(c_mins.tolist(), progresses.tolist())]

    best_key = None
    best_cmd = None
    fallback_key = None
    fallback_cmd = None
    any_feasible = False
    for idx, (u, (c_min, progress)) in enumerate(zip(candidates, rollouts)):
        feasible = is_feasible(u, c_t, c_min, params)
        score = (params.w_progress * progress
                 + params.w_clearance * c_min
                 - params.w_deviation * command_deviation(u, u_nom, params))
        key = tie_break_key(score, u, params.v_max, idx)
        if feasible and (not any_feasible or key < best_key):
            any_feasible = True
            best_key, best_cmd = key, u
        fkey = tie_break_key(c_min, u, params.v_max, idx)
        if fallback_key is None or fkey < fallback_key:
            fallback_key, fallback_cmd = fkey, u
    return best_cmd if any_feasible else fallback_cmd
