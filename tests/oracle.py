"""Scalar references: the exactness oracles for the batched kernels.

`score_command` rolls one command against every scenario on its own,
re-propagating each reactive scenario against that command's path, the
way the planner scored commands before it stepped the whole lattice at
once.  `planner.select_command` must reproduce its per-scenario risks,
tail risk, reward and objective bit for bit.  The rollout helpers here
back the scenario tests that check one command against one scenario.

`sample_obstacle_state` draws one obstacle state from one generator,
obstacle by obstacle in sorted id order, the way scenario sampling drew
each scenario's velocities before it drew them as one array;
`scenarios.sample_batch` must consume every substream the same way.

`scalar_clearance` loops over obstacles and walls one at a time with
`point_segment_distance`, the way the simulator measured clearance
before it shared `clearance_points` with the planner; it agrees with
`clearance_points` to rounding, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from tailnav.beliefs import ObstacleBelief
from tailnav.geometry import (
    EMPTY_CLEARANCE,
    Disc,
    Pose,
    VelocityCommand,
    WallSegment,
    clearance_points,
    goal_distance,
)
from tailnav.planner import CommandScore, PlannerParams, empirical_cvar
from tailnav.scenarios import (
    Scenario,
    ScenarioBatch,
    propagate_obstacles,
    reaction_sequence,
    robot_rollout_poses,
    walls_as_arrays,
)
from tailnav.world import StaticMap


def sample_obstacle_state(
    beliefs: Mapping[int, ObstacleBelief], rng: np.random.Generator,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Draw one full obstacle state (positions and velocities).

    Positions are the last observed positions; velocities are Gaussian
    draws with each belief's isotropic variance.  Iteration is in sorted id
    order so the draw sequence is deterministic.
    """
    state: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for oid in sorted(beliefs):
        b = beliefs[oid]
        z = rng.standard_normal(2)
        vel = b.vel_mean + np.sqrt(b.vel_cov[0, 0]) * z
        state[oid] = (b.last_pos.copy(), vel)
    return state


def point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance from point p to segment ab."""
    ab = b - a
    denom = float(ab @ ab)
    t = float((p - a) @ ab) / denom
    t = min(max(t, 0.0), 1.0)
    closest = a + t * ab
    return float(np.hypot(*(p - closest)))


def scalar_clearance(
    robot: Disc,
    obstacles: Sequence[Disc] = (),
    walls: Sequence[WallSegment] = (),
) -> float:
    """Signed minimum clearance, one obstacle and one wall at a time."""
    c = EMPTY_CLEARANCE
    rc = np.asarray(robot.center, dtype=float)
    for ob in obstacles:
        d = float(np.hypot(rc[0] - ob.center[0], rc[1] - ob.center[1]))
        c = min(c, d - robot.radius - ob.radius)
    for w in walls:
        d = point_segment_distance(rc, np.asarray(w.a, dtype=float),
                                   np.asarray(w.b, dtype=float))
        c = min(c, d - robot.radius)
    return c


@dataclass(frozen=True)
class RobotRollout:
    poses: tuple[Pose, ...]      # H simulated poses
    clearances: np.ndarray       # (H,) signed clearance per step


def scenario_trajectory(scenario: Scenario, start: Pose,
                        robot_xy: np.ndarray, dt: float) -> np.ndarray:
    """Obstacle trajectory a command actually faces.

    Non-reactive scenarios reuse the canonical trajectory; reactive ones
    are re-propagated against the command's own robot path.
    """
    if not scenario.reactive:
        return scenario.trajectory
    seq = reaction_sequence(start, robot_xy)
    return propagate_obstacles(scenario.conjecture, scenario.init_positions,
                               scenario.init_velocities, seq, scenario.noise, dt)


def reactive_trajectories(scenarios: list[Scenario], start: Pose,
                          robot_xy: np.ndarray, dt: float) -> np.ndarray:
    """Stacked (S, H, n, 2) re-propagation of reactive scenarios that share
    one conjecture, against one robot path."""
    conj = scenarios[0].conjecture
    seq = reaction_sequence(start, robot_xy)
    init_pos = np.stack([s.init_positions for s in scenarios])
    init_vel = np.stack([s.init_velocities for s in scenarios])
    noise = np.stack([s.noise for s in scenarios])          # (S, H, n, 2)
    traj = propagate_obstacles(conj, init_pos, init_vel, seq,
                               np.moveaxis(noise, 0, 1), dt)
    return np.moveaxis(traj, 0, 1)


def rollout_command(
    u: VelocityCommand,
    start: Pose,
    scenario: Scenario,
    static_map: StaticMap,
    dt: float,
    robot_radius: float,
) -> RobotRollout:
    """Roll the robot under constant command u against one scenario."""
    H = scenario.noise.shape[0]
    poses, xy = robot_rollout_poses(u, start, H, dt)
    traj = scenario_trajectory(scenario, start, xy, dt)
    wall_a, wall_b = walls_as_arrays(static_map)
    clear = clearance_points(xy, robot_radius, traj, scenario.radii,
                             wall_a, wall_b)
    return RobotRollout(poses=poses, clearances=np.asarray(clear, dtype=float))


def progress_reward(rollout: RobotRollout, start: Pose,
                    goal: tuple[float, float]) -> float:
    """Reduction in goal distance over the rollout."""
    return goal_distance(start, goal) - goal_distance(rollout.poses[-1], goal)


def trajectory_risk(rollout: RobotRollout, c_safe: float) -> float:
    """Worst per-step normalized clearance deficit, in [0, 1]."""
    if c_safe <= 0:
        raise ValueError("c_safe must be positive")
    g = np.clip((c_safe - rollout.clearances) / c_safe, 0.0, 1.0)
    return float(g.max())


def score_command(
    u: VelocityCommand,
    batch: ScenarioBatch,
    start: Pose,
    goal: tuple[float, float],
    static_map: StaticMap,
    params: PlannerParams,
) -> CommandScore:
    """Roll one command against every scenario in the batch and score it."""
    H, dt = batch.horizon, batch.dt
    _poses, xy = robot_rollout_poses(u, start, H, dt)
    wall_a, wall_b = walls_as_arrays(static_map)

    reward = goal_distance(start, goal) - goal_distance(
        Pose(xy[-1, 0], xy[-1, 1], 0.0), goal)

    scen = batch.scenarios
    N = len(scen)
    risks = np.empty(N)

    # Non-reactive scenarios share one stacked clearance evaluation;
    # reactive ones are re-propagated in one stack per conjecture.
    nonreactive = [i for i, s in enumerate(scen) if not s.reactive]
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(scen):
        if s.reactive:
            groups.setdefault(s.conjecture.id, []).append(i)
    if nonreactive:
        trajs = np.stack([scen[i].trajectory for i in nonreactive])  # (M,H,n,2)
        radii = scen[nonreactive[0]].radii
        c = clearance_points(xy, batch.robot_radius, trajs, radii,
                             wall_a, wall_b)                          # (M,H)
        g = np.clip((params.c_safe - c) / params.c_safe, 0.0, 1.0)
        risks[nonreactive] = g.max(axis=-1)
    for idxs in groups.values():
        trajs = reactive_trajectories([scen[i] for i in idxs], start, xy, dt)
        c = clearance_points(xy, batch.robot_radius, trajs,
                             scen[idxs[0]].radii, wall_a, wall_b)
        g = np.clip((params.c_safe - c) / params.c_safe, 0.0, 1.0)
        risks[idxs] = g.max(axis=-1)

    if params.objective == "cvar":
        tail = empirical_cvar(risks, params.alpha, params.fractional_tail)
    elif params.objective == "mean":
        tail = float(risks.mean())
    else:
        tail = float(risks.max())
    score = reward - params.risk_weight * tail
    return CommandScore(command=u, mean_reward=reward, tail_risk=tail,
                        objective=score, risks=risks)
