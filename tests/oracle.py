"""Scalar references: the exactness oracles for the batched kernels.

`score_command` rolls one command against every scenario on its own,
re-propagating each reactive scenario against that command's path, the
way the planner scored commands before it stepped the whole lattice at
once.  `planner.select_command` must reproduce its per-scenario risks,
tail risk, reward and objective bit for bit.  The rollout helpers here
back the scenario tests that check one command against one scenario.

`conjectured_velocity_reference` and `step_obstacles_reference` are the
obstacle transition with x and y on a trailing axis, the way
`beliefs.conjectured_velocity` and `scenarios.step_obstacles` took them
before the planner's kernel laid x and y out as leading planes.
`propagate_obstacles` rolls obstacles step by step through
`step_obstacles_reference`, and `canonical_trajectories` uses it to
propagate every scenario of a batch with the robot frozen, one stack per
conjecture, the way the scenario batch built its canonical trajectories
before `planner.lattice_risks` became the one place scenario obstacles
move.  `score_command` scores non-reactive scenarios against them, so
the kernel's running sums are checked against step-by-step propagation.

`sample_obstacle_state` draws one obstacle state from one generator,
obstacle by obstacle in sorted id order, the way scenario sampling drew
each scenario's velocities before it drew them as one array;
`scenarios.sample_batch` must consume every substream the same way.
`spawned_draws` is the per-scenario loop over `SeedSequence.spawn`
children, each with its own `default_rng`, that `sample_batch` ran
before it seeded all children from one vectorised copy of numpy's seed
hash; `sample_batch` must give its velocities and noise bit for bit.

`scalar_clearance` loops over obstacles and walls one at a time with
`point_segment_distance`, the way the simulator measured clearance
before it shared `clearance_points` with the planner; it agrees with
`clearance_points` to rounding, not bit for bit.

`clearance_points_reference` measures clearance with numpy reductions
over the trailing xy and obstacle/wall axes, the way `clearance_points`
did before it took the x and y components apart; `clearance_points` must
reproduce it bit for bit.

`robot_rollout_poses` rolls one command through `step_unicycle` step by
step; `scenarios.lattice_paths` must give its positions bit for bit.
`filter_rollout`, `apply_filter` and `decide_dwa` roll and measure one
candidate command at a time, the way the safety filter and `dwa-style`
did before they rolled the lattice as one batch; the batched forms must
reproduce every `(c_min, progress)` pair and every chosen command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from tailnav.beliefs import Conjecture, ObstacleBelief
from tailnav.geometry import (
    EMPTY_CLEARANCE,
    Disc,
    Pose,
    VelocityCommand,
    WallSegment,
    clearance,
    clearance_points,
    goal_distance,
    normalize_angle,
    step_unicycle,
)
from tailnav.planner import (
    CommandLattice,
    CommandScore,
    PlannerParams,
    empirical_cvar,
    tie_break_key,
)
from tailnav.safety import FilterParams, command_deviation, is_feasible
from tailnav.scenarios import (
    Scenario,
    ScenarioBatch,
    reaction_sequence,
    walls_as_arrays,
)
from tailnav.world import EnvironmentConfig, Observation, StaticMap


def robot_rollout_poses(u: VelocityCommand, start: Pose, H: int,
                        dt: float) -> tuple[tuple[Pose, ...], np.ndarray]:
    """H poses under a constant command, plus their (H, 2) positions."""
    poses = []
    p = start
    for _ in range(H):
        p = step_unicycle(p, u, dt)
        poses.append(p)
    xy = np.array([[q.x, q.y] for q in poses])
    return tuple(poses), xy


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


def spawned_draws(
    beliefs: Mapping[int, ObstacleBelief],
    family: Sequence[Conjecture],
    conjecture_ids: np.ndarray,
    seed_seq: np.random.SeedSequence,
    H: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(N, n, 2) velocities and (N, H, n, 2) noise, one scenario at a time.

    Each scenario builds the generator of its `spawn`ed child of a fresh
    copy of `seed_seq` and draws its velocities' standard normals, then
    its conjecture's `normal(0.0, sigma_theta)` noise when sigma_theta is
    positive, the way `scenarios.sample_batch` drew them before it seeded
    all children with one hash.
    """
    ids = sorted(beliefs)
    n = len(ids)
    var = np.array([beliefs[o].vel_cov[0, 0] for o in ids], dtype=float)
    vel_mean = np.array([beliefs[o].vel_mean for o in ids],
                        dtype=float).reshape(n, 2)
    fresh = np.random.SeedSequence(seed_seq.entropy,
                                   spawn_key=seed_seq.spawn_key,
                                   pool_size=seed_seq.pool_size)
    N = len(conjecture_ids)
    z = np.empty((N, n, 2))
    noise = np.zeros((N, H, n, 2))
    for i, child in enumerate(fresh.spawn(N)):
        rng = np.random.default_rng(child)
        z[i] = rng.standard_normal((n, 2))
        sigma = family[int(conjecture_ids[i])].sigma_theta
        if sigma > 0:
            noise[i] = rng.normal(0.0, sigma, (H, n, 2))
    return vel_mean + np.sqrt(var)[:, None] * z, noise


def conjectured_velocity_reference(conj: Conjecture, vel: np.ndarray,
                                   pos: np.ndarray,
                                   robot_xy: np.ndarray) -> np.ndarray:
    """`beliefs.conjectured_velocity` on arrays whose trailing axis of size
    2 holds x and y."""
    vel = np.asarray(vel, dtype=float)
    pos = np.asarray(pos, dtype=float)
    if conj.kind == "static":
        return np.zeros_like(vel)
    if conj.kind == "constant-velocity":
        return conj.gamma * vel
    to_robot = np.asarray(robot_xy, dtype=float) - pos
    tx, ty = to_robot[..., 0, None], to_robot[..., 1, None]
    dist = np.sqrt(tx * tx + ty * ty)   # np.linalg.norm's own arithmetic
    if conj.kind == "yielding":
        return np.where(dist < conj.d_yield, conj.decel * vel, vel)
    # aggressive: blend toward the unit vector pointing at the robot
    unit = np.where(dist > 1e-9, to_robot / np.where(dist > 1e-9, dist, 1.0), 0.0)
    return (1.0 - conj.pursuit_gain) * vel + conj.pursuit_gain * unit


def step_obstacles_reference(
    conj: Conjecture,
    pos: np.ndarray,             # (..., 2) current positions
    init_vel: np.ndarray,        # (..., 2) sampled velocities
    robot_xy: np.ndarray,        # (..., 2) robot position reacted to
    noise_k: np.ndarray,         # (..., 2) this step's velocity noise
    dt: float,
) -> np.ndarray:
    """`scenarios.step_obstacles` with x and y on the trailing axis."""
    v = conjectured_velocity_reference(conj, init_vel, pos, robot_xy)
    return pos + (v + noise_k) * dt


def propagate_obstacles(
    conj: Conjecture,
    init_pos: np.ndarray,        # (..., 2)
    init_vel: np.ndarray,        # (..., 2)
    robot_seq: np.ndarray,       # (H, 2) robot positions the obstacles react to
    noise: np.ndarray,           # (H, ..., 2)
    dt: float,
) -> np.ndarray:
    """Roll obstacle positions H steps forward under one conjecture.

    Reactive conjectures (yielding, aggressive) read the robot position at
    the step the transition starts from; non-reactive kinds ignore it.
    Leading axes broadcast, so a stack of scenarios propagates in one call;
    the returned trajectory has the same shape as the noise.
    """
    H = noise.shape[0]
    traj = np.empty_like(noise, dtype=float)
    pos = np.array(init_pos, dtype=float)
    init_vel = np.asarray(init_vel, dtype=float)
    for k in range(H):
        pos = step_obstacles_reference(conj, pos, init_vel, robot_seq[k],
                                       noise[k], dt)
        traj[k] = pos
    return traj


def canonical_trajectories(batch: ScenarioBatch, robot: Pose,
                           rows: Sequence[int] | None = None) -> np.ndarray:
    """(N, H, n, 2) obstacle positions of every scenario, or of the given
    rows in their order, propagated with the robot frozen at `robot`."""
    H = batch.horizon
    N, n = batch.init_positions.shape[:2]
    rows = np.arange(N) if rows is None else np.asarray(rows, dtype=int)
    ids = batch.conjecture_ids[rows]
    frozen_seq = np.broadcast_to(np.array([robot.x, robot.y]), (H, 2))
    traj = np.empty((len(rows), H, n, 2))
    for cid in np.unique(ids):
        where = np.flatnonzero(ids == cid)
        sel = rows[where]
        group = propagate_obstacles(
            batch.family[int(cid)], batch.init_positions[sel],
            batch.init_velocities[sel], frozen_seq,
            np.moveaxis(batch.noise[sel], 0, 1), batch.dt)
        traj[where] = np.moveaxis(group, 0, 1)
    return traj


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


def clearance_points_reference(
    robot_xy: np.ndarray,
    robot_radius: float,
    obstacle_xy: np.ndarray,
    obstacle_radii: np.ndarray,
    wall_a: np.ndarray,
    wall_b: np.ndarray,
) -> np.ndarray:
    """`clearance_points` through reductions over the trailing axes."""
    batch = np.broadcast_shapes(robot_xy.shape[:-1], obstacle_xy.shape[:-2])
    c = np.full(batch, EMPTY_CLEARANCE)
    if obstacle_xy.shape[-2] > 0:
        diff = robot_xy[..., None, :] - obstacle_xy
        d = np.sqrt(np.sum(diff * diff, axis=-1)) - obstacle_radii - robot_radius
        c = np.minimum(c, d.min(axis=-1))
    if wall_a.shape[0] > 0:
        ab = wall_b - wall_a                        # (W, 2)
        denom = np.sum(ab * ab, axis=-1)            # (W,)
        ap = robot_xy[..., None, :] - wall_a        # (..., W, 2)
        t = np.clip(np.sum(ap * ab, axis=-1) / denom, 0.0, 1.0)
        closest = wall_a + t[..., None] * ab
        dw = np.sqrt(np.sum((robot_xy[..., None, :] - closest) ** 2, axis=-1))
        c = np.minimum(c, dw.min(axis=-1) - robot_radius)
    return c


@dataclass(frozen=True)
class RobotRollout:
    poses: tuple[Pose, ...]      # H simulated poses
    clearances: np.ndarray       # (H,) signed clearance per step


def scenario_trajectory(scenario: Scenario, start: Pose,
                        robot_xy: np.ndarray, dt: float) -> np.ndarray:
    """Obstacle trajectory a command actually faces, propagated against
    the command's own robot path.  Non-reactive scenarios ignore the path,
    so they follow their canonical trajectory.
    """
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
    mean_risk: bool = False,
) -> CommandScore:
    """Roll one command against every scenario in the batch and score it
    by the CVaR of its risks, or with mean_risk by their mean."""
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
        trajs = canonical_trajectories(batch, start, nonreactive)  # (M,H,n,2)
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

    tail = float(risks.mean()) if mean_risk else empirical_cvar(
        risks, params.alpha)
    score = reward - params.risk_weight * tail
    return CommandScore(command=u, mean_reward=reward, tail_risk=tail,
                        objective=score, risks=risks)


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
    """One command's (minimum predicted clearance over the rollout,
    including the current pose, and goal-distance reduction)."""
    start = obs.robot
    poses, xy = robot_rollout_poses(u, start, horizon, dt)
    xy = np.vstack([[start.x, start.y], xy])

    wall_a, wall_b = walls_as_arrays(static_map)
    if obs.obstacles:
        pos0 = np.array([p for _, p, _ in obs.obstacles])  # (n, 2)
        radii = np.array([r for _, _, r in obs.obstacles])
        vels = np.array([
            beliefs[oid].vel_mean if oid in beliefs else np.zeros(2)
            for oid, _, _ in obs.obstacles
        ])
        ks = np.arange(horizon + 1)[:, None, None]
        traj = pos0[None, :, :] + ks * dt * vels[None, :, :]  # (H+1, n, 2)
    else:
        radii = np.zeros(0)
        traj = np.zeros((horizon + 1, 0, 2))
    clear = clearance_points(xy, robot_radius, traj, radii, wall_a, wall_b)
    c_min = float(np.min(clear))
    progress = goal_distance(start, goal) - goal_distance(poses[-1], goal)
    return c_min, progress


def apply_filter(
    u_nom: VelocityCommand,
    obs: Observation,
    beliefs: Mapping[int, ObstacleBelief],
    lattice: CommandLattice,
    goal: tuple[float, float],
    static_map: StaticMap,
    params: FilterParams,
) -> tuple[VelocityCommand, list[tuple[float, float]]]:
    """The filter's choice from {u_nom} union the lattice, plus every
    candidate's (c_min, progress), one candidate at a time."""
    candidates = [u_nom] + list(lattice.commands)
    wall_a, wall_b = walls_as_arrays(static_map)
    rxy = np.array([obs.robot.x, obs.robot.y])
    if obs.obstacles:
        pos0 = np.array([p for _, p, _ in obs.obstacles])
        radii = np.array([r for _, _, r in obs.obstacles])
    else:
        pos0 = np.zeros((0, 2))
        radii = np.zeros(0)
    c_t = float(clearance_points(rxy, params.robot_radius, pos0, radii,
                                 wall_a, wall_b))

    pairs = []
    best_key = best_cmd = fallback_key = fallback_cmd = None
    for idx, u in enumerate(candidates):
        c_min, progress = filter_rollout(
            u, obs, beliefs, static_map, params.horizon, params.dt,
            params.robot_radius, goal)
        pairs.append((c_min, progress))
        score = (params.w_progress * progress
                 + params.w_clearance * c_min
                 - params.w_deviation * command_deviation(u, u_nom, params))
        key = tie_break_key(score, u, params.v_max, idx)
        if is_feasible(u, c_t, c_min, params) and (
                best_key is None or key < best_key):
            best_key, best_cmd = key, u
        fkey = tie_break_key(c_min, u, params.v_max, idx)
        if fallback_key is None or fkey < fallback_key:
            fallback_key, fallback_cmd = fkey, u
    return (best_cmd if best_key is not None else fallback_cmd), pairs


def decide_dwa(env: EnvironmentConfig, lattice: CommandLattice,
               obs: Observation) -> VelocityCommand:
    """dwa-style's command: each lattice command stepped and measured on
    its own."""
    discs = [Disc(p, r) for _, p, r in obs.obstacles]
    goal_bearing = math.atan2(env.goal[1] - obs.robot.y,
                              env.goal[0] - obs.robot.x)
    best = None
    best_any = None
    for idx, u in enumerate(lattice.commands):
        nxt = step_unicycle(obs.robot, u, env.dt)
        c = clearance(Disc((nxt.x, nxt.y), env.robot_radius), discs,
                      env.static_map.walls)
        heading = math.cos(normalize_angle(goal_bearing - nxt.heading))
        score = (1.0 * heading + 2.0 * min(c, 1.0)
                 + 0.5 * u.v / env.v_max)
        key = (-score, idx)
        if c >= 0.0 and (best is None or key < best[0]):
            best = (key, u)
        if best_any is None or (-c, idx) < best_any[0]:
            best_any = ((-c, idx), u)
    return best[1] if best is not None else best_any[1]
