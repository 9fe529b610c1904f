"""Posterior-mixture scenario sampling, obstacle propagation, and robot
rollouts under a constant command."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .beliefs import (
    Conjecture,
    ObstacleBelief,
    Posterior,
    belief_cov_sqrts,
    conjectured_velocity,
    sample_obstacle_state,
)
from .geometry import Pose, VelocityCommand, step_unicycle
# Re-exported, not called here: tools that patch clearance evaluation by
# module attribute look it up in this module as well.
from .geometry import clearance_points  # noqa: F401
from .world import StaticMap

REACTIVE_KINDS = ("yielding", "aggressive")


@dataclass(frozen=True)
class InformationState:
    static_map: StaticMap
    family: tuple[Conjecture, ...]
    beliefs: Mapping[int, ObstacleBelief]
    posterior: Posterior
    goal: tuple[float, float]
    robot: Pose


@dataclass(frozen=True)
class Scenario:
    conjecture: Conjecture
    obstacle_ids: tuple[int, ...]
    init_positions: np.ndarray   # (n, 2)
    init_velocities: np.ndarray  # (n, 2)
    radii: np.ndarray            # (n,)
    noise: np.ndarray            # (H, n, 2) per-step velocity noise, m/s
    trajectory: np.ndarray       # (H, n, 2) propagated with the robot frozen

    @property
    def reactive(self) -> bool:
        return self.conjecture.kind in REACTIVE_KINDS


@dataclass(frozen=True)
class ScenarioBatch:
    scenarios: tuple[Scenario, ...]
    step: int
    horizon: int
    dt: float
    robot_radius: float


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
        pos = step_obstacles(conj, pos, init_vel, robot_seq[k], noise[k], dt)
        traj[k] = pos
    return traj


def step_obstacles(
    conj: Conjecture,
    pos: np.ndarray,             # (..., 2) current positions
    init_vel: np.ndarray,        # (..., 2) sampled velocities
    robot_xy: np.ndarray,        # (..., 2) robot position reacted to
    noise_k: np.ndarray,         # (..., 2) this step's velocity noise
    dt: float,
) -> np.ndarray:
    """One transition of obstacle positions under a conjecture.

    The single definition of the propagation arithmetic: canonical
    trajectories and the planner's per-command reactive re-propagation
    both advance through it.  All arguments broadcast.
    """
    v = conjectured_velocity(conj, init_vel, pos, robot_xy)
    return pos + (v + noise_k) * dt


def top_k_weights(posterior: Posterior, top_k: int) -> np.ndarray:
    """Posterior restricted to its top_k entries and renormalized."""
    w = posterior.weights
    if not (1 <= top_k <= len(w)):
        raise ValueError("top_k must lie in [1, |family|]")
    if top_k == len(w):
        return w.copy()
    keep = np.sort(np.argsort(-w, kind="stable")[:top_k])
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out / out.sum()


def sample_batch(
    info: InformationState,
    N: int,
    H: int,
    top_k: int,
    seed_seq: np.random.SeedSequence,
    dt: float,
    robot_radius: float,
    step: int = 0,
) -> ScenarioBatch:
    """Sample N obstacle futures of horizon H from the posterior mixture.

    Conjecture indices come from the top-k-renormalized posterior, current
    obstacle states from the velocity beliefs, and future motion adds
    per-step Gaussian process noise.  Every scenario draws from its own
    spawned substream, so the batch is reproducible and independent of
    evaluation order.  The canonical trajectories hold the robot frozen at
    its current pose; the planner re-propagates reactive scenarios against
    each command's path.
    """
    if N < 1 or H < 1:
        raise ValueError("N and H must be at least 1")
    master = np.random.default_rng(seed_seq)
    children = seed_seq.spawn(N)

    w = top_k_weights(info.posterior, top_k)
    conj_ids = master.choice(len(w), size=N, p=w)

    ids = tuple(sorted(info.beliefs))
    n = len(ids)
    radii = np.array([info.beliefs[i].radius for i in ids], dtype=float)
    robot_xy = np.array([info.robot.x, info.robot.y])
    frozen_seq = np.broadcast_to(robot_xy, (H, 2))
    cov_sqrts = belief_cov_sqrts(info.beliefs)

    init_pos = np.empty((N, n, 2))
    init_vel = np.empty((N, n, 2))
    noise = np.empty((N, H, n, 2))
    for i in range(N):
        conj = info.family[int(conj_ids[i])]
        rng = np.random.default_rng(children[i])
        state = sample_obstacle_state(info.beliefs, rng, cov_sqrts)
        for j, o in enumerate(ids):
            init_pos[i, j] = state[o][0]
            init_vel[i, j] = state[o][1]
        if conj.sigma_theta > 0:
            noise[i] = rng.normal(0.0, conj.sigma_theta, (H, n, 2))
        else:
            noise[i] = 0.0

    # Canonical trajectories, propagated once per conjecture over the stack
    # of scenarios that drew it.
    traj = np.empty((N, H, n, 2))
    for cid in np.unique(conj_ids):
        sel = np.flatnonzero(conj_ids == cid)
        group = propagate_obstacles(
            info.family[int(cid)], init_pos[sel], init_vel[sel], frozen_seq,
            np.moveaxis(noise[sel], 0, 1), dt)
        traj[sel] = np.moveaxis(group, 0, 1)

    scenarios = tuple(
        Scenario(
            conjecture=info.family[int(conj_ids[i])], obstacle_ids=ids,
            init_positions=init_pos[i], init_velocities=init_vel[i],
            radii=radii, noise=noise[i], trajectory=traj[i],
        )
        for i in range(N)
    )
    return ScenarioBatch(scenarios=scenarios, step=step,
                         horizon=H, dt=dt, robot_radius=robot_radius)


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


def reaction_sequence(start: Pose, robot_xy: np.ndarray) -> np.ndarray:
    """Robot positions reactive obstacles respond to: the obstacle at step k
    reacts to the robot at step k-1."""
    H = robot_xy.shape[0]
    if H == 1:
        return np.array([[start.x, start.y]])
    return np.vstack([[start.x, start.y], robot_xy[:-1]])


def walls_as_arrays(static_map: StaticMap) -> tuple[np.ndarray, np.ndarray]:
    if not static_map.walls:
        return np.zeros((0, 2)), np.zeros((0, 2))
    a = np.array([w.a for w in static_map.walls], dtype=float)
    b = np.array([w.b for w in static_map.walls], dtype=float)
    return a, b
