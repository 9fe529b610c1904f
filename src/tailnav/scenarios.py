"""Posterior-mixture scenario sampling, the obstacle transition, and robot
rollouts under a constant command."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .beliefs import Conjecture, ObstacleBelief, Posterior, conjectured_velocity
from .geometry import OMEGA_EPS, Pose, VelocityCommand, normalize_angle
# Re-exported, not called here: tools that patch clearance evaluation and
# the unicycle step by module attribute look them up in this module as well.
from .geometry import clearance_points, step_unicycle  # noqa: F401
from .world import Observation, StaticMap

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
    """One scenario of a batch, a view of the batch arrays' slices."""

    conjecture: Conjecture
    obstacle_ids: tuple[int, ...]
    init_positions: np.ndarray   # (n, 2)
    init_velocities: np.ndarray  # (n, 2)
    radii: np.ndarray            # (n,)
    noise: np.ndarray            # (H, n, 2) per-step velocity noise, m/s

    @property
    def reactive(self) -> bool:
        return self.conjecture.kind in REACTIVE_KINDS


@dataclass(frozen=True)
class ScenarioBatch:
    conjecture_ids: np.ndarray   # (N,) index into family per scenario
    family: tuple[Conjecture, ...]
    obstacle_ids: tuple[int, ...]
    radii: np.ndarray            # (n,)
    init_positions: np.ndarray   # (N, n, 2)
    init_velocities: np.ndarray  # (N, n, 2)
    noise: np.ndarray            # (N, H, n, 2) per-step velocity noise, m/s
    horizon: int
    dt: float
    robot_radius: float

    @property
    def reactive(self) -> np.ndarray:
        """(N,) mask of the scenarios whose conjecture reacts to the robot."""
        kinds = np.array([c.kind in REACTIVE_KINDS for c in self.family])
        return kinds[self.conjecture_ids]

    @cached_property
    def scenarios(self) -> tuple[Scenario, ...]:
        """One Scenario view per scenario, sliced from the arrays on first
        access; sampling and scoring never build them."""
        return tuple(
            Scenario(
                conjecture=self.family[int(c)], obstacle_ids=self.obstacle_ids,
                init_positions=self.init_positions[i],
                init_velocities=self.init_velocities[i], radii=self.radii,
                noise=self.noise[i],
            )
            for i, c in enumerate(self.conjecture_ids)
        )


def step_obstacles(
    conj: Conjecture,
    pos: np.ndarray,             # (..., 2) current positions
    init_vel: np.ndarray,        # (..., 2) sampled velocities
    robot_xy: np.ndarray,        # (..., 2) robot position reacted to
    noise_k: np.ndarray,         # (..., 2) this step's velocity noise
    dt: float,
) -> np.ndarray:
    """One transition of obstacle positions under a conjecture.

    The definition of the propagation arithmetic: the planner's
    per-command reactive re-propagation advances through it, and its
    running sum for non-reactive conjectures, whose velocity never
    changes, repeats its `(v + noise_k) * dt` in the same order.  All
    arguments broadcast.
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
) -> ScenarioBatch:
    """Sample N obstacle futures of horizon H from the posterior mixture.

    Conjecture indices come from the top-k-renormalized posterior, current
    obstacle states from the velocity beliefs, and future motion adds
    per-step Gaussian process noise.  Every scenario draws from its own
    spawned substream, first the standard normals of its obstacles'
    velocities in sorted id order and then its noise, so the batch is
    reproducible and independent of evaluation order.  Nothing is
    propagated here: `planner.lattice_risks` moves the obstacles.
    """
    if N < 1 or H < 1:
        raise ValueError("N and H must be at least 1")
    master = np.random.default_rng(seed_seq)
    children = seed_seq.spawn(N)

    w = top_k_weights(info.posterior, top_k)
    conj_ids = master.choice(len(w), size=N, p=w)

    ids = tuple(sorted(info.beliefs))
    n = len(ids)
    beliefs = [info.beliefs[o] for o in ids]
    radii = np.array([b.radius for b in beliefs], dtype=float)
    last_pos = np.array([b.last_pos for b in beliefs], dtype=float).reshape(n, 2)
    vel_mean = np.array([b.vel_mean for b in beliefs], dtype=float).reshape(n, 2)
    # Beliefs hold isotropic covariances c*I; c is the velocity variance.
    var = np.array([b.vel_cov[0, 0] for b in beliefs], dtype=float)

    z = np.empty((N, n, 2))
    noise = np.zeros((N, H, n, 2))
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        z[i] = rng.standard_normal((n, 2))
        sigma = info.family[int(conj_ids[i])].sigma_theta
        if sigma > 0:
            noise[i] = rng.normal(0.0, sigma, (H, n, 2))
    init_pos = np.broadcast_to(last_pos, (N, n, 2)).copy()
    init_vel = vel_mean + np.sqrt(var)[:, None] * z

    return ScenarioBatch(
        conjecture_ids=conj_ids, family=info.family, obstacle_ids=ids,
        radii=radii, init_positions=init_pos, init_velocities=init_vel,
        noise=noise, horizon=H, dt=dt, robot_radius=robot_radius)


def lattice_paths(commands: Sequence[VelocityCommand], start: Pose, H: int,
                  dt: float) -> np.ndarray:
    """(U, H, 2) positions of H `step_unicycle` steps under each command.

    Bit for bit the positions the scalar step gives.  Headings depend only
    on omega, so each distinct omega's per-step displacements are taken
    once, with `math` sin/cos (of the unwrapped angle, as the scalar step
    takes it), as a (H, 2) base that a command scales by v*dt (straight)
    or v/omega (arc).  The scaling and the step-by-step running sum are
    elementwise numpy arithmetic in the scalar step's operation order, so
    no result depends on the CPU's SIMD path.
    """
    if H < 1 or dt <= 0.0:
        raise ValueError(f"H and dt must be positive, got {H} and {dt}")
    bases = {}    # omega's bits (-0.0 apart from 0.0) -> (H, 2) base
    keys, scales = [], []
    for u in commands:
        straight = abs(u.omega) < OMEGA_EPS
        key = float(u.omega).hex()
        if key not in bases:
            th, rows = start.heading, []
            for _ in range(H):
                raw = th + u.omega * dt
                if straight:
                    rows.append((math.cos(th), math.sin(th)))
                else:
                    # y - r*z is y + r*(-z) exactly, so both axes add.
                    rows.append((math.sin(raw) - math.sin(th),
                                 -(math.cos(raw) - math.cos(th))))
                th = normalize_angle(raw)
            bases[key] = np.array(rows)
        keys.append(key)
        scales.append(u.v * dt if straight else u.v / u.omega)
    steps = np.empty((len(commands), H + 1, 2))
    steps[:, 0] = start.x, start.y
    steps[:, 1:] = (np.array(scales, dtype=float)[:, None, None]
                    * np.stack([bases[k] for k in keys]))
    # The running sum adds left to right, x_k = x_{k-1} + d_k, as the
    # scalar loop does.
    return np.cumsum(steps, axis=1)[:, 1:]


def reaction_sequence(start: Pose, robot_xy: np.ndarray) -> np.ndarray:
    """Robot positions reactive obstacles respond to: the obstacle at step k
    reacts to the robot at step k-1.  robot_xy is (..., H, 2), one path or
    a stack of paths from the same start."""
    seq = np.empty_like(robot_xy)
    seq[..., 0, :] = start.x, start.y
    seq[..., 1:, :] = robot_xy[..., :-1, :]
    return seq


def obstacles_as_arrays(obs: Observation) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) observed obstacle positions and their (n,) radii."""
    pos = np.array([p for _, p, _ in obs.obstacles],
                   dtype=float).reshape(-1, 2)
    radii = np.array([r for _, _, r in obs.obstacles], dtype=float)
    return pos, radii


def walls_as_arrays(static_map: StaticMap) -> tuple[np.ndarray, np.ndarray]:
    if not static_map.walls:
        return np.zeros((0, 2)), np.zeros((0, 2))
    a = np.array([w.a for w in static_map.walls], dtype=float)
    b = np.array([w.b for w in static_map.walls], dtype=float)
    return a, b
