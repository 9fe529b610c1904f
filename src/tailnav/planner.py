"""Tail-risk command scoring over a finite velocity lattice.

Implements the empirical CVaR tail term in both the sorted-tail and the
threshold-minimization forms, and deterministic argmax selection.  One
step-wise kernel, `lattice_risks`, scores every lattice command against
every scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .beliefs import conjectured_velocity
from .geometry import (
    EMPTY_CLEARANCE,
    Pose,
    VelocityCommand,
    clearance_points,
    disc_gaps,
    goal_distance,
)
from .scenarios import (
    InformationState,
    ScenarioBatch,
    lattice_paths,
    reaction_sequence,
    step_obstacles,
    walls_as_arrays,
)
from .world import StaticMap


@dataclass(frozen=True)
class CommandLattice:
    commands: tuple[VelocityCommand, ...]

    def __post_init__(self):
        if not self.commands:
            raise ValueError("lattice must be nonempty")
        if not any(c.v == 0.0 and c.omega == 0.0 for c in self.commands):
            raise ValueError("lattice must contain the stop command")

    @property
    def v_max(self) -> float:
        return max(abs(c.v) for c in self.commands)

    @staticmethod
    def default(v_max: float, omega_max: float) -> "CommandLattice":
        cmds = tuple(
            VelocityCommand(fv * v_max, fo * omega_max)
            for fv in (0.0, 0.25, 0.5, 0.75, 1.0)
            for fo in (-1.0, -0.5, 0.0, 0.5, 1.0)
        )
        return CommandLattice(cmds)


@dataclass(frozen=True)
class PlannerParams:
    N: int = 64
    H: int = 20
    alpha: float = 0.1
    risk_weight: float = 2.0
    top_k: int = 6
    c_safe: float = 0.5

    def __post_init__(self):
        counts = {"N": self.N, "H": self.H, "top_k": self.top_k}
        if not all(isinstance(v, int) and v >= 1 for v in counts.values()):
            raise ValueError(f"N, H and top_k must be integers >= 1, "
                             f"got {counts}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 <= self.risk_weight < math.inf:
            raise ValueError(f"risk_weight must be nonnegative and finite, "
                             f"got {self.risk_weight}")
        # The risk and the harness's safety cost both divide by c_safe.
        if not 0.0 < self.c_safe < math.inf:
            raise ValueError(f"c_safe must be positive and finite, "
                             f"got {self.c_safe}")


@dataclass(frozen=True)
class CommandScore:
    command: VelocityCommand
    mean_reward: float
    tail_risk: float
    objective: float             # mean_reward - risk_weight * tail_risk
    risks: np.ndarray = field(repr=False)    # (N,) per-scenario risk


def empirical_cvar(risks: Sequence[float], alpha: float) -> float:
    """Average of the largest-risk alpha fraction of the samples.

    The boundary sample is weighted fractionally, so the result exactly
    matches the quantile-integral tail average.
    """
    x = np.asarray(risks, dtype=float)
    if x.size == 0:
        raise ValueError("risks must be nonempty")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    x = np.sort(x)[::-1]
    m = alpha * x.size
    if m <= 1.0:
        return float(x[0])
    k = int(np.floor(m))
    if k >= x.size:
        return float(x.mean())
    total = float(x[:k].sum())
    if m > k:
        total += (m - k) * float(x[k])
    return total / m


def cvar_via_threshold(risks: Sequence[float], alpha: float) -> float:
    """CVaR via the threshold-minimization form.

    Minimizes eta + mean((x - eta)_+) / alpha over the empirical
    distribution; the minimum over the sample values attains the infimum.
    """
    x = np.asarray(risks, dtype=float)
    if x.size == 0:
        raise ValueError("risks must be nonempty")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    etas = np.unique(x)
    excess = np.clip(x[None, :] - etas[:, None], 0.0, None).mean(axis=1)
    return float(np.min(etas + excess / alpha))


def lattice_risks(
    paths: np.ndarray,
    batch: ScenarioBatch,
    start: Pose,
    static_map: StaticMap,
    c_safe: float,
) -> np.ndarray:
    """(U, N) risk of every command path against every scenario.

    paths holds the (U, H, 2) robot positions under each command.  A
    command's risk in a scenario is its worst normalized clearance deficit
    clip((c_safe - c) / c_safe, 0, 1) over the horizon.  The deficit never
    shrinks as c falls, so it is taken once, from the closest clearance,
    bit for bit the maximum of the per-step deficits.

    Walls do not move, so every path point is measured against them in one
    call before the loop.  All commands and scenarios then step forward
    together, one horizon step at a time, and only the current step's
    obstacle positions are held: one (2, n, U, N) buffer with x and y as
    contiguous planes, the layout `step_obstacles` and `disc_gaps` take.
    Each step's gaps are reduced over the obstacle axis into a running
    minimum.  Subtracting robot_radius and capping at EMPTY_CLEARANCE
    round monotonically, so both are applied once, after the loop, and
    give the bits of `clearance_points` measuring every step.

    Scenario obstacles move only here.  A non-reactive conjecture's
    velocity ignores the robot and the positions, so it is taken once and
    the positions are one left-to-right running sum of (v + noise_k)*dt,
    the arithmetic of `step_obstacles`.  Reactive scenarios are propagated
    once per conjecture, with a command axis, against each command's
    reaction sequence.
    """
    U, H = paths.shape[0], batch.horizon
    radii, dt = batch.radii, batch.dt
    n = radii.size

    # Lay the scenario axis out as the non-reactive scenarios followed by
    # one contiguous span per reactive conjecture; `order` maps it back.
    ids, reactive = batch.conjecture_ids, batch.reactive
    nonreactive = np.flatnonzero(~reactive)
    members = [np.flatnonzero(ids == cid) for cid in np.unique(ids[reactive])]
    order = np.concatenate([nonreactive, *members])
    M, N = len(nonreactive), len(order)
    # x and y lead, then obstacles, commands and scenarios in that order.
    pos0 = batch.init_positions[order].T[:, :, None]           # (2,n,1,N)
    vel0 = batch.init_velocities[order].T[:, :, None]          # (2,n,1,N)
    noise = np.ascontiguousarray(
        batch.noise[order].transpose(1, 3, 2, 0))[:, :, :, None]  # (H,2,n,1,N)
    robot = paths.transpose(1, 2, 0)[:, :, None, :, None]      # (H,2,1,U,1)
    reaction = reaction_sequence(start, paths).transpose(1, 2, 0)[
        :, :, None, :, None]                                   # (H,2,1,U,1)

    # Non-reactive positions: x_k = x_{k-1} + (v + noise_k)*dt, which the
    # running sum adds left to right, as step after step would.
    steps = np.empty((H + 1, 2, n, 1, M))
    steps[0] = pos0[..., :M]
    for cid in np.unique(ids[nonreactive]):
        sel = np.flatnonzero(ids[nonreactive] == cid)
        v = conjectured_velocity(batch.family[int(cid)], vel0[..., sel],
                                 pos0[..., sel], reaction[0])
        steps[1:, ..., sel] = (v + noise[..., sel]) * dt
    nonreactive_xy = np.cumsum(steps, axis=0)[1:]              # (H,2,n,1,M)
    # A span's slots of `obstacles` carry its positions from step to step.
    obstacles = np.empty((2, n, U, N))
    spans = []
    lo = M
    for idx in members:
        span = slice(lo, lo + len(idx))
        lo = span.stop
        obstacles[..., span] = pos0[..., span]
        spans.append((span, batch.family[int(ids[idx[0]])]))

    wall_a, wall_b = walls_as_arrays(static_map)
    empty = np.zeros((0, 2))
    closest = clearance_points(paths, batch.robot_radius, empty, np.zeros(0),
                               wall_a, wall_b).min(axis=1)[:, None]  # (U, 1)
    if n:
        disc_radii = radii[:, None, None]
        nearest = None
        for k in range(H):
            obstacles[..., :M] = nonreactive_xy[k]
            for span, conj in spans:
                obstacles[..., span] = step_obstacles(
                    conj, obstacles[..., span], vel0[..., span], reaction[k],
                    noise[k, ..., span], dt)
            gaps = disc_gaps(robot[k, 0] - obstacles[0],
                             robot[k, 1] - obstacles[1],
                             disc_radii).min(axis=0)           # (U, N)
            nearest = gaps if nearest is None else np.minimum(nearest, gaps)
        closest = np.minimum(
            closest, np.minimum(EMPTY_CLEARANCE, nearest - batch.robot_radius))
    out = np.empty((U, N))
    out[:, order] = np.clip((c_safe - closest) / c_safe, 0.0, 1.0)
    return out


def tie_break_key(score: float, cmd: VelocityCommand, v_max: float,
                  index: int) -> tuple:
    """Deterministic preference: higher score, then smaller |omega|, then
    speed closest to v_max/2, then lattice order."""
    return (-score, abs(cmd.omega), abs(cmd.v - v_max / 2.0), index)


def select_command(
    info: InformationState,
    lattice: CommandLattice,
    batch: ScenarioBatch,
    params: PlannerParams,
    mean_risk: bool = False,
) -> tuple[VelocityCommand, list[CommandScore]]:
    """Score every lattice command and return the deterministic argmax.

    A command's reward is the reduction in goal distance over its rollout;
    its objective is reward - risk_weight * tail term of its risks.  The
    tail term is the empirical CVaR at params.alpha, or with mean_risk the
    mean risk, the risk-neutral ablation.
    """
    start, goal = info.robot, info.goal
    paths = lattice_paths(lattice.commands, start, batch.horizon, batch.dt)
    risks = lattice_risks(paths, batch, start, info.static_map, params.c_safe)
    d0 = goal_distance(start, goal)
    scores = []
    for u, (x, y), r in zip(lattice.commands, paths[:, -1].tolist(), risks):
        reward = d0 - goal_distance(Pose(x, y, 0.0), goal)
        tail = (float(r.mean()) if mean_risk
                else empirical_cvar(r, params.alpha))
        scores.append(CommandScore(
            command=u, mean_reward=reward, tail_risk=tail,
            objective=reward - params.risk_weight * tail, risks=r))
    v_max = lattice.v_max
    best = min(
        range(len(scores)),
        key=lambda i: tie_break_key(scores[i].objective, scores[i].command,
                                    v_max, i),
    )
    return scores[best].command, scores
