"""Tail-risk command scoring over a finite velocity lattice.

Implements the empirical CVaR tail term in both the sorted-tail and the
threshold-minimization forms, plus mean and worst-case objective variants,
and deterministic argmax selection.  One step-wise kernel, `lattice_risks`,
scores every lattice command against every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import Pose, VelocityCommand, clearance_points, goal_distance
from .scenarios import (
    InformationState,
    ScenarioBatch,
    reaction_sequence,
    robot_rollout_poses,
    step_obstacles,
    walls_as_arrays,
)
from .world import StaticMap

OBJECTIVES = ("cvar", "mean", "worst")


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
    objective: str = "cvar"
    top_k: int = 6
    c_safe: float = 0.5
    fractional_tail: bool = True

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.risk_weight < 0:
            raise ValueError("risk weight must be nonnegative")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class CommandScore:
    command: VelocityCommand
    mean_reward: float
    tail_risk: float
    objective: float             # mean_reward - risk_weight * tail_risk
    risks: np.ndarray = field(repr=False)    # (N,) per-scenario risk


def empirical_cvar(risks: Sequence[float], alpha: float,
                   fractional: bool = True) -> float:
    """Average of the largest-risk alpha fraction of the samples.

    The fractional convention weights the boundary sample so the result
    exactly matches the quantile-integral tail average; with
    fractional=False the plain mean of the top ceil(alpha*N) samples is
    returned instead.
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
    if not fractional:
        k = min(int(np.ceil(m)), x.size)
        return float(x[:k].mean())
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
    clip((c_safe - c) / c_safe, 0, 1) over the horizon.  All commands and
    scenarios step forward together, one horizon step at a time, so only
    the (U, N, n, 2) obstacle positions of the current step are held.
    Non-reactive scenarios read their canonical trajectory; reactive ones
    are propagated once per conjecture, with a command axis, against each
    command's reaction sequence.
    """
    scen = batch.scenarios
    U, H = paths.shape[0], batch.horizon
    radii = scen[0].radii
    obstacles = np.empty((U, len(scen)) + radii.shape + (2,))

    # Lay the scenario axis out as the non-reactive scenarios followed by
    # one contiguous span per reactive conjecture; `order` maps it back.
    # A span's slots of `obstacles` carry its positions from step to step.
    nonreactive = [i for i, s in enumerate(scen) if not s.reactive]
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(scen):
        if s.reactive:
            groups.setdefault(s.conjecture.id, []).append(i)
    order = nonreactive + [i for idxs in groups.values() for i in idxs]
    M = len(nonreactive)
    if M:
        canonical = np.stack([scen[i].trajectory for i in nonreactive],
                             axis=1)                              # (H,M,n,2)
    spans = []        # (scenario slice, conjecture, velocities, noise)
    lo = M
    for idxs in groups.values():
        members = [scen[i] for i in idxs]
        span = slice(lo, lo + len(idxs))
        lo = span.stop
        obstacles[:, span] = np.stack([s.init_positions for s in members])
        spans.append((span, members[0].conjecture,
                      np.stack([s.init_velocities for s in members]),
                      np.stack([s.noise for s in members], axis=1)))
    reaction = np.stack([reaction_sequence(start, xy) for xy in paths])
    reaction = reaction[:, :, None, None, :]                      # (U,H,1,1,2)

    wall_a, wall_b = walls_as_arrays(static_map)
    risk = None
    for k in range(H):
        if M:
            obstacles[:, :M] = canonical[k]
        for span, conj, vel, noise in spans:
            obstacles[:, span] = step_obstacles(
                conj, obstacles[:, span], vel, reaction[:, k], noise[k],
                batch.dt)
        c = clearance_points(paths[:, k, None, :], batch.robot_radius,
                             obstacles, radii, wall_a, wall_b)    # (U, N)
        g = np.clip((c_safe - c) / c_safe, 0.0, 1.0)
        risk = g if risk is None else np.maximum(risk, g)
    out = np.empty_like(risk)
    out[:, order] = risk
    return out


def tail_term(risks: np.ndarray, params: PlannerParams) -> float:
    """The objective's risk statistic over one command's scenario risks."""
    if params.objective == "cvar":
        return empirical_cvar(risks, params.alpha, params.fractional_tail)
    if params.objective == "mean":
        return float(risks.mean())
    return float(risks.max())


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
) -> tuple[VelocityCommand, list[CommandScore]]:
    """Score every lattice command and return the deterministic argmax.

    A command's reward is the reduction in goal distance over its rollout;
    its objective is reward - risk_weight * tail term of its risks.
    """
    start, goal = info.robot, info.goal
    rollouts = [robot_rollout_poses(u, start, batch.horizon, batch.dt)
                for u in lattice.commands]
    paths = np.stack([xy for _poses, xy in rollouts])
    risks = lattice_risks(paths, batch, start, info.static_map, params.c_safe)
    d0 = goal_distance(start, goal)
    scores = []
    for u, (poses, _xy), r in zip(lattice.commands, rollouts, risks):
        reward = d0 - goal_distance(poses[-1], goal)
        tail = tail_term(r, params)
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
