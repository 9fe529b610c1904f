"""Matched comparison controllers sharing the simulator interface.

Kinds:
  rcsp-full            posterior-adaptive tail-risk planner + safety filter
  rcsp-fixed-predictor same, posterior frozen at the uniform prior
  mean-risk-filter     mean-risk objective + safety filter
  cvar-only            tail-risk planner, no filter
  dwa-style            one-step lattice scoring on the current observation
  goal-pd              proportional goal seeking, no obstacle term
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beliefs import (
    BeliefParams,
    Conjecture,
    Posterior,
    default_family,
    likelihood,
    track_obstacles,
    update_posterior,
)
from .geometry import (
    VelocityCommand,
    clearance_points,
    goal_distance,
    normalize_angle,
)
# Re-exported, not called here: tools that patch clearance evaluation and
# the unicycle step by module attribute look them up in this module as well.
from .geometry import clearance, step_unicycle  # noqa: F401
from .planner import CommandLattice, PlannerParams, select_command
from .safety import FilterParams, apply_filter
from .scenarios import (
    InformationState,
    lattice_paths,
    obstacles_as_arrays,
    sample_batch,
    walls_as_arrays,
)
from .world import EnvironmentConfig, Observation

CONTROLLER_KINDS = (
    "rcsp-full",
    "rcsp-fixed-predictor",
    "mean-risk-filter",
    "cvar-only",
    "dwa-style",
    "goal-pd",
)

_SCENARIO_KINDS = ("rcsp-full", "rcsp-fixed-predictor", "mean-risk-filter",
                   "cvar-only")

# RNG stream tag for per-decision scenario sampling; disjoint from the
# world module's tags.
_TAG_SCENARIO = 7


@dataclass
class Decision:
    command: VelocityCommand
    nominal: VelocityCommand
    cvar_selected: float
    posterior_entropy: float


class Controller:
    """Per-episode stateful decision procedure.

    One instance drives one episode; beliefs and the posterior are reset
    per episode and never shared between episodes.
    """

    def __init__(
        self,
        kind: str,
        env: EnvironmentConfig,
        seed: int,
        planner_params: PlannerParams | None = None,
        filter_params: FilterParams | None = None,
        belief_params: BeliefParams | None = None,
        family: tuple[Conjecture, ...] | None = None,
    ):
        if kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {kind!r}")
        self.kind = kind
        self.env = env
        self.seed = seed
        self.family = family if family is not None else default_family()
        self.planner_params = planner_params if planner_params is not None \
            else PlannerParams()
        self.filter_params = filter_params if filter_params is not None else \
            FilterParams.for_env(env)
        self.belief_params = belief_params if belief_params is not None else \
            BeliefParams()
        self.lattice = CommandLattice.default(env.v_max, env.omega_max)
        self.reset()

    def reset(self) -> None:
        self.beliefs = {}
        self.posterior = Posterior.uniform(len(self.family))

    # -- scenario-planning variants -------------------------------------

    def _decide_scenario(self, obs: Observation) -> Decision:
        env = self.env
        bp = self.belief_params
        sigma_like = env.sigma_obs + bp.sigma_like_slack

        if self.kind != "rcsp-fixed-predictor" and self.beliefs:
            liks = np.array([
                likelihood(c, self.beliefs, obs, obs.robot, sigma_like, env.dt)
                for c in self.family
            ])
            self.posterior = update_posterior(self.posterior, liks,
                                              bp.tau, bp.floor)
        self.beliefs = track_obstacles(self.beliefs, obs, env.dt, bp.smoothing)

        info = InformationState(
            static_map=env.static_map, family=self.family,
            beliefs=self.beliefs, posterior=self.posterior,
            goal=env.goal, robot=obs.robot,
        )
        seq = np.random.SeedSequence((self.seed, _TAG_SCENARIO, obs.step))
        pp = self.planner_params
        batch = sample_batch(info, pp.N, pp.H, pp.top_k, seq,
                             env.dt, env.robot_radius)
        u_nom, scores = select_command(
            info, self.lattice, batch, pp,
            mean_risk=self.kind == "mean-risk-filter")
        chosen = next(s for s in scores if s.command == u_nom)

        if self.kind == "cvar-only":
            u = u_nom
        else:
            u = apply_filter(u_nom, obs, self.beliefs, self.lattice,
                             env.goal, env.static_map, self.filter_params)
        return Decision(command=u, nominal=u_nom,
                        cvar_selected=chosen.tail_risk,
                        posterior_entropy=self.posterior.entropy())

    # -- reactive baselines ----------------------------------------------

    def _decide_dwa(self, obs: Observation) -> Decision:
        env = self.env
        robot = obs.robot
        cmds = self.lattice.commands
        goal_bearing = math.atan2(env.goal[1] - robot.y,
                                  env.goal[0] - robot.x)
        nxt = lattice_paths(cmds, robot, 1, env.dt)[:, 0]       # (U, 2)
        clear = clearance_points(nxt, env.robot_radius,
                                 *obstacles_as_arrays(obs),
                                 *walls_as_arrays(env.static_map)).tolist()
        best = None
        best_any = None
        for idx, (u, c) in enumerate(zip(cmds, clear)):
            th = normalize_angle(robot.heading + u.omega * env.dt)
            heading = math.cos(normalize_angle(goal_bearing - th))
            score = (1.0 * heading + 2.0 * min(c, 1.0)
                     + 0.5 * u.v / env.v_max)
            key = (-score, idx)
            if c >= 0.0 and (best is None or key < best[0]):
                best = (key, u)
            if best_any is None or (-c, idx) < best_any[0]:
                best_any = ((-c, idx), u)
        u = best[1] if best is not None else best_any[1]
        return Decision(command=u, nominal=u, cvar_selected=0.0,
                        posterior_entropy=self.posterior.entropy())

    def _decide_goal_pd(self, obs: Observation) -> Decision:
        env = self.env
        dist = goal_distance(obs.robot, env.goal)
        bearing = math.atan2(env.goal[1] - obs.robot.y,
                             env.goal[0] - obs.robot.x)
        herr = normalize_angle(bearing - obs.robot.heading)
        omega = max(-env.omega_max, min(env.omega_max, 2.0 * herr))
        v = max(0.0, min(env.v_max, 1.0 * dist)) * max(0.0, math.cos(herr))
        u = VelocityCommand(v, omega)
        return Decision(command=u, nominal=u, cvar_selected=0.0,
                        posterior_entropy=self.posterior.entropy())

    def decide(self, obs: Observation) -> Decision:
        if self.kind in _SCENARIO_KINDS:
            return self._decide_scenario(obs)
        if self.kind == "dwa-style":
            return self._decide_dwa(obs)
        return self._decide_goal_pd(obs)
