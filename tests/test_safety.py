"""Barrier-style execution filter: rollouts, feasibility, and selection."""

import inspect
import math

import numpy as np
import pytest

from tailnav.beliefs import ObstacleBelief
from tailnav.geometry import Pose, VelocityCommand, WallSegment
from tailnav.planner import CommandLattice
from tailnav.safety import (
    FilterParams,
    apply_filter,
    command_deviation,
    filter_rollout,
    filter_rollouts,
    is_feasible,
)
from tailnav.world import Observation, StaticMap

OPEN_MAP = StaticMap(walls=(), bounds=(-50.0, -50.0, 50.0, 50.0))
PARAMS = FilterParams()
LATTICE = CommandLattice.default(1.0, 1.5)
STOP = VelocityCommand(0.0, 0.0)


def _obs(robot, obstacles=(), step=0):
    return Observation(robot=robot, obstacles=tuple(obstacles), step=step)


def _belief(pos, vel, radius=0.4):
    return ObstacleBelief(
        last_pos=np.asarray(pos, dtype=float),
        vel_mean=np.asarray(vel, dtype=float),
        vel_cov=np.zeros((2, 2)),
        staleness=0,
        radius=radius,
    )


def _scene(robot, obstacle_pos, vel, radius=0.4):
    beliefs = {0: _belief(obstacle_pos, vel, radius)}
    obs = _obs(robot, [(0, tuple(map(float, obstacle_pos)), radius)])
    return obs, beliefs


class TestFilterRollout:
    def test_stop_command_reports_current_clearance(self):
        obs, beliefs = _scene(Pose(0.0, 0.0, 0.0), (2.0, 0.0), (0.0, 0.0))
        c_min, progress = filter_rollout(STOP, obs, beliefs, OPEN_MAP, 10,
                                         0.1, 0.3, (10.0, 0.0))
        assert c_min == pytest.approx(2.0 - 0.3 - 0.4)
        assert progress == 0.0

    def test_receding_obstacle_minimum_at_step_zero(self):
        obs, beliefs = _scene(Pose(0.0, 0.0, 0.0), (2.0, 0.0), (1.0, 0.0))
        c_min, _ = filter_rollout(STOP, obs, beliefs, OPEN_MAP, 10, 0.1, 0.3,
                                  (10.0, 0.0))
        assert c_min == pytest.approx(2.0 - 0.3 - 0.4)

    def test_head_on_closing_matches_hand_computation(self):
        # Robot at 1 m/s, obstacle at (3, 0) closing at 1 m/s: the gap
        # shrinks by 0.2 m per step from 2.3 m at step 0.
        obs, beliefs = _scene(Pose(0.0, 0.0, 0.0), (3.0, 0.0), (-1.0, 0.0))
        c_min, progress = filter_rollout(VelocityCommand(1.0, 0.0), obs,
                                         beliefs, OPEN_MAP, 10, 0.1, 0.3,
                                         (10.0, 0.0))
        assert c_min == pytest.approx(2.3 - 0.2 * 10, abs=1e-12)
        assert progress == pytest.approx(1.0)

    def test_untracked_obstacle_treated_as_static(self):
        obs = _obs(Pose(0.0, 0.0, 0.0), [(0, (2.0, 0.0), 0.4)])
        c_min, _ = filter_rollout(STOP, obs, {}, OPEN_MAP, 10, 0.1, 0.3,
                                  (10.0, 0.0))
        assert c_min == pytest.approx(2.0 - 0.3 - 0.4)

    def test_wall_only_scene(self):
        smap = StaticMap(walls=(WallSegment((1.0, -2.0), (1.0, 2.0)),),
                         bounds=(-50.0, -50.0, 50.0, 50.0))
        obs = _obs(Pose(0.0, 0.0, 0.0), [])
        c_min, _ = filter_rollout(VelocityCommand(1.0, 0.0), obs, {}, smap,
                                  5, 0.1, 0.3, (10.0, 0.0))
        # Closest approach after 5 steps: x = 0.5, wall at 1, radius 0.3.
        assert c_min == pytest.approx(0.2, abs=1e-12)

    def test_signature_excludes_posterior_and_scenarios(self):
        # The filter layer is independent of the planner's probabilistic
        # machinery by construction.
        names = set(inspect.signature(filter_rollout).parameters)
        assert not names & {"posterior", "batch", "scenarios", "family"}
        names = set(inspect.signature(apply_filter).parameters)
        assert not names & {"posterior", "batch", "scenarios", "family"}


class TestIsFeasible:
    def test_below_hard_margin_infeasible(self):
        p = PARAMS
        assert not is_feasible(STOP, 1.0, p.c_hard - 0.01, p)

    def test_erosion_bound_infeasible(self):
        p = FilterParams(kappa=1.0)
        c_t = p.c_hard - 0.10
        c_min = p.c_hard + 0.05
        assert not is_feasible(STOP, c_t, c_min, p)

    def test_erosion_bound_feasible(self):
        p = FilterParams(kappa=1.0)
        c_t = p.c_hard + 0.10
        c_min = p.c_hard + 0.05
        assert is_feasible(STOP, c_t, c_min, p)

    def test_boundary_is_feasible(self):
        p = PARAMS
        assert is_feasible(STOP, p.c_hard, p.c_hard, p)


class TestApplyFilter:
    def test_open_space_returns_nominal(self):
        obs = _obs(Pose(0.0, 0.0, 0.0), [])
        u_nom = VelocityCommand(1.0, 0.0)
        u = apply_filter(u_nom, obs, {}, LATTICE, (10.0, 0.0), OPEN_MAP,
                         PARAMS)
        assert u == u_nom

    def test_wall_ahead_overrides_nominal(self):
        p = FilterParams(c_hard=0.2)
        smap = StaticMap(walls=(WallSegment((0.6, -3.0), (0.6, 3.0)),),
                         bounds=(-50.0, -50.0, 50.0, 50.0))
        obs = _obs(Pose(0.0, 0.0, 0.0), [])
        u_nom = VelocityCommand(1.0, 0.0)
        u = apply_filter(u_nom, obs, {}, LATTICE, (10.0, 0.0), smap, p)
        assert u != u_nom
        c_t = 0.6 - 0.3
        c_min, _ = filter_rollout(u, obs, {}, smap, p.horizon, p.dt,
                                  p.robot_radius, (10.0, 0.0))
        assert is_feasible(u, c_t, c_min, p)

    def test_closing_trap_falls_back_to_max_clearance(self):
        # Overlapping obstacle: every candidate is infeasible; the filter
        # must still return the candidate with the largest predicted
        # clearance rather than failing.
        obs, beliefs = _scene(Pose(0.0, 0.0, 0.0), (0.3, 0.0), (0.0, 0.0),
                              radius=0.5)
        u_nom = VelocityCommand(1.0, 0.0)
        u = apply_filter(u_nom, obs, beliefs, LATTICE, (10.0, 0.0), OPEN_MAP,
                         PARAMS)
        candidates = [u_nom] + list(LATTICE.commands)
        c_mins = [filter_rollout(c, obs, beliefs, OPEN_MAP, PARAMS.horizon,
                                 PARAMS.dt, PARAMS.robot_radius,
                                 (10.0, 0.0))[0]
                  for c in candidates]
        chosen = filter_rollout(u, obs, beliefs, OPEN_MAP, PARAMS.horizon,
                                PARAMS.dt, PARAMS.robot_radius,
                                (10.0, 0.0))[0]
        assert chosen == pytest.approx(max(c_mins))

    def test_command_deviation_metric(self):
        p = PARAMS
        assert command_deviation(STOP, STOP, p) == 0.0
        d = command_deviation(VelocityCommand(1.0, 0.0),
                              VelocityCommand(0.0, 1.5), p)
        assert d == pytest.approx(math.hypot(1.0, 1.0))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FilterParams(c_hard=0.0)
        with pytest.raises(ValueError):
            FilterParams(kappa=-0.1)


def _random_scene(rng):
    robot = Pose(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                 float(rng.uniform(-np.pi, np.pi)))
    n_obs = int(rng.integers(0, 3))
    obstacles = []
    beliefs = {}
    for i in range(n_obs):
        pos = np.array([robot.x, robot.y]) + rng.uniform(-4, 4, 2)
        radius = float(rng.uniform(0.2, 0.6))
        vel = rng.uniform(-1.0, 1.0, 2)
        obstacles.append((i, (float(pos[0]), float(pos[1])), radius))
        beliefs[i] = _belief(pos, vel, radius)
    walls = []
    for _ in range(int(rng.integers(0, 3))):
        a = np.array([robot.x, robot.y]) + rng.uniform(-5, 5, 2)
        b = a + rng.uniform(-3, 3, 2)
        if np.allclose(a, b):
            b = a + np.array([1.0, 0.0])
        walls.append(WallSegment(tuple(a), tuple(b)))
    smap = StaticMap(walls=tuple(walls), bounds=(-50.0, -50.0, 50.0, 50.0))
    goal = (float(robot.x + rng.uniform(-6, 6)),
            float(robot.y + rng.uniform(-6, 6)))
    return _obs(robot, obstacles), beliefs, smap, goal


class TestFilterProperties:
    N_SCENES = 10_000

    def test_feasibility_preserved_and_margin_bounded(self):
        # Two properties on randomized scenes: (a) whenever any candidate
        # is feasible the returned command is feasible; (b) the one-step
        # predicted clearance of the returned feasible command never dips
        # below c_hard - v_max * dt.
        p = PARAMS
        rng = np.random.default_rng(99)
        goal_stats = {"feasible": 0, "fallback": 0}
        for _ in range(self.N_SCENES):
            obs, beliefs, smap, goal = _random_scene(rng)
            u = apply_filter(VelocityCommand(1.0, 0.0), obs, beliefs,
                             LATTICE, goal, smap, p)
            # Recompute the feasibility landscape independently.
            from tailnav.scenarios import walls_as_arrays
            from tailnav.geometry import clearance_points
            wall_a, wall_b = walls_as_arrays(smap)
            rxy = np.array([obs.robot.x, obs.robot.y])
            if obs.obstacles:
                pos0 = np.array([q for _, q, _ in obs.obstacles])
                radii = np.array([r for _, _, r in obs.obstacles])
            else:
                pos0 = np.zeros((0, 2))
                radii = np.zeros(0)
            c_t = float(clearance_points(rxy, p.robot_radius, pos0, radii,
                                         wall_a, wall_b))
            candidates = [VelocityCommand(1.0, 0.0)] + list(LATTICE.commands)
            # One batched rollout per scene; test_rollout_exactness pins
            # filter_rollouts to the per-command oracle bit for bit.
            c_mins, _ = filter_rollouts(candidates, obs, beliefs, smap,
                                        p.horizon, p.dt, p.robot_radius, goal)
            feas = {}
            for cand, c_min in zip(candidates, c_mins.tolist()):
                feas[cand] = (c_min, is_feasible(cand, c_t, c_min, p))
            any_feasible = any(ok for _, ok in feas.values())
            c_min_chosen, chosen_ok = feas[u]
            if any_feasible:
                goal_stats["feasible"] += 1
                assert chosen_ok
                # One-step margin: a feasible command keeps at least
                # c_hard of predicted clearance, so after executing one
                # step the robot cannot be deeper than v_max * dt inside
                # that margin.
                assert c_min_chosen >= p.c_hard - 1e-9
                assert c_min_chosen >= p.c_hard - p.v_max * p.dt - 1e-9
            else:
                goal_stats["fallback"] += 1
                assert c_min_chosen == pytest.approx(
                    max(c for c, _ in feas.values()))
        # The scene generator must exercise both branches.
        assert goal_stats["feasible"] > 0
        assert goal_stats["fallback"] > 0
