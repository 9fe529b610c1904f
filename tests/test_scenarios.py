"""Scenario sampling, obstacle propagation, and command rollouts."""

from dataclasses import replace

import numpy as np
import pytest

from tailnav.beliefs import Conjecture, ObstacleBelief, Posterior, default_family
from tailnav.geometry import Pose, VelocityCommand, WallSegment
from tailnav.scenarios import (
    InformationState,
    propagate_obstacles,
    reaction_sequence,
    robot_rollout_poses,
    sample_batch,
    top_k_weights,
)
from tailnav.world import StaticMap

from oracle import (
    progress_reward,
    rollout_command,
    scenario_trajectory,
    trajectory_risk,
)

OPEN_MAP = StaticMap(walls=(), bounds=(-20.0, -20.0, 20.0, 20.0))


def _belief(pos, vel, cov_scale=0.0, radius=0.4):
    return ObstacleBelief(
        last_pos=np.asarray(pos, dtype=float),
        vel_mean=np.asarray(vel, dtype=float),
        vel_cov=cov_scale * np.eye(2),
        staleness=0,
        radius=radius,
    )


def _info(beliefs, posterior=None, family=None, robot=Pose(0.0, 0.0, 0.0),
          goal=(10.0, 0.0), static_map=OPEN_MAP):
    family = family if family is not None else default_family()
    return InformationState(
        static_map=static_map, family=family, beliefs=beliefs,
        posterior=posterior or Posterior.uniform(len(family)),
        goal=goal, robot=robot,
    )


class TestTopKWeights:
    def test_full_k_is_identity(self):
        post = Posterior(np.array([0.1, 0.2, 0.3, 0.4]))
        assert top_k_weights(post, 4) == pytest.approx(post.weights)

    def test_truncates_and_renormalizes(self):
        post = Posterior(np.array([0.1, 0.2, 0.3, 0.4]))
        w = top_k_weights(post, 2)
        assert w == pytest.approx([0.0, 0.0, 3.0 / 7.0, 4.0 / 7.0])

    def test_out_of_range_rejected(self):
        post = Posterior(np.array([0.5, 0.5]))
        for k in (0, 3):
            with pytest.raises(ValueError):
                top_k_weights(post, k)


class TestSampleBatch:
    def test_point_mass_static_zero_noise_is_constant(self):
        family = (Conjecture(0, "static", sigma_theta=0.0),)
        info = _info({0: _belief((3.0, 1.0), (0.5, 0.5))},
                     posterior=Posterior(np.array([1.0])), family=family)
        batch = sample_batch(info, 16, 8, 1, np.random.SeedSequence(0),
                             dt=0.1, robot_radius=0.3)
        for s in batch.scenarios:
            assert np.allclose(s.trajectory, [3.0, 1.0])

    def test_conjecture_counts_binomial(self):
        family = (Conjecture(0, "static"), Conjecture(1, "static"))
        info = _info({0: _belief((3.0, 1.0), (0.0, 0.0))},
                     posterior=Posterior(np.array([0.7, 0.3])), family=family)
        batch = sample_batch(info, 100, 4, 2, np.random.SeedSequence(1),
                             dt=0.1, robot_radius=0.3)
        n0 = sum(s.conjecture.id == 0 for s in batch.scenarios)
        sigma = np.sqrt(100 * 0.7 * 0.3)
        assert abs(n0 - 70) <= 3.0 * sigma

    def test_same_seed_and_step_bit_identical(self):
        info = _info({0: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04)})
        kw = dict(dt=0.1, robot_radius=0.3, step=12)
        a = sample_batch(info, 32, 10, 6, np.random.SeedSequence((5, 7, 12)),
                         **kw)
        b = sample_batch(info, 32, 10, 6, np.random.SeedSequence((5, 7, 12)),
                         **kw)
        for sa, sb in zip(a.scenarios, b.scenarios):
            assert sa.conjecture == sb.conjecture
            assert np.array_equal(sa.trajectory, sb.trajectory)
            assert np.array_equal(sa.noise, sb.noise)

    def test_different_steps_differ(self):
        info = _info({0: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04)})
        a = sample_batch(info, 8, 10, 6, np.random.SeedSequence((5, 7, 12)),
                         dt=0.1, robot_radius=0.3)
        b = sample_batch(info, 8, 10, 6, np.random.SeedSequence((5, 7, 13)),
                         dt=0.1, robot_radius=0.3)
        assert any(not np.array_equal(sa.trajectory, sb.trajectory)
                   for sa, sb in zip(a.scenarios, b.scenarios))

    def test_invalid_sizes_rejected(self):
        info = _info({})
        with pytest.raises(ValueError):
            sample_batch(info, 0, 10, 6, np.random.SeedSequence(0),
                         dt=0.1, robot_radius=0.3)
        with pytest.raises(ValueError):
            sample_batch(info, 10, 0, 6, np.random.SeedSequence(0),
                         dt=0.1, robot_radius=0.3)

    def test_trajectories_have_horizon_length_and_finite(self):
        info = _info({0: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04)})
        batch = sample_batch(info, 16, 20, 6, np.random.SeedSequence(2),
                             dt=0.1, robot_radius=0.3)
        for s in batch.scenarios:
            assert s.trajectory.shape == (20, 1, 2)
            assert np.all(np.isfinite(s.trajectory))


class TestPropagateObstacles:
    def test_constant_velocity_linear_path(self):
        conj = Conjecture(0, "constant-velocity", gamma=1.0)
        frozen = np.zeros((5, 2))
        traj = propagate_obstacles(conj, np.array([[0.0, 0.0]]),
                                   np.array([[1.0, 0.0]]), frozen,
                                   np.zeros((5, 1, 2)), 0.1)
        assert traj[:, 0, 0] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_aggressive_closes_on_moving_robot(self):
        conj = Conjecture(0, "aggressive", pursuit_gain=1.0)
        robot_seq = np.tile([5.0, 0.0], (30, 1))
        traj = propagate_obstacles(conj, np.array([[0.0, 0.0]]),
                                   np.array([[0.0, 0.0]]), robot_seq,
                                   np.zeros((30, 1, 2)), 0.1)
        d = np.hypot(traj[:, 0, 0] - 5.0, traj[:, 0, 1])
        assert np.all(np.diff(d) < 0)


class TestRobotRollout:
    def test_pose_count_and_positions(self):
        poses, xy = robot_rollout_poses(VelocityCommand(1.0, 0.0),
                                        Pose(0.0, 0.0, 0.0), 10, 0.1)
        assert len(poses) == 10 and xy.shape == (10, 2)
        assert xy[-1] == pytest.approx([1.0, 0.0])

    def test_reaction_sequence_lags_one_step(self):
        xy = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        seq = reaction_sequence(Pose(0.0, 0.0, 0.0), xy)
        assert np.allclose(seq, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_stop_against_static_scenario_constant_clearance(self):
        family = (Conjecture(0, "static", sigma_theta=0.0),)
        info = _info({0: _belief((2.0, 0.0), (0.0, 0.0))},
                     posterior=Posterior(np.array([1.0])), family=family)
        batch = sample_batch(info, 1, 10, 1, np.random.SeedSequence(0),
                             dt=0.1, robot_radius=0.3)
        r = rollout_command(VelocityCommand(0.0, 0.0), info.robot,
                            batch.scenarios[0], OPEN_MAP, 0.1, 0.3)
        assert np.allclose(r.clearances, 2.0 - 0.3 - 0.4)

    def test_straight_at_obstacle_strictly_decreasing(self):
        family = (Conjecture(0, "static", sigma_theta=0.0),)
        info = _info({0: _belief((5.0, 0.0), (0.0, 0.0))},
                     posterior=Posterior(np.array([1.0])), family=family)
        batch = sample_batch(info, 1, 10, 1, np.random.SeedSequence(0),
                             dt=0.1, robot_radius=0.3)
        r = rollout_command(VelocityCommand(1.0, 0.0), info.robot,
                            batch.scenarios[0], OPEN_MAP, 0.1, 0.3)
        assert np.all(np.diff(r.clearances) < 0)

    def test_reactive_scenario_repropagated_per_command(self):
        family = (Conjecture(0, "aggressive", pursuit_gain=1.0,
                             sigma_theta=0.0),)
        # Offset obstacle so the pursuit direction actually depends on
        # where the robot path goes.
        info = _info({0: _belief((4.0, 3.0), (0.0, 0.0))},
                     posterior=Posterior(np.array([1.0])), family=family)
        batch = sample_batch(info, 1, 10, 1, np.random.SeedSequence(0),
                             dt=0.1, robot_radius=0.3)
        s = batch.scenarios[0]
        _poses, toward = robot_rollout_poses(VelocityCommand(1.0, 0.0),
                                             info.robot, 10, 0.1)
        _poses, away = robot_rollout_poses(VelocityCommand(-1.0, 0.0),
                                           info.robot, 10, 0.1)
        t1 = scenario_trajectory(s, info.robot, toward, 0.1)
        t2 = scenario_trajectory(s, info.robot, away, 0.1)
        assert not np.allclose(t1, t2)

    def test_nonreactive_scenario_reuses_canonical_trajectory(self):
        family = (Conjecture(0, "constant-velocity", sigma_theta=0.0),)
        info = _info({0: _belief((4.0, 0.0), (0.2, 0.0))},
                     posterior=Posterior(np.array([1.0])), family=family)
        batch = sample_batch(info, 1, 10, 1, np.random.SeedSequence(0),
                             dt=0.1, robot_radius=0.3)
        s = batch.scenarios[0]
        _poses, xy = robot_rollout_poses(VelocityCommand(1.0, 0.0),
                                         info.robot, 10, 0.1)
        assert scenario_trajectory(s, info.robot, xy, 0.1) is s.trajectory


class TestProgressReward:
    def _rollout(self, u, H=10):
        family = (Conjecture(0, "static", sigma_theta=0.0),)
        info = _info({}, posterior=Posterior(np.array([1.0])), family=family)
        batch = sample_batch(info, 1, H, 1, np.random.SeedSequence(0),
                             dt=0.1, robot_radius=0.3)
        return rollout_command(u, info.robot, batch.scenarios[0], OPEN_MAP,
                               0.1, 0.3), info

    def test_stop_gives_zero(self):
        r, info = self._rollout(VelocityCommand(0.0, 0.0))
        assert progress_reward(r, info.robot, info.goal) == 0.0

    def test_straight_toward_goal_full_speed(self):
        r, info = self._rollout(VelocityCommand(1.0, 0.0))
        assert progress_reward(r, info.robot, info.goal) == pytest.approx(1.0)

    def test_arc_matches_geometric_difference(self):
        u = VelocityCommand(1.0, 1.0)
        r, info = self._rollout(u)
        # Closed-form arc endpoint after 1 s at unit twist.
        end = (np.sin(1.0), 1.0 - np.cos(1.0))
        expected = 10.0 - np.hypot(end[0] - 10.0, end[1])
        assert progress_reward(r, info.robot, info.goal) == pytest.approx(
            expected, abs=1e-12)

    def test_bounded_by_distance_travelled(self):
        for u in (VelocityCommand(1.0, 0.0), VelocityCommand(0.75, -1.5),
                  VelocityCommand(0.5, 0.5)):
            r, info = self._rollout(u)
            bound = 1.0 * 10 * 0.1
            assert abs(progress_reward(r, info.robot, info.goal)) <= bound + 1e-12


class TestTrajectoryRisk:
    def _rollout_with_clearances(self, clearances):
        from oracle import RobotRollout
        return RobotRollout(poses=(Pose(0, 0, 0),),
                            clearances=np.asarray(clearances, dtype=float))

    def test_all_safe_gives_zero(self):
        r = self._rollout_with_clearances([0.5, 0.8, 2.0])
        assert trajectory_risk(r, 0.5) == 0.0

    def test_contact_saturates_at_one(self):
        r = self._rollout_with_clearances([0.4, -0.1, 0.6])
        assert trajectory_risk(r, 0.5) == 1.0

    def test_half_margin_gives_half(self):
        r = self._rollout_with_clearances([0.6, 0.25, 0.9])
        assert trajectory_risk(r, 0.5) == pytest.approx(0.5)

    def test_monotone_in_minimum_clearance(self):
        vals = [trajectory_risk(self._rollout_with_clearances([c]), 0.5)
                for c in (0.5, 0.4, 0.3, 0.2, 0.1, 0.0)]
        assert vals == sorted(vals)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(ValueError):
            trajectory_risk(self._rollout_with_clearances([1.0]), 0.0)


class TestWallsInRollouts:
    def test_wall_limits_clearance(self):
        family = (Conjecture(0, "static", sigma_theta=0.0),)
        smap = StaticMap(walls=(WallSegment((2.0, -1.0), (2.0, 1.0)),),
                         bounds=(-20.0, -20.0, 20.0, 20.0))
        info = _info({}, posterior=Posterior(np.array([1.0])), family=family,
                     static_map=smap)
        batch = sample_batch(info, 1, 10, 1, np.random.SeedSequence(0),
                             dt=0.1, robot_radius=0.3)
        r = rollout_command(VelocityCommand(1.0, 0.0), info.robot,
                            batch.scenarios[0], smap, 0.1, 0.3)
        # After k steps the robot is at x = 0.1 k; clearance = 2 - x - 0.3.
        expected = 2.0 - 0.1 * np.arange(1, 11) - 0.3
        assert r.clearances == pytest.approx(expected, abs=1e-12)
