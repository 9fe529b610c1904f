"""Scenario sampling, obstacle propagation, and command rollouts."""

import numpy as np
import pytest

from tailnav.beliefs import Conjecture, ObstacleBelief, Posterior, default_family
from tailnav.geometry import Pose, VelocityCommand, WallSegment
from tailnav.scenarios import (
    InformationState,
    _substream_states,
    reaction_sequence,
    sample_batch,
    top_k_weights,
)
from tailnav.world import StaticMap

from oracle import (
    canonical_trajectories,
    progress_reward,
    propagate_obstacles,
    robot_rollout_poses,
    rollout_command,
    sample_obstacle_state,
    scenario_trajectory,
    spawned_draws,
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
        for traj in canonical_trajectories(batch, info.robot):
            assert np.allclose(traj, [3.0, 1.0])

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
        kw = dict(dt=0.1, robot_radius=0.3)
        a = sample_batch(info, 32, 10, 6, np.random.SeedSequence((5, 7, 12)),
                         **kw)
        b = sample_batch(info, 32, 10, 6, np.random.SeedSequence((5, 7, 12)),
                         **kw)
        ta = canonical_trajectories(a, info.robot)
        tb = canonical_trajectories(b, info.robot)
        for sa, sb, ra, rb in zip(a.scenarios, b.scenarios, ta, tb):
            assert sa.conjecture == sb.conjecture
            assert np.array_equal(ra, rb)
            assert np.array_equal(sa.noise, sb.noise)

    def test_different_steps_differ(self):
        info = _info({0: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04)})
        a = sample_batch(info, 8, 10, 6, np.random.SeedSequence((5, 7, 12)),
                         dt=0.1, robot_radius=0.3)
        b = sample_batch(info, 8, 10, 6, np.random.SeedSequence((5, 7, 13)),
                         dt=0.1, robot_radius=0.3)
        assert any(not np.array_equal(ra, rb)
                   for ra, rb in zip(canonical_trajectories(a, info.robot),
                                     canonical_trajectories(b, info.robot)))

    def test_invalid_sizes_rejected(self):
        info = _info({})
        with pytest.raises(ValueError):
            sample_batch(info, 0, 10, 6, np.random.SeedSequence(0),
                         dt=0.1, robot_radius=0.3)
        with pytest.raises(ValueError):
            sample_batch(info, 10, 0, 6, np.random.SeedSequence(0),
                         dt=0.1, robot_radius=0.3)

    def test_substreams_drawn_like_the_per_obstacle_oracle(self):
        # Each scenario draws its velocities obstacle by obstacle in sorted
        # id order from its own spawned substream, then its noise; the dict
        # order of the beliefs and a noise-free conjecture change nothing.
        beliefs = {7: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04),
                   2: _belief((-1.0, 2.0), (0.0, 0.3), cov_scale=1.0)}
        family = (Conjecture(0, "constant-velocity"),
                  Conjecture(1, "static", sigma_theta=0.0),
                  Conjecture(2, "yielding", sigma_theta=0.1))
        N, H = 24, 5
        batch = sample_batch(_info(beliefs, family=family), N, H, 3,
                             np.random.SeedSequence((3, 1, 4)),
                             dt=0.1, robot_radius=0.3)
        assert batch.obstacle_ids == (2, 7)
        assert 1 in batch.conjecture_ids
        children = np.random.SeedSequence((3, 1, 4)).spawn(N)
        for i, child in enumerate(children):
            rng = np.random.default_rng(child)
            state = sample_obstacle_state(beliefs, rng)
            vel = np.array([state[o][1] for o in (2, 7)])
            sigma = family[batch.conjecture_ids[i]].sigma_theta
            noise = (rng.normal(0.0, sigma, (H, 2, 2)) if sigma > 0
                     else np.zeros((H, 2, 2)))
            assert np.array_equal(batch.init_velocities[i], vel)
            assert np.array_equal(batch.noise[i], noise)

    def test_trajectories_have_horizon_length_and_finite(self):
        info = _info({0: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04)})
        batch = sample_batch(info, 16, 20, 6, np.random.SeedSequence(2),
                             dt=0.1, robot_radius=0.3)
        for traj in canonical_trajectories(batch, info.robot):
            assert traj.shape == (20, 1, 2)
            assert np.all(np.isfinite(traj))


def _bits(x):
    """The IEEE bit patterns of a float array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


# Mixes noise-free conjectures (sigma_theta = 0) with noisy ones.
MIXED_FAMILY = (Conjecture(0, "constant-velocity", sigma_theta=0.05),
                Conjecture(1, "static", sigma_theta=0.0),
                Conjecture(2, "yielding", sigma_theta=0.1),
                Conjecture(3, "aggressive", sigma_theta=0.0))


class TestSeedingExactness:
    """`sample_batch` seeds its substreams through an in-repo copy of
    numpy's SeedSequence hash; these pin it to the installed numpy."""

    @pytest.mark.parametrize("N", [1, 64, 1000])
    @pytest.mark.parametrize("entropy", [
        0, 1, (3, 7, 42), (2**40 + 3, 7, 599), (9, 8, 7, 6, 5, 4),
        2**127 + 11,
    ])
    def test_hash_matches_spawned_children(self, entropy, N):
        want = [c.generate_state(4, np.uint64)
                for c in np.random.SeedSequence(entropy).spawn(N)]
        got = _substream_states(np.random.SeedSequence(entropy), N)
        assert got.dtype == np.uint64 and got.shape == (N, 4)
        assert np.array_equal(got, np.array(want))

    def test_hash_of_a_spawned_parent_and_a_wider_pool(self):
        for make in (lambda: np.random.SeedSequence(5).spawn(3)[2],
                     lambda: np.random.SeedSequence((3, 7), pool_size=8)):
            want = [c.generate_state(4, np.uint64) for c in make().spawn(64)]
            assert np.array_equal(_substream_states(make(), 64),
                                  np.array(want))

    def test_unhashable_entropy_raises_instead_of_spawning(self):
        # numpy accepts strings inside an entropy tuple; the copy of its
        # hash does not, and says so rather than seeding another way.
        info = _info({0: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04)})
        seq = np.random.SeedSequence(("0x10", 3))
        with pytest.raises(TypeError, match="entropy of type str"):
            sample_batch(info, 4, 5, 6, seq, dt=0.1, robot_radius=0.3)
        assert seq.n_children_spawned == 0
        with pytest.raises(TypeError, match="SeedSequence"):
            sample_batch(info, 4, 5, 6, 12, dt=0.1, robot_radius=0.3)

    @pytest.mark.parametrize("n_obstacles,N,entropy", [
        (0, 4, (1, 7, 3)), (1, 1, 0), (3, 64, (11, 7, 40)),
        (2, 17, (2**40 + 3, 7, 599)),
    ])
    def test_batch_matches_the_spawned_loop(self, n_obstacles, N, entropy):
        beliefs = {5 - k: _belief((k, 1.0 - k), (0.3 * k, -0.2),
                                  cov_scale=0.04 * (k + 1))
                   for k in range(n_obstacles)}
        H = 6
        info = _info(beliefs, family=MIXED_FAMILY,
                     posterior=Posterior(np.array([0.2, 0.3, 0.1, 0.4])))
        batch = sample_batch(info, N, H, 4, np.random.SeedSequence(entropy),
                             dt=0.1, robot_radius=0.3)
        vel, noise = spawned_draws(beliefs, MIXED_FAMILY,
                                   batch.conjecture_ids,
                                   np.random.SeedSequence(entropy), H)
        assert np.array_equal(_bits(batch.init_velocities), _bits(vel))
        assert np.array_equal(_bits(batch.noise), _bits(noise))
        assert batch.noise.flags.c_contiguous


class TestSampleBatchPurity:
    def test_same_seed_sequence_object_gives_the_same_batch(self):
        # Fails while sample_batch spawns from the caller's sequence: the
        # second call then reads children N..2N-1 and moves the counter.
        info = _info({0: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04),
                      4: _belief((-1.0, 2.0), (0.0, 0.3), cov_scale=1.0)})
        seq = np.random.SeedSequence((5, 7, 12))
        a = sample_batch(info, 8, 10, 6, seq, dt=0.1, robot_radius=0.3)
        b = sample_batch(info, 8, 10, 6, seq, dt=0.1, robot_radius=0.3)
        assert seq.n_children_spawned == 0
        assert np.array_equal(a.conjecture_ids, b.conjecture_ids)
        assert np.array_equal(_bits(a.init_velocities),
                              _bits(b.init_velocities))
        assert np.array_equal(_bits(a.noise), _bits(b.noise))

    def test_scenario_draws_do_not_depend_on_the_batch_size(self):
        family = (Conjecture(0, "constant-velocity"),)
        info = _info({0: _belief((3.0, 1.0), (0.4, -0.2), cov_scale=0.04)},
                     posterior=Posterior(np.array([1.0])), family=family)
        small = sample_batch(info, 8, 10, 1, np.random.SeedSequence(4),
                             dt=0.1, robot_radius=0.3)
        large = sample_batch(info, 64, 10, 1, np.random.SeedSequence(4),
                             dt=0.1, robot_radius=0.3)
        assert np.array_equal(small.init_velocities,
                              large.init_velocities[:8])
        assert np.array_equal(small.noise, large.noise[:8])


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
        assert np.array_equal(scenario_trajectory(s, info.robot, xy, 0.1),
                              canonical_trajectories(batch, info.robot)[0])


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
