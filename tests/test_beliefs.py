"""Conjecture predictions, likelihoods, posterior updates, and tracking."""

import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from tailnav.beliefs import (
    KIND_PARAMS,
    Conjecture,
    ObstacleBelief,
    Posterior,
    conjectured_velocity,
    default_family,
    likelihood,
    predict_obstacle,
    track_obstacles,
    update_posterior,
)
from tailnav.geometry import Pose
from tailnav.world import Observation

from oracle import sample_obstacle_state


def _belief(pos, vel, cov_scale=0.0, radius=0.35):
    return ObstacleBelief(
        last_pos=np.asarray(pos, dtype=float),
        vel_mean=np.asarray(vel, dtype=float),
        vel_cov=cov_scale * np.eye(2),
        staleness=0,
        radius=radius,
    )


def _obs(robot, obstacles, step=0):
    return Observation(robot=robot, obstacles=tuple(obstacles), step=step)


class TestConjecture:
    def test_default_family_composition(self):
        family = default_family()
        assert len(family) == 6
        kinds = [c.kind for c in family]
        assert kinds.count("static") == 1
        assert kinds.count("constant-velocity") == 3
        assert kinds.count("yielding") == 1
        assert kinds.count("aggressive") == 1
        gammas = sorted(c.gamma for c in family
                        if c.kind == "constant-velocity")
        assert gammas == [0.5, 1.0, 1.5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Conjecture(0, "teleporting")

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_negative_or_nonfinite_sigma_theta_rejected(self, sigma):
        # A negative sigma_theta would silently draw no process noise.
        with pytest.raises(ValueError, match="sigma_theta"):
            Conjecture(0, "static", sigma_theta=sigma)

    def test_zero_sigma_theta_accepted(self):
        assert Conjecture(0, "static", sigma_theta=0.0).sigma_theta == 0.0

    def test_round_trips_through_dict(self):
        for c in default_family():
            assert Conjecture(**asdict(c)) == c


class TestPredictObstacle:
    def test_static_ignores_velocity(self):
        c = Conjecture(0, "static")
        b = _belief((2.0, 3.0), (5.0, -5.0))
        p = predict_obstacle(c, b, Pose(0, 0, 0), 0.1)
        assert p == pytest.approx([2.0, 3.0])

    def test_constant_velocity_unit_gamma(self):
        c = Conjecture(0, "constant-velocity", gamma=1.0)
        b = _belief((0.0, 0.0), (1.0, 0.0))
        p = predict_obstacle(c, b, Pose(9, 9, 0), 0.1)
        assert p == pytest.approx([0.1, 0.0])

    def test_constant_velocity_scales_by_gamma(self):
        c = Conjecture(0, "constant-velocity", gamma=1.5)
        b = _belief((0.0, 0.0), (1.0, 0.0))
        p = predict_obstacle(c, b, Pose(9, 9, 0), 0.1)
        assert p == pytest.approx([0.15, 0.0])

    def test_yielding_slows_inside_reaction_distance(self):
        c = Conjecture(0, "yielding", d_yield=1.5, decel=0.2)
        b = _belief((0.0, 0.0), (1.0, 0.0))
        p = predict_obstacle(c, b, Pose(1.5 - 1e-6, 0.0, 0.0), 0.1)
        assert p == pytest.approx([0.02, 0.0])

    def test_yielding_unaffected_outside(self):
        c = Conjecture(0, "yielding", d_yield=1.5, decel=0.2)
        b = _belief((0.0, 0.0), (1.0, 0.0))
        p = predict_obstacle(c, b, Pose(5.0, 0.0, 0.0), 0.1)
        assert p == pytest.approx([0.1, 0.0])

    def test_aggressive_blends_toward_robot(self):
        c = Conjecture(0, "aggressive", pursuit_gain=0.5)
        b = _belief((0.0, 0.0), (0.0, 1.0))
        # Robot due east: blended velocity (0.5, 0.5), scaled by dt.
        p = predict_obstacle(c, b, Pose(4.0, 0.0, 0.0), 0.1)
        assert p == pytest.approx([0.05, 0.05])


class TestConjecturedVelocity:
    def test_matches_norm_form_bit_for_bit(self):
        # The reactive branches with the distance to the robot taken by
        # np.linalg.norm(..., axis=-1), the reference for its bits.
        def norm_form(conj, vel, pos, robot_xy):
            to_robot = robot_xy - pos
            dist = np.linalg.norm(to_robot, axis=-1, keepdims=True)
            if conj.kind == "yielding":
                return np.where(dist < conj.d_yield, conj.decel * vel, vel)
            unit = np.where(dist > 1e-9,
                            to_robot / np.where(dist > 1e-9, dist, 1.0), 0.0)
            return (1.0 - conj.pursuit_gain) * vel + conj.pursuit_gain * unit

        rng = np.random.default_rng(23)
        U, S, n = 25, 12, 6
        vel = rng.normal(0.0, 1.0, (U, S, n, 2))
        pos = rng.uniform(-4, 4, (U, S, n, 2))
        robot_xy = rng.uniform(-4, 4, (U, 1, 1, 2))
        # One obstacle on the robot (distance 0) and one exactly d_yield
        # away.
        pos[0, 0, 0] = robot_xy[0, 0, 0]
        robot_xy[1, 0, 0], pos[1, 0, 0] = [0.25, -1.0], [1.75, -1.0]
        assert np.linalg.norm(robot_xy[0, 0, 0] - pos[0, 0, 0]) == 0.0
        assert np.linalg.norm(robot_xy[1, 0, 0] - pos[1, 0, 0]) == 1.5
        for conj in (Conjecture(4, "yielding", d_yield=1.5, decel=0.2),
                     Conjecture(5, "aggressive", pursuit_gain=0.5)):
            # conjectured_velocity takes x and y on the leading axis.
            got = np.moveaxis(conjectured_velocity(
                conj, np.moveaxis(vel, -1, 0), np.moveaxis(pos, -1, 0),
                np.moveaxis(robot_xy, -1, 0)), 0, -1)
            want = norm_form(conj, vel, pos, robot_xy)
            assert got.shape == want.shape == (U, S, n, 2)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind", KIND_PARAMS)
    def test_reads_exactly_the_parameters_its_kind_lists(self, kind):
        # A config's family entry may set only KIND_PARAMS[kind], so each
        # listed parameter must move the velocity and no other may.
        rng = np.random.default_rng(5)
        vel = rng.normal(0.0, 1.0, (2, 200))
        pos = rng.uniform(-3.0, 3.0, (2, 200))
        robot_xy = np.zeros((2, 1))
        base = Conjecture(0, kind)
        want = conjectured_velocity(base, vel, pos, robot_xy)
        params = [f.name for f in fields(Conjecture)
                  if f.name not in ("id", "kind", "sigma_theta")]
        for name in params:
            conj = replace(base, **{name: getattr(base, name) + 0.25})
            got = conjectured_velocity(conj, vel, pos, robot_xy)
            assert (not np.array_equal(got, want)) == (
                name in KIND_PARAMS[kind]), name


class TestLikelihood:
    def test_exact_prediction_density(self):
        c = Conjecture(0, "static")
        beliefs = {0: _belief((2.0, 0.0), (0.0, 0.0))}
        obs = _obs(Pose(0, 0, 0), [(0, (2.0, 0.0), 0.35)])
        lik = likelihood(c, beliefs, obs, Pose(0, 0, 0), 0.1, dt=0.1)
        assert lik == pytest.approx(1.0 / (2.0 * math.pi * 0.01), rel=1e-9)

    def test_mirror_offsets_equal(self):
        c = Conjecture(0, "static")
        beliefs = {0: _belief((2.0, 0.0), (0.0, 0.0))}
        left = likelihood(c, beliefs,
                          _obs(Pose(0, 0, 0), [(0, (1.9, 0.0), 0.35)]),
                          Pose(0, 0, 0), 0.1, dt=0.1)
        right = likelihood(c, beliefs,
                           _obs(Pose(0, 0, 0), [(0, (2.1, 0.0), 0.35)]),
                           Pose(0, 0, 0), 0.1, dt=0.1)
        assert left == pytest.approx(right, rel=1e-12)

    def test_stale_belief_predicts_across_the_whole_gap(self):
        # Unseen for two steps, so the observation lies three steps of
        # motion past last_pos, the gap track_obstacles differences over.
        c = Conjecture(0, "constant-velocity", gamma=1.0)
        b = ObstacleBelief(last_pos=np.array([0.0, 0.0]),
                           vel_mean=np.array([1.0, 0.0]),
                           vel_cov=np.zeros((2, 2)), staleness=2,
                           radius=0.35)
        obs = _obs(Pose(9, 9, 0), [(0, (0.3, 0.0), 0.35)])
        lik = likelihood(c, {0: b}, obs, Pose(9, 9, 0), 0.1, dt=0.1)
        assert lik == pytest.approx(1.0 / (2.0 * math.pi * 0.01), rel=1e-9)

    def test_no_visible_obstacles_gives_unit(self):
        c = Conjecture(0, "static")
        lik = likelihood(c, {}, _obs(Pose(0, 0, 0), []), Pose(0, 0, 0), 0.1,
                         dt=0.1)
        assert lik == 1.0

    def test_positive_under_huge_offset(self):
        c = Conjecture(0, "static")
        beliefs = {0: _belief((0.0, 0.0), (0.0, 0.0))}
        obs = _obs(Pose(0, 0, 0), [(0, (1e3, 1e3), 0.35)])
        lik = likelihood(c, beliefs, obs, Pose(0, 0, 0), 0.1, dt=0.1)
        assert lik > 0.0

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            likelihood(Conjecture(0, "static"), {}, _obs(Pose(0, 0, 0), []),
                       Pose(0, 0, 0), 0.0, dt=0.1)


class TestUpdatePosterior:
    def test_equal_evidence_keeps_prior(self):
        post = update_posterior(Posterior(np.array([0.5, 0.5])),
                                np.array([1.0, 1.0]), 1.0, 0.0)
        assert post.weights == pytest.approx([0.5, 0.5])

    def test_bayes_arithmetic(self):
        post = update_posterior(Posterior(np.array([0.5, 0.5])),
                                np.array([4.0, 1.0]), 1.0, 0.0)
        assert post.weights == pytest.approx([0.8, 0.2])

    def test_tempering_flattens(self):
        post = update_posterior(Posterior(np.array([0.5, 0.5])),
                                np.array([4.0, 1.0]), 2.0, 0.0)
        assert post.weights == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    def test_floor_clamps_exactly(self):
        post = update_posterior(Posterior(np.array([0.5, 0.5])),
                                np.array([1e6, 1e-6]), 1.0, 0.02)
        assert post.weights[1] == pytest.approx(0.02, abs=1e-15)
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_floored_posterior_never_hits_zero(self):
        post = Posterior.uniform(6)
        rng = np.random.default_rng(0)
        for _ in range(100):
            lik = np.exp(rng.normal(0.0, 20.0, 6))
            post = update_posterior(post, lik, 1.0, 0.01)
            assert np.all(post.weights >= 0.01 - 1e-15)

    def test_unrolled_update_identity(self):
        # Sequential updates with floor 0, tau 1 equal the single batch
        # formula w_T ∝ w_0 * exp(sum of log-likelihoods).
        rng = np.random.default_rng(3)
        w0 = rng.dirichlet(np.ones(6))
        liks = np.exp(rng.normal(0.0, 1.0, (20, 6)))
        post = Posterior(w0)
        for row in liks:
            post = update_posterior(post, row, 1.0, 0.0)
        batch = w0 * np.exp(np.log(liks).sum(axis=0))
        batch /= batch.sum()
        assert np.allclose(post.weights, batch, rtol=1e-10)

    def test_tempering_limit_recovers_prior(self):
        prior = Posterior(np.array([0.3, 0.45, 0.25]))
        post = update_posterior(prior, np.array([1e4, 1.0, 1e-4]), 1e6, 0.0)
        assert np.allclose(post.weights, prior.weights, atol=1e-6)

    def test_nonfinite_likelihood_rejected(self):
        with pytest.raises(ValueError):
            update_posterior(Posterior(np.array([0.5, 0.5])),
                             np.array([1.0, np.inf]), 1.0, 0.0)
        with pytest.raises(ValueError):
            update_posterior(Posterior(np.array([0.5, 0.5])),
                             np.array([1.0, 0.0]), 1.0, 0.0)

    def test_floor_range_enforced(self):
        with pytest.raises(ValueError):
            update_posterior(Posterior(np.array([0.5, 0.5])),
                             np.array([1.0, 1.0]), 1.0, 0.5)


class TestPosterior:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Posterior(np.array([0.5, 0.6]))

    def test_entropy_and_mode(self):
        assert Posterior.uniform(4).entropy() == pytest.approx(math.log(4.0))
        assert Posterior(np.array([0.1, 0.7, 0.2])).mode() == 1


class TestObstacleBelief:
    @pytest.mark.parametrize("cov", [
        [[1.0, 0.2], [0.2, 1.0]],
        np.diag([1.0, 2.0]),
        -np.eye(2),
    ])
    def test_covariance_the_sampler_cannot_honour_rejected(self, cov):
        # Scenario sampling draws velocities with the one variance
        # vel_cov[0, 0]; any other covariance would be sampled wrongly.
        with pytest.raises(ValueError, match="vel_cov"):
            ObstacleBelief(last_pos=np.zeros(2), vel_mean=np.zeros(2),
                           vel_cov=np.asarray(cov), staleness=0, radius=0.35)


class TestTrackObstacles:
    def test_first_sighting_uninformative(self):
        obs = _obs(Pose(0, 0, 0), [(0, (2.0, 1.0), 0.35)])
        beliefs = track_obstacles({}, obs, 0.1, 0.5)
        b = beliefs[0]
        assert b.vel_mean == pytest.approx([0.0, 0.0])
        assert b.vel_cov[0, 0] >= 0.5
        assert b.staleness == 0

    def test_stationary_full_smoothing(self):
        obs = _obs(Pose(0, 0, 0), [(0, (2.0, 1.0), 0.35)])
        beliefs = track_obstacles({}, obs, 0.1, 1.0)
        beliefs = track_obstacles(beliefs, obs, 0.1, 1.0)
        assert beliefs[0].vel_mean == pytest.approx([0.0, 0.0])

    def test_geometric_convergence_to_true_velocity(self):
        # Moving at (1, 0) m/s, zero noise: mean after k updates from the
        # (0, 0) init is 1 - (1 - smoothing)^k; 0.875 after 3 at 0.5.
        beliefs = track_obstacles(
            {}, _obs(Pose(0, 0, 0), [(0, (0.0, 0.0), 0.35)]), 0.1, 0.5)
        for k in range(1, 4):
            obs = _obs(Pose(0, 0, 0), [(0, (0.1 * k, 0.0), 0.35)], step=k)
            beliefs = track_obstacles(beliefs, obs, 0.1, 0.5)
        assert beliefs[0].vel_mean == pytest.approx([0.875, 0.0])

    def test_unseen_obstacle_inflates(self):
        beliefs = track_obstacles(
            {}, _obs(Pose(0, 0, 0), [(0, (2.0, 1.0), 0.35)]), 0.1, 0.5)
        cov0 = beliefs[0].vel_cov[0, 0]
        beliefs = track_obstacles(beliefs, _obs(Pose(0, 0, 0), []), 0.1, 0.5)
        assert beliefs[0].staleness == 1
        assert beliefs[0].vel_cov[0, 0] > cov0

    def test_gap_aware_finite_difference(self):
        # Two missed frames: displacement divided by the full 3-step gap.
        beliefs = track_obstacles(
            {}, _obs(Pose(0, 0, 0), [(0, (0.0, 0.0), 0.35)]), 0.1, 1.0)
        beliefs = track_obstacles(beliefs, _obs(Pose(0, 0, 0), []), 0.1, 1.0)
        beliefs = track_obstacles(beliefs, _obs(Pose(0, 0, 0), []), 0.1, 1.0)
        obs = _obs(Pose(0, 0, 0), [(0, (0.3, 0.0), 0.35)])
        beliefs = track_obstacles(beliefs, obs, 0.1, 1.0)
        assert beliefs[0].vel_mean == pytest.approx([1.0, 0.0])

    def test_invalid_smoothing_rejected(self):
        obs = _obs(Pose(0, 0, 0), [])
        for bad in (0.0, 1.5, -0.3):
            with pytest.raises(ValueError):
                track_obstacles({}, obs, 0.1, bad)


class TestSampleObstacleState:
    def test_zero_covariance_returns_mean(self):
        beliefs = {0: _belief((1.0, 2.0), (0.3, -0.4), cov_scale=0.0)}
        state = sample_obstacle_state(beliefs, np.random.default_rng(0))
        pos, vel = state[0]
        assert pos == pytest.approx([1.0, 2.0])
        assert vel == pytest.approx([0.3, -0.4])

    def test_seeded_sample_reproducible(self):
        beliefs = {0: _belief((0.0, 0.0), (0.0, 0.0), cov_scale=1.0)}
        a = sample_obstacle_state(beliefs, np.random.default_rng(42))[0][1]
        b = sample_obstacle_state(beliefs, np.random.default_rng(42))[0][1]
        assert np.array_equal(a, b)
        # Regression lock: standard-normal draw under the identity sqrt.
        expected = np.random.default_rng(42).standard_normal(2)
        assert a == pytest.approx(expected, abs=1e-12)

    def test_sample_covariance_matches_target(self):
        beliefs = {0: _belief((0.0, 0.0), (0.0, 0.0), cov_scale=0.04)}
        rng = np.random.default_rng(1)
        draws = np.array([sample_obstacle_state(beliefs, rng)[0][1]
                          for _ in range(10_000)])
        cov = np.cov(draws.T)
        assert abs(cov[0, 0] - 0.04) < 0.004
        assert abs(cov[1, 1] - 0.04) < 0.004

    def test_iteration_order_is_sorted_ids(self):
        beliefs = {
            3: _belief((0.0, 0.0), (0.0, 0.0), cov_scale=1.0),
            1: _belief((0.0, 0.0), (0.0, 0.0), cov_scale=1.0),
        }
        a = sample_obstacle_state(beliefs, np.random.default_rng(9))
        swapped = dict(reversed(list(beliefs.items())))
        b = sample_obstacle_state(swapped, np.random.default_rng(9))
        for oid in (1, 3):
            assert np.array_equal(a[oid][1], b[oid][1])


class TestKlSelection:
    def test_posterior_recovers_generating_conjecture(self):
        # Synthetic observations drawn from one conjecture's predictive rule
        # under a shared, known belief state; the posterior mode should land
        # on the generator within 200 steps in at least 95 of 100 trials.
        family = default_family()
        dt, sigma_obs = 0.1, 0.03
        sigma_like = sigma_obs + 0.05
        robot = Pose(0.0, 0.0, 0.0)
        pos = np.array([1.0, 0.5])  # within d_yield of the robot
        rng = np.random.default_rng(2024)
        hits = 0
        trials = 100
        for trial in range(trials):
            true = family[trial % len(family)]
            post = Posterior.uniform(len(family))
            recovered = False
            for step in range(200):
                phi = rng.uniform(0.0, 2.0 * np.pi)
                vel_mean = 0.8 * np.array([np.cos(phi), np.sin(phi)])
                beliefs = {0: _belief(pos, vel_mean)}
                pred = predict_obstacle(true, beliefs[0], robot, dt)
                noisy = pred + rng.normal(0.0, sigma_obs, 2)
                obs = _obs(robot, [(0, (float(noisy[0]), float(noisy[1])),
                                    0.35)], step=step)
                liks = np.array([
                    likelihood(c, beliefs, obs, robot, sigma_like, dt)
                    for c in family
                ])
                post = update_posterior(post, liks, 1.0, 0.01)
                if post.mode() == true.id and post.weights[true.id] > 0.9:
                    recovered = True
                    break
            hits += recovered
        assert hits >= 95
