"""Kinematics and clearance geometry."""

import math

import numpy as np
import pytest

from tailnav.geometry import (
    EMPTY_CLEARANCE,
    Disc,
    Pose,
    VelocityCommand,
    WallSegment,
    clearance,
    clearance_points,
    disc_gaps,
    goal_distance,
    normalize_angle,
    step_unicycle,
)
from oracle import (
    clearance_points_reference,
    point_segment_distance,
    scalar_clearance,
)


def euler_rollout(pose, cmd, duration, n_steps):
    """Fine-step explicit-Euler oracle for the constant-twist update."""
    x, y, th = pose.x, pose.y, pose.heading
    h = duration / n_steps
    for _ in range(n_steps):
        x += cmd.v * h * math.cos(th)
        y += cmd.v * h * math.sin(th)
        th += cmd.omega * h
    return x, y, th


class TestStepUnicycle:
    def test_zero_command_is_identity(self):
        p = step_unicycle(Pose(0.0, 0.0, 0.0), VelocityCommand(0.0, 0.0), 0.1)
        assert (p.x, p.y, p.heading) == (0.0, 0.0, 0.0)

    def test_straight_line_unit_speed(self):
        p = step_unicycle(Pose(0.0, 0.0, 0.0), VelocityCommand(1.0, 0.0), 1.0)
        assert (p.x, p.y, p.heading) == pytest.approx((1.0, 0.0, 0.0))

    def test_quarter_arc_matches_closed_form(self):
        p = step_unicycle(Pose(0.0, 0.0, 0.0), VelocityCommand(1.0, 1.0),
                          math.pi / 2.0)
        assert (p.x, p.y, p.heading) == pytest.approx(
            (1.0, 1.0, math.pi / 2.0), abs=1e-12)

    @pytest.mark.parametrize("cmd,duration", [
        (VelocityCommand(1.0, 1.0), math.pi / 2.0),
        (VelocityCommand(0.8, -1.5), 0.7),
        (VelocityCommand(0.3, 0.4), 2.0),
        (VelocityCommand(1.0, 0.05), 1.0),
    ])
    def test_euler_oracle_converges_to_arc(self, cmd, duration):
        start = Pose(0.4, -0.2, 0.3)
        exact = step_unicycle(start, cmd, duration)
        coarse = euler_rollout(start, cmd, duration, 100_000)    # h = 1e-5ish
        fine = euler_rollout(start, cmd, duration, 1_000_000)
        err_coarse = math.hypot(coarse[0] - exact.x, coarse[1] - exact.y)
        err_fine = math.hypot(fine[0] - exact.x, fine[1] - exact.y)
        assert err_coarse < 1e-4
        assert err_fine < 1e-5
        # First-order method: refining the step shrinks the error.
        assert err_fine < err_coarse / 5.0

    def test_composition_matches_single_step(self):
        cmd = VelocityCommand(0.9, 0.7)
        one = step_unicycle(Pose(0.0, 0.0, 0.1), cmd, 0.2)
        two = step_unicycle(step_unicycle(Pose(0.0, 0.0, 0.1), cmd, 0.1),
                            cmd, 0.1)
        assert (two.x, two.y, two.heading) == pytest.approx(
            (one.x, one.y, one.heading), abs=1e-12)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            step_unicycle(Pose(0, 0, 0), VelocityCommand(1.0, 0.0), 0.0)

    def test_heading_stays_normalized(self):
        p = Pose(0.0, 0.0, 3.0)
        for _ in range(50):
            p = step_unicycle(p, VelocityCommand(0.5, 1.5), 0.5)
            assert -math.pi < p.heading <= math.pi


class TestNormalizeAngle:
    @pytest.mark.parametrize("a,expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3.0 * math.pi, math.pi),
        (2.0 * math.pi, 0.0),
        (-0.5, -0.5),
    ])
    def test_values(self, a, expected):
        assert normalize_angle(a) == pytest.approx(expected, abs=1e-12)


class TestClearance:
    def test_disc_to_disc(self):
        c = clearance(Disc((0.0, 0.0), 0.5), [Disc((2.0, 0.0), 0.5)])
        assert c == pytest.approx(1.0)

    def test_overlap_is_negative(self):
        c = clearance(Disc((0.0, 0.0), 0.5), [Disc((0.6, 0.0), 0.5)])
        assert c == pytest.approx(-0.4)

    def test_wall_distance(self):
        c = clearance(Disc((0.0, 0.0), 0.5),
                      walls=[WallSegment((1.0, -1.0), (1.0, 1.0))])
        assert c == pytest.approx(0.5)

    def test_empty_scene_sentinel_is_finite(self):
        c = clearance(Disc((0.0, 0.0), 0.5))
        assert math.isfinite(c) and c > 10.0

    def test_minimum_over_all_features(self):
        c = clearance(Disc((0.0, 0.0), 0.5),
                      [Disc((3.0, 0.0), 0.5), Disc((0.0, 2.0), 0.5)],
                      [WallSegment((0.8, -1.0), (0.8, 1.0))])
        assert c == pytest.approx(0.3)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rc = rng.uniform(-5, 5, 2)
            oc = rng.uniform(-5, 5, 2)
            wa, wb = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
            if np.allclose(wa, wb):
                continue
            base = clearance(Disc(tuple(rc), 0.3), [Disc(tuple(oc), 0.4)],
                             [WallSegment(tuple(wa), tuple(wb))])
            ang = rng.uniform(0, 2 * math.pi)
            R = np.array([[math.cos(ang), -math.sin(ang)],
                          [math.sin(ang), math.cos(ang)]])
            t = rng.uniform(-3, 3, 2)
            moved = clearance(
                Disc(tuple(R @ rc + t), 0.3), [Disc(tuple(R @ oc + t), 0.4)],
                [WallSegment(tuple(R @ wa + t), tuple(R @ wb + t))])
            assert moved == pytest.approx(base, abs=1e-9)

    def test_monotone_in_robot_radius(self):
        obstacles = [Disc((2.0, 1.0), 0.4)]
        walls = [WallSegment((0.0, 3.0), (4.0, 3.0))]
        prev = clearance(Disc((0.5, 0.5), 0.1), obstacles, walls)
        for r in (0.2, 0.3, 0.5, 0.8):
            cur = clearance(Disc((0.5, 0.5), r), obstacles, walls)
            assert cur < prev
            prev = cur


class TestPointSegmentDistance:
    def test_perpendicular_foot_inside(self):
        d = point_segment_distance(np.array([0.0, 1.0]),
                                   np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        assert d == pytest.approx(1.0)

    def test_clamps_to_endpoint(self):
        d = point_segment_distance(np.array([3.0, 4.0]),
                                   np.array([-1.0, 0.0]), np.array([0.0, 0.0]))
        assert d == pytest.approx(5.0)


class TestClearancePoints:
    def test_matches_scalar_clearance(self):
        rng = np.random.default_rng(11)
        wall_a = rng.uniform(-4, 4, (3, 2))
        wall_b = wall_a + rng.uniform(0.5, 2.0, (3, 2))
        obstacle_xy = rng.uniform(-4, 4, (2, 2))
        radii = np.array([0.4, 0.3])
        walls = [WallSegment(tuple(a), tuple(b))
                 for a, b in zip(wall_a, wall_b)]
        discs = [Disc(tuple(p), r) for p, r in zip(obstacle_xy, radii)]
        pts = rng.uniform(-4, 4, (20, 2))
        batch = clearance_points(pts, 0.3, obstacle_xy, radii, wall_a, wall_b)
        for p, c in zip(pts, batch):
            assert c == pytest.approx(
                scalar_clearance(Disc(tuple(p), 0.3), discs, walls), abs=1e-12)

    def test_disc_view_is_bit_identical(self):
        # The simulator's clearance and the planner's share one arithmetic.
        rng = np.random.default_rng(5)
        scenes = [(0, 0)] + [tuple(rng.integers(0, 4, 2)) for _ in range(1000)]
        for n_obs, n_walls in scenes:
            robot_xy = rng.uniform(-4, 4, 2)
            obstacle_xy = rng.uniform(-4, 4, (n_obs, 2))
            radii = rng.uniform(0.1, 0.6, n_obs)
            wall_a = rng.uniform(-4, 4, (n_walls, 2))
            wall_b = wall_a + rng.uniform(0.5, 2.0, (n_walls, 2))
            c = clearance(
                Disc(tuple(robot_xy), 0.3),
                [Disc(tuple(p), r) for p, r in zip(obstacle_xy, radii)],
                [WallSegment(tuple(a), tuple(b))
                 for a, b in zip(wall_a, wall_b)])
            assert c == clearance_points(robot_xy, 0.3, obstacle_xy, radii,
                                         wall_a, wall_b)

    # Robot and obstacle batch shapes of every caller: the planner's (U, 1)
    # against (U, N), the filter's (C, H+1) against (H+1,), dwa-style's (U,)
    # against one scene, and the world's single point.
    @pytest.mark.parametrize("robot_batch, obstacle_batch", [
        ((25, 1), (25, 64)),
        ((26, 21), (21,)),
        ((25,), ()),
        ((), ()),
    ])
    @pytest.mark.parametrize("n_obs, n_walls",
                             [(6, 4), (0, 4), (6, 0), (0, 0), (40, 4)])
    def test_matches_parent_formula_bit_for_bit(self, robot_batch,
                                                obstacle_batch, n_obs,
                                                n_walls):
        rng = np.random.default_rng(17)
        for i in range(8):
            robot_xy = rng.uniform(-4, 4, robot_batch + (2,))
            obstacle_xy = rng.uniform(-4, 4, obstacle_batch + (n_obs, 2))
            radii = rng.uniform(0.1, 0.6, n_obs)
            wall_a = rng.uniform(-4, 4, (n_walls, 2))
            wall_b = wall_a + rng.uniform(0.5, 2.0, (n_walls, 2))
            # The first robot point sits on an obstacle centre or on a wall
            # endpoint, so a zero distance is measured.
            points = robot_xy.reshape(-1, 2)
            if i % 2 == 0 and n_obs:
                points[0] = obstacle_xy.reshape(-1, 2)[0]
            elif n_walls:
                points[0] = (wall_a, wall_b)[i % 4 // 2][0]
            args = (robot_xy, 0.3, obstacle_xy, radii, wall_a, wall_b)
            got = np.asarray(clearance_points(*args))
            want = np.asarray(clearance_points_reference(*args))
            assert got.shape == want.shape == np.broadcast_shapes(
                robot_batch, obstacle_batch)
            # Compared as bit patterns, so the sign of a zero counts too.
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_empty_scene_sentinel(self):
        c = clearance_points(np.zeros((4, 2)), 0.3, np.zeros((0, 2)),
                             np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)))
        assert c.shape == (4,)
        assert np.all(c > 10.0)

    def test_broadcasts_obstacle_batches(self):
        # (H, 2) robot positions against (M, H, n, 2) obstacle stacks.
        robot_xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        obstacle_xy = np.array([
            [[[3.0, 0.0]], [[3.0, 0.0]]],
            [[[5.0, 0.0]], [[4.0, 0.0]]],
        ])
        c = clearance_points(robot_xy, 0.5, obstacle_xy, np.array([0.5]),
                             np.zeros((0, 2)), np.zeros((0, 2)))
        assert c.shape == (2, 2)
        assert c[0] == pytest.approx([2.0, 1.0])
        assert c[1] == pytest.approx([4.0, 2.0])


class TestDiscGaps:
    @pytest.mark.parametrize("n_obs", [1, 6, 40])
    def test_planner_layout_matches_reference_bit_for_bit(self, n_obs):
        # The planner's kernel: robot points as (2, 1, U, 1) planes against
        # (2, n, U, N) obstacle planes, the minimum over the leading
        # obstacle axis, then robot_radius and the cap.
        rng = np.random.default_rng(29)
        U, N = 25, 64
        for i in range(4):
            robot_xy = rng.uniform(-4, 4, (U, 1, 2))
            obstacle_xy = rng.uniform(-4, 4, (U, N, n_obs, 2))
            radii = rng.uniform(0.1, 0.6, n_obs)
            if i % 2 == 0:
                # A robot point on an obstacle centre: a zero distance.
                robot_xy[0, 0] = obstacle_xy[0, 0, 0]
            robot = np.moveaxis(robot_xy, -1, 0)[:, None]
            planes = np.ascontiguousarray(np.moveaxis(obstacle_xy, (-1, -2),
                                                      (0, 1)))
            gaps = disc_gaps(robot[0] - planes[0], robot[1] - planes[1],
                             radii[:, None, None]).min(axis=0)
            got = np.minimum(EMPTY_CLEARANCE, gaps - 0.3)
            want = clearance_points_reference(robot_xy, 0.3, obstacle_xy,
                                              radii, np.zeros((0, 2)),
                                              np.zeros((0, 2)))
            assert got.shape == want.shape == (U, N)
            # Compared as bit patterns, so the sign of a zero counts too.
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGoalDistance:
    def test_three_four_five(self):
        assert goal_distance(Pose(0, 0, 0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_coincident(self):
        assert goal_distance(Pose(1, 1, math.pi), (1.0, 1.0)) == 0.0

    def test_heading_independent(self):
        assert goal_distance(Pose(0, 0, 0), (-2.0, 0.0)) == pytest.approx(2.0)
        assert goal_distance(Pose(0, 0, 2.0), (-2.0, 0.0)) == pytest.approx(2.0)


class TestValidation:
    def test_disc_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            Disc((0.0, 0.0), 0.0)

    def test_wall_endpoints_distinct(self):
        with pytest.raises(ValueError):
            WallSegment((1.0, 1.0), (1.0, 1.0))

    def test_command_clamping(self):
        u = VelocityCommand(2.0, -3.0).clamped(1.0, 1.5)
        assert (u.v, u.omega) == (1.0, -1.5)
