"""Differential-drive kinematics and clearance geometry.

All functions here are pure and shared by the simulator, the planner
rollouts, and the safety filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Below this angular rate the arc update degenerates to a straight line.
OMEGA_EPS = 1e-6

# Returned clearance when there is nothing to collide with.  A finite
# sentinel keeps downstream arithmetic (risk terms, filter scores) finite.
EMPTY_CLEARANCE = 100.0


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    heading: float  # radians, kept in (-pi, pi]


@dataclass(frozen=True)
class VelocityCommand:
    v: float      # m/s
    omega: float  # rad/s

    def clamped(self, v_max: float, omega_max: float) -> "VelocityCommand":
        return VelocityCommand(
            min(max(self.v, -v_max), v_max),
            min(max(self.omega, -omega_max), omega_max),
        )


@dataclass(frozen=True)
class Disc:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError(f"disc radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class WallSegment:
    a: tuple[float, float]
    b: tuple[float, float]

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("wall endpoints must be distinct")


def step_unicycle(pose: Pose, cmd: VelocityCommand, dt: float) -> Pose:
    """Advance a unicycle pose by one exact constant-twist step.

    Uses the closed-form circular arc when |omega| >= OMEGA_EPS and the
    straight-line limit otherwise.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    v, w = cmd.v, cmd.omega
    th = pose.heading
    if abs(w) < OMEGA_EPS:
        x = pose.x + v * dt * math.cos(th)
        y = pose.y + v * dt * math.sin(th)
        th_new = th + w * dt
    else:
        r = v / w
        th_new = th + w * dt
        x = pose.x + r * (math.sin(th_new) - math.sin(th))
        y = pose.y - r * (math.cos(th_new) - math.cos(th))
    return Pose(x, y, normalize_angle(th_new))


def clearance(
    robot: Disc,
    obstacles: Sequence[Disc] = (),
    walls: Sequence[WallSegment] = (),
) -> float:
    """Signed minimum clearance of a robot disc against discs and walls.

    The Disc/WallSegment view of `clearance_points`, so the simulator and
    the planner share one arithmetic.  Negative iff the robot overlaps
    something.  Empty scenes return the EMPTY_CLEARANCE sentinel.
    """
    obstacle_xy = np.array([ob.center for ob in obstacles],
                           dtype=float).reshape(-1, 2)
    radii = np.array([ob.radius for ob in obstacles], dtype=float)
    ends = np.array([(w.a, w.b) for w in walls], dtype=float).reshape(-1, 2, 2)
    return float(clearance_points(np.asarray(robot.center, dtype=float),
                                  robot.radius, obstacle_xy, radii,
                                  ends[:, 0], ends[:, 1]))


def clearance_points(
    robot_xy: np.ndarray,
    robot_radius: float,
    obstacle_xy: np.ndarray,
    obstacle_radii: np.ndarray,
    wall_a: np.ndarray,
    wall_b: np.ndarray,
) -> np.ndarray:
    """Vectorized signed clearance for batches of robot positions.

    robot_xy: (..., 2) robot centers.
    obstacle_xy: (..., n_obs, 2) obstacle centers, broadcastable against
        robot_xy's batch shape.
    obstacle_radii: (n_obs,).
    wall_a, wall_b: (n_walls, 2) segment endpoints.

    Returns signed clearance with batch shape of robot_xy[..., 0].

    robot_radius is subtracted once, after the minimum over obstacles and
    walls: x - robot_radius rounds monotonically in x, so this gives the
    bits of subtracting it from every distance first.
    """
    batch = np.broadcast_shapes(robot_xy.shape[:-1], obstacle_xy.shape[:-2])
    c = np.full(batch, EMPTY_CLEARANCE)
    x, y = robot_xy[..., 0, None], robot_xy[..., 1, None]   # (..., 1)
    nearest = None
    if obstacle_xy.shape[-2] > 0:
        nearest = _min_last(disc_gaps(x - obstacle_xy[..., 0],
                                      y - obstacle_xy[..., 1], obstacle_radii))
    if wall_a.shape[0] > 0:
        ax, ay = wall_a[:, 0], wall_a[:, 1]                 # (W,)
        abx, aby = wall_b[:, 0] - ax, wall_b[:, 1] - ay
        denom = abx * abx + aby * aby
        apx, apy = x - ax, y - ay                           # (..., W)
        t = np.clip((apx * abx + apy * aby) / denom, 0.0, 1.0)
        ex, ey = x - (ax + t * abx), y - (ay + t * aby)
        dw = _min_last(np.sqrt(ex * ex + ey * ey))
        nearest = dw if nearest is None else np.minimum(nearest, dw)
    if nearest is not None:
        c = np.minimum(c, nearest - robot_radius)
    return c


def disc_gaps(dx: np.ndarray, dy: np.ndarray,
              radii: np.ndarray) -> np.ndarray:
    """Distance from a point to the rim of each disc, elementwise: the disc
    centers lie (dx, dy) away from the point.  The one disc-distance
    formula; each caller takes the minimum over its own obstacle axis."""
    return np.sqrt(dx * dx + dy * dy) - radii


def _min_last(a: np.ndarray) -> np.ndarray:
    """Minimum over the last axis, reduced as a leading contiguous axis.

    numpy reduces a short trailing axis element by element; transposed
    and copied, the same minimum is a few whole-array `np.minimum` passes.
    """
    return np.minimum.reduce(a.T.copy(), axis=0).T


def goal_distance(pose: Pose, goal: tuple[float, float]) -> float:
    """Euclidean distance from the pose's position to the goal point."""
    return math.hypot(pose.x - goal[0], pose.y - goal[1])
