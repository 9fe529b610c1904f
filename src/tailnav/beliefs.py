"""Conjectural obstacle-motion models, velocity-tracking beliefs, and the
tempered, floored posterior over the finite model family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .geometry import Pose
from .world import Observation

# Uninformative velocity variance for a first sighting, (m/s)^2.
INIT_VEL_VAR = 1.0
# Velocity measurement variance blended in on each update, (m/s)^2.
MEAS_VEL_VAR = 0.04
# Covariance inflation per unobserved step, (m/s)^2.
STALE_INFLATION = 0.05

# The parameters each conjecture kind reads in `conjectured_velocity`.
# Every kind also reads sigma_theta, in `scenarios.sample_batch`.
KIND_PARAMS = {
    "static": (),
    "constant-velocity": ("gamma",),
    "yielding": ("d_yield", "decel"),
    "aggressive": ("pursuit_gain",),
}
KINDS = tuple(KIND_PARAMS)
# The kinds whose velocity depends on the robot's position.
REACTIVE_KINDS = ("yielding", "aggressive")


@dataclass(frozen=True)
class BeliefParams:
    tau: float = 2.0
    floor: float = 0.02
    smoothing: float = 0.2
    sigma_like_slack: float = 0.05  # added to sigma_obs for the likelihood scale

    def __post_init__(self):
        # floor < 1/|family| is checked where the family is known; a positive
        # slack keeps the likelihood scale positive for noise-free sensing.
        if not (0 < self.tau < math.inf and 0 < self.smoothing <= 1
                and self.floor >= 0 and 0 < self.sigma_like_slack < math.inf):
            raise ValueError(f"need finite tau > 0, smoothing in (0, 1], "
                             f"floor >= 0 and finite sigma_like_slack > 0, "
                             f"got {self}")


@dataclass(frozen=True)
class Conjecture:
    id: int
    kind: str
    gamma: float = 1.0          # speed scale for constant-velocity
    d_yield: float = 1.5        # yielding reaction distance, m
    decel: float = 0.2          # yielding velocity scale inside d_yield
    pursuit_gain: float = 0.5   # aggressive blend weight toward the robot
    sigma_theta: float = 0.05   # rollout process noise, m/s per step

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown conjecture kind {self.kind!r}")
        if not 0.0 <= self.sigma_theta < math.inf:
            raise ValueError(f"sigma_theta must be finite and nonnegative, "
                             f"got {self.sigma_theta}")
        for k in KIND_PARAMS[self.kind]:
            if not math.isfinite(getattr(self, k)):
                raise ValueError(f"{self.kind} conjecture: {k} must be "
                                 f"finite, got {getattr(self, k)}")


def default_family() -> tuple[Conjecture, ...]:
    """Six conjectures: static, three constant-velocity speed scales,
    yielding, and aggressive."""
    return (
        Conjecture(0, "static"),
        Conjecture(1, "constant-velocity", gamma=0.5),
        Conjecture(2, "constant-velocity", gamma=1.0),
        Conjecture(3, "constant-velocity", gamma=1.5),
        Conjecture(4, "yielding", d_yield=1.5, decel=0.2),
        Conjecture(5, "aggressive", pursuit_gain=0.5),
    )


@dataclass(frozen=True)
class ObstacleBelief:
    last_pos: np.ndarray            # (2,) last observed position
    vel_mean: np.ndarray            # (2,) smoothed velocity estimate, m/s
    vel_cov: np.ndarray             # (2, 2) isotropic, c * I with c >= 0
    staleness: int                  # steps since last seen
    radius: float

    def __post_init__(self):
        # The tracker only produces c * I and sample_batch draws velocities
        # with the one variance c, so reject any covariance it would misread.
        cov = np.asarray(self.vel_cov, dtype=float)
        if not (cov.shape == (2, 2) and cov[0, 0] >= 0.0
                and cov[0, 0] == cov[1, 1] and cov[0, 1] == cov[1, 0] == 0.0):
            raise ValueError("vel_cov must be c * I with c >= 0")


@dataclass(frozen=True)
class Posterior:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("posterior weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("posterior weights must sum to 1")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def uniform(n: int) -> "Posterior":
        return Posterior(np.full(n, 1.0 / n))

    def entropy(self) -> float:
        w = self.weights
        nz = w[w > 0]
        return float(-(nz * np.log(nz)).sum())

    def mode(self) -> int:
        return int(np.argmax(self.weights))


def conjectured_velocity(conj: Conjecture, vel: np.ndarray, pos: np.ndarray,
                         robot_xy: np.ndarray) -> np.ndarray:
    """Velocity an obstacle at `pos` with estimate `vel` would move at under
    the conjecture, given the robot at `robot_xy`.

    The arguments hold x and y on a leading axis of size 2, so `(2,)`
    vectors are single points and `(2, ...)` arrays whole batches of
    obstacles (or scenarios) that broadcast over the axes after it.
    """
    vel = np.asarray(vel, dtype=float)
    pos = np.asarray(pos, dtype=float)
    if conj.kind == "static":
        return np.zeros_like(vel)
    if conj.kind == "constant-velocity":
        return conj.gamma * vel
    to_robot = np.asarray(robot_xy, dtype=float) - pos
    tx, ty = to_robot
    dist = np.sqrt(tx * tx + ty * ty)   # np.linalg.norm's own arithmetic
    if conj.kind == "yielding":
        return np.where(dist < conj.d_yield, conj.decel * vel, vel)
    # aggressive: blend toward the unit vector pointing at the robot, a
    # zero vector when the obstacle sits on the robot
    unit = np.divide(to_robot, dist, out=np.zeros_like(to_robot),
                     where=dist > 1e-9)
    return (1.0 - conj.pursuit_gain) * vel + conj.pursuit_gain * unit


def predict_obstacle(conj: Conjecture, belief: ObstacleBelief, robot: Pose,
                     dt: float) -> np.ndarray:
    """One-step predicted position of a tracked obstacle under a conjecture."""
    robot_xy = np.array([robot.x, robot.y])
    v = conjectured_velocity(conj, belief.vel_mean, belief.last_pos, robot_xy)
    return belief.last_pos + v * dt


def likelihood(conj: Conjecture, beliefs: Mapping[int, ObstacleBelief],
               obs: Observation, robot: Pose, sigma_like: float,
               dt: float) -> float:
    """Product of isotropic Gaussian densities of the observed positions
    around the conjecture's predictions.

    A belief last updated `staleness` steps ago is predicted across the
    whole gap, dt * (staleness + 1), the interval track_obstacles
    differences the same observation over.

    Obstacles without tracking history contribute a factor of 1, so the
    value is a positive real for every finite input.
    """
    if sigma_like <= 0:
        raise ValueError("sigma_like must be positive")
    log_l = 0.0
    norm = 1.0 / (2.0 * math.pi * sigma_like ** 2)
    for oid, noisy_pos, _radius in obs.obstacles:
        b = beliefs.get(oid)
        if b is None:
            continue
        pred = predict_obstacle(conj, b, robot, dt * (b.staleness + 1))
        d2 = float((noisy_pos[0] - pred[0]) ** 2 + (noisy_pos[1] - pred[1]) ** 2)
        log_l += math.log(norm) - d2 / (2.0 * sigma_like ** 2)
    # Clamp so the result never underflows to zero; positivity is part of
    # the contract and the posterior update renormalizes anyway.
    return math.exp(max(log_l, -700.0))


def update_posterior(prior: Posterior, likelihoods: np.ndarray, tau: float,
                     floor: float) -> Posterior:
    """Tempered Bayes update with a probability floor.

    Weights follow q(theta) proportional to prior(theta) * l(theta)^(1/tau),
    computed in log space.  Entries below the floor are pinned to the floor
    and the remaining mass is renormalized over the rest in a single pass.
    """
    lik = np.asarray(likelihoods, dtype=float)
    if not np.all(np.isfinite(lik)) or np.any(lik <= 0):
        raise ValueError("likelihoods must be finite and positive")
    if tau <= 0:
        raise ValueError("temperature must be positive")
    n = len(lik)
    if not (0.0 <= floor < 1.0 / n):
        raise ValueError("floor must lie in [0, 1/|family|)")

    logw = np.log(prior.weights) + np.log(lik) / tau
    logw -= logw.max()
    w = np.exp(logw)
    w /= w.sum()

    if floor > 0.0:
        low = w < floor
        if low.any():
            k = int(low.sum())
            w[~low] *= (1.0 - floor * k) / w[~low].sum()
            w[low] = floor
    w /= w.sum()
    return Posterior(w)


def track_obstacles(beliefs: Mapping[int, ObstacleBelief], obs: Observation,
                    dt: float, smoothing: float) -> dict[int, ObstacleBelief]:
    """Exponential-smoothing velocity tracker.

    Visible obstacles get a finite-difference velocity measurement blended
    into the mean; unseen ones accrue staleness and covariance inflation.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not (0.0 < smoothing <= 1.0):
        raise ValueError("smoothing must lie in (0, 1]")
    updated: dict[int, ObstacleBelief] = {}
    seen = {oid: (np.array(p), r) for oid, p, r in obs.obstacles}

    for oid, (pos, radius) in sorted(seen.items()):
        old = beliefs.get(oid)
        if old is None:
            updated[oid] = ObstacleBelief(
                last_pos=pos, vel_mean=np.zeros(2),
                vel_cov=INIT_VEL_VAR * np.eye(2), staleness=0, radius=radius)
            continue
        gap = dt * (old.staleness + 1)
        fd = (pos - old.last_pos) / gap
        mean = (1.0 - smoothing) * old.vel_mean + smoothing * fd
        cov = (1.0 - smoothing) * old.vel_cov + smoothing * MEAS_VEL_VAR * np.eye(2)
        updated[oid] = ObstacleBelief(last_pos=pos, vel_mean=mean, vel_cov=cov,
                                      staleness=0, radius=radius)

    for oid, old in beliefs.items():
        if oid in updated:
            continue
        updated[oid] = replace(
            old,
            vel_cov=old.vel_cov + STALE_INFLATION * np.eye(2),
            staleness=old.staleness + 1,
        )
    return updated
