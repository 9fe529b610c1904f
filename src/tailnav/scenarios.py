"""Posterior-mixture scenario sampling, the obstacle transition, and robot
rollouts under a constant command."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice
from typing import Iterator, Mapping, Sequence

import numpy as np

from .beliefs import (REACTIVE_KINDS, Conjecture, ObstacleBelief, Posterior,
                      conjectured_velocity)
from .geometry import OMEGA_EPS, Pose, VelocityCommand, normalize_angle
# Re-exported, not called here: tools that patch clearance evaluation and
# the unicycle step by module attribute look them up in this module as well.
from .geometry import clearance_points, step_unicycle  # noqa: F401
from .world import Observation, StaticMap


@dataclass(frozen=True)
class InformationState:
    static_map: StaticMap
    family: tuple[Conjecture, ...]
    beliefs: Mapping[int, ObstacleBelief]
    posterior: Posterior
    goal: tuple[float, float]
    robot: Pose


@dataclass(frozen=True)
class Scenario:
    """One scenario of a batch, a view of the batch arrays' slices."""

    conjecture: Conjecture
    obstacle_ids: tuple[int, ...]
    init_positions: np.ndarray   # (n, 2)
    init_velocities: np.ndarray  # (n, 2)
    radii: np.ndarray            # (n,)
    noise: np.ndarray            # (H, n, 2) per-step velocity noise, m/s

    @property
    def reactive(self) -> bool:
        return self.conjecture.kind in REACTIVE_KINDS


@dataclass(frozen=True)
class ScenarioBatch:
    conjecture_ids: np.ndarray   # (N,) index into family per scenario
    family: tuple[Conjecture, ...]
    obstacle_ids: tuple[int, ...]
    radii: np.ndarray            # (n,)
    init_positions: np.ndarray   # (N, n, 2)
    init_velocities: np.ndarray  # (N, n, 2)
    noise: np.ndarray            # (N, H, n, 2) per-step velocity noise, m/s
    horizon: int
    dt: float
    robot_radius: float

    @property
    def reactive(self) -> np.ndarray:
        """(N,) mask of the scenarios whose conjecture reacts to the robot."""
        kinds = np.array([c.kind in REACTIVE_KINDS for c in self.family])
        return kinds[self.conjecture_ids]

    @cached_property
    def scenarios(self) -> tuple[Scenario, ...]:
        """One Scenario view per scenario, sliced from the arrays on first
        access; sampling and scoring never build them."""
        return tuple(
            Scenario(
                conjecture=self.family[int(c)], obstacle_ids=self.obstacle_ids,
                init_positions=self.init_positions[i],
                init_velocities=self.init_velocities[i], radii=self.radii,
                noise=self.noise[i],
            )
            for i, c in enumerate(self.conjecture_ids)
        )


def step_obstacles(
    conj: Conjecture,
    pos: np.ndarray,             # (2, ...) current positions
    init_vel: np.ndarray,        # (2, ...) sampled velocities
    robot_xy: np.ndarray,        # (2, ...) robot position reacted to
    noise_k: np.ndarray,         # (2, ...) this step's velocity noise
    dt: float,
) -> np.ndarray:
    """One transition of obstacle positions under a conjecture.

    The definition of the propagation arithmetic: the planner's
    per-command reactive re-propagation advances through it, and its
    running sum for non-reactive conjectures, whose velocity never
    changes, repeats its `(v + noise_k) * dt` in the same order.  Every
    argument holds x and y on its leading axis, as `conjectured_velocity`
    takes them, and the axes after it broadcast.
    """
    v = conjectured_velocity(conj, init_vel, pos, robot_xy)
    return pos + (v + noise_k) * dt


def top_k_weights(posterior: Posterior, top_k: int) -> np.ndarray:
    """Posterior restricted to its top_k entries and renormalized."""
    w = posterior.weights
    if not (1 <= top_k <= len(w)):
        raise ValueError("top_k must lie in [1, |family|]")
    if top_k == len(w):
        return w.copy()
    keep = np.sort(np.argsort(-w, kind="stable")[:top_k])
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out / out.sum()


# numpy's SeedSequence hash (O'Neill's seed_seq mixing): 32-bit words,
# two running hash constants and the pool mixer's multipliers.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(x) -> list[int]:
    """SeedSequence's little-endian uint32 words of an entropy or spawn key."""
    if isinstance(x, (int, np.integer)):
        n = int(x)
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    if isinstance(x, (list, tuple, range, np.ndarray)):
        return [w for v in x for w in _entropy_words(v)]
    raise TypeError(f"cannot hash SeedSequence entropy of type "
                    f"{type(x).__name__}; use integers")


def _hash_consts(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """The running hash constant: (xor, multiplier) for each hashed word."""
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hashmix(value, xor, mult):
    """Hash 32-bit words, Python ints or uint64 arrays (exact products)."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _substream_states(seed_seq: np.random.SeedSequence,
                      N: int) -> np.ndarray:
    """(N, 4) uint64 PCG64 seeds of children 0..N-1 of `seed_seq`.

    Row i is `generate_state(4, np.uint64)` of `seed_seq.spawn(N)[i]` on a
    fresh sequence, that is of `SeedSequence(seed_seq.entropy, spawn_key=
    seed_seq.spawn_key + (i,), pool_size=seed_seq.pool_size)`; `seed_seq`
    itself is left as it is.  The children share every entropy word but
    the last, so the pool is mixed once with Python ints.  The child word
    and the output hash then run over all N children as uint64 arrays
    masked to 32 bits, where each product of two 32-bit words is exact.
    """
    if not isinstance(seed_seq, np.random.SeedSequence):
        raise TypeError("seed_seq must be a numpy.random.SeedSequence")
    P = seed_seq.pool_size
    run = _entropy_words(seed_seq.entropy)
    # A spawned child pads its run entropy to the pool, then appends its key.
    words = run + [0] * (P - len(run)) + _entropy_words(seed_seq.spawn_key)
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(w, *next(consts)) for w in words[:P]]
    for src in range(P):
        for dst in range(P):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    for w in words[P:]:
        for dst in range(P):
            pool[dst] = _mix(pool[dst], _hashmix(w, *next(consts)))

    u64 = np.uint64
    # The child index is the last entropy word, mixed into each pool word.
    xor, mult = np.array([next(consts) for _ in range(P)], dtype=u64).T
    child = _hashmix(np.arange(N, dtype=u64)[:, None], xor, mult)
    pools = _mix(np.array(pool, dtype=u64), child)                # (N, P)
    # The output hash: 8 words cycled from the pool, paired little-endian.
    xor, mult = np.array(list(islice(_hash_consts(_INIT_B, _MULT_B), 8)),
                         dtype=u64).T
    out = _hashmix(pools[:, np.arange(8) % P], xor, mult)
    return np.ascontiguousarray(out[:, 0::2] | (out[:, 1::2] << u64(32)))


@cache
def _seed_words_type() -> type:
    """An ISeedSequence that hands precomputed words to a bit generator,
    which seeds from them.  Made on first use, so that importing tailnav
    does not import numpy.random."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # The bit generator reads n_words of dtype from the buffer as is.
            w = self.words
            if (n_words != len(w) or np.dtype(dtype) != w.dtype
                    or not w.flags.c_contiguous):
                raise ValueError("precomputed seed words do not match")
            return w

    return SeedWords


def sample_batch(
    info: InformationState,
    N: int,
    H: int,
    top_k: int,
    seed_seq: np.random.SeedSequence,
    dt: float,
    robot_radius: float,
) -> ScenarioBatch:
    """Sample N obstacle futures of horizon H from the posterior mixture.

    Conjecture indices come from the top-k-renormalized posterior, current
    obstacle states from the velocity beliefs, and future motion adds
    per-step Gaussian process noise.  Scenario i draws from the PCG64
    stream of `seed_seq.spawn(N)[i]` on a fresh sequence, seeded through
    `_substream_states`: first the standard normals of its obstacles'
    velocities in sorted id order, then those of its noise.  The batch is
    a pure function of the arguments: `seed_seq` is not advanced, and
    scenario i does not depend on N or on evaluation order.  Nothing is
    propagated here: `planner.lattice_risks` moves the obstacles.
    """
    if N < 1 or H < 1:
        raise ValueError("N and H must be at least 1")
    master = np.random.default_rng(seed_seq)

    w = top_k_weights(info.posterior, top_k)
    conj_ids = master.choice(len(w), size=N, p=w)

    ids = tuple(sorted(info.beliefs))
    n = len(ids)
    beliefs = [info.beliefs[o] for o in ids]
    radii = np.array([b.radius for b in beliefs], dtype=float)
    last_pos = np.array([b.last_pos for b in beliefs], dtype=float).reshape(n, 2)
    vel_mean = np.array([b.vel_mean for b in beliefs], dtype=float).reshape(n, 2)
    # Beliefs hold isotropic covariances c*I; c is the velocity variance.
    var = np.array([b.vel_cov[0, 0] for b in beliefs], dtype=float)

    # Row 0 of each scenario's draws scales its velocities, rows 1..H its
    # noise, in the order the stream yields them.
    z = np.empty((N, H + 1, n, 2))
    seed_words = _seed_words_type()
    for i, words in enumerate(_substream_states(seed_seq, N)):
        rng = np.random.Generator(np.random.PCG64(seed_words(words)))
        rng.standard_normal(out=z[i])
    # Generator.normal(0.0, sigma) returns 0.0 + sigma*z; noise-free
    # conjectures (sigma_theta is never negative) get 0.0 + (+-0.0) = +0.0.
    sigma = np.array([c.sigma_theta for c in info.family])
    noise = 0.0 + sigma[conj_ids][:, None, None, None] * z[:, 1:]
    init_pos = np.broadcast_to(last_pos, (N, n, 2)).copy()
    init_vel = vel_mean + np.sqrt(var)[:, None] * z[:, 0]

    return ScenarioBatch(
        conjecture_ids=conj_ids, family=info.family, obstacle_ids=ids,
        radii=radii, init_positions=init_pos, init_velocities=init_vel,
        noise=noise, horizon=H, dt=dt, robot_radius=robot_radius)


def lattice_paths(commands: Sequence[VelocityCommand], start: Pose, H: int,
                  dt: float) -> np.ndarray:
    """(U, H, 2) positions of H `step_unicycle` steps under each command.

    Bit for bit the positions the scalar step gives.  Headings depend only
    on omega, so each distinct omega's per-step displacements are taken
    once, with `math` sin/cos (of the unwrapped angle, as the scalar step
    takes it), as a (H, 2) base that a command scales by v*dt (straight)
    or v/omega (arc).  The scaling and the step-by-step running sum are
    elementwise numpy arithmetic in the scalar step's operation order, so
    no result depends on the CPU's SIMD path.
    """
    if H < 1 or dt <= 0.0:
        raise ValueError(f"H and dt must be positive, got {H} and {dt}")
    bases = {}    # omega's bits (-0.0 apart from 0.0) -> (H, 2) base
    keys, scales = [], []
    for u in commands:
        straight = abs(u.omega) < OMEGA_EPS
        key = float(u.omega).hex()
        if key not in bases:
            th, rows = start.heading, []
            for _ in range(H):
                raw = th + u.omega * dt
                if straight:
                    rows.append((math.cos(th), math.sin(th)))
                else:
                    # y - r*z is y + r*(-z) exactly, so both axes add.
                    rows.append((math.sin(raw) - math.sin(th),
                                 -(math.cos(raw) - math.cos(th))))
                th = normalize_angle(raw)
            bases[key] = np.array(rows)
        keys.append(key)
        scales.append(u.v * dt if straight else u.v / u.omega)
    steps = np.empty((len(commands), H + 1, 2))
    steps[:, 0] = start.x, start.y
    steps[:, 1:] = (np.array(scales, dtype=float)[:, None, None]
                    * np.stack([bases[k] for k in keys]))
    # The running sum adds left to right, x_k = x_{k-1} + d_k, as the
    # scalar loop does.
    return np.cumsum(steps, axis=1)[:, 1:]


def reaction_sequence(start: Pose, robot_xy: np.ndarray) -> np.ndarray:
    """Robot positions reactive obstacles respond to: the obstacle at step k
    reacts to the robot at step k-1.  robot_xy is (..., H, 2), one path or
    a stack of paths from the same start."""
    seq = np.empty_like(robot_xy)
    seq[..., 0, :] = start.x, start.y
    seq[..., 1:, :] = robot_xy[..., :-1, :]
    return seq


def obstacles_as_arrays(obs: Observation) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) observed obstacle positions and their (n,) radii."""
    pos = np.array([p for _, p, _ in obs.obstacles],
                   dtype=float).reshape(-1, 2)
    radii = np.array([r for _, _, r in obs.obstacles], dtype=float)
    return pos, radii


def walls_as_arrays(static_map: StaticMap) -> tuple[np.ndarray, np.ndarray]:
    if not static_map.walls:
        return np.zeros((0, 2)), np.zeros((0, 2))
    a = np.array([w.a for w in static_map.walls], dtype=float)
    b = np.array([w.b for w in static_map.walls], dtype=float)
    return a, b
