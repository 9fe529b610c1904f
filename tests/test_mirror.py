"""Metamorphic checks: decisions and episodes commute with the mirror
about y = 0, and decisions with a permutation of the scenarios.

Negating y, every heading and every turn rate is exact in IEEE
arithmetic, and the code takes sin and atan2 odd and cos even, so a
mirrored input must give the mirrored output bit for bit.  Unlike the
exactness tests, these share no formula with tests/oracle.py.  They catch
a swapped x/y plane, a view read along the wrong axis or noise added to
the wrong axis, though not an error that is itself odd in y.

The scenario normals and the world's noise are not mirrored, so rcsp
decisions are mirrored at the kernel level, with the batch arrays
mirrored, and whole episodes only when they are noise-free.  A heading of
exactly +-pi is skipped: `normalize_angle` maps both to pi.

The planner's scenarios are exchangeable, so permuting a batch's scenario
axis must permute every command's risks and leave its CVaR, its objective
and the chosen command bit for bit as they were.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tailnav import controllers
from tailnav.config import load_config
from tailnav.geometry import Pose, VelocityCommand, WallSegment
from tailnav.harness import run_episode
from tailnav.planner import CommandLattice, select_command
from tailnav.safety import apply_filter
from tailnav.world import Observation, StaticMap, build_environment

ENVS = ("open-space", "bottleneck", "warehouse-squeeze")
# Every STRIDE-th rcsp-full decision of each environment's seed-0 episode.
STRIDE = 8


def _point(p):
    return None if p is None else (p[0], -p[1])


def _xy(a: np.ndarray) -> np.ndarray:
    """A copy of a (..., 2) array with its y components negated."""
    out = np.array(a, dtype=float)
    out[..., 1] = -out[..., 1]
    return out


def _pose(p: Pose) -> Pose:
    return Pose(p.x, -p.y, -p.heading)


def _command(u: VelocityCommand) -> VelocityCommand:
    return VelocityCommand(u.v, -u.omega)


def _lattice(lattice: CommandLattice) -> CommandLattice:
    # Same order, so a command keeps its index and its tie-break rank.
    return CommandLattice(tuple(_command(u) for u in lattice.commands))


def _map(m: StaticMap) -> StaticMap:
    x0, y0, x1, y1 = m.bounds
    return StaticMap(
        walls=tuple(WallSegment(_point(w.a), _point(w.b)) for w in m.walls),
        bounds=(x0, -y1, x1, -y0))


def _beliefs(beliefs: dict) -> dict:
    return {oid: replace(b, last_pos=_xy(b.last_pos), vel_mean=_xy(b.vel_mean))
            for oid, b in beliefs.items()}


def _observation(obs: Observation) -> Observation:
    return replace(obs, robot=_pose(obs.robot), obstacles=tuple(
        (oid, _point(p), r) for oid, p, r in obs.obstacles))


def _info(info):
    return replace(info, static_map=_map(info.static_map),
                   beliefs=_beliefs(info.beliefs), goal=_point(info.goal),
                   robot=_pose(info.robot))


def _batch(batch):
    return replace(batch, init_positions=_xy(batch.init_positions),
                   init_velocities=_xy(batch.init_velocities),
                   noise=_xy(batch.noise))


def _recorder(fn, calls: list):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out
    return wrapped


@pytest.fixture(scope="module")
def decisions() -> dict:
    """The select_command and apply_filter calls of rcsp-full decisions,
    each as (args, kwargs, result)."""
    calls = {"select_command": [], "apply_filter": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in (("select_command", select_command),
                         ("apply_filter", apply_filter)):
            mp.setattr(controllers, name, _recorder(fn, calls[name]))
        for env in ENVS:
            start = {k: len(v) for k, v in calls.items()}
            run_episode(env, "rcsp-full", 0, load_config())
            for k, v in calls.items():
                v[start[k]:] = v[start[k]::STRIDE]
    return calls


def test_select_command_commutes_with_the_mirror(decisions):
    calls = decisions["select_command"]
    assert len(calls) >= 24
    # Some decisions see obstacles, reactive conjectures among them.
    assert sum(args[2].reactive.any() for args, _, _ in calls) >= 12
    for (info, lattice, batch, params), kwargs, (command, scores) in calls:
        if abs(info.robot.heading) == math.pi:
            continue
        got, got_scores = select_command(_info(info), _lattice(lattice),
                                         _batch(batch), params, **kwargs)
        assert got == _command(command)
        assert len(got_scores) == len(scores)
        for s, m in zip(scores, got_scores):
            assert m.command == _command(s.command)
            assert (m.mean_reward, m.tail_risk, m.objective) == (
                s.mean_reward, s.tail_risk, s.objective)
            assert np.array_equal(m.risks, s.risks)


def test_apply_filter_commutes_with_the_mirror(decisions):
    calls = decisions["apply_filter"]
    assert len(calls) >= 24
    assert sum(bool(args[1].obstacles) for args, _, _ in calls) >= 12
    for args, kwargs, command in calls:
        u_nom, obs, beliefs, lattice, goal, static_map, params = args
        if abs(obs.robot.heading) == math.pi:
            continue
        got = apply_filter(_command(u_nom), _observation(obs),
                           _beliefs(beliefs), _lattice(lattice), _point(goal),
                           _map(static_map), params, **kwargs)
        assert got == _command(command)


def _permuted(batch, perm):
    return replace(batch, conjecture_ids=batch.conjecture_ids[perm],
                   init_positions=batch.init_positions[perm],
                   init_velocities=batch.init_velocities[perm],
                   noise=batch.noise[perm])


def test_select_command_commutes_with_a_scenario_permutation(decisions):
    # The scenarios are exchangeable: permuting the batch's scenario axis
    # permutes every command's risks, bit for bit, and leaves the CVaR, the
    # objective and the choice as they were.  (A mean over the risks is
    # not bit-invariant under reordering, so mean_risk is not checked.)
    calls = decisions["select_command"]
    assert len(calls) >= 24
    for k, ((info, lattice, batch, params), kwargs, (command, scores)) in (
            enumerate(calls)):
        assert not kwargs.get("mean_risk")
        perm = np.random.default_rng(k).permutation(len(batch.conjecture_ids))
        got, got_scores = select_command(info, lattice, _permuted(batch, perm),
                                         params, **kwargs)
        assert got == command
        for s, m in zip(scores, got_scores, strict=True):
            assert m.command == s.command
            assert (m.mean_reward, m.tail_risk, m.objective) == (
                s.mean_reward, s.tail_risk, s.objective)
            assert np.array_equal(m.risks, s.risks[perm])


def _noise_free(env):
    return replace(env, sigma_obs=0.0, sigma_act=0.0, obstacles=tuple(
        replace(o, sigma=0.0) for o in env.obstacles))


def _environment(env):
    return replace(
        env, static_map=_map(env.static_map), start=_pose(env.start),
        goal=_point(env.goal), obstacles=tuple(
            replace(o, position=_point(o.position),
                    direction=_point(o.direction), target=_point(o.target),
                    retreat=_point(o.retreat))
            for o in env.obstacles))


# Trace columns that the mirror negates; the rest it keeps.
NEGATED = ("y", "heading", "omega_cmd", "omega_exec")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["goal-pd", "dwa-style"])
@pytest.mark.parametrize("env_name", ENVS)
def test_noise_free_episode_commutes_with_the_mirror(env_name, kind, seed):
    env = _noise_free(build_environment(env_name, seed)[0])
    records = []
    for e in (env, _environment(env)):
        config = load_config()
        config["env_overrides"] = e.to_dict()
        records.append(run_episode(env_name, kind, seed, config))
    rec, mir = records
    assert len(rec.rows) == len(mir.rows)
    for row, mrow in zip(rec.rows, mir.rows):
        if abs(row["heading"]) == math.pi:
            break
        for col, v in row.items():
            assert mrow[col] == (-v if col in NEGATED else v), (row["step"],
                                                                col)
    else:
        assert mir.metrics.to_dict() == rec.metrics.to_dict()
