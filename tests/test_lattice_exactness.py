"""The step-wise lattice kernel in `select_command` reproduces the
per-command scalar oracle bit for bit: the same per-scenario risks, tail
risk, reward and objective for every command, on decisions captured from
real episodes and on edge-case batches."""

from dataclasses import replace

import numpy as np
import pytest

import tailnav.controllers
from tailnav.beliefs import Conjecture, ObstacleBelief, Posterior, default_family
from tailnav.config import load_config
from tailnav.geometry import Pose, WallSegment
from tailnav.harness import run_episode
from tailnav.planner import (
    CommandLattice,
    PlannerParams,
    select_command,
    tie_break_key,
)
from tailnav.scenarios import InformationState, sample_batch
from tailnav.world import StaticMap

from oracle import score_command

OBJECTIVES = {
    "cvar-fractional": dict(objective="cvar", fractional_tail=True),
    "cvar-plain": dict(objective="cvar", fractional_tail=False),
    "mean": dict(objective="mean"),
    "worst": dict(objective="worst"),
}

CAPTURE_ENVS = ("bottleneck", "warehouse-squeeze", "open-space")
CAPTURE_STRIDE = 12  # keep every 12th decision of an episode


def assert_matches_oracle(info, lattice, batch, params):
    u, scores = select_command(info, lattice, batch, params)
    assert [s.command for s in scores] == list(lattice.commands)
    oracle = [score_command(c, batch, info.robot, info.goal,
                            info.static_map, params)
              for c in lattice.commands]
    for s, ref in zip(scores, oracle):
        assert np.array_equal(s.risks, ref.risks)
        assert s.tail_risk == ref.tail_risk
        assert s.mean_reward == ref.mean_reward
        assert s.objective == ref.objective
    best = min(range(len(oracle)), key=lambda i: tie_break_key(
        oracle[i].objective, oracle[i].command, lattice.v_max, i))
    assert u == oracle[best].command


@pytest.fixture(scope="module")
def captured():
    """Every CAPTURE_STRIDE-th planner call of one rcsp-full episode per
    environment: env -> list of (info, lattice, batch, params)."""
    config = load_config()
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for env in CAPTURE_ENVS:
            calls = out[env] = []

            def record(info, lattice, batch, params, calls=calls):
                if batch.step % CAPTURE_STRIDE == 0:
                    calls.append((info, lattice, batch, params))
                return select_command(info, lattice, batch, params)

            mp.setattr(tailnav.controllers, "select_command", record)
            run_episode(env, "rcsp-full", 0, config)
    return out


@pytest.mark.parametrize("objective", sorted(OBJECTIVES))
@pytest.mark.parametrize("env", CAPTURE_ENVS)
def test_captured_decisions_match_oracle(captured, env, objective):
    decisions = captured[env]
    assert len(decisions) >= 5
    for info, lattice, batch, params in decisions:
        assert_matches_oracle(info, lattice, batch,
                              replace(params, **OBJECTIVES[objective]))


def test_captured_decisions_exercise_every_branch(captured):
    # The comparison is only as strong as the decisions it runs on: they
    # must include walls, reactive scenarios and nonzero risks.
    decisions = [d for env in CAPTURE_ENVS for d in captured[env]]
    assert any(info.static_map.walls for info, *_ in decisions)
    assert any(s.reactive for _i, _l, batch, _p in decisions
               for s in batch.scenarios)
    assert any(s.risks.max() > 0 for d in decisions
               for s in select_command(*d)[1])


# -- edge cases on a small synthetic scene ---------------------------------

WALLED = StaticMap(walls=(WallSegment((0.0, 0.9), (5.0, 0.9)),),
                   bounds=(-20.0, -20.0, 20.0, 20.0))
OPEN = StaticMap(walls=(), bounds=(-20.0, -20.0, 20.0, 20.0))


def _belief(pos, vel, cov_scale=0.04, radius=0.35):
    return ObstacleBelief(last_pos=np.asarray(pos, dtype=float),
                          vel_mean=np.asarray(vel, dtype=float),
                          vel_cov=cov_scale * np.eye(2), staleness=0,
                          radius=radius)


TWO_OBSTACLES = {0: _belief((1.5, 0.4), (-0.3, 0.0)),
                 3: _belief((2.5, -0.6), (0.0, 0.2))}


def _scene(family=None, beliefs=None, static_map=WALLED, N=32, H=10):
    family = family if family is not None else default_family()
    info = InformationState(
        static_map=static_map, family=family,
        beliefs=TWO_OBSTACLES if beliefs is None else beliefs,
        posterior=Posterior.uniform(len(family)),
        goal=(10.0, 0.0), robot=Pose(0.0, 0.0, 0.2))
    batch = sample_batch(info, N, H, len(family), np.random.SeedSequence(11),
                         dt=0.1, robot_radius=0.3)
    return info, batch


NONREACTIVE = tuple(c for c in default_family()
                    if c.kind in ("static", "constant-velocity"))
REACTIVE = (Conjecture(0, "yielding", d_yield=2.5, decel=0.2),
            Conjecture(1, "aggressive", pursuit_gain=0.5))

EDGE_CASES = {
    "horizon-1": dict(H=1),
    "one-scenario": dict(N=1),
    "no-reactive": dict(family=NONREACTIVE),
    "all-reactive": dict(family=REACTIVE),
    "no-obstacles": dict(beliefs={}),
    "no-walls": dict(static_map=OPEN),
}


@pytest.mark.parametrize("objective", sorted(OBJECTIVES))
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_match_oracle(case, objective):
    info, batch = _scene(**EDGE_CASES[case])
    reactive = sum(s.reactive for s in batch.scenarios)
    if case == "no-reactive":
        assert reactive == 0
    if case == "all-reactive":
        assert reactive == len(batch.scenarios)
    lattice = CommandLattice.default(1.0, 1.5)
    assert_matches_oracle(info, lattice, batch,
                          PlannerParams(**OBJECTIVES[objective]))
