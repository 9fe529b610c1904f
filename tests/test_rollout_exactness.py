"""The batched robot rollouts reproduce their scalar references bit for
bit: `lattice_paths` against a `step_unicycle` loop, the safety filter
against its per-candidate loop, and `dwa-style` against its per-command
form.  Every comparison is exact, so a last-bit drift fails.  CI re-runs
this file with numpy limited to the x86-64-v2 CPU features, which pins
that the rollouts use no numpy kernel whose result depends on the SIMD
path."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tailnav.controllers import Controller
from tailnav.geometry import OMEGA_EPS, Pose, VelocityCommand
from tailnav.planner import CommandLattice
from tailnav.safety import (
    FilterParams,
    apply_filter,
    filter_rollout,
    filter_rollouts,
)
from tailnav.scenarios import lattice_paths
from tailnav.world import build_environment, init_world, observe, step_world

from oracle import apply_filter as scalar_apply_filter
from oracle import decide_dwa, robot_rollout_poses
from test_safety import _random_scene

LATTICE = CommandLattice.default(1.0, 1.5)


def _random_omega(rng):
    """Turn rates from every branch of the unicycle step, repeats included."""
    kind = int(rng.integers(6))
    if kind == 0:
        return float(rng.choice([-1.5, -0.75, 0.0, 0.75, 1.5]))
    if kind == 1:
        return float(rng.uniform(-3.0, 3.0))
    if kind == 2:   # straight-line branch, but the heading still turns
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-9, OMEGA_EPS))
    if kind == 3:   # the branch boundary itself
        return float(rng.choice([-OMEGA_EPS, OMEGA_EPS]))
    if kind == 4:
        return float(rng.choice([0.0, -0.0]))
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-6, 1e-3))


def _random_start(rng):
    if rng.random() < 0.5:   # headings at the wrap-around
        heading = float(rng.choice([-1.0, 1.0])
                        * (math.pi - rng.uniform(0.0, 1e-3)))
    else:
        heading = float(rng.uniform(-math.pi, math.pi))
    return Pose(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
                heading)


def test_lattice_paths_match_step_loop():
    rng = np.random.default_rng(2024)
    for trial in range(10_000):
        start = _random_start(rng)
        H = int(rng.choice([1, 2, 10, 20]))
        dt = float(rng.choice([0.1, 0.05, rng.uniform(0.01, 0.5)]))
        cmds = [VelocityCommand(float(rng.uniform(-1.5, 1.5)),
                                _random_omega(rng)) for _ in range(5)]
        # One more command on an omega already drawn, at another speed.
        cmds.append(VelocityCommand(float(rng.uniform(-1.5, 1.5)),
                                    cmds[0].omega))
        paths = lattice_paths(cmds, start, H, dt)
        assert paths.shape == (len(cmds), H, 2)
        for u, xy in zip(cmds, paths):
            _poses, ref = robot_rollout_poses(u, start, H, dt)
            assert np.array_equal(xy, ref), (trial, start, u, H, dt)


def test_lattice_paths_match_step_loop_on_default_lattice():
    rng = np.random.default_rng(7)
    for _ in range(200):
        start = _random_start(rng)
        paths = lattice_paths(LATTICE.commands, start, 20, 0.1)
        for u, xy in zip(LATTICE.commands, paths):
            _poses, ref = robot_rollout_poses(u, start, 20, 0.1)
            assert np.array_equal(xy, ref)


def test_lattice_paths_reject_empty_horizon_and_nonpositive_dt():
    with pytest.raises(ValueError):
        lattice_paths(LATTICE.commands, Pose(0.0, 0.0, 0.0), 0, 0.1)
    with pytest.raises(ValueError):
        lattice_paths(LATTICE.commands, Pose(0.0, 0.0, 0.0), 5, 0.0)


def test_batched_filter_matches_per_candidate_loop():
    rng = np.random.default_rng(99)
    params = FilterParams()
    for trial in range(1_000):
        obs, beliefs, smap, goal = _random_scene(rng)
        if trial % 3 == 0:
            u_nom = LATTICE.commands[int(rng.integers(len(LATTICE.commands)))]
        elif trial % 3 == 1:
            u_nom = VelocityCommand(float(rng.uniform(-1.0, 1.0)),
                                    float(rng.uniform(-1.5, 1.5)))
        else:
            u_nom = VelocityCommand(1.0, 0.0)
        p = params if trial % 5 else replace(params, horizon=1)
        u, pairs = scalar_apply_filter(u_nom, obs, beliefs, LATTICE, goal,
                                       smap, p)
        assert apply_filter(u_nom, obs, beliefs, LATTICE, goal, smap, p) == u
        rollout = (p.horizon, p.dt, p.robot_radius, goal)
        assert filter_rollout(u_nom, obs, beliefs, smap, *rollout) == pairs[0]
        c_min, progress = filter_rollouts(LATTICE.commands, obs, beliefs,
                                          smap, *rollout)
        assert list(zip(c_min.tolist(), progress.tolist())) == pairs[1:]


@pytest.mark.parametrize("env", ["open-space", "bottleneck",
                                 "warehouse-squeeze"])
def test_dwa_matches_per_command_form_in_episodes(env):
    cfg, _ = build_environment(env, 0)
    ctrl = Controller("dwa-style", cfg, 0)
    state = init_world(cfg, 0)
    obs = observe(state, cfg)
    for _ in range(cfg.max_steps):
        u = ctrl.decide(obs).command
        assert u == decide_dwa(cfg, ctrl.lattice, obs)
        state, obs, _ = step_world(state, u, cfg)
        if state.outcome != "running":
            break


def test_dwa_matches_per_command_form_on_random_scenes():
    base, _ = build_environment("open-space", 0)
    rng = np.random.default_rng(5)
    for _ in range(500):
        obs, _beliefs, smap, goal = _random_scene(rng)
        cfg = replace(base, static_map=smap, goal=goal)
        ctrl = Controller("dwa-style", cfg, 0)
        assert ctrl.decide(obs).command == decide_dwa(cfg, ctrl.lattice, obs)
