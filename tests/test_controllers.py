"""Controller kinds: shared interface, reductions, and matched comparisons."""

import numpy as np
import pytest

import tailnav.controllers
from tailnav.beliefs import BeliefParams
from tailnav.controllers import CONTROLLER_KINDS, Controller
from tailnav.geometry import Disc, VelocityCommand, clearance, step_unicycle
from tailnav.planner import PlannerParams, empirical_cvar, select_command
from tailnav.world import build_environment, init_world, observe, step_world


@pytest.fixture(scope="module")
def open_env():
    cfg, _ = build_environment("open-space", 0)
    return cfg


class TestConstruction:
    def test_all_kinds_constructible(self, open_env):
        for kind in CONTROLLER_KINDS:
            c = Controller(kind, open_env, 0)
            assert c.kind == kind

    def test_unknown_kind_rejected(self, open_env):
        with pytest.raises(ValueError):
            Controller("mpc", open_env, 0)

    def test_mean_variant_overrides_objective(self, monkeypatch):
        # The kind alone picks the tail statistic: mean-risk-filter scores
        # by the mean risk, every other scenario kind by the CVaR.
        env, _ = build_environment("warehouse-squeeze", 0)
        scored = []

        def spy(*args, **kwargs):
            result = select_command(*args, **kwargs)
            scored.extend(result[1])
            return result
        monkeypatch.setattr(tailnav.controllers, "select_command", spy)
        for kind in ("rcsp-full", "rcsp-fixed-predictor", "mean-risk-filter",
                     "cvar-only"):
            scored.clear()
            ctrl = Controller(kind, env, 0)
            state = init_world(env, 0)
            obs = observe(state, env)
            for _ in range(3):
                ctrl.decide(obs)
                state, obs, _ = step_world(state, VelocityCommand(0.5, 0.0),
                                           env)
            alpha = ctrl.planner_params.alpha
            assert any(float(s.risks.mean()) != empirical_cvar(s.risks, alpha)
                       for s in scored)
            for s in scored:
                assert s.tail_risk == (float(s.risks.mean())
                                       if kind == "mean-risk-filter"
                                       else empirical_cvar(s.risks, alpha))


class TestDecisions:
    def test_first_decision_matches_fixed_predictor(self, open_env):
        # Before any likelihood evidence both variants hold the uniform
        # prior, so step-0 decisions coincide.
        state = init_world(open_env, 3)
        obs = observe(state, open_env)
        a = Controller("rcsp-full", open_env, 3).decide(obs)
        b = Controller("rcsp-fixed-predictor", open_env, 3).decide(obs)
        assert a.command == b.command
        assert a.cvar_selected == b.cvar_selected

    def test_fixed_predictor_posterior_stays_uniform(self, open_env):
        ctrl = Controller("rcsp-fixed-predictor", open_env, 3)
        state = init_world(open_env, 3)
        obs = observe(state, open_env)
        uniform = np.full(len(ctrl.family), 1.0 / len(ctrl.family))
        for _ in range(5):
            ctrl.decide(obs)
            state, obs, _ = step_world(state, VelocityCommand(0.5, 0.0),
                                       open_env)
        assert np.allclose(ctrl.posterior.weights, uniform)

    def test_full_posterior_moves_with_evidence(self, open_env):
        ctrl = Controller("rcsp-full", open_env, 3)
        state = init_world(open_env, 3)
        obs = observe(state, open_env)
        uniform = np.full(len(ctrl.family), 1.0 / len(ctrl.family))
        for _ in range(10):
            ctrl.decide(obs)
            state, obs, _ = step_world(state, VelocityCommand(0.5, 0.0),
                                       open_env)
        assert not np.allclose(ctrl.posterior.weights, uniform)

    def test_cvar_only_skips_filter(self, open_env):
        # With no obstacles in range and open walls the nominal passes the
        # filter anyway; verify equality of command and nominal over steps.
        ctrl = Controller("cvar-only", open_env, 1)
        state = init_world(open_env, 1)
        obs = observe(state, open_env)
        for _ in range(5):
            d = ctrl.decide(obs)
            assert d.command == d.nominal
            state, obs, _ = step_world(state, d.command, open_env)

    def test_decisions_deterministic_per_seed(self, open_env):
        def run(seed):
            ctrl = Controller("rcsp-full", open_env, seed)
            state = init_world(open_env, seed)
            obs = observe(state, open_env)
            cmds = []
            for _ in range(8):
                d = ctrl.decide(obs)
                cmds.append((d.command.v, d.command.omega, d.cvar_selected))
                state, obs, _ = step_world(state, d.command, open_env)
            return cmds

        assert run(4) == run(4)
        assert run(4) != run(5)

    def test_decision_reports_entropy_and_cvar(self, open_env):
        ctrl = Controller("rcsp-full", open_env, 0)
        obs = observe(init_world(open_env, 0), open_env)
        d = ctrl.decide(obs)
        assert 0.0 <= d.cvar_selected <= 1.0
        assert d.posterior_entropy == pytest.approx(np.log(len(ctrl.family)))


class TestGoalPd:
    def test_monotone_convergence_in_open_space(self, open_env):
        ctrl = Controller("goal-pd", open_env, 0)
        state = init_world(open_env, 0)
        obs = observe(state, open_env)
        from tailnav.geometry import goal_distance
        prev = goal_distance(state.robot, open_env.goal)
        while state.outcome == "running":
            d = ctrl.decide(obs)
            state, obs, _ = step_world(state, d.command, open_env)
            cur = goal_distance(state.robot, open_env.goal)
            assert cur < prev + 1e-6
            prev = cur
        assert state.outcome == "success"

    def test_turns_before_driving(self, open_env):
        # Facing away from the goal: the command should be mostly rotation.
        from tailnav.world import EnvironmentConfig
        from tailnav.geometry import Pose
        d = open_env.to_dict()
        d["start"] = [6.0, 5.0, 3.0]
        cfg = EnvironmentConfig.from_dict(d)
        ctrl = Controller("goal-pd", cfg, 0)
        obs = observe(init_world(cfg, 0), cfg)
        u = ctrl.decide(obs).command
        assert abs(u.omega) == cfg.omega_max
        assert u.v < 0.2


class TestDwaStyle:
    def test_admissible_commands_only(self):
        cfg, _ = build_environment("bottleneck", 2)
        ctrl = Controller("dwa-style", cfg, 2)
        state = init_world(cfg, 2)
        obs = observe(state, cfg)
        for _ in range(60):
            d = ctrl.decide(obs)
            nxt = step_unicycle(obs.robot, d.command, cfg.dt)
            discs = [Disc(p, r) for _, p, r in obs.obstacles]
            c = clearance(Disc((nxt.x, nxt.y), cfg.robot_radius), discs,
                          cfg.static_map.walls)
            # Admissible unless every lattice command already collides.
            stepped = [step_unicycle(obs.robot, u, cfg.dt)
                       for u in ctrl.lattice.commands]
            worst = max(
                clearance(Disc((p.x, p.y), cfg.robot_radius), discs,
                          cfg.static_map.walls)
                for p in stepped)
            if worst >= 0.0:
                assert c >= 0.0
            state, obs, _ = step_world(state, d.command, cfg)
            if state.outcome != "running":
                break

    def test_open_space_drives_at_goal(self, open_env):
        ctrl = Controller("dwa-style", open_env, 0)
        obs = observe(init_world(open_env, 0), open_env)
        u = ctrl.decide(obs).command
        assert u.v == open_env.v_max
        assert u.omega == 0.0


class TestReductions:
    def test_zero_risk_weight_matches_mean_objective(self, open_env):
        # lambda = 0 makes the tail term irrelevant: cvar and mean variants
        # choose identical commands given identical batches and no filter
        # disagreement in open space.
        state = init_world(open_env, 6)
        obs = observe(state, open_env)
        a = Controller("rcsp-full", open_env, 6,
                       planner_params=PlannerParams(risk_weight=0.0))
        b = Controller("mean-risk-filter", open_env, 6,
                       planner_params=PlannerParams(risk_weight=0.0))
        assert a.decide(obs).command == b.decide(obs).command

    def test_belief_params_threaded(self, open_env):
        bp = BeliefParams(tau=5.0, floor=0.05, smoothing=0.9,
                          sigma_like_slack=0.1)
        c = Controller("rcsp-full", open_env, 0, belief_params=bp)
        assert c.belief_params == bp

    def test_reset_clears_episode_state(self, open_env):
        ctrl = Controller("rcsp-full", open_env, 0)
        state = init_world(open_env, 0)
        obs = observe(state, open_env)
        for _ in range(5):
            ctrl.decide(obs)
            state, obs, _ = step_world(state, VelocityCommand(0.5, 0.0),
                                       open_env)
        ctrl.reset()
        assert ctrl.beliefs == {}
        assert np.allclose(ctrl.posterior.weights,
                           1.0 / len(ctrl.family))
