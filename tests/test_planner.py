"""Tail-risk estimators, command scoring, and deterministic selection."""

import numpy as np
import pytest

from tailnav.beliefs import ObstacleBelief, Posterior, default_family
from tailnav.geometry import Pose, VelocityCommand
from tailnav.planner import (
    CommandLattice,
    PlannerParams,
    cvar_via_threshold,
    empirical_cvar,
    select_command,
    tie_break_key,
)
from tailnav.scenarios import InformationState, sample_batch
from tailnav.world import StaticMap

from oracle import score_command


class TestEmpiricalCvar:
    def test_alpha_one_is_mean(self):
        assert empirical_cvar([0.1, 0.2, 0.3, 0.4], 1.0) == pytest.approx(0.25)

    def test_top_one_of_four(self):
        assert empirical_cvar([0, 1, 2, 3], 0.25) == pytest.approx(3.0)

    def test_mean_of_top_two(self):
        assert empirical_cvar([0, 1, 2, 3], 0.5) == pytest.approx(2.5)

    def test_fractional_boundary_sample(self):
        # m = 1.5 samples in the tail: (3 + 0.5 * 2) / 1.5.
        assert empirical_cvar([0, 1, 2, 3], 0.375) == pytest.approx(8.0 / 3.0)

    def test_small_tail_reduces_to_max(self):
        assert empirical_cvar([0.2, 0.9, 0.4], 0.05) == pytest.approx(0.9)

    def test_nonfractional_convention(self):
        # ceil(1.5) = 2 samples averaged plainly.
        assert empirical_cvar([0, 1, 2, 3], 0.375,
                              fractional=False) == pytest.approx(2.5)

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.random(37)
        for alpha in (0.1, 0.3, 0.7, 1.0):
            assert empirical_cvar(x, alpha) == pytest.approx(
                empirical_cvar(np.sort(x), alpha), abs=1e-12)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        x = rng.random(64)
        alphas = np.linspace(0.02, 1.0, 40)
        vals = [empirical_cvar(x, a) for a in alphas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_translation_and_positive_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.random(50)
        base = empirical_cvar(x, 0.3)
        assert empirical_cvar(x + 1.7, 0.3) == pytest.approx(base + 1.7)
        assert empirical_cvar(2.5 * x, 0.3) == pytest.approx(2.5 * base)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cvar([], 0.5)

    def test_bad_alpha_rejected(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                empirical_cvar([1.0], alpha)


class TestCvarViaThreshold:
    def test_agrees_on_top_one(self):
        assert cvar_via_threshold([0, 1, 2, 3], 0.25) == pytest.approx(3.0)

    def test_constant_sequence(self):
        for alpha in (0.1, 0.5, 1.0):
            assert cvar_via_threshold([0.7, 0.7, 0.7],
                                      alpha) == pytest.approx(0.7)

    def test_fractional_agreement(self):
        assert cvar_via_threshold([0, 1, 2, 3],
                                  0.375) == pytest.approx(8.0 / 3.0)

    def test_agrees_with_sorted_tail_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.random(int(rng.integers(1, 40)))
            alpha = float(rng.uniform(0.02, 1.0))
            assert cvar_via_threshold(x, alpha) == pytest.approx(
                empirical_cvar(x, alpha), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cvar_via_threshold([], 0.5)


class TestCommandLattice:
    def test_default_size_and_stop(self):
        lat = CommandLattice.default(1.0, 1.5)
        assert len(lat.commands) == 25
        assert VelocityCommand(0.0, 0.0) in lat.commands
        assert lat.v_max == 1.0

    def test_stop_required(self):
        with pytest.raises(ValueError):
            CommandLattice((VelocityCommand(1.0, 0.0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CommandLattice(())


class TestPlannerParams:
    def test_defaults(self):
        p = PlannerParams()
        assert (p.N, p.H, p.alpha, p.risk_weight, p.c_safe) == \
            (64, 20, 0.1, 2.0, 0.5)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            PlannerParams(alpha=0.0)

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            PlannerParams(objective="median")


def _open_info(goal=(10.0, 0.0), robot=Pose(0.0, 0.0, 0.0), beliefs=None,
               posterior=None):
    family = default_family()
    return InformationState(
        static_map=StaticMap(walls=(), bounds=(-20.0, -20.0, 20.0, 20.0)),
        family=family,
        beliefs=beliefs or {},
        posterior=posterior or Posterior.uniform(len(family)),
        goal=goal,
        robot=robot,
    )


def _belief(pos, vel, radius=0.4, cov_scale=0.0):
    return ObstacleBelief(
        last_pos=np.asarray(pos, dtype=float),
        vel_mean=np.asarray(vel, dtype=float),
        vel_cov=cov_scale * np.eye(2),
        staleness=0,
        radius=radius,
    )


def _batch(info, N=32, H=10, seed=0):
    return sample_batch(info, N, H, len(info.family),
                        np.random.SeedSequence(seed), dt=0.1,
                        robot_radius=0.3)


class TestScoreCommand:
    def test_zero_risk_weight_scores_pure_progress(self):
        info = _open_info(beliefs={0: _belief((2.0, 0.0), (0.0, 0.0))})
        batch = _batch(info)
        params = PlannerParams(risk_weight=0.0)
        s = score_command(VelocityCommand(1.0, 0.0), batch, info.robot,
                          info.goal, info.static_map, params)
        assert s.objective == pytest.approx(s.mean_reward)

    def test_identical_scenarios_collapse_objectives(self):
        # Static conjecture only, zero velocity covariance, zero process
        # noise: every scenario is the same future.
        family = (default_family()[0],)
        from dataclasses import replace
        family = (replace(family[0], sigma_theta=0.0),)
        info = InformationState(
            static_map=StaticMap(walls=(), bounds=(-20, -20, 20, 20)),
            family=family,
            beliefs={0: _belief((3.0, 0.0), (0.0, 0.0))},
            posterior=Posterior(np.array([1.0])),
            goal=(10.0, 0.0),
            robot=Pose(0.0, 0.0, 0.0),
        )
        batch = _batch(info)
        u = VelocityCommand(1.0, 0.0)
        vals = {}
        for obj in ("cvar", "mean", "worst"):
            s = score_command(u, batch, info.robot, info.goal,
                              info.static_map, PlannerParams(objective=obj))
            vals[obj] = s.tail_risk
        assert vals["cvar"] == pytest.approx(vals["mean"], abs=1e-12)
        assert vals["mean"] == pytest.approx(vals["worst"], abs=1e-12)

    def test_hand_arithmetic_on_synthetic_risks(self):
        # J = R - lambda * CVaR_alpha(G) with alpha=0.5, lambda=2 over four
        # per-scenario risks set by construction through empirical_cvar.
        risks = [0.0, 0.2, 0.6, 1.0]
        tail = empirical_cvar(risks, 0.5)
        assert tail == pytest.approx(0.8)
        reward = 1.3
        assert reward - 2.0 * tail == pytest.approx(-0.3)

    def test_risk_monotone_in_obstacle_proximity(self):
        params = PlannerParams()
        u = VelocityCommand(1.0, 0.0)
        tails = []
        for x in (6.0, 4.0, 2.5, 1.2):
            info = _open_info(beliefs={0: _belief((x, 0.0), (0.0, 0.0))})
            batch = _batch(info)
            s = score_command(u, batch, info.robot, info.goal,
                              info.static_map, params)
            tails.append(s.tail_risk)
        assert all(a <= b + 1e-9 for a, b in zip(tails, tails[1:]))

    def test_mean_le_cvar_le_worst(self):
        info = _open_info(beliefs={0: _belief((2.5, 0.3), (0.0, 0.0),
                                              cov_scale=0.09)})
        batch = _batch(info)
        u = VelocityCommand(1.0, 0.0)
        out = {}
        for obj in ("cvar", "mean", "worst"):
            s = score_command(u, batch, info.robot, info.goal,
                              info.static_map, PlannerParams(objective=obj))
            out[obj] = s.tail_risk
        assert out["mean"] <= out["cvar"] + 1e-12
        assert out["cvar"] <= out["worst"] + 1e-12


class TestTieBreak:
    def test_higher_score_wins(self):
        a = tie_break_key(1.0, VelocityCommand(1.0, 1.5), 1.0, 0)
        b = tie_break_key(0.9, VelocityCommand(0.0, 0.0), 1.0, 1)
        assert a < b

    def test_equal_score_smaller_omega_wins(self):
        a = tie_break_key(1.0, VelocityCommand(0.5, 0.5), 1.0, 3)
        b = tie_break_key(1.0, VelocityCommand(0.5, -1.0), 1.0, 1)
        assert a < b

    def test_equal_omega_falls_to_speed_rule(self):
        # |omega| equal at 0.5: speed nearest v_max/2 preferred.
        a = tie_break_key(1.0, VelocityCommand(0.5, -0.5), 1.0, 4)
        b = tie_break_key(1.0, VelocityCommand(1.0, 0.5), 1.0, 2)
        assert a < b

    def test_final_fallback_is_lattice_order(self):
        a = tie_break_key(1.0, VelocityCommand(0.5, 0.5), 1.0, 1)
        b = tie_break_key(1.0, VelocityCommand(0.5, -0.5), 1.0, 2)
        assert a < b


class TestSelectCommand:
    def test_open_space_picks_max_progress(self):
        info = _open_info()
        lattice = CommandLattice.default(1.0, 1.5)
        batch = _batch(info)
        u, scores = select_command(info, lattice, batch, PlannerParams())
        brute = max(scores, key=lambda s: s.objective)
        assert u == brute.command
        assert (u.v, u.omega) == (1.0, 0.0)

    def test_returns_score_per_lattice_command(self):
        info = _open_info()
        lattice = CommandLattice.default(1.0, 1.5)
        batch = _batch(info)
        _u, scores = select_command(info, lattice, batch, PlannerParams())
        assert len(scores) == len(lattice.commands)

    def test_risk_saturation_reduces_to_progress(self):
        # Robot overlapped by a huge obstacle: G = 1 for every command and
        # every scenario, so the lambda term shifts all J equally.
        info = _open_info(beliefs={0: _belief((0.0, 0.0), (0.0, 0.0),
                                              radius=3.0)})
        lattice = CommandLattice.default(1.0, 1.5)
        batch = _batch(info)
        u, scores = select_command(info, lattice, batch,
                                   PlannerParams(risk_weight=50.0))
        assert all(s.tail_risk == pytest.approx(1.0) for s in scores)
        best_progress = max(scores, key=lambda s: s.mean_reward)
        assert u.v == best_progress.command.v

    def test_deterministic_given_batch(self):
        info = _open_info(beliefs={0: _belief((3.0, 1.0), (0.1, 0.0),
                                              cov_scale=0.04)})
        lattice = CommandLattice.default(1.0, 1.5)
        batch = _batch(info, seed=5)
        u1, _ = select_command(info, lattice, batch, PlannerParams())
        u2, _ = select_command(info, lattice, batch, PlannerParams())
        assert u1 == u2
