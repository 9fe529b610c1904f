"""Statistical oracles, bound checks, and the paired bootstrap."""

import itertools

import numpy as np
import pytest

from tailnav.planner import cvar_via_threshold, empirical_cvar
from tailnav.validation import (
    Mixture,
    check_prop_regret,
    check_prop_uniform_cvar,
    cvar_oracle,
    paired_bootstrap,
    random_mixture,
)


class TestCvarOracle:
    def test_mean_of_top_two(self):
        assert cvar_oracle([0, 1, 2, 3], 0.5) == pytest.approx(2.5)

    def test_constant_sequence_any_alpha(self):
        for alpha in (0.05, 0.3, 1.0):
            assert cvar_oracle([0.4] * 7, alpha) == pytest.approx(0.4)

    def test_uniform_grid_approaches_analytic_tail(self):
        n = 1000
        grid = np.arange(n) / n
        val = cvar_oracle(grid, 0.1)
        assert val == pytest.approx(0.9495, abs=1e-4)
        # Converges to 1 - alpha/2 = 0.95 as the grid refines.
        n = 100_000
        finer = cvar_oracle(np.arange(n) / n, 0.1)
        assert abs(finer - 0.95) < abs(val - 0.95)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cvar_oracle([], 0.5)

    def test_agreement_with_estimators(self):
        rng = np.random.default_rng(0)
        alphas = (0.05, 0.1, 0.25, 0.375, 0.5, 1.0)
        for _ in range(2000):
            x = rng.random(int(rng.integers(1, 50)))
            alpha = alphas[int(rng.integers(len(alphas)))]
            ref = cvar_oracle(x, alpha)
            assert abs(empirical_cvar(x, alpha) - ref) < 1e-9
            assert abs(cvar_via_threshold(x, alpha) - ref) < 1e-9


class TestMixture:
    def test_point_mass_cvar_is_constant(self):
        m = Mixture(components=((0.7, 0.7),), weights=(1.0,))
        for alpha in (0.1, 0.5, 1.0):
            assert m.cvar(alpha) == pytest.approx(0.7)

    def test_uniform_cvar_analytic(self):
        m = Mixture(components=((0.0, 1.0),), weights=(1.0,))
        assert m.cvar(0.1) == pytest.approx(0.95, abs=1e-9)
        assert m.cvar(1.0) == pytest.approx(0.5, abs=1e-9)

    def test_two_point_mixture(self):
        m = Mixture(components=((0.0, 0.0), (1.0, 1.0)),
                    weights=(0.5, 0.5))
        assert m.cvar(0.5) == pytest.approx(1.0)
        assert m.cvar(1.0) == pytest.approx(0.5)
        # Tail fraction straddling the atom: mixes the two values.
        assert m.cvar(0.75) == pytest.approx((0.5 * 1.0 + 0.25 * 0.0) / 0.75)

    def test_uniform_known_answers(self):
        m = Mixture(components=((0.0, 1.0),), weights=(1.0,))
        for alpha in (0.1, 0.25, 0.5, 1.0):
            assert m.value_at_risk(alpha) == pytest.approx(1.0 - alpha,
                                                           abs=1e-15)
            assert m.cvar(alpha) == pytest.approx(1.0 - alpha / 2.0,
                                                  abs=1e-15)

    def test_var_is_left_end_of_flat_cdf(self):
        # 1/2 U[0,1] + 1/2 point(3): P(X > x) = 1/2 on all of [1, 3).
        m = Mixture(components=((0.0, 1.0), (3.0, 3.0)), weights=(0.5, 0.5))
        assert m.value_at_risk(0.5) == 1.0
        assert m.cvar(0.5) == 3.0
        # The tail of mass 3/4 is the atom plus U(1/2, 1] of mass 1/4.
        assert m.value_at_risk(0.75) == 0.5
        assert m.cvar(0.75) == pytest.approx(2.25, abs=1e-15)

    def test_alpha_cuts_an_atom(self):
        # 1/2 U[0,2] + 1/2 point(1): P(X > x) drops from 3/4 to 1/4 at 1,
        # so half the atom enters the tail with U(1, 2] of mass 1/4.
        m = Mixture(components=((0.0, 2.0), (1.0, 1.0)), weights=(0.5, 0.5))
        assert m.value_at_risk(0.5) == 1.0
        assert m.cvar(0.5) == pytest.approx(1.25, abs=1e-15)

    def test_alpha_exactly_on_a_step(self):
        m = Mixture(components=((0.0, 0.0), (1.0, 1.0)), weights=(0.25, 0.75))
        # P(X > 0) == 3/4: the value-at-risk is the smallest such x.
        assert m.value_at_risk(0.75) == 0.0
        assert m.cvar(0.75) == 1.0
        assert m.value_at_risk(0.5) == 1.0
        assert m.cvar(0.5) == 1.0
        assert m.cvar(1.0) == pytest.approx(m.mean()) == 0.75

    def test_alpha_out_of_range_rejected(self):
        m = Mixture(components=((0.0, 1.0),), weights=(1.0,))
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                m.cvar(alpha)

    def test_closed_form_matches_monte_carlo(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_mixture(rng)
            samples = m.sample(rng, 200_000)
            for alpha in (0.1, 0.5):
                assert m.cvar(alpha) == pytest.approx(
                    empirical_cvar(samples, alpha), abs=0.01)

    def test_mean_matches_samples(self):
        rng = np.random.default_rng(6)
        m = random_mixture(rng)
        assert m.mean() == pytest.approx(m.sample(rng, 200_000).mean(),
                                         abs=0.01)


class TestBoundChecks:
    def test_uniform_cvar_bound_holds(self):
        report = check_prop_uniform_cvar(N=1000, alpha=0.1, delta=0.05,
                                         lattice_size=25, trials=200, seed=0)
        assert report.passed
        assert report.max_error <= report.bound

    def test_large_sample_no_violations(self):
        report = check_prop_uniform_cvar(N=100_000, alpha=0.25, delta=0.05,
                                         lattice_size=5, trials=20, seed=1)
        assert report.violations == 0

    def test_scaling_invariance_of_violation_pattern(self):
        a = check_prop_uniform_cvar(N=500, alpha=0.2, delta=0.05,
                                    lattice_size=10, trials=100, seed=3,
                                    risk_bound=1.0)
        b = check_prop_uniform_cvar(N=500, alpha=0.2, delta=0.05,
                                    lattice_size=10, trials=100, seed=3,
                                    risk_bound=2.0)
        # CVaR and the bound are both positively homogeneous, so doubling
        # the scale doubles errors and bound together.
        assert a.violations == b.violations
        assert b.bound == pytest.approx(2.0 * a.bound)
        assert b.max_error == pytest.approx(2.0 * a.max_error, rel=1e-9)

    def test_regret_bound_holds(self):
        report = check_prop_regret(N=500, alpha=0.25, delta=0.05,
                                   risk_weight=1.0, lattice_size=10,
                                   trials=200, seed=0)
        assert report.passed

    def test_single_command_zero_regret(self):
        report = check_prop_regret(N=50, alpha=0.25, delta=0.05,
                                   risk_weight=1.0, lattice_size=1,
                                   trials=50, seed=2)
        assert report.violations == 0
        assert report.max_error == 0.0

    @pytest.mark.parametrize("name,value", [
        ("N", 0), ("trials", 0), ("lattice_size", 0), ("alpha", 0.0),
        ("alpha", 1.5), ("delta", 0.0), ("delta", 1.0), ("risk_weight", -1.0),
        ("risk_bound", 0.0),
    ])
    def test_argument_out_of_range_named(self, name, value):
        common = dict(N=50, alpha=0.25, delta=0.05, lattice_size=2, trials=2)
        for check, extra in ((check_prop_uniform_cvar, {"risk_bound": 1.0}),
                             (check_prop_regret, {"risk_weight": 1.0})):
            args = {**common, **extra}
            if name in args:
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    check(**{**args, name: value})

    def test_reports_deterministic_under_seed(self):
        kw = dict(N=200, alpha=0.2, delta=0.05, lattice_size=5, trials=50)
        a = check_prop_uniform_cvar(seed=7, **kw)
        b = check_prop_uniform_cvar(seed=7, **kw)
        assert a == b
        c = check_prop_uniform_cvar(seed=8, **kw)
        assert a != c


class TestPairedBootstrap:
    def test_all_equal_pairs(self):
        pairs = [(0.5, 0.5)] * 10
        cmp = paired_bootstrap(pairs, resamples=1000)
        assert cmp.mean_advantage == 0.0
        assert (cmp.ci_lower, cmp.ci_upper) == (0.0, 0.0)

    def test_constant_advantage(self):
        pairs = [(1.0, 0.5)] * 10
        cmp = paired_bootstrap(pairs, resamples=1000)
        assert cmp.mean_advantage == pytest.approx(0.5)
        assert cmp.ci_lower == pytest.approx(0.5)
        assert cmp.ci_upper == pytest.approx(0.5)
        assert cmp.p_nonpositive == 0.0

    def test_small_sample_against_exhaustive_oracle(self):
        pairs = [(1.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0)]
        adv = np.array([a - b for a, b in pairs])
        assert adv.mean() == pytest.approx(0.5)
        # Exhaustive resampling: all 4^4 index tuples, equally likely.
        means = np.array([adv[list(idx)].mean()
                          for idx in itertools.product(range(4), repeat=4)])
        oracle_lo = np.quantile(means, 0.025)
        oracle_hi = np.quantile(means, 0.975)
        oracle_p = (means <= 0.0).mean()
        cmp = paired_bootstrap(pairs, resamples=200_000,
                               rng=np.random.default_rng(0))
        assert cmp.ci_lower == pytest.approx(oracle_lo, abs=0.01)
        assert cmp.ci_upper == pytest.approx(oracle_hi, abs=0.01)
        assert cmp.p_nonpositive == pytest.approx(oracle_p, abs=0.005)

    def test_ci_coverage_on_gaussian_advantages(self):
        # 95% percentile CI should cover the true mean in 93-97% of
        # synthetic trials.
        rng = np.random.default_rng(11)
        true_mean = 0.3
        covered = 0
        trials = 2000
        for _ in range(trials):
            adv = rng.normal(true_mean, 1.0, 30)
            pairs = [(a, 0.0) for a in adv]
            cmp = paired_bootstrap(pairs, resamples=1000, rng=rng)
            covered += cmp.ci_lower <= true_mean <= cmp.ci_upper
        assert 0.93 * trials <= covered <= 0.97 * trials

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_bootstrap([], resamples=1000)
        with pytest.raises(ValueError):
            paired_bootstrap([(1.0, 0.0)], resamples=10)
