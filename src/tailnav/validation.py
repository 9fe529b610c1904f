"""Independent statistical oracles and finite-sample bound checks.

Contains the quantile-integral CVaR oracle, closed-form CVaR for
point-mass/uniform mixtures, Monte Carlo validation of the uniform CVaR
approximation bound and of the near-optimality regret bound, and the
paired bootstrap comparison utility.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .planner import empirical_cvar


@dataclass(frozen=True)
class BoundCheckReport:
    trials: int
    violations: int
    bound: float
    max_error: float
    delta: float

    @property
    def violation_rate(self) -> float:
        return self.violations / self.trials

    @property
    def passed(self) -> bool:
        return self.violation_rate <= self.delta

    def to_dict(self) -> dict:
        return {**asdict(self), "violation_rate": self.violation_rate,
                "passed": self.passed}


@dataclass(frozen=True)
class PairedComparison:
    n_pairs: int
    mean_advantage: float
    level: float
    ci_lower: float
    ci_upper: float
    p_nonpositive: float

    def to_dict(self) -> dict:
        return asdict(self)


def cvar_oracle(risks: Sequence[float], alpha: float) -> float:
    """Tail average via exact piecewise-constant quantile integration.

    The empirical quantile function equals the i-th order statistic on
    ((i-1)/N, i/N]; integrating it over (1-alpha, 1] and dividing by alpha
    gives an implementation-independent reference for the sorted-tail
    estimator.
    """
    x = np.sort(np.asarray(risks, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("risks must be nonempty")
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    overlap = np.clip(np.minimum(hi, 1.0) - np.maximum(lo, 1.0 - alpha), 0.0, None)
    return float((x * overlap).sum() / alpha)


# -- closed-form mixtures ---------------------------------------------------


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of point masses and uniform intervals on the line.

    components: tuple of ("point", c) or ("uniform", lo, hi).
    weights: mixture probabilities, summing to 1.
    """
    components: tuple
    weights: tuple

    def cdf(self, x: float) -> float:
        total = 0.0
        for comp, w in zip(self.components, self.weights):
            if comp[0] == "point":
                total += w * (1.0 if x >= comp[1] else 0.0)
            else:
                _, lo, hi = comp
                total += w * min(max((x - lo) / (hi - lo), 0.0), 1.0)
        return total

    def support(self) -> tuple[float, float]:
        vals = []
        for comp in self.components:
            vals.extend(comp[1:])
        return min(vals), max(vals)

    def tail_prob(self, eta: float) -> float:
        """P(X > eta)."""
        total = 0.0
        for comp, w in zip(self.components, self.weights):
            if comp[0] == "point":
                total += w * (1.0 if comp[1] > eta else 0.0)
            else:
                _, lo, hi = comp
                total += w * min(max((hi - eta) / (hi - lo), 0.0), 1.0)
        return total

    def tail_expectation(self, eta: float) -> float:
        """E[X * 1{X > eta}]."""
        total = 0.0
        for comp, w in zip(self.components, self.weights):
            if comp[0] == "point":
                if comp[1] > eta:
                    total += w * comp[1]
            else:
                _, lo, hi = comp
                a = max(eta, lo)
                if a < hi:
                    total += w * (hi * hi - a * a) / (2.0 * (hi - lo))
        return total

    def quantile(self, p: float) -> float:
        """Smallest x with F(x) >= p, by bisection on the monotone CDF."""
        lo, hi = self.support()
        if self.cdf(lo) >= p:
            return lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= p:
                hi = mid
            else:
                lo = mid
        return hi

    def cvar(self, alpha: float) -> float:
        """Exact upper-tail average of the worst alpha fraction.

        Uses the threshold identity with atom handling: the mass of the
        tail beyond the (1-alpha)-quantile is topped up at the quantile
        value itself when an atom straddles the boundary.
        """
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        eta = self.quantile(1.0 - alpha)
        p_gt = self.tail_prob(eta)
        return (self.tail_expectation(eta) + (alpha - p_gt) * eta) / alpha

    def mean(self) -> float:
        total = 0.0
        for comp, w in zip(self.components, self.weights):
            if comp[0] == "point":
                total += w * comp[1]
            else:
                total += w * 0.5 * (comp[1] + comp[2])
        return total

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=n, p=np.asarray(self.weights))
        out = np.empty(n)
        for j, comp in enumerate(self.components):
            mask = idx == j
            k = int(mask.sum())
            if k == 0:
                continue
            if comp[0] == "point":
                out[mask] = comp[1]
            else:
                out[mask] = rng.uniform(comp[1], comp[2], k)
        return out


def random_mixture(rng: np.random.Generator, scale: float = 1.0) -> Mixture:
    """Random 1-3 component point/uniform mixture supported on [0, scale]."""
    n_comp = int(rng.integers(1, 4))
    comps = []
    for _ in range(n_comp):
        if rng.random() < 0.5:
            comps.append(("point", scale * float(rng.random())))
        else:
            a, b = np.sort(scale * rng.random(2))
            if b - a < 1e-6 * scale:
                b = a + 1e-6 * scale
            comps.append(("uniform", float(a), float(b)))
    w = rng.dirichlet(np.ones(n_comp))
    return Mixture(components=tuple(comps), weights=tuple(float(v) for v in w))


# -- proposition checks ------------------------------------------------------


def check_prop_uniform_cvar(
    N: int, alpha: float, delta: float, lattice_size: int, trials: int,
    seed: int = 0, risk_bound: float = 1.0,
) -> BoundCheckReport:
    """Monte Carlo check of the uniform empirical-CVaR deviation bound.

    Per trial, draws `lattice_size` synthetic risk distributions with
    closed-form CVaR, samples N risks from each, and flags a violation when
    the sup-norm CVaR error exceeds
    (B_G / alpha) * sqrt(log(2 * lattice_size / delta) / (2 N)).
    """
    bound = (risk_bound / alpha) * math.sqrt(
        math.log(2.0 * lattice_size / delta) / (2.0 * N))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 21)))
    violations = 0
    max_err = 0.0
    for _ in range(trials):
        sup_err = 0.0
        for _ in range(lattice_size):
            dist = random_mixture(rng, scale=risk_bound)
            samples = dist.sample(rng, N)
            err = abs(empirical_cvar(samples, alpha) - dist.cvar(alpha))
            sup_err = max(sup_err, err)
        max_err = max(max_err, sup_err)
        if sup_err > bound:
            violations += 1
    return BoundCheckReport(trials=trials, violations=violations, bound=bound,
                            max_error=max_err, delta=delta)


def check_prop_regret(
    N: int, alpha: float, delta: float, risk_weight: float, lattice_size: int,
    trials: int, seed: int = 0,
) -> BoundCheckReport:
    """Monte Carlo check of the near-optimality regret bound.

    Each synthetic command has a uniform reward distribution on a random
    subinterval of [0, 1] and a mixture risk distribution on [0, 1], so the
    population objective J(u) = E[R] - risk_weight * CVaR_alpha(G) is known
    in closed form.  A violation occurs when the population regret of the
    empirical maximizer exceeds
    2 * (B_R + risk_weight * B_G / alpha) * sqrt(log(4 * lattice_size / delta) / (2 N)).
    """
    eps = (1.0 + risk_weight / alpha) * math.sqrt(
        math.log(4.0 * lattice_size / delta) / (2.0 * N))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 22)))
    violations = 0
    max_regret = 0.0
    for _ in range(trials):
        pop_j = np.empty(lattice_size)
        emp_j = np.empty(lattice_size)
        for u in range(lattice_size):
            a, b = np.sort(rng.random(2))
            if b - a < 1e-9:
                b = a + 1e-9
            risk = random_mixture(rng)
            pop_j[u] = 0.5 * (a + b) - risk_weight * risk.cvar(alpha)
            rewards = rng.uniform(a, b, N)
            risks = risk.sample(rng, N)
            emp_j[u] = rewards.mean() - risk_weight * empirical_cvar(risks, alpha)
        regret = float(pop_j.max() - pop_j[int(np.argmax(emp_j))])
        max_regret = max(max_regret, regret)
        if regret > 2.0 * eps:
            violations += 1
    return BoundCheckReport(trials=trials, violations=violations,
                            bound=2.0 * eps, max_error=max_regret, delta=delta)


def paired_bootstrap(
    pairs: Sequence[tuple[float, float]], resamples: int = 2000,
    level: float = 0.95, rng: np.random.Generator | None = None,
) -> PairedComparison:
    """Percentile bootstrap over per-seed metric pairs (a - b advantages)."""
    if len(pairs) == 0:
        raise ValueError("pairs must be nonempty")
    if resamples < 1000:
        raise ValueError("use at least 1000 resamples")
    if rng is None:
        rng = np.random.default_rng(0)
    adv = np.array([a - b for a, b in pairs], dtype=float)
    n = adv.size
    idx = rng.integers(0, n, size=(resamples, n))
    boot_means = adv[idx].mean(axis=1)
    lo = float(np.quantile(boot_means, (1.0 - level) / 2.0))
    hi = float(np.quantile(boot_means, 1.0 - (1.0 - level) / 2.0))
    return PairedComparison(
        n_pairs=n, mean_advantage=float(adv.mean()), level=level,
        ci_lower=lo, ci_upper=hi,
        p_nonpositive=float((boot_means <= 0.0).mean()),
    )
