"""Independent statistical oracles and finite-sample bound checks.

Contains the quantile-integral CVaR oracle, closed-form CVaR for mixtures
of uniform intervals and point masses, Monte Carlo validation of the
uniform CVaR approximation bound and of the near-optimality regret bound,
and the paired bootstrap comparison utility.
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


def _above(lo: float, hi: float, x: float) -> float:
    """The fraction of a uniform component on [lo, hi] lying above x; a
    point mass (lo == hi) lies wholly above x or not at all."""
    if x < lo:
        return 1.0
    if x >= hi:
        return 0.0
    return (hi - x) / (hi - lo)


@dataclass(frozen=True)
class Mixture:
    """Finite mixture of uniform intervals on the line: components is a
    tuple of (lo, hi), with lo == hi a point mass; weights sum to 1."""
    components: tuple
    weights: tuple

    def tail_prob(self, x: float) -> float:
        """P(X > x)."""
        return sum(w * _above(lo, hi, x)
                   for (lo, hi), w in zip(self.components, self.weights))

    def value_at_risk(self, alpha: float) -> float:
        """Smallest x with P(X > x) <= alpha.  P(X > x) is linear between
        consecutive interval ends and drops at a point mass, so walk the
        sorted ends to the first where it has reached alpha and solve the
        line that leads up to it."""
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        ends = sorted({e for comp in self.components for e in comp})
        prev, p_prev = ends[0], 1.0
        for end in ends:  # P(X > ends[-1]) == 0, so this always breaks
            p_end = self.tail_prob(end)
            if p_end <= alpha:
                break
            prev, p_prev = end, p_end
        # The line's value at `end`, before a point mass there drops it.
        comps = zip(self.components, self.weights)
        p_line = p_end + sum(w for (lo, hi), w in comps if lo == hi == end)
        if p_line >= alpha:
            return end
        return prev + (p_prev - alpha) / (p_prev - p_line) * (end - prev)

    def cvar(self, alpha: float) -> float:
        """Exact upper-tail average of the worst alpha fraction: the mean
        above the value-at-risk eta, where a component is uniform on
        (max(eta, lo), hi], topped up with eta itself when a point mass
        straddles it (Rockafellar-Uryasev)."""
        eta = self.value_at_risk(alpha)
        expectation = sum(w * _above(lo, hi, eta) * 0.5 * (max(eta, lo) + hi)
                          for (lo, hi), w in zip(self.components, self.weights))
        return (expectation + (alpha - self.tail_prob(eta)) * eta) / alpha

    def mean(self) -> float:
        return sum(w * 0.5 * (lo + hi)
                   for (lo, hi), w in zip(self.components, self.weights))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.weights), size=n, p=np.asarray(self.weights))
        out = np.empty(n)
        for j, (lo, hi) in enumerate(self.components):
            mask = idx == j
            if lo == hi:
                out[mask] = lo
            elif mask.any():
                out[mask] = rng.uniform(lo, hi, int(mask.sum()))
        return out


def random_mixture(rng: np.random.Generator, scale: float = 1.0) -> Mixture:
    """Random 1-3 component point/uniform mixture supported on [0, scale]."""
    n_comp = int(rng.integers(1, 4))
    comps = []
    for _ in range(n_comp):
        if rng.random() < 0.5:
            comps.append((scale * float(rng.random()),) * 2)
        else:
            a, b = np.sort(scale * rng.random(2))
            if b - a < 1e-6 * scale:
                b = a + 1e-6 * scale
            comps.append((float(a), float(b)))
    w = rng.dirichlet(np.ones(n_comp))
    return Mixture(components=tuple(comps), weights=tuple(float(v) for v in w))


# -- proposition checks ------------------------------------------------------


def _check_args(N: int, alpha: float, delta: float, lattice_size: int,
                trials: int, risk_weight: float = 0.0,
                risk_bound: float = 1.0) -> None:
    """Raise a ValueError naming the first argument out of its range."""
    for name, value, ok, rule in (
            ("N", N, N >= 1, ">= 1"), ("trials", trials, trials >= 1, ">= 1"),
            ("lattice_size", lattice_size, lattice_size >= 1, ">= 1"),
            ("alpha", alpha, 0.0 < alpha <= 1.0, "in (0, 1]"),
            ("delta", delta, 0.0 < delta < 1.0, "in (0, 1)"),
            ("risk_weight", risk_weight, risk_weight >= 0.0, ">= 0"),
            ("risk_bound", risk_bound, risk_bound > 0.0, "> 0")):
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")


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
    _check_args(N, alpha, delta, lattice_size, trials, risk_bound=risk_bound)
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
    _check_args(N, alpha, delta, lattice_size, trials, risk_weight)
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
