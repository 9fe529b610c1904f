"""The benchmark's workloads.

Each workload is a closed loop run by one process: it calls the library
one unit of work at a time (an episode, a suite round, a pair of
validation trials) and waits for it before starting the next.  Unit `i`
is a pure function of the workload seed and `i`, so a unit can be run
again and must give the same digest.

A workload also has a set-up: `load_config` plus a short warm-up through
the same library calls, whose outputs must be the same on every repeat
and must be a prefix of (or equal to) what unit 0 later produces.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from bench_checks import check_prefix, check_record, digest_files, digest_text
from bench_trace import Tracer

# Steps each warm-up episode runs before its step limit stops it.
WARMUP_STEPS = 3
# Step limit of every episode in a tiny run (the self-test's size).
TINY_STEPS = 6


def derive_seed(seed: int, *key) -> int:
    """A 32-bit seed for one episode or trial of the workload."""
    text = "/".join(str(k) for k in (seed, *key))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def with_step_limit(config: dict, max_steps: int) -> dict:
    cfg = copy.deepcopy(config)
    cfg["env_overrides"] = {**cfg.get("env_overrides", {}),
                            "max_steps": max_steps}
    return cfg


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Unit:
    """What one unit of work produced."""
    digest: str
    ops: int                       # operations attempted
    failed_ops: int = 0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    times: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    # Seconds spent replaying each record of a suite round, by
    # (env, controller, seed).
    replay_s: dict[tuple, float] = field(default_factory=dict)


class Workload:
    """A workload: its set-up, its unit of work, and the end-to-end
    metrics taken from a window of units."""

    name = ""
    # Operations one unit attempts (episodes, or validation trials).
    unit_ops = 1
    # The window ends on a multiple of this many units, so that every run
    # holds the same mix of units.
    block = 1
    # A traced run does a fixed amount of work, so that its counts repeat
    # exactly for a given seed: about this many units per second asked for
    # (untraced, on a 2-core x86-64 machine), split over its two passes.
    trace_units_per_s = 1.0
    # Whether repeating unit 0 after the window is cheap enough to do.
    repeat_unit0 = True

    def __init__(self, tn: SimpleNamespace, seed: int, tmp_root: Path,
                 tiny: bool = False):
        self.tn = tn
        self.seed = seed
        self.tmp_root = tmp_root
        self.tiny = tiny
        self.config: dict = {}
        self.load_config_s: list[float] = []

    def _load_config(self) -> dict:
        t0 = time.perf_counter()
        cfg = self.tn.config.load_config()
        self.load_config_s.append(time.perf_counter() - t0)
        return with_step_limit(cfg, TINY_STEPS) if self.tiny else cfg

    def setup(self) -> str:
        """Load the config and warm up; return a digest of the warm-up."""
        raise NotImplementedError

    def unit(self, i: int) -> Unit:
        raise NotImplementedError

    def end_to_end(self, units: list[Unit],
                   probe: Tracer) -> tuple[dict, dict]:
        """The gated metrics (latency_ms_p50, latency_ms_p95,
        throughput_per_s) by name, and the metrics printed under this
        workload's own names, as name -> (value, unit)."""
        raise NotImplementedError

    def final_checks(self, units: list[Unit]) -> list[str]:
        return []


class _EpisodeWorkload(Workload):
    """Shared by the two workloads that run episodes."""

    def _warm_up(self, pairs) -> str:
        self.config = self._load_config()
        short = with_step_limit(self.config, WARMUP_STEPS)
        self.warm = {}
        for env, kind, seed in pairs:
            rec = self.tn.harness.run_episode(env, kind, seed, short)
            self.warm[(env, kind, seed)] = rec
        return digest_text(*(r.to_json() for r in self.warm.values()))

    def _check(self, rec, config: dict) -> tuple[list[str], float]:
        problems, replay_s = check_record(self.tn, rec, config)
        warm = self.warm.get((rec.env, rec.controller, rec.seed))
        if warm is not None:
            problems += check_prefix(warm, rec)
        return problems, replay_s

    @staticmethod
    def _outcomes(probe: Tracer) -> dict:
        c = probe.counters
        n = c["episodes"]
        return {
            "episodes": (n, "count"),
            "success_rate": (c["episodes.success"] / n if n else 0.0, "ratio"),
            "collision_rate": (c["episodes.collision"] / n if n else 0.0,
                               "ratio"),
        }


class RcspCluttered(_EpisodeWorkload):
    """rcsp-full episodes, alternating the two walled default scenes."""

    name = "rcsp-cluttered"
    ENVS = ("bottleneck", "warehouse-squeeze")
    KIND = "rcsp-full"
    block = len(ENVS)
    trace_units_per_s = 0.12
    # An episode takes several seconds; unit 0 is checked against the
    # warm-up instead of being run twice.
    repeat_unit0 = False

    def episode(self, i: int) -> tuple[str, str, int]:
        return (self.ENVS[i % 2], self.KIND,
                derive_seed(self.seed, "episode", i // 2))

    def setup(self) -> str:
        return self._warm_up([self.episode(i) for i in range(len(self.ENVS))])

    def unit(self, i: int) -> Unit:
        env, kind, seed = self.episode(i)
        rec = self.tn.harness.run_episode(env, kind, seed, self.config)
        problems, _replay_s = self._check(rec, self.config)
        return Unit(digest=digest_text(rec.to_json()), ops=1,
                    failed_ops=int(bool(problems)), problems=problems,
                    counts={"replay_steps": len(rec.rows)})

    def end_to_end(self, units, probe):
        lat = probe.durations_ms("controllers.decide." + self.KIND)
        c = probe.counters
        steps_per_s = c["episodes.steps"] / (
            probe.total_ms("harness.run_episode") / 1e3)
        return {
            "latency_ms_p50": percentile(lat, 50),
            "latency_ms_p95": percentile(lat, 95),
            "throughput_per_s": steps_per_s,
        }, {
            "decision_ms_p50": (percentile(lat, 50), "ms"),
            "decision_ms_p95": (percentile(lat, 95), "ms"),
            "decision_ms_max": (max(lat), "ms"),
            "decisions": (len(lat), "count"),
            "steps_per_s": (steps_per_s, "1/s"),
            **self._outcomes(probe),
        }


class BaselineSuiteReplay(_EpisodeWorkload):
    """run_suite rounds of the reactive baselines, then load and replay
    every record written."""

    name = "baseline-suite-replay"
    ENVS = ("open-space", "bottleneck", "warehouse-squeeze")
    KINDS = ("dwa-style", "goal-pd")
    unit_ops = len(ENVS) * len(KINDS)

    def round_seed(self, i: int) -> int:
        return derive_seed(self.seed, "round", i)

    def setup(self) -> str:
        s = self.round_seed(0)
        return self._warm_up([(e, k, s) for e in self.ENVS for k in self.KINDS])

    def unit(self, i: int) -> Unit:
        h = self.tn.harness
        cfg = copy.deepcopy(self.config)
        cfg["suite"] = {"environments": list(self.ENVS),
                        "controllers": list(self.KINDS),
                        "seeds": [self.round_seed(i)]}
        expected = self.unit_ops
        problems: list[str] = []
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.tmp_root) as d:
            out = Path(d)
            t0 = time.perf_counter()
            result = h.run_suite(cfg, out, workers=1)
            t1 = time.perf_counter()
            files = sorted(out.glob("episodes/*.jsonl"))
            records = [r for f in files for r in h.load_records(f)]
            t2 = time.perf_counter()
            nbytes = sum(p.stat().st_size for p in out.rglob("*")
                         if p.is_file())
            digest = digest_files(out)
        replay_s = {}
        failed = 0
        for rec in records:
            found, replay_s[(rec.env, rec.controller, rec.seed)] = \
                self._check(rec, cfg)
            failed += bool(found)
            problems += found
        if result["n_failures"] or len(records) != expected:
            problems.append(f"round {i}: {result['n_failures']} episodes "
                            f"failed, {len(records)} of {expected} records "
                            f"read back")
            failed = max(failed, expected - len(records), 1)
        return Unit(digest=digest, ops=expected, failed_ops=min(failed,
                                                                expected),
                    problems=problems,
                    times={"suite": t1 - t0, "load": t2 - t1},
                    counts={"replay_steps": sum(len(r.rows) for r in records),
                            "persist_bytes": nbytes},
                    replay_s=replay_s)

    def end_to_end(self, units, probe):
        """Latency is an episode's closed-loop wall time per step.

        Throughput counts a step once simulated and once replayed, and
        weights every episode equally: a round always holds one episode
        of each (environment, controller) pair, while the pairs' episode
        lengths vary with the seed (a dwa-style episode may run to the
        600-step limit)."""
        run = {key: (s, n) for key, s, n in probe.samples["episodes"]}
        per_step = [1e3 * s / max(1, n) for s, n in run.values()]
        verified = [1e3 * (run[key][0] + r) / max(1, run[key][1])
                    for u in units for key, r in u.replay_s.items()]
        verified_steps_per_s = 1e3 / statistics.fmean(verified)
        c = probe.counters
        suite_s = sum(u.times["suite"] for u in units)
        verify_s = sum(u.times["load"] + sum(u.replay_s.values())
                       for u in units)
        replay_steps = sum(u.counts["replay_steps"] for u in units)
        return {
            "latency_ms_p50": percentile(per_step, 50),
            "latency_ms_p95": percentile(per_step, 95),
            "throughput_per_s": verified_steps_per_s,
        }, {
            "episode_ms_per_step_p50": (percentile(per_step, 50), "ms"),
            "episode_ms_per_step_p95": (percentile(per_step, 95), "ms"),
            "verified_steps_per_s": (verified_steps_per_s, "1/s"),
            "steps_per_s": (c["episodes.steps"] / (
                probe.total_ms("harness.run_episode") / 1e3), "1/s"),
            "episodes_per_s": (c["episodes"] / suite_s, "1/s"),
            "replay_steps_per_s": (replay_steps / verify_s, "1/s"),
            **self._outcomes(probe),
        }


class ValidateBounds(Workload):
    """The two finite-sample bound checks at the `tailnav validate`
    defaults, one trial of each per unit."""

    name = "validate-bounds"
    DEFAULTS = {"N": 500, "alpha": 0.1, "delta": 0.05, "lattice_size": 25}
    TINY = {"N": 60, "lattice_size": 3}
    RISK_WEIGHT = 2.0
    unit_ops = 2
    trace_units_per_s = 45.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = {**self.DEFAULTS, **(self.TINY if self.tiny else {})}

    def setup(self) -> str:
        self.config = self._load_config()
        self.warm = self._trials(0)
        return digest_text(*(json.dumps(r.to_dict(), sort_keys=True)
                             for r in self.warm))

    def _trials(self, i: int):
        va, p = self.tn.validation, self.params
        seed = derive_seed(self.seed, "trial", i)
        return (va.check_prop_uniform_cvar(**p, trials=1, seed=seed),
                va.check_prop_regret(**p, risk_weight=self.RISK_WEIGHT,
                                     trials=1, seed=seed))

    def _bounds(self) -> tuple[float, float]:
        """The two bounds, computed here from their closed forms."""
        p = self.params
        n, a, d, L = p["N"], p["alpha"], p["delta"], p["lattice_size"]
        uniform = (1.0 / a) * math.sqrt(math.log(2.0 * L / d) / (2.0 * n))
        eps = (1.0 + self.RISK_WEIGHT / a) * math.sqrt(
            math.log(4.0 * L / d) / (2.0 * n))
        return uniform, 2.0 * eps

    def unit(self, i: int) -> Unit:
        t0 = time.perf_counter()
        reports = self._trials(i)
        wall = time.perf_counter() - t0
        problems = []
        for name, rep, bound in zip(("uniform_cvar", "regret"), reports,
                                    self._bounds()):
            if not (abs(rep.bound - bound) <= 1e-12 * bound
                    and rep.trials == 1
                    and 0.0 <= rep.max_error < float("inf")
                    and rep.violations == int(rep.max_error > rep.bound)):
                problems.append(f"trial {i}: inconsistent {name} report "
                                f"{rep.to_dict()}")
        if i == 0 and [r.to_dict() for r in reports] != [
                r.to_dict() for r in self.warm]:
            problems.append("trial 0 differs from its warm-up run")
        return Unit(digest=digest_text(*(json.dumps(r.to_dict(),
                                                    sort_keys=True)
                                         for r in reports)),
                    ops=2, failed_ops=min(2, len(problems)),
                    problems=problems, times={"pair": wall},
                    counts={"violations_uniform": reports[0].violations,
                            "violations_regret": reports[1].violations,
                            "max_error_uniform": reports[0].max_error,
                            "max_error_regret": reports[1].max_error})

    def end_to_end(self, units, probe):
        lat = [1e3 * u.times["pair"] for u in units]
        trials_per_s = 2 * len(units) / sum(u.times["pair"] for u in units)
        return {
            "latency_ms_p50": percentile(lat, 50),
            "latency_ms_p95": percentile(lat, 95),
            "throughput_per_s": trials_per_s,
        }, {
            "trial_pair_ms_p50": (percentile(lat, 50), "ms"),
            "trial_pair_ms_p95": (percentile(lat, 95), "ms"),
            "validate_trials_per_s": (trials_per_s, "1/s"),
        }

    def final_checks(self, units):
        """Both checks, pooled over every trial run, must pass."""
        va = self.tn.validation
        problems = []
        for name, bound in zip(("uniform", "regret"), self._bounds()):
            report = va.BoundCheckReport(
                trials=len(units),
                violations=int(sum(u.counts["violations_" + name]
                                   for u in units)),
                bound=bound,
                max_error=max(u.counts["max_error_" + name] for u in units),
                delta=self.params["delta"])
            if not report.passed:
                problems.append(f"{name} bound check failed: "
                                f"{report.to_dict()}")
        return problems


WORKLOADS = {w.name: w for w in (RcspCluttered, BaselineSuiteReplay,
                                 ValidateBounds)}
