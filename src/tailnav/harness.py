"""Seeded episode/suite runner, metrics, persistence, and replay.

Episode records are replayable: re-simulating from (environment config,
seed, logged command sequence) reproduces every trace row bit-exactly.
Planner latency is wall-clock and therefore kept out of all deterministic
outputs; it is written to a separate latencies.csv.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .config import (
    SCHEMA_VERSION,
    build_episode_env,
    check_suite,
    controller_params,
    fingerprint,
    load_config,
)
from .controllers import Controller
from .geometry import goal_distance
from .world import (
    EnvironmentConfig,
    VelocityCommand,
    init_world,
    observe,
    step_world,
)

# cvar_selected is the selected command's tail term: the CVaR at alpha,
# but the mean risk for mean-risk-filter, and 0.0 for the baselines.
TRACE_COLUMNS = (
    "step", "x", "y", "heading", "v_cmd", "omega_cmd", "v_exec", "omega_exec",
    "clearance", "cvar_selected", "posterior_entropy", "outcome",
)


def score_formula(success: int, collision: int, timeout: int,
                  safety_cost: float) -> float:
    """Composite episode score."""
    return success - collision - 0.10 * timeout - 0.03 * safety_cost


@dataclass(frozen=True)
class EpisodeMetrics:
    success: int
    collision: int
    timeout: int
    safety_cost: float
    min_clearance: float
    spl: float
    path_length: float
    duration: int
    mean_planner_latency_ms: float
    score: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in METRIC_COLUMNS}


# Latency is wall-clock and excluded from deterministic outputs.
METRIC_COLUMNS = tuple(f.name for f in fields(EpisodeMetrics)
                       if f.name != "mean_planner_latency_ms")


@dataclass
class EpisodeRecord:
    env: str
    controller: str
    seed: int
    schema_version: int
    config_fingerprint: str
    env_config: dict
    rows: list[dict]
    metrics: EpisodeMetrics

    def key(self) -> str:
        return f"{self.env}__{self.controller}"

    def to_json(self) -> str:
        return json.dumps({
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "metrics": self.metrics.to_dict(),
        }, sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "EpisodeRecord":
        """The inverse of to_json; a missing or unknown key or column raises."""
        record = EpisodeRecord(**{**d, "metrics": EpisodeMetrics(
            **d["metrics"], mean_planner_latency_ms=0.0)})
        for row in record.rows:
            if row.keys() != set(TRACE_COLUMNS):
                raise ValueError(
                    f"row {row.get('step')}: missing columns "
                    f"{sorted(set(TRACE_COLUMNS) - row.keys())}, unknown "
                    f"columns {sorted(row.keys() - set(TRACE_COLUMNS))}")
        return record


def _world_columns(state, out) -> dict:
    """The trace columns the world step determines, which replay checks."""
    return {
        "x": state.robot.x,
        "y": state.robot.y,
        "heading": state.robot.heading,
        "v_exec": out.executed.v,
        "omega_exec": out.executed.omega,
        "clearance": out.clearance,
        "outcome": out.status,
    }


def run_episode(env_name: str, controller_kind: str, seed: int,
                config: dict | None = None) -> EpisodeRecord:
    """Run one seeded episode to termination and compute its metrics."""
    if config is None:
        config = load_config()
    env_cfg = build_episode_env(env_name, seed, config)
    state = init_world(env_cfg, seed)

    controller = Controller(controller_kind, env_cfg, seed,
                            **controller_params(config, env_cfg))
    c_safe = config["planner"]["c_safe"]

    obs = observe(state, env_cfg)
    rows: list[dict] = []
    latencies: list[float] = []
    safety_cost = 0.0
    min_clearance = math.inf
    path_length = 0.0

    while state.outcome == "running":
        t0 = time.perf_counter()
        decision = controller.decide(obs)
        latencies.append((time.perf_counter() - t0) * 1e3)
        prev = state.robot
        state, obs, out = step_world(state, decision.command, env_cfg)
        path_length += math.hypot(state.robot.x - prev.x,
                                  state.robot.y - prev.y)
        safety_cost += env_cfg.dt * max(0.0, (c_safe - out.clearance) / c_safe)
        min_clearance = min(min_clearance, out.clearance)
        rows.append({
            "step": state.step - 1,
            "v_cmd": decision.command.v,
            "omega_cmd": decision.command.omega,
            "cvar_selected": decision.cvar_selected,
            "posterior_entropy": decision.posterior_entropy,
            **_world_columns(state, out),
        })

    outcome = state.outcome
    success = int(outcome == "success")
    collision = int(outcome == "collision")
    timeout = int(outcome == "timeout")
    straight = goal_distance(env_cfg.start, env_cfg.goal)
    spl = success * (straight / max(straight, path_length)) if path_length > 0 \
        else float(success)
    metrics = EpisodeMetrics(
        success=success, collision=collision, timeout=timeout,
        safety_cost=safety_cost, min_clearance=min_clearance,
        spl=spl, path_length=path_length, duration=state.step,
        mean_planner_latency_ms=sum(latencies) / len(latencies),
        score=score_formula(success, collision, timeout, safety_cost),
    )
    return EpisodeRecord(
        env=env_name, controller=controller_kind, seed=seed,
        schema_version=SCHEMA_VERSION, config_fingerprint=fingerprint(config),
        env_config=env_cfg.to_dict(), rows=rows, metrics=metrics,
    )


def run_suite(config: dict, out_dir: str | Path, workers: int = 1) -> dict:
    """Run the env x controller x seed grid and persist deterministic outputs.

    Writes episodes/<env>__<controller>.jsonl, traces/*.csv, summary.csv
    (all byte-deterministic) and latencies.csv (wall-clock, not covered by
    the determinism contract).  Returns the summary rows and counts.
    """
    check_suite(config)
    suite = config["suite"]
    jobs = [(e, c, s, config)
            for e in sorted(suite["environments"])
            for c in sorted(suite["controllers"])
            for s in sorted(suite["seeds"])]
    if workers > 1:
        # Imported here, so that `import tailnav` loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job_safe, jobs))
    else:
        results = [_run_job_safe(job) for job in jobs]
    records: list[EpisodeRecord] = []
    failures: list[dict] = []
    for (env, controller, seed, _), result in zip(jobs, results):
        if isinstance(result, Exception):
            failures.append({"env": env, "controller": controller,
                             "seed": seed, "error": repr(result)})
        else:
            records.append(result)

    out = Path(out_dir)
    (out / "episodes").mkdir(parents=True, exist_ok=True)
    (out / "traces").mkdir(parents=True, exist_ok=True)

    records.sort(key=lambda r: (r.env, r.controller, r.seed))
    by_file: dict[tuple, list[EpisodeRecord]] = {}
    for r in records:
        by_file.setdefault((r.env, r.controller), []).append(r)
    for (env, controller), recs in sorted(by_file.items()):
        path = out / "episodes" / f"{env}__{controller}.jsonl"
        with open(path, "w") as f:
            for r in recs:
                f.write(r.to_json() + "\n")
        for r in recs:
            write_trace_csv(r, out / "traces" /
                            f"{env}__{controller}__{r.seed}.csv")

    summary = summarize(records)
    write_summary_csv(summary, out / "summary.csv")
    write_latency_csv(records, out / "latencies.csv")
    if failures:
        with open(out / "failures.json", "w") as f:
            json.dump(failures, f, indent=2, sort_keys=True)
    return {"summary": summary, "n_episodes": len(records),
            "n_failures": len(failures)}


def _run_job_safe(args):
    try:
        return run_episode(*args)
    except Exception as exc:  # suite continues past per-episode failures
        return exc


def summarize(records: list[EpisodeRecord]) -> list[dict]:
    """Per-(env, controller) metric means plus a pooled row per controller."""
    groups: dict[tuple, list[EpisodeRecord]] = {}
    for r in records:
        groups.setdefault((r.env, r.controller), []).append(r)
        groups.setdefault(("pooled", r.controller), []).append(r)
    rows = []
    for (env, controller) in sorted(groups):
        recs = groups[(env, controller)]
        row = {"env": env, "controller": controller, "episodes": len(recs)}
        for m in METRIC_COLUMNS:
            row[m] = sum(getattr(r.metrics, m) for r in recs) / len(recs)
        rows.append(row)
    return rows


def _write_csv(path: Path, cols, rows) -> None:
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def write_summary_csv(summary: list[dict], path: Path) -> None:
    _write_csv(path, ("env", "controller", "episodes", *METRIC_COLUMNS),
               summary)


def write_trace_csv(record: EpisodeRecord, path: Path) -> None:
    _write_csv(path, TRACE_COLUMNS, record.rows)


def write_latency_csv(records: list[EpisodeRecord], path: Path) -> None:
    _write_csv(path, ("env", "controller", "seed", "mean_planner_latency_ms"),
               [{"env": r.env, "controller": r.controller, "seed": r.seed,
                 "mean_planner_latency_ms": r.metrics.mean_planner_latency_ms}
                for r in records])


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def load_records(path: str | Path) -> list[EpisodeRecord]:
    records = []
    with open(path) as f:
        for line in f:
            if line.strip():
                records.append(EpisodeRecord.from_dict(json.loads(line)))
    return records


def replay(record: EpisodeRecord) -> dict:
    """Re-simulate one record from its logged commands and verify the trace.

    Returns {"match": bool, "first_divergence": step or None, "steps": n}.
    Raises on schema-version mismatch.  Use load_records to read a file.
    """
    if record.schema_version != SCHEMA_VERSION:
        raise ValueError(
            f"record schema {record.schema_version} != current {SCHEMA_VERSION}")

    env_cfg = EnvironmentConfig.from_dict(record.env_config)
    state = init_world(env_cfg, record.seed)
    first_divergence = None
    for row in record.rows:
        if state.outcome != "running":
            # Re-simulation terminated before the log did.
            first_divergence = row["step"]
            break
        cmd = VelocityCommand(row["v_cmd"], row["omega_cmd"])
        state, _obs, out = step_world(state, cmd, env_cfg)
        if any(v != row[k] for k, v in _world_columns(state, out).items()):
            first_divergence = row["step"]
            break
    return {
        "match": first_divergence is None,
        "first_divergence": first_divergence,
        "steps": len(record.rows),
    }
