"""Correctness checks on what the library returns to the benchmark.

`replay` alone accepts a record cut short (every row it sees still
matches), so a record must also end in a terminal row, replay exactly
`metrics.duration` steps, and carry metrics that agree with its rows.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

TERMINAL = ("success", "collision", "timeout")

# Deterministic suite outputs; latencies.csv holds wall-clock times.
DETERMINISTIC_GLOBS = ("episodes/*.jsonl", "traces/*.csv", "summary.csv")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_record(tn, record, config: dict) -> tuple[list[str], float]:
    """Replay `record` through the harness and cross-check its metrics.

    Returns (problems found, seconds spent in `replay`).
    """
    who = f"{record.env}/{record.controller}/seed {record.seed}"
    problems = []
    t0 = time.perf_counter()
    report = tn.harness.replay(record)
    replay_s = time.perf_counter() - t0
    rows, m = record.rows, record.metrics

    if report.get("match") is not True:
        problems.append(f"{who}: replay diverged at step "
                        f"{report.get('first_divergence')}")
    if report.get("steps") != m.duration or len(rows) != m.duration:
        problems.append(f"{who}: replayed {report.get('steps')} steps, "
                        f"{len(rows)} rows, metrics.duration {m.duration}")
    if not rows or rows[-1]["outcome"] not in TERMINAL:
        problems.append(f"{who}: last row is not terminal")
        return problems, replay_s
    if any(r["outcome"] != "running" for r in rows[:-1]):
        problems.append(f"{who}: terminal outcome before the last row")
    if [r["step"] for r in rows] != list(range(len(rows))):
        problems.append(f"{who}: step column is not 0..n-1")
    if record.config_fingerprint != tn.config.fingerprint(config):
        problems.append(f"{who}: config fingerprint differs from the input")

    outcome = rows[-1]["outcome"]
    flags = (m.success, m.collision, m.timeout)
    if flags != tuple(int(outcome == o) for o in TERMINAL):
        problems.append(f"{who}: outcome flags {flags} disagree with "
                        f"last row {outcome!r}")
    if m.min_clearance != min(r["clearance"] for r in rows):
        problems.append(f"{who}: min_clearance disagrees with the rows")

    env = record.env_config
    c_safe, dt = config["planner"]["c_safe"], env["dt"]
    x, y = env["start"][0], env["start"][1]
    path = cost = 0.0
    for r in rows:
        path += math.hypot(r["x"] - x, r["y"] - y)
        x, y = r["x"], r["y"]
        cost += dt * max(0.0, (c_safe - r["clearance"]) / c_safe)
    if not _close(path, m.path_length):
        problems.append(f"{who}: path_length {m.path_length} != {path}")
    if not _close(cost, m.safety_cost):
        problems.append(f"{who}: safety_cost {m.safety_cost} != {cost}")
    score = m.success - m.collision - 0.10 * m.timeout - 0.03 * cost
    if not _close(score, m.score):
        problems.append(f"{who}: score {m.score} != {score}")
    return problems, replay_s


def check_prefix(short, full) -> list[str]:
    """`short` ran the same episode as `full` with a smaller step limit:
    its rows must be a prefix of `full`'s, except that its last row may
    end in a timeout."""
    if len(short.rows) > len(full.rows):
        return [f"{full.env}/{full.controller}: warm-up ran longer than "
                f"the episode"]
    for k, (a, b) in enumerate(zip(short.rows, full.rows)):
        if k == len(short.rows) - 1 and a["outcome"] == "timeout":
            a = {**a, "outcome": b["outcome"]}
        if a != b:
            return [f"{full.env}/{full.controller}/seed {full.seed}: warm-up "
                    f"row {k} differs from the measured episode"]
    return []


def digest_files(root: Path) -> str:
    """sha256 over the deterministic suite files, by relative path."""
    h = hashlib.sha256()
    for pattern in DETERMINISTIC_GLOBS:
        for path in sorted(root.glob(pattern)):
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def digest_text(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() + b"\0")
    return h.hexdigest()
