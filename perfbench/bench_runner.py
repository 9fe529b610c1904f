"""Runs one workload: repeated set-up, the measured window, the checks and
the metrics.

An untraced run (trace=False) wraps only the two calls it times,
`Controller.decide` and the harness's `run_episode`, and reports the
end-to-end metrics.  A traced run does a fixed number of units
twice each, once untraced and once with every layer wrapped.  The per-layer
metrics come from the traced pass, and the ratio of the two passes' wall
times is the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from bench_checks import digest_text
from bench_layers import (PER_LAYER_UNITS, install_layers, install_probes,
                          layer_metrics, self_times)
from bench_trace import Tracer
from bench_workloads import WORKLOADS, Unit, Workload

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Values for the result line, keyed as in BENCHMARK.json.
    metrics: dict[str, float] = field(default_factory=dict)
    # Every metric printed by name, as name -> (value, unit).
    printed: dict[str, tuple[float, str]] = field(default_factory=dict)
    digest: str = ""
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def add(self, units: list[Unit]) -> None:
        for u in units:
            self.attempted += u.ops
            self.failed += u.failed_ops
            self.problems += u.problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_unit(wl: Workload, i: int, tracer: Tracer | None = None) -> Unit:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            unit = wl.unit(i)
        else:
            with tracer.span("bench.unit"):
                unit = wl.unit(i)
    except Exception as exc:  # report the unit as failed and go on
        traceback.print_exc(file=sys.stderr)
        unit = Unit(digest="", ops=wl.unit_ops, failed_ops=wl.unit_ops,
                    problems=[f"unit {i} raised {exc!r}"])
    unit.wall_s = time.perf_counter() - t0
    return unit


def _run_window(wl: Workload, seconds: float) -> list[Unit]:
    """Units 0, 1, ... until `seconds` have passed; the block of units
    running when time is up is finished."""
    units: list[Unit] = []
    start = time.perf_counter()
    while (not units or len(units) % wl.block
           or time.perf_counter() - start < seconds):
        units.append(_run_unit(wl, len(units)))
    return units


def _run_pair(wl: Workload, tn: SimpleNamespace, i: int, probe: Tracer,
              traced: Tracer) -> tuple[Unit, Unit]:
    """Unit `i` untraced and then traced, or the other way round for odd
    `i`, so that drift in machine speed falls on both passes alike."""
    done = {}
    for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
        if is_traced:
            install_layers(traced, tn)
            with traced.installed():
                done[True] = _run_unit(wl, i, traced)
        else:
            install_probes(probe, tn, "timed")
            with probe.installed():
                done[False] = _run_unit(wl, i)
    return done[False], done[True]


def trace_units(wl: Workload, seconds: float) -> int:
    """Units per pass of a traced run: half of `seconds` at the nominal
    rate, rounded up to whole blocks."""
    blocks = math.ceil(seconds / 2 * wl.trace_units_per_s / wl.block)
    return wl.block * max(1, blocks)


def run_workload(tn: SimpleNamespace, name: str, seed: int, seconds: float,
                 trace: bool, tmp_root: Path, import_s: float,
                 tiny: bool = False) -> Outcome:
    """Set up, measure and check one workload.  `tiny` shrinks every
    episode and validation sample to a self-test's size."""
    wl = WORKLOADS[name](tn, seed, tmp_root, tiny)
    out = Outcome()

    setup_s, warm = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        warm.append(wl.setup())
        setup_s.append(time.perf_counter() - t0)
    out.check(len(set(warm)) == 1, "warm-up outputs differ between set-ups")

    probe = Tracer()
    if trace:
        traced = Tracer()
        pairs = [_run_pair(wl, tn, i, probe, traced)
                 for i in range(trace_units(wl, seconds))]
        units = [untraced for untraced, _ in pairs]
        again = [traced_unit for _, traced_unit in pairs]
        out.add(units + again)
        for i, (a, b) in enumerate(pairs):
            out.check(a.digest == b.digest,
                      f"unit {i}: traced pass gave a different digest")
        c = traced.counters
        c["harness.persist.bytes"] = sum(u.counts.get("persist_bytes", 0)
                                         for u in again)
        c["harness.replay.steps"] = sum(u.counts.get("replay_steps", 0)
                                        for u in again)
        overhead = 100.0 * (sum(u.wall_s for u in again)
                            / sum(u.wall_s for u in units) - 1.0)
        out.metrics = layer_metrics(
            traced, 1e3 * statistics.median(wl.load_config_s), overhead)
        out.tracer = traced
    else:
        install_probes(probe, tn, "timed")
        with probe.installed():
            units = _run_window(wl, seconds)
        out.add(units)
        if wl.repeat_unit0:
            again = _run_unit(wl, 0)
            out.add([again])
            out.check(again.digest == units[0].digest,
                      "unit 0 gave a different digest when run again")
    out.digest = digest_text(*(u.digest for u in units))

    final = wl.final_checks(units)
    out.check(not final, "; ".join(final))

    try:
        gated, named = wl.end_to_end(units, probe)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        out.problems.append(f"no end-to-end metrics: {exc!r}")
        return out
    gated["setup_s"] = import_s + statistics.median(setup_s)
    gated["peak_rss_mb"] = peak_rss_mb()
    if not trace:
        out.metrics = gated
    out.printed = {
        **{k: (v, END_TO_END_UNITS[k]) for k, v in gated.items()},
        **named,
        "import_s": (import_s, "s"),
        "units": (len(units), "count"),
        "failed_ratio": (out.failed / max(1, out.attempted), "ratio"),
    }
    return out


def result_line(out: Outcome, trace: bool) -> dict:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": out.metrics[k], "unit": units[k]}
                    for k in units if k in out.metrics},
    }


def report_lines(out: Outcome) -> list[str]:
    lines = [f"metric {k} = {v!r} {u}" for k, (v, u) in out.printed.items()]
    if out.tracer is not None:
        lines += [f"layer {k} = {out.metrics[k]!r} {u}"
                  for k, u in PER_LAYER_UNITS.items()]
        lines += [f"self_time {n} calls={c} total_ms={t:.3f} self_ms={s:.3f}"
                  for n, c, t, s in self_times(out.tracer)]
    lines.append(f"digest {out.digest}")
    lines += [f"problem {p}" for p in out.problems]
    return lines
