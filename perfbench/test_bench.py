"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from bench_checks import check_record  # noqa: E402
from bench_layers import PER_LAYER_UNITS, import_tailnav  # noqa: E402
from bench_runner import (END_TO_END_UNITS, report_lines,  # noqa: E402
                          result_line, run_workload)
from bench_trace import Tracer  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

@pytest.fixture(scope="module")
def tn():
    return import_tailnav()


def tiny_run(tn, name, tmp_path, trace=False):
    return run_workload(tn, name, seed=3, seconds=0.01, trace=trace,
                        tmp_root=tmp_path, import_s=0.0, tiny=True)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
    layer_map = json.loads((HERE / "baseline.json").read_text())["layer_map"]
    mapped = [m for entry in layer_map for m in entry["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(tn, tmp_path, name, trace):
    out = tiny_run(tn, name, tmp_path, trace)
    line = result_line(out, trace)
    assert line["correct"], out.problems
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    if not trace:
        assert all(line["metrics"][k]["value"] > 0 for k in expected)
    text = "\n".join(report_lines(out))
    for k, (v, unit) in out.printed.items():
        assert f"metric {k} = {v!r} {unit}" in text
    assert "metric failed_ratio = 0.0 ratio" in text


def test_traced_run_sees_each_layer_of_its_workload(tn, tmp_path):
    m = tiny_run(tn, "rcsp-cluttered", tmp_path, trace=True).metrics
    for k in ("planner.commands_scored", "scenarios.scenarios_sampled",
              "safety.filter_rollout.calls", "beliefs.likelihood.calls",
              "world.step_world.calls", "geometry.clearance_points.calls",
              "geometry.step_unicycle.calls"):
        assert m[k] > 0, k
    assert m["validation.mixture_cvar.calls"] == 0
    m = tiny_run(tn, "baseline-suite-replay", tmp_path, trace=True).metrics
    assert m["harness.persist.bytes"] > 0 and m["geometry.clearance.calls"] > 0
    assert m["planner.commands_scored"] == 0


def test_self_time_excludes_wrapped_callees():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    ns = SimpleNamespace(inner=lambda: None)
    ns.outer = lambda: ns.inner()
    original = ns.outer
    tr.wrap([(ns, "outer")], "outer", kind="span")
    tr.wrap([(ns, "inner")], "inner")
    with tr.installed():
        ns.outer()
    assert ns.outer is original
    assert (tr.total_ms("outer"), tr.self_ms("outer")) == (3e3, 2e3)
    assert (tr.total_ms("inner"), tr.self_ms("inner")) == (1e3, 1e3)
    assert tr.spans == [(1, 0, "outer", 0.0, 3.0)]


def test_wrapped_names_are_restored(tn, tmp_path):
    targets = [(tn.controllers, "select_command"), (tn.harness, "step_world"),
               (tn.world, "clearance"), (tn.validation.Mixture, "cvar")]
    before = [getattr(o, a) for o, a in targets]
    decide = vars(tn.controllers.Controller)["decide"]
    tiny_run(tn, "validate-bounds", tmp_path, trace=True)
    assert [getattr(o, a) for o, a in targets] == before
    assert vars(tn.controllers.Controller)["decide"] is decide


def _truncated(record):
    return dataclasses.replace(record, rows=record.rows[:-1])


def _tampered(record):
    rows = [dict(r) for r in record.rows]
    rows[1]["x"] += 1e-9
    return dataclasses.replace(record, rows=rows)


@pytest.mark.parametrize("damage", [_truncated, _tampered])
def test_damaged_suite_records_raise_failed_ratio(tn, tmp_path, monkeypatch,
                                                  damage):
    load = tn.harness.load_records
    monkeypatch.setattr(tn.harness, "load_records",
                        lambda path: [damage(r) for r in load(path)])
    out = tiny_run(tn, "baseline-suite-replay", tmp_path)
    assert not result_line(out, False)["correct"]
    assert out.printed["failed_ratio"][0] > 0


def test_truncated_episode_raises_failed_ratio(tn, tmp_path, monkeypatch):
    run = tn.harness.run_episode
    monkeypatch.setattr(tn.harness, "run_episode",
                        lambda *a: _truncated(run(*a)))
    out = tiny_run(tn, "rcsp-cluttered", tmp_path)
    assert out.failed > 0 and out.printed["failed_ratio"][0] > 0


def test_replay_alone_accepts_a_cut_record_but_the_check_does_not(tn):
    cfg = tn.config.load_config()
    rec = tn.harness.run_episode("open-space", "goal-pd", 0, cfg)
    cut = dataclasses.replace(rec, rows=rec.rows[:10])
    assert tn.harness.replay(cut)["match"] is True
    assert check_record(tn, rec, cfg)[0] == []
    problems = check_record(tn, cut, cfg)[0]
    assert any("not terminal" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate-bounds",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
