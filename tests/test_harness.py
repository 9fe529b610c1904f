"""Episode runner, suite persistence, determinism, and replay."""

import json
from pathlib import Path

import pytest

from tailnav.config import load_config
from tailnav.harness import (
    METRIC_COLUMNS,
    TRACE_COLUMNS,
    load_records,
    replay,
    run_episode,
    run_suite,
    score_formula,
    summarize,
)


def _small_config(**suite_overrides) -> dict:
    cfg = load_config()
    cfg["suite"] = {
        "environments": ["open-space"],
        "controllers": ["goal-pd"],
        "seeds": [0, 1, 2],
    }
    cfg["suite"].update(suite_overrides)
    return cfg


class TestScoreFormula:
    def test_success_with_safety_cost(self):
        assert score_formula(1, 0, 0, 17.394) == pytest.approx(0.478,
                                                               abs=1e-3)

    def test_second_anchor(self):
        assert score_formula(1, 0, 0, 17.814) == pytest.approx(0.466,
                                                               abs=1e-3)

    def test_collision_penalty(self):
        assert score_formula(0, 1, 0, 0.0) == -1.0

    def test_timeout_penalty(self):
        assert score_formula(0, 0, 1, 5.0) == pytest.approx(-0.25)


class TestRunEpisode:
    def test_goal_pd_succeeds_in_open_space(self):
        cfg = _small_config()
        for seed in range(3):
            r = run_episode("open-space", "goal-pd", seed, cfg)
            assert r.metrics.success == 1
            assert r.metrics.collision == 0

    def test_metrics_are_consistent(self):
        r = run_episode("open-space", "goal-pd", 0, _small_config())
        m = r.metrics
        assert m.success + m.collision + m.timeout == 1
        assert 0.0 <= m.spl <= m.success
        assert m.path_length > 0.0
        assert m.duration == len(r.rows)
        assert m.score == pytest.approx(score_formula(
            m.success, m.collision, m.timeout, m.safety_cost))
        assert m.mean_planner_latency_ms > 0.0

    def test_spl_penalizes_detours(self):
        from tailnav.geometry import Pose, goal_distance
        r = run_episode("open-space", "goal-pd", 0, _small_config())
        straight = goal_distance(Pose(*r.env_config["start"]),
                                 tuple(r.env_config["goal"]))
        assert r.metrics.spl == pytest.approx(
            straight / max(straight, r.metrics.path_length))

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError):
            run_episode("open-space", "teleport", 0, _small_config())

    def test_rows_have_trace_schema(self):
        r = run_episode("open-space", "goal-pd", 0, _small_config())
        assert set(r.rows[0]) == set(TRACE_COLUMNS)
        assert r.rows[-1]["outcome"] == "success"
        assert all(row["outcome"] == "running" for row in r.rows[:-1])


class TestRunSuite:
    def test_counts_and_files(self, tmp_path):
        cfg = _small_config()
        result = run_suite(cfg, tmp_path)
        assert result["n_episodes"] == 3
        assert result["n_failures"] == 0
        jsonl = tmp_path / "episodes" / "open-space__goal-pd.jsonl"
        assert len(jsonl.read_text().splitlines()) == 3
        assert len(list((tmp_path / "traces").glob("*.csv"))) == 3
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        # Header + per-env row + pooled row.
        assert len(summary) == 3
        assert summary[0].split(",")[:3] == ["env", "controller", "episodes"]
        assert (tmp_path / "latencies.csv").exists()

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        cfg = _small_config()
        run_suite(cfg, tmp_path / "a", workers=1)
        run_suite(cfg, tmp_path / "b", workers=2)
        for rel in ("episodes/open-space__goal-pd.jsonl", "summary.csv",
                    "traces/open-space__goal-pd__1.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_duplicate_seeds_rejected(self, tmp_path):
        cfg = _small_config(seeds=[0, 0, 1])
        with pytest.raises(ValueError):
            run_suite(cfg, tmp_path)

    def test_empty_grid_rejected(self, tmp_path):
        cfg = _small_config(environments=[])
        with pytest.raises(ValueError):
            run_suite(cfg, tmp_path)

    def test_summarize_pools_across_envs(self):
        cfg = _small_config()
        records = [run_episode("open-space", "goal-pd", s, cfg)
                   for s in (0, 1)]
        rows = summarize(records)
        pooled = [r for r in rows if r["env"] == "pooled"]
        assert len(pooled) == 1
        assert pooled[0]["episodes"] == 2
        assert set(METRIC_COLUMNS) <= set(pooled[0])


class TestReplay:
    def test_fresh_record_matches(self):
        r = run_episode("open-space", "goal-pd", 0, _small_config())
        report = replay(r)
        assert report["match"] is True
        assert report["first_divergence"] is None
        assert report["steps"] == len(r.rows)

    def test_tampered_trace_detected(self):
        r = run_episode("open-space", "goal-pd", 0, _small_config())
        k = len(r.rows) // 2
        r.rows[k] = dict(r.rows[k], x=r.rows[k]["x"] + 1e-9)
        report = replay(r)
        assert report["match"] is False
        assert report["first_divergence"] == r.rows[k]["step"]

    def test_wrong_seed_diverges_immediately(self):
        r = run_episode("open-space", "goal-pd", 0, _small_config())
        r.seed = 12345
        report = replay(r)
        assert report["match"] is False
        assert report["first_divergence"] == r.rows[0]["step"]

    def test_replay_from_jsonl_roundtrip(self, tmp_path):
        cfg = _small_config(seeds=[0])
        run_suite(cfg, tmp_path)
        path = tmp_path / "episodes" / "open-space__goal-pd.jsonl"
        records = load_records(path)
        assert len(records) == 1
        assert replay(records[0])["match"] is True

    def test_schema_version_mismatch_raises(self):
        r = run_episode("open-space", "goal-pd", 0, _small_config())
        r.schema_version = 999
        with pytest.raises(ValueError):
            replay(r)


GOLDEN_RECORD = Path(__file__).parent / "golden" / "bottleneck__goal-pd.jsonl"


class TestGoldenRecord:
    """A committed seed-0 bottleneck x goal-pd record (46 rows) pins the
    episode record format across code versions: it must load, replay and
    serialise back to the same bytes.  Regenerate it only after an intended
    format or behaviour change, from the repository root:

        PYTHONPATH=src python -c "from tailnav.harness import run_episode; \
            print(run_episode('bottleneck', 'goal-pd', 0).to_json())" \
            > tests/golden/bottleneck__goal-pd.jsonl
    """

    def test_loads_replays_and_reserialises_byte_for_byte(self):
        line = GOLDEN_RECORD.read_text().rstrip("\n")
        [record] = load_records(GOLDEN_RECORD)
        assert len(record.rows) == record.metrics.duration == 46
        assert replay(record) == {"match": True, "first_divergence": None,
                                  "steps": 46}
        assert record.to_json() == line

    def test_matches_a_fresh_run(self):
        fresh = run_episode("bottleneck", "goal-pd", 0, load_config())
        assert fresh.to_json() == GOLDEN_RECORD.read_text().rstrip("\n")

    @pytest.mark.parametrize("where", ["record", "metrics", "env_config"])
    def test_unknown_key_refused_at_load(self, tmp_path, where):
        # load_records parses the record and its metrics; replay parses
        # the environment.
        d = json.loads(GOLDEN_RECORD.read_text())
        (d if where == "record" else d[where])["extra"] = 1
        path = tmp_path / "record.jsonl"
        path.write_text(json.dumps(d) + "\n")
        with pytest.raises(TypeError, match="extra"):
            replay(load_records(path)[0])

    def test_row_with_wrong_columns_refused_at_load(self, tmp_path):
        d = json.loads(GOLDEN_RECORD.read_text())
        for row in d["rows"]:
            del row["cvar_selected"]
            row["junk"] = 0
        path = tmp_path / "record.jsonl"
        path.write_text(json.dumps(d) + "\n")
        with pytest.raises(ValueError, match=r"row 0: missing columns "
                           r"\['cvar_selected'\], unknown columns \['junk'\]"):
            load_records(path)


class TestPersistenceFormats:
    def test_jsonl_is_sorted_and_parseable(self, tmp_path):
        cfg = _small_config()
        run_suite(cfg, tmp_path)
        path = tmp_path / "episodes" / "open-space__goal-pd.jsonl"
        seeds = [json.loads(line)["seed"]
                 for line in path.read_text().splitlines()]
        assert seeds == sorted(seeds)

    def test_trace_csv_has_header_and_rows(self, tmp_path):
        cfg = _small_config(seeds=[0])
        run_suite(cfg, tmp_path)
        lines = (tmp_path / "traces" /
                 "open-space__goal-pd__0.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) > 1
