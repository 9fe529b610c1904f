"""Configuration loading, fingerprints, and the command-line interface."""

import json

import pytest

from tailnav.cli import build_parser, main
from tailnav.config import (
    DEFAULT_CONFIG,
    controller_params,
    fingerprint,
    load_config,
)
from tailnav.world import build_environment


class TestConfig:
    def test_defaults_contain_all_blocks(self):
        cfg = load_config()
        assert set(cfg) >= {"schema_version", "suite", "planner", "filter",
                            "beliefs", "family"}

    def test_load_is_a_deep_copy(self):
        a = load_config()
        a["planner"]["alpha"] = 0.99
        assert DEFAULT_CONFIG["planner"]["alpha"] == 0.1

    def test_file_overrides_merge_recursively(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"planner": {"alpha": 0.25}}))
        cfg = load_config(p)
        assert cfg["planner"]["alpha"] == 0.25
        assert cfg["planner"]["N"] == 64

    def test_stale_filter_key_rejected_at_load(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"filter": {"infeasible_penalty": 1000.0}}))
        with pytest.raises(ValueError, match="infeasible_penalty"):
            load_config(p)

    @pytest.mark.parametrize("user, named", [
        ({"planner": {"alhpa": 0.2}}, "alhpa"),
        ({"planner": {"alpha": 2.0}}, "alpha"),
        ({"filter": {"dt": 0.2}}, "dt"),
        ({"beliefs": {"tua": 1.0}}, "tua"),
        ({"family": [{"id": 0, "kind": "static", "gama": 1.0}]}, "gama"),
        ({"planer": {"alpha": 0.2}}, "planer"),
        ({"planner": {"c_safe": 0}}, "c_safe"),
        ({"family": [{"id": 0, "kind": "static", "sigma_theta": -0.1}]},
         "sigma_theta"),
    ])
    def test_bad_key_or_value_named_at_load(self, tmp_path, user, named):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(user))
        with pytest.raises(ValueError, match=named):
            load_config(p)

    @pytest.mark.parametrize("user, named", [
        ({"suite": {"controllers": ["goal-pd", "rcsp-ful"]}}, "rcsp-ful"),
        ({"suite": {"environments": ["open-spaec"]}}, "open-spaec"),
        ({"suite": {"seeds": []}}, "nonempty"),
        ({"suite": {"seeds": [0, 1, 0]}}, "distinct"),
        ({"suite": {"seed": [0]}}, "seed"),
        ({"env_overrides": {"dtt": 0.2}}, "dtt"),
        ({"env_overrides": {"dt": -0.1}}, "dt and max_steps must be positive"),
    ])
    def test_bad_suite_or_env_override_named_at_load(self, tmp_path, user,
                                                      named):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(user))
        with pytest.raises(ValueError, match=f"invalid config .*{named}"):
            load_config(p)

    def test_env_override_fields_accepted(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"env_overrides": {"dt": 0.2}}))
        assert load_config(p)["env_overrides"] == {"dt": 0.2}

    def test_fingerprint_sensitive_to_values(self):
        a = load_config()
        b = load_config()
        assert fingerprint(a) == fingerprint(b)
        b["planner"]["alpha"] = 0.2
        assert fingerprint(a) != fingerprint(b)

    def test_param_builders_round_trip(self):
        cfg = load_config()
        env, _ = build_environment("open-space", 0)
        params = controller_params(cfg, env)
        pp = params["planner_params"]
        assert (pp.N, pp.alpha, pp.risk_weight) == (64, 0.1, 2.0)
        fp = params["filter_params"]
        assert fp.c_hard == 0.15
        assert fp.dt == env.dt
        bp = params["belief_params"]
        assert bp.tau == 2.0
        family = params["family"]
        assert len(family) == 6

    def test_checked_in_default_matches_code(self):
        with open("configs/default.json") as f:
            on_disk = json.load(f)
        assert on_disk == json.loads(
            json.dumps(DEFAULT_CONFIG, sort_keys=True))


class TestCli:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        subs = next(a for a in parser._actions
                    if a.dest == "command").choices
        assert {"run", "suite", "replay", "validate",
                "print-config"} <= set(subs)

    def test_print_config_emits_json(self, capsys):
        assert main(["print-config"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["schema_version"] == 1

    def test_run_episode_prints_metrics(self, capsys):
        code = main(["run", "--env", "open-space", "--controller", "goal-pd",
                     "--seed", "0"])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["success"] == 1

    def test_suite_then_replay(self, tmp_path, capsys):
        cfg = {"suite": {"environments": ["open-space"],
                         "controllers": ["goal-pd"], "seeds": [0]}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["suite", "--config", str(p), "--out", str(out)]) == 0
        capsys.readouterr()
        record = out / "episodes" / "open-space__goal-pd.jsonl"
        assert main(["replay", "--record", str(record)]) == 0
        assert "match" in capsys.readouterr().out

    def test_validate_small_run(self, capsys):
        code = main(["validate", "--samples", "200", "--alpha", "0.25",
                     "--trials", "20", "--lattice-size", "5"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports["uniform_cvar"]["passed"]
        assert reports["regret"]["passed"]
