"""Configuration loading, fingerprints, and the command-line interface."""

import json
import math

import pytest

from tailnav.beliefs import default_family
from tailnav.cli import build_parser, main
from tailnav.config import (
    DEFAULT_CONFIG,
    controller_params,
    fingerprint,
    load_config,
)
from tailnav.planner import CommandLattice, PlannerParams
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
        ({"family": [{"kind": "static", "gama": 1.0}]}, "gama"),
        ({"planer": {"alpha": 0.2}}, "planer"),
        ({"planner": {"c_safe": 0}}, "c_safe"),
        ({"family": [{"kind": "static", "sigma_theta": -0.1}]},
         "sigma_theta"),
        # A conjecture's id is its place in the list, and an entry carries
        # only the parameters its kind reads.
        ({"family": [{"id": 0, "kind": "static"}]}, "'id'"),
        ({"family": [{"kind": "static", "gamma": 0.5}]}, "gamma"),
        ({"family": [{"kind": "yielding", "pursuit_gain": 0.5}]},
         "pursuit_gain"),
        ({"family": [{"kind": "statik"}]}, "statik"),
        ({"schema_version": 2}, "schema_version"),
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

    @pytest.mark.parametrize("key, value", [
        ("objective", "mean"), ("objective", "cvar"),
        ("fractional_tail", False)])
    def test_removed_planner_knobs_refused_at_load(self, tmp_path, key,
                                                   value):
        # The controller kind alone picks the tail statistic.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"planner": {key: value}}))
        with pytest.raises(ValueError, match=f"invalid config .*{key}"):
            load_config(p)

    @pytest.mark.parametrize("block, key, value", [
        ("planner", "N", 0), ("planner", "H", 2.5), ("planner", "top_k", 0),
        ("planner", "top_k", 7), ("beliefs", "tau", 0),
        ("beliefs", "tau", -1.0), ("beliefs", "smoothing", 0.0),
        ("beliefs", "smoothing", 1.5), ("beliefs", "floor", -0.01),
        ("beliefs", "floor", 1.0 / 6), ("beliefs", "sigma_like_slack", -0.5),
        ("beliefs", "sigma_like_slack", 0.0), ("filter", "horizon", 2.5)])
    def test_out_of_range_parameter_refused_at_load(self, tmp_path, block,
                                                    key, value):
        # Each passed load and then failed every episode.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({block: {key: value}}))
        with pytest.raises(ValueError, match=f"invalid config .*{key}"):
            load_config(p)

    @pytest.mark.parametrize("key, value", [
        ("sigma_act", -0.01), ("sigma_obs", -0.05), ("command_delay", -1),
        ("command_delay", 1.5), ("robot_radius", 0.0), ("goal_radius", -0.1),
        ("v_max", 0.0), ("omega_max", -1.5), ("sensing_radius", 0.0)])
    def test_out_of_range_env_override_refused_at_load(self, tmp_path, key,
                                                       value):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"env_overrides": {key: value}}))
        with pytest.raises(ValueError, match=f"invalid config .*{key}"):
            load_config(p)

    @pytest.mark.parametrize("user, named", [
        ({"planner": {"risk_weight": math.nan}}, "risk_weight"),
        ({"filter": {"kappa": math.nan}}, "kappa"),
        ({"filter": {"w_deviation": math.nan}}, "w_deviation"),
        ({"filter": {"c_hard": math.inf}}, "c_hard"),
        ({"env_overrides": {"start": [math.nan, 5.0, 0.0]}}, "start"),
        ({"beliefs": {"tau": math.inf}}, "tau"),
        ({"family": [{"kind": "constant-velocity", "gamma": math.nan}]},
         "gamma"),
        ({"env_overrides": {"sigma_obs": math.inf}}, "sigma_obs"),
    ])
    def test_non_finite_parameter_refused_at_load(self, tmp_path, user,
                                                  named):
        # json reads NaN and Infinity; each of these loaded before.
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(user))
        with pytest.raises(ValueError, match=f"invalid config .*{named}"):
            load_config(p)

    def test_infinite_sensing_radius_accepted(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"env_overrides": {"sensing_radius":
                                                   math.inf}}))
        assert load_config(p)["env_overrides"]["sensing_radius"] == math.inf

    def test_env_override_obstacle_without_target_refused(self, tmp_path):
        # A null target used to load, and the blocker then moved to NaN.
        env, _ = build_environment("bottleneck", 0)
        obstacles = env.to_dict()["obstacles"]
        obstacles[0]["target"] = None
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"env_overrides": {"obstacles": obstacles}}))
        with pytest.raises(ValueError, match="invalid config .*needs target"):
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

    def test_fingerprint_leaves_out_the_suite_grid(self):
        a = load_config()
        b = load_config()
        b["suite"] = {"environments": ["open-space"],
                      "controllers": ["goal-pd"], "seeds": [3]}
        assert fingerprint(a) == fingerprint(b)

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
        assert params["family"] == default_family()

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

    @pytest.mark.parametrize("command", [["run", "--env", "open-space",
                                          "--controller", "goal-pd"],
                                         ["suite"]])
    def test_refused_config_is_one_line_exit_2(self, tmp_path, capsys,
                                               command):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"family": [{"kind": "static",
                                             "gamma": 0.5}]}))
        out = tmp_path / "out"
        assert main([*command, "--config", str(p), *(
            ["--out", str(out)] if command == ["suite"] else [])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"tailnav {command[0]}: error: invalid config")
        assert "gamma" in line
        assert not out.exists()

    def test_validate_defaults_are_the_planners(self):
        args = build_parser().parse_args(["validate"])
        planner = PlannerParams()
        assert (args.alpha, args.risk_weight, args.lattice_size) == (
            planner.alpha, planner.risk_weight,
            len(CommandLattice.default(1.0, 1.5).commands))

    def test_validate_small_run(self, capsys):
        code = main(["validate", "--samples", "200", "--alpha", "0.25",
                     "--trials", "20", "--lattice-size", "5"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports["uniform_cvar"]["passed"]
        assert reports["regret"]["passed"]

    @pytest.mark.parametrize("flag,value,named", [
        ("--trials", "0", "trials"), ("--samples", "0", "N"),
        ("--delta", "0", "delta"), ("--alpha", "0", "alpha"),
        ("--lattice-size", "0", "lattice_size"),
        ("--risk-weight", "-1", "risk_weight"),
    ])
    def test_validate_bad_argument_is_one_line_exit_2(self, capsys, flag,
                                                      value, named):
        assert main(["validate", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"tailnav validate: error: {named} must be")
