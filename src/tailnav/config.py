"""Single-document JSON configuration with per-module parameter blocks."""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from .beliefs import BeliefParams, Conjecture, default_family
from .controllers import CONTROLLER_KINDS
from .planner import PlannerParams
from .safety import ENV_FIELDS, FilterParams
from .world import EnvironmentConfig, build_environment

SCHEMA_VERSION = 1

DEFAULT_CONFIG: dict = {
    "schema_version": SCHEMA_VERSION,
    "suite": {
        "environments": ["bottleneck", "warehouse-squeeze"],
        "controllers": ["rcsp-full", "dwa-style"],
        "seeds": [0, 1, 2, 3, 4, 5],
    },
    "planner": asdict(PlannerParams()),
    "filter": {k: v for k, v in asdict(FilterParams()).items()
               if k not in ENV_FIELDS},
    "beliefs": asdict(BeliefParams()),
    "family": [asdict(c) for c in default_family()],
    "env_overrides": {},
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def load_config(path: str | Path | None = None) -> dict:
    """Defaults merged with an optional JSON config file.

    The suite grid is checked and the parameter blocks and the family are
    built once here, so a stale or mistyped key or a kind or environment
    that does not exist fails at load time rather than in every episode.
    """
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path) as f:
        user = json.load(f)
    config = _merge(DEFAULT_CONFIG, user)
    try:
        unknown = sorted(set(user) - set(DEFAULT_CONFIG))
        if unknown:
            raise ValueError(f"unknown top-level keys {unknown}")
        check_suite(config)
        # The filter defaults stand in for the environment-supplied fields.
        controller_params(config, FilterParams())
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid config {path}: {exc}") from exc
    return config


def check_suite(config: dict) -> None:
    """Reject a suite grid or env_overrides entry that cannot run as meant."""
    suite = config["suite"]
    unknown = sorted(set(suite) - set(DEFAULT_CONFIG["suite"]))
    if unknown:
        raise ValueError(f"unknown suite keys {unknown}")
    envs, controllers, seeds = (suite["environments"], suite["controllers"],
                                suite["seeds"])
    if not envs or not controllers or not seeds:
        raise ValueError("suite lists must be nonempty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("suite seeds must be distinct")
    bad = sorted(set(controllers) - set(CONTROLLER_KINDS))
    if bad:
        raise ValueError(f"unknown controller kinds {bad}")
    for name in envs:
        for seed in seeds:
            build_episode_env(name, seed, config)


def build_episode_env(env_name: str, seed: int, config: dict) -> EnvironmentConfig:
    """The named environment with the config's env_overrides applied."""
    env_cfg, _state = build_environment(env_name, seed)
    overrides = config.get("env_overrides", {})
    if overrides:
        d = env_cfg.to_dict()
        d.update(overrides)
        env_cfg = EnvironmentConfig.from_dict(d)
    return env_cfg


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def controller_params(config: dict, env) -> dict:
    """Controller's keyword arguments, built from the config's blocks."""
    return {
        "planner_params": PlannerParams(**config["planner"]),
        "filter_params": FilterParams.for_env(env, **config["filter"]),
        "belief_params": BeliefParams(**config["beliefs"]),
        "family": tuple(Conjecture(**d) for d in config["family"]),
    }
