"""Single-document JSON configuration with per-module parameter blocks."""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from .beliefs import BeliefParams, Conjecture, default_family
from .planner import PlannerParams
from .safety import ENV_FIELDS, FilterParams

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
    "family": [c.to_dict() for c in default_family()],
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

    The parameter blocks and the family are built once here, so a stale
    or mistyped key fails at load time rather than in every episode.
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
        planner_params_from_config(config)
        # The filter defaults stand in for the environment-supplied fields.
        filter_params_from_config(config, FilterParams())
        belief_params_from_config(config)
        family_from_config(config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid config {path}: {exc}") from exc
    return config


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def family_from_config(config: dict) -> tuple[Conjecture, ...]:
    return tuple(Conjecture.from_dict(d) for d in config["family"])


def planner_params_from_config(config: dict) -> PlannerParams:
    return PlannerParams(**config["planner"])


def filter_params_from_config(config: dict, env) -> FilterParams:
    return FilterParams.for_env(env, **config["filter"])


def belief_params_from_config(config: dict) -> BeliefParams:
    return BeliefParams(**config["beliefs"])
