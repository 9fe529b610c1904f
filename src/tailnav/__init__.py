"""Deterministic 2D navigation simulator with tail-risk scenario planning."""

from .beliefs import (Conjecture, Posterior, default_family, likelihood,
                      track_obstacles, update_posterior)
from .config import DEFAULT_CONFIG, fingerprint, load_config
from .controllers import CONTROLLER_KINDS, Controller
from .geometry import (Disc, Pose, VelocityCommand, WallSegment, clearance,
                       goal_distance, normalize_angle, step_unicycle)
from .harness import EpisodeRecord, load_records, replay, run_episode, run_suite
from .planner import CommandLattice, PlannerParams, empirical_cvar, select_command
from .safety import FilterParams, apply_filter
from .scenarios import InformationState, sample_batch
from .validation import (cvar_oracle, check_prop_regret,
                         check_prop_uniform_cvar, paired_bootstrap)
from .world import EnvironmentConfig, build_environment, init_world, step_world

__version__ = "0.1.0"

__all__ = [
    "CONTROLLER_KINDS", "CommandLattice", "Conjecture", "Controller",
    "DEFAULT_CONFIG", "Disc", "EnvironmentConfig", "EpisodeRecord",
    "FilterParams", "InformationState", "PlannerParams", "Pose", "Posterior",
    "VelocityCommand", "WallSegment", "apply_filter", "build_environment",
    "clearance", "cvar_oracle", "check_prop_regret",
    "check_prop_uniform_cvar", "default_family", "empirical_cvar",
    "fingerprint", "goal_distance", "init_world", "likelihood",
    "load_config", "load_records", "normalize_angle",
    "paired_bootstrap", "replay", "run_episode", "run_suite", "sample_batch",
    "select_command", "step_unicycle", "step_world", "track_obstacles",
    "update_posterior",
]
