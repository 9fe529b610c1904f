"""Which tailnav functions the benchmark wraps, and the per-layer metrics
derived from what the wrappers saw.

Every function is wrapped in each module that calls it, because the
modules import names (``from .geometry import clearance``) rather than
looking them up through their home module.
"""

from __future__ import annotations

from types import SimpleNamespace

from bench_trace import Tracer

# Controller kinds that run the safety filter, and those that keep a
# posterior over conjectures.
FILTERED_KINDS = ("rcsp-full", "rcsp-fixed-predictor", "mean-risk-filter")
SCENARIO_KINDS = FILTERED_KINDS + ("cvar-only",)
# Kinds the workloads run, each reported on its own.
DECIDE_KINDS = ("rcsp-full", "dwa-style", "goal-pd")

CHECKS = ("check_prop_uniform_cvar", "check_prop_regret")

BELIEF_CALLS = ("beliefs.likelihood", "beliefs.update_posterior",
                "beliefs.track_obstacles")

# Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER_UNITS: dict[str, str] = {
    "planner.select_command.ms_mean": "ms",
    "planner.commands_scored": "count",
    "planner.reactive_rollouts": "count",
    "planner.empirical_cvar.calls": "count",
    "planner.empirical_cvar.ms_total": "ms",
    "scenarios.sample_batch.ms_mean": "ms",
    "scenarios.scenarios_sampled": "count",
    "scenarios.reactive_fraction": "ratio",
    "safety.apply_filter.ms_mean": "ms",
    "safety.filter_rollout.calls": "count",
    "safety.intervention_rate": "ratio",
    "beliefs.update.ms_mean": "ms",
    "beliefs.likelihood.calls": "count",
    **{f"controllers.decide.{k}.{m}": "ms"
       for k in DECIDE_KINDS for m in ("ms_mean", "self_ms_mean")},
    "world.step_world.ms_mean": "ms",
    "world.step_world.calls": "count",
    "world.observe.ms_mean": "ms",
    "geometry.clearance.calls": "count",
    "geometry.clearance.ms_total": "ms",
    "geometry.clearance_points.calls": "count",
    "geometry.clearance_points.ms_total": "ms",
    "geometry.step_unicycle.calls": "count",
    "harness.persist.ms_total": "ms",
    "harness.persist.bytes": "bytes",
    "harness.load_records.ms_total": "ms",
    "harness.replay.ms_per_step": "ms",
    **{f"validation.{c}.ms_per_trial": "ms" for c in CHECKS},
    "validation.mixture_cvar.calls": "count",
    "validation.mixture_cvar.ms_total": "ms",
    "validation.mixture_sample.ms_total": "ms",
    "config.load_config.ms": "ms",
    "tracing.overhead_pct": "%",
}


def import_tailnav() -> SimpleNamespace:
    """The tailnav modules whose attributes the benchmark wraps."""
    import tailnav
    from tailnav import (beliefs, config, controllers, geometry, harness,
                         planner, safety, scenarios, validation, world)
    return SimpleNamespace(
        package=tailnav, beliefs=beliefs, config=config,
        controllers=controllers, geometry=geometry, harness=harness,
        planner=planner, safety=safety, scenarios=scenarios,
        validation=validation, world=world)


def install_probes(tracer: Tracer, tn: SimpleNamespace, kind: str) -> None:
    """The calls every run times: decisions per controller kind and whole
    episodes.  `kind` is "timed" for an untraced run and "span" for a
    traced one."""
    tracer.wrap([(tn.controllers.Controller, "decide")], "controllers.decide",
                kind=kind, keep_durations=True,
                label=lambda a: "controllers.decide." + a[0].kind,
                on_return=_decision_counter(tracer))
    tracer.wrap([(tn.harness, "run_episode")], "harness.run_episode",
                kind=kind, keep_durations=True,
                on_return=_episode_counter(tracer))


def install_layers(tracer: Tracer, tn: SimpleNamespace) -> None:
    """Wrap every layer boundary the per-layer metrics are taken from."""
    install_probes(tracer, tn, "span")
    c = tracer.counters
    ctl, pl, sa, sc, wo, ha, va = (tn.controllers, tn.planner, tn.safety,
                                   tn.scenarios, tn.world, tn.harness,
                                   tn.validation)

    def scored(args, result):
        _u, scores = result
        c["planner.commands_scored"] += len(scores)
        reactive = sum(1 for s in args[2].scenarios if s.reactive)
        c["planner.reactive_rollouts"] += len(scores) * reactive

    def sampled(_args, batch):
        c["scenarios.scenarios_sampled"] += len(batch.scenarios)
        c["scenarios.reactive_sampled"] += sum(
            1 for s in batch.scenarios if s.reactive)

    tracer.wrap([(ha, "step_world")], "world.step_world", kind="span")
    tracer.wrap([(ctl, "select_command")], "planner.select_command",
                kind="span", on_return=scored)
    tracer.wrap([(ctl, "sample_batch")], "scenarios.sample_batch",
                kind="span", on_return=sampled)
    tracer.wrap([(ctl, "apply_filter")], "safety.apply_filter", kind="span")
    for fn in ("likelihood", "update_posterior", "track_obstacles"):
        tracer.wrap([(ctl, fn)], "beliefs." + fn, kind="span")
    tracer.wrap([(sa, "filter_rollout")], "safety.filter_rollout")
    tracer.wrap([(pl, "empirical_cvar"), (va, "empirical_cvar")],
                "planner.empirical_cvar")
    tracer.wrap([(ha, "observe"), (wo, "observe")], "world.observe")
    tracer.wrap([(wo, "clearance"), (ctl, "clearance")], "geometry.clearance")
    tracer.wrap([(pl, "clearance_points"), (sa, "clearance_points"),
                 (sc, "clearance_points")], "geometry.clearance_points")
    tracer.wrap([(wo, "step_unicycle"), (sc, "step_unicycle"),
                 (ctl, "step_unicycle")], "geometry.step_unicycle",
                kind="count")
    for fn in ("run_suite", "load_records", "replay"):
        tracer.wrap([(ha, fn)], "harness." + fn, kind="span")
    for fn in CHECKS:
        tracer.wrap([(va, fn)], "validation." + fn, kind="span",
                    on_return=_trial_counter(tracer, fn))
    tracer.wrap([(va.Mixture, "cvar")], "validation.mixture_cvar")
    tracer.wrap([(va.Mixture, "sample")], "validation.mixture_sample")


def _decision_counter(tracer: Tracer):
    c = tracer.counters

    def count(args, decision):
        kind = args[0].kind
        if kind in SCENARIO_KINDS:
            c["beliefs.decisions"] += 1
        if kind in FILTERED_KINDS:
            c["safety.filtered_decisions"] += 1
            if decision.command != decision.nominal:
                c["safety.interventions"] += 1
    return count


def _episode_counter(tracer: Tracer):
    c = tracer.counters
    episode = tracer.stats["harness.run_episode"]

    def count(_args, record):
        m = record.metrics
        c["episodes"] += 1
        c["episodes.steps"] += m.duration
        c["episodes.success"] += m.success
        c["episodes.collision"] += m.collision
        key = (record.env, record.controller, record.seed)
        tracer.samples["episodes"].append((key, episode.durations[-1],
                                           m.duration))
    return count


def _trial_counter(tracer: Tracer, check: str):
    def count(_args, report):
        tracer.counters[f"validation.{check}.trials"] += report.trials
    return count


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, load_config_ms: float,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer values from a traced run, keyed as in PER_LAYER_UNITS.

    Layers a workload does not reach report 0.
    """
    c = tr.counters
    m = {
        "planner.select_command.ms_mean": tr.mean_ms("planner.select_command"),
        "planner.commands_scored": c["planner.commands_scored"],
        "planner.reactive_rollouts": c["planner.reactive_rollouts"],
        "planner.empirical_cvar.calls": tr.calls("planner.empirical_cvar"),
        "planner.empirical_cvar.ms_total": tr.total_ms("planner.empirical_cvar"),
        "scenarios.sample_batch.ms_mean": tr.mean_ms("scenarios.sample_batch"),
        "scenarios.scenarios_sampled": c["scenarios.scenarios_sampled"],
        "scenarios.reactive_fraction": _ratio(
            c["scenarios.reactive_sampled"], c["scenarios.scenarios_sampled"]),
        "safety.apply_filter.ms_mean": tr.mean_ms("safety.apply_filter"),
        "safety.filter_rollout.calls": tr.calls("safety.filter_rollout"),
        "safety.intervention_rate": _ratio(
            c["safety.interventions"], c["safety.filtered_decisions"]),
        "beliefs.update.ms_mean": _ratio(
            sum(tr.total_ms(n) for n in BELIEF_CALLS), c["beliefs.decisions"]),
        "beliefs.likelihood.calls": tr.calls("beliefs.likelihood"),
        "world.step_world.ms_mean": tr.mean_ms("world.step_world"),
        "world.step_world.calls": tr.calls("world.step_world"),
        "world.observe.ms_mean": tr.mean_ms("world.observe"),
        "geometry.clearance.calls": tr.calls("geometry.clearance"),
        "geometry.clearance.ms_total": tr.total_ms("geometry.clearance"),
        "geometry.clearance_points.calls": tr.calls("geometry.clearance_points"),
        "geometry.clearance_points.ms_total": tr.total_ms(
            "geometry.clearance_points"),
        "geometry.step_unicycle.calls": c["geometry.step_unicycle.calls"],
        # Everything run_suite does besides running episodes: summarising
        # and writing the JSONL, CSV and summary files.
        "harness.persist.ms_total": tr.self_ms("harness.run_suite"),
        "harness.persist.bytes": c["harness.persist.bytes"],
        "harness.load_records.ms_total": tr.total_ms("harness.load_records"),
        "harness.replay.ms_per_step": _ratio(
            tr.total_ms("harness.replay"), c["harness.replay.steps"]),
        "validation.mixture_cvar.calls": tr.calls("validation.mixture_cvar"),
        "validation.mixture_cvar.ms_total": tr.total_ms(
            "validation.mixture_cvar"),
        "validation.mixture_sample.ms_total": tr.total_ms(
            "validation.mixture_sample"),
        "config.load_config.ms": load_config_ms,
        "tracing.overhead_pct": overhead_pct,
    }
    for k in DECIDE_KINDS:
        name = "controllers.decide." + k
        n = tr.calls(name)
        m[name + ".ms_mean"] = tr.mean_ms(name)
        m[name + ".self_ms_mean"] = _ratio(tr.self_ms(name), n)
    for fn in CHECKS:
        m[f"validation.{fn}.ms_per_trial"] = _ratio(
            tr.total_ms("validation." + fn), c[f"validation.{fn}.trials"])
    if set(m) != set(PER_LAYER_UNITS):
        raise RuntimeError(f"per-layer names out of step: "
                           f"{sorted(set(m) ^ set(PER_LAYER_UNITS))}")
    return {k: float(v) for k, v in m.items()}


def self_times(tr: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, calls, total ms, self ms) for every timed name."""
    return [(n, tr.calls(n), tr.total_ms(n), tr.self_ms(n))
            for n in sorted(tr.stats)]
