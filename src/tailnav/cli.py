"""Command-line entry points: single episodes, suites, replay, validation."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import DEFAULT_CONFIG, load_config
from .harness import load_records, replay, run_episode, run_suite
from .planner import CommandLattice, PlannerParams


def _refuse(args: argparse.Namespace, exc: Exception) -> int:
    """Report a refused argument or config as one line on stderr."""
    print(f"tailnav {args.command}: error: {exc}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        return _refuse(args, exc)
    record = run_episode(args.env, args.controller, args.seed, cfg)
    print(json.dumps(record.metrics.to_dict(), indent=2, sort_keys=True))
    if args.verbose:
        for row in record.rows:
            print("step=%d x=%.3f y=%.3f clearance=%.3f outcome=%s" % (
                row["step"], row["x"], row["y"], row["clearance"],
                row["outcome"]))
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        return _refuse(args, exc)
    out = Path(args.out)
    result = run_suite(cfg, out, workers=args.workers)
    print("wrote %d episode records under %s" % (result["n_episodes"], out))
    if result["n_failures"]:
        print("WARNING: %d episodes failed; see failures.json" %
              result["n_failures"], file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    records = load_records(Path(args.record))
    bad = 0
    for record in records:
        report = replay(record)
        if report["match"]:
            print("%s seed=%d: match" % (record.key(), record.seed))
        else:
            bad += 1
            print("%s seed=%d: DIVERGED at step %s" % (
                record.key(), record.seed, report["first_divergence"]))
    return 1 if bad else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation import check_prop_regret, check_prop_uniform_cvar

    common = dict(N=args.samples, alpha=args.alpha, delta=args.delta,
                  lattice_size=args.lattice_size, trials=args.trials,
                  seed=args.seed)
    try:  # regret first: it also checks risk_weight, so no work is wasted
        reports = {"regret": check_prop_regret(
                       risk_weight=args.risk_weight, **common).to_dict(),
                   "uniform_cvar": check_prop_uniform_cvar(**common).to_dict()}
    except ValueError as exc:
        return _refuse(args, exc)
    print(json.dumps(reports, indent=2, sort_keys=True))
    ok = all(r["passed"] for r in reports.values())
    return 0 if ok else 1


def _cmd_print_config(args: argparse.Namespace) -> int:
    print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailnav",
        description="Tail-risk navigation simulator and benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single episode")
    p_run.add_argument("--env", required=True)
    p_run.add_argument("--controller", required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run the benchmark grid")
    p_suite.add_argument("--config", default=None)
    p_suite.add_argument("--out", default="results")
    p_suite.add_argument("--workers", type=int, default=1)
    p_suite.set_defaults(func=_cmd_suite)

    p_replay = sub.add_parser("replay", help="verify a logged episode file")
    p_replay.add_argument("--record", required=True,
                          help="path to an episodes/*.jsonl file")
    p_replay.set_defaults(func=_cmd_replay)

    p_val = sub.add_parser("validate",
                           help="run the finite-sample bound checks")
    p_val.add_argument("--samples", type=int, default=500,
                       help="samples N per risk distribution")
    planner = PlannerParams()
    p_val.add_argument("--alpha", type=float, default=planner.alpha)
    p_val.add_argument("--delta", type=float, default=0.05)
    p_val.add_argument("--risk-weight", type=float,
                       default=planner.risk_weight)
    p_val.add_argument("--lattice-size", type=int, default=len(
        CommandLattice.default(1.0, 1.0).commands))
    p_val.add_argument("--trials", type=int, default=200)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate)

    p_cfg = sub.add_parser("print-config", help="dump the default config")
    p_cfg.set_defaults(func=_cmd_print_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
