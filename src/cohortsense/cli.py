"""Command-line entry point: synth, replay, report, eval-oracle."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

from .core import ConfigError, EngineConfig, ValidationError, load_config
from .engine import CheckpointError, load, run_replay
from .oracles import dbscan_trials, gradient_max_rel_error
from .synthgen import (
    build_default_plan,
    build_default_profiles,
    generate_cohort,
    load_batches,
    load_plan,
    write_cohort,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cohortsense",
        description=(
            "Evolving group-aware loneliness detection over weekly "
            "behavioral-feature batches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic 10-week cohort")
    synth.add_argument("--seed", type=int, default=42)
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--plan", help="JSON plan file; defaults to the built-in plan")

    replay = sub.add_parser("replay", help="run the weekly replay over batch files")
    replay.add_argument("--config", help="EngineConfig JSON file")
    replay.add_argument("--data-dir", required=True)
    replay.add_argument("--out-dir", required=True)
    replay.add_argument("--checkpoint", help="write a checkpoint after each week")
    replay.add_argument("--resume", help="resume from a checkpoint; --config must match it")
    replay.add_argument("--plot", action="store_true", help="emit SVG metric charts")

    report = sub.add_parser("report", help="print one week's report")
    report.add_argument("--out-dir", required=True)
    report.add_argument("--week", type=int, required=True)

    oracle = sub.add_parser(
        "eval-oracle", help="run the slow brute-force verification suites"
    )
    oracle.add_argument(
        "--suite", choices=("dbscan", "gradients", "all"), default="all"
    )
    return parser


def _cmd_synth(args) -> int:
    plan = load_plan(args.plan) if args.plan else build_default_plan()
    profiles = build_default_profiles()
    batches = generate_cohort(plan, profiles, seed=args.seed)
    write_cohort(args.out_dir, batches, plan)
    print(
        f"wrote {len(batches)} weekly batches for {plan.total_participants} "
        f"participants to {args.out_dir}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_replay(args) -> int:
    config = load_config(args.config) if args.config else EngineConfig()
    batches = load_batches(args.data_dir)
    if args.resume:
        state = load(args.resume)
        if args.config and config != state.config:
            raise ConfigError(
                f"config {args.config} differs from the config in checkpoint {args.resume}"
            )
        batches = [b for b in batches if b.week > state.current_week]
        start: EngineConfig | object = state
    else:
        start = config
    reports, _ = run_replay(
        start,
        batches,
        out_dir=args.out_dir,
        checkpoint_path=args.checkpoint,
        plot=args.plot,
    )
    print(f"replayed {len(reports)} weeks into {args.out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.out_dir) / f"report_week_{args.week}.csv"
    if not path.exists():
        raise ValidationError(f"no report for week {args.week} in {args.out_dir}")
    lines = [f"week {args.week}"]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                scope = row["scope"] if not row["cohort"] else f"{row['scope']}:{row['cohort']}"
                lines.append(
                    f"  {scope:<20}{row['kind']:<14} acc={float(row['accuracy']):.3f} "
                    f"prec={float(row['precision']):.3f} rec={float(row['recall']):.3f} "
                    f"f1={float(row['f1']):.3f}"
                )
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise ValidationError(f"malformed report file {path}: {type(exc).__name__}: {exc}") from exc
    print("\n".join(lines))
    return EXIT_OK


def _oracle_dbscan() -> bool:
    ok = True
    start = time.monotonic()
    for trial, perm, registry, oracle in dbscan_trials(2024):
        if registry.partition() != oracle:
            print(f"dbscan trial {trial} perm {perm}: MISMATCH", file=sys.stderr)
            ok = False
    elapsed = time.monotonic() - start
    print(f"dbscan oracle: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)", file=sys.stderr)
    return ok


def _oracle_gradients() -> bool:
    worst = gradient_max_rel_error(7)
    ok = worst < 1e-4
    print(
        f"gradient oracle: {'PASS' if ok else 'FAIL'} (max rel err {worst:.2e})",
        file=sys.stderr,
    )
    return ok


def _cmd_eval_oracle(args) -> int:
    ok = True
    if args.suite in ("dbscan", "all"):
        ok &= _oracle_dbscan()
    if args.suite in ("gradients", "all"):
        ok &= _oracle_gradients()
    return EXIT_OK if ok else EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    handlers = {
        "synth": _cmd_synth,
        "replay": _cmd_replay,
        "report": _cmd_report,
        "eval-oracle": _cmd_eval_oracle,
    }
    try:
        return handlers[args.command](args)
    except (ValidationError, ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
