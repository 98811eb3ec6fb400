"""Command-line interface: pipeline, calibrate, simulate, verify."""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from pathlib import Path

from .auction import AuctionError
from .config import ConfigError, load_config
from .experiment import (
    ExperimentError,
    emit_tables,
    load_context,
    run_experiment,
    verify_run,
)
from .tables import cells


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phosmarket",
        description="Bootstrap scenario simulator for the distributed DAP/MAP market",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pipe = sub.add_parser("pipeline", help="compile raw CSV inputs into harmonized tables")
    p_pipe.add_argument("--raw-dir", type=Path, required=True)
    p_pipe.add_argument("--out-dir", type=Path, required=True)

    p_cal = sub.add_parser("calibrate", help="fit the demand and trade-cost regressions")
    p_cal.add_argument("--config", type=Path, required=True)

    p_sim = sub.add_parser("simulate", help="run the bootstrap experiment")
    p_sim.add_argument("--config", type=Path, required=True)
    p_sim.add_argument("--seed", type=int, help="override the master seed")
    p_sim.add_argument("--replications", type=int, help="override the replication count")
    p_sim.add_argument("--output-dir", help="override the output directory")
    p_sim.add_argument("--workers", type=int, help="override the worker count")

    p_ver = sub.add_parser(
        "verify", help="re-check sampled replications against the auction and certify minimality"
    )
    p_ver.add_argument("--config", type=Path, required=True)
    p_ver.add_argument(
        "--sample", type=int, default=20, help="evenly spaced replications to check (>= 1)"
    )
    return parser


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .pipeline import run_pipeline  # only this command reads raw data

    outputs = run_pipeline(args.raw_dir, args.out_dir)
    for name, path in sorted(outputs.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    context = load_context(config)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["fit", "key", "coef_1", "coef_2", "observations"])
    for fit in context.demand_fits:
        writer.writerow(cells(["demand", fit.region, fit.alpha, fit.beta, len(fit.u1)]))
    cost = context.cost_fit
    writer.writerow(
        cells(["trade_cost", config.reference_market, cost.gamma, None, len(cost.residuals)])
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.output_dir == "":  # Path("") would be the current directory
        raise ConfigError("--output-dir: empty value")
    config = load_config(args.config).with_overrides(
        seed=args.seed,
        replications=args.replications,
        output_dir=None if args.output_dir is None else Path(args.output_dir),
        workers=args.workers,
    )
    # the report is written once every replication has run: reject a place it cannot go now
    output_dir = Path(config.output_dir)
    for existing in (output_dir, *output_dir.parents):
        if os.path.lexists(existing):  # a dangling link too
            if not existing.is_dir():
                raise ConfigError(f"output_dir {output_dir}: {existing} is not a directory")
            break
    report = run_experiment(config)
    outputs = emit_tables(report, config.output_dir)
    print(f"scenario {config.scenario}: {config.replications} replications")
    print(f"rejected draws: {report.rejections}")
    for name, path in sorted(outputs.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    outcomes = verify_run(config, sample=args.sample)
    failures = 0
    for replication, auction_match, certificate_ok in outcomes:
        status = "ok" if auction_match and certificate_ok else "FAIL"
        if status == "FAIL":
            failures += 1
        print(
            f"replication {replication}: auction={auction_match} "
            f"certificate={certificate_ok} {status}"
        )
    if failures:
        print(f"{failures} of {len(outcomes)} sampled replications failed")
        return 2
    print(f"all {len(outcomes)} sampled replications verified")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Everything alive now (the modules, their classes, the parsed arguments)
    # lives until the process exits, so the collector need not traverse it
    # again: not in the interpreter's exit-time collections, and not in a
    # forked worker, where each traversal would write GC headers into pages
    # shared with the parent.  The collector stays on for the run's own objects.
    # Only the first call freezes: at a later call in the same process, the
    # earlier runs' uncollected garbage is alive too, and would never be freed.
    if not gc.get_freeze_count():
        gc.freeze()
    handlers = {
        "pipeline": _cmd_pipeline,
        "calibrate": _cmd_calibrate,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # ConfigError, PipelineError, CalibrationError, a malformed table
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExperimentError, AuctionError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
