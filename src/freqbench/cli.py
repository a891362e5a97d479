"""Command line front end for running and comparing experiments.

Exit codes carry the verdict so the tool can sit in a shell pipeline:
0 means pass (or a comparison within budget), 1 means a threshold or
drift breach, 2 means the request itself was bad (invalid config,
unreadable run directory, an output path that is not a usable directory
or already holds records, a drift budget that is not a finite number
>= 0, mismatched experiments), 3 means a valid config could not be
run (the experiment raised, e.g. on a degenerate geometry, no admissible
tile family or no memory).  Errors print one ``error:`` line to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as ex


def _cmd_run(args) -> int:
    try:
        cfg = ex.load_config(args.config, seed=args.seed)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    records = os.path.join(args.out, "records.csv")
    if os.path.exists(records):
        print(f"error: {records} already exists; choose a fresh --out "
              "directory", file=sys.stderr)
        return 2
    fresh = not os.path.isdir(args.out)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as err:
        print(f"error: --out must be a directory: {err}", file=sys.stderr)
        return 2
    try:
        result = ex.run(cfg)
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as err:
        if fresh:
            os.rmdir(args.out)  # a failed run leaves no empty directory
        reason = str(err) or type(err).__name__  # a bare MemoryError is ""
        print(f"error: {cfg.kind} run failed: {reason}", file=sys.stderr)
        return 3
    ex.write_records(records, result.records)
    ex.write_summary(os.path.join(args.out, "summary.txt"), result)
    print(f"kind = {cfg.kind}")
    print(f"hash = {ex.config_hash(cfg)}")
    print(f"grid_n = {cfg.grid_n}")
    print(f"records = {len(result.records)}")
    print(f"elapsed_s = {result.elapsed:.3f}")
    print(f"passed = {str(result.passed).lower()}")
    for msg in result.failures:
        print(f"failure: {msg}")
    return 0 if result.passed else 1


def _cmd_compare(args) -> int:
    try:
        report = ex.compare_runs(args.baseline, args.current,
                                 budget=args.budget)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"status = {report.status}")
    print(f"worst_drift = {report.worst_drift:.6g}")
    for msg in report.breaches:
        print(f"breach: {msg}")
    return {"ok": 0, "rebaseline": 0, "drift": 1, "mismatch": 2}[report.status]


def _cmd_list(args) -> int:
    for kind, blurb in ex.experiment_kinds():
        print(f"{kind:14s} {blurb}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqbench",
        description="seeded numerical experiments on bilinear frequency "
                    "multipliers, tile forests and size functionals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("--config", required=True,
                       help="path to a 'key = value' config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default="runs",
                       help="directory for records.csv and summary.txt")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="floored relative drift between two run directories")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("current")
    p_cmp.add_argument("--budget", type=float, default=ex.DRIFT_BUDGET,
                       help="maximum allowed per-metric drift")
    p_cmp.set_defaults(func=_cmd_compare)

    p_list = sub.add_parser("list-experiments",
                            help="show every experiment kind")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
