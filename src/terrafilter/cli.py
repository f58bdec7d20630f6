"""Command-line entry point.

Subcommands:
  run    execute an experiment matrix from a JSON config
  table  render a metrics table from a reports csv
  synth  synthesize a scenario trace to csv

Exit codes: 0 success, 1 one or more cells or timing runs failed or an
unreadable reports file, 2 configuration error.
"""

import argparse
import os
import sys
from dataclasses import replace

from .bench import load_config, parse_scenario, read_json, run_experiments
from .exceptions import ConfigError, InvalidInputError, TerraFilterError
from .metrics import render_tables, reports_from_csv
from .scenario import synthesize, write_trace_csv

OUTPUT_DIR_ENV = "TERRAFILTER_OUTPUT_DIR"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="terrafilter",
        description="Benchmark adaptive waypoint filters on synthetic terrain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment matrix")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", help="output directory (overrides config and env)")
    p_run.add_argument("--no-traces", action="store_true",
                       help="skip per-cell trace and figure files")

    p_table = sub.add_parser("table", help="render a reports csv as a table")
    p_table.add_argument("reports", help="path to reports.csv")

    p_synth = sub.add_parser("synth", help="synthesize one scenario trace")
    p_synth.add_argument("scenario", help="path to a JSON scenario config")
    p_synth.add_argument("--out", required=True, help="output csv path")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or config.output_dir
    config = replace(config, output_dir=out_dir,
                     emit_traces=config.emit_traces and not args.no_traces)

    manifest = run_experiments(config)
    _print_tables(os.path.join(out_dir, "reports.csv"))
    failed = manifest.failed + manifest.timing_failed
    if failed:
        print(f"{len(failed)} failure(s):", file=sys.stderr)
        for c in failed:
            print(f"  {c.scenario_id}/{c.algorithm}/seed {c.seed}: {c.error}",
                  file=sys.stderr)
        return 1
    print(f"ok: {len(manifest.cells)} cells -> {out_dir}")
    return 0


def _print_tables(reports_path) -> None:
    """Print one median table per scenario of a reports csv."""
    with open(reports_path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{reports_path} is not UTF-8 text: {exc}") from exc
    print(render_tables(reports_from_csv(text)), end="")


def _cmd_table(args) -> int:
    _print_tables(args.reports)
    return 0


def _cmd_synth(args) -> int:
    trace = synthesize(parse_scenario(read_json(args.scenario)))
    write_trace_csv(trace, args.out)
    print(f"wrote {len(trace)} samples to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_synth(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TerraFilterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
