"""Batch command-line interface.

Subcommands:
  simulate  one trial of a single-cell configuration; prints the iterate trace
  campaign  full Monte Carlo sweep; writes report.json / cells.csv / po_curve.csv
  crlb      CRLB diagonal for a single-cell configuration (both routes when quantized)
  compare   EM vs NR head-to-head on bit-identical trials; writes compare.json

Exit codes: 0 success, 2 configuration error, 3 a campaign cell had no
converged trial, 4 I/O failure, 5 a worker process of the sweep died.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .experiments import (
    CONFIG_SCHEMA,
    REFUSALS,
    WorkerDiedError,
    compare_em_nr,
    crlb_report,
    export_po_csv,
    export_report,
    export_trace_csv,
    load_config,
    run_campaign,
    run_trial,
)
from .field import PARAM_NAMES


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="key = value configuration file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument(
        "--format",
        choices=("json", "csv", "both"),
        default="both",
        help="which campaign artifacts to write (default: both)",
    )
    for row in CONFIG_SCHEMA:
        if row.flag is not None:
            option, metavar, *note = row.flag.split(maxsplit=2)
            parser.add_argument(
                option,
                dest=row.key,
                type=row.kind,
                metavar=metavar,
                help=" ".join([f"override {row.key}", *note]),
            )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fieldest",
        description="Distributed field-parameter estimation over noisy channels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="run one trial and print the iterate trace")
    p_sim.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
    _add_common(p_sim)
    _add_common(sub.add_parser("campaign", help="run the Monte Carlo sweep"))
    _add_common(sub.add_parser("crlb", help="compute the CRLB diagonal"))
    _add_common(sub.add_parser("compare", help="EM vs NR on matched trials"))
    return parser


def _overrides(args):
    given = vars(args)
    return {
        row.key: str(given[row.key]) for row in CONFIG_SCHEMA if given.get(row.key) is not None
    }


def _out_dir(args):
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_simulate(cfg, args):
    record = run_trial(cfg, args.trial)
    print(f"trial {record.trial}  seed {record.seed}  network {record.network_digest}")
    init = record.init.as_array()
    print("init: " + "  ".join(f"{n}={v:.6g}" for n, v in zip(PARAM_NAMES, init)))
    if record.result is None:
        print(f"estimation failed: {record.error}")
    else:
        result = record.result
        header = f"{'iter':>4}  " + "".join(f"{n:>12}" for n in PARAM_NAMES) + f"{'loglik':>18}"
        print(header)
        for it in range(result.trace.shape[0]):
            row = "".join(f"{v:12.6f}" for v in result.trace[it])
            print(f"{it:>4}  {row}{result.loglik_trace[it]:>18.6f}")
        status = "converged" if result.converged else f"diverged ({result.divergence_reason})"
        print(f"{status} after {result.iterations} iterations, SE = {record.se:.6g}")
    out = _out_dir(args)
    if out is not None:
        path = export_trace_csv(record, out / "trace.csv")
        print(f"wrote {path}")
    return 0


def _cmd_campaign(cfg, args):
    report = run_campaign(cfg)
    out = _out_dir(args) or Path(".")
    written = []
    if args.format in ("json", "both"):
        written.append(export_report(report, out / "report.json", fmt="json"))
    if args.format in ("csv", "both"):
        written.append(export_report(report, out / "cells.csv", fmt="csv"))
        written.append(export_po_csv(report, out / "po_curve.csv"))
    for path in written:
        print(f"wrote {path}")
    dead = [row for row in report["cells"] if row["all_diverged"]]
    if dead:
        for row in dead:
            key = {c: row[c] for c in ("k", "m", "snr_o_db", "snr_c_db", "region")}
            print(f"cell {key} had no converged trial", file=sys.stderr)
        return 3
    return 0


def _cmd_crlb(cfg, args):
    report = crlb_report(cfg)
    print(json.dumps(report, indent=2))
    out = _out_dir(args)
    if out is not None:
        print(f"wrote {export_report(report, out / 'crlb.json')}")
    return 0


def _cmd_compare(cfg, args):
    report = compare_em_nr(cfg)
    for row in report["cells"]:
        print(
            f"cell {row['cell']}: jointly converged {row['n_jointly_converged']}/{row['n_trials']}"
        )
        print(
            f"  mean iterations (joint): em={row['em_mean_iterations_joint']}"
            f"  nr={row['nr_mean_iterations_joint']}"
        )
        print(f"  median SE: em={row['em_median_se']:.6g}  nr={row['nr_median_se']:.6g}")
    out = _out_dir(args) or Path(".")
    path = export_report(report, out / "compare.json", fmt="json")
    print(f"wrote {path}")
    dead = [row for row in report["cells"] if row["em"]["all_diverged"] or row["nr"]["all_diverged"]]
    return 3 if dead else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        if args.command == "simulate":
            return _cmd_simulate(cfg, args)
        if args.command == "campaign":
            return _cmd_campaign(cfg, args)
        if args.command == "crlb":
            return _cmd_crlb(cfg, args)
        return _cmd_compare(cfg, args)
    except REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except WorkerDiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
