"""Command-line interface: synth, run, grid, analyze, report.

Exit codes: 0 success, 1 usage/config error, 2 grid completed with
failures, 3 analysis infeasible.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .analyze import AnalysisError, build_report_bundle
from .config import GridConfig, config_hash, default_config, load_config, write_config
from .datagen import save_features
from .grid import (
    ResultsTable,
    RunSpec,
    load_results,
    materialize_dataset,
    run_grid,
    run_single,
    write_results,
)
from .learners import LearnerError
from .report import load_bundle_json, render_bundle, report_formats, write_bundle_json
from .stats.design import column_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_INFEASIBLE = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < 1:  # also false for NaN
        raise argparse.ArgumentTypeError(f"expected a number strictly between 0 and 1, got {text!r}")
    return value


def _formats(text: str) -> set[str]:
    try:
        return report_formats(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_config_arg(args) -> GridConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=args.seed)
    return cfg


def _write_used_config(cfg: GridConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out_dir / "config.used.yaml")


def cmd_synth(args) -> int:
    cfg = _load_config_arg(args)
    out_dir = Path(args.out)
    feature_dir = out_dir / "features"
    feature_dir.mkdir(parents=True, exist_ok=True)
    _write_used_config(cfg, out_dir)
    for ds_spec in cfg.datasets:
        if ds_spec.kind != "synthetic":
            continue
        for strat in cfg.strategies:
            ds = materialize_dataset(cfg, ds_spec.name, strat.name, rep=0)
            path = feature_dir / f"{ds_spec.name}__{strat.name}.csv"
            save_features(ds, path)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config_arg(args)
    spec = RunSpec(
        data=args.data, train=args.train, incr=args.incr, scenario=args.scenario, rep=args.rep
    )
    ds = materialize_dataset(cfg, spec.data, spec.train, spec.rep)
    record, matrix = run_single(cfg, spec, ds)
    print(
        f"{record.run_id}: acc1={record.acc1:.4f} avg_acc={record.avg_acc:.4f} "
        f"forgetting={record.forgetting:.4f} accK={record.accK:.4f}"
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_used_config(cfg, out_dir)
        table = ResultsTable(
            records=[record],
            failures=[],
            config_hash=config_hash(cfg),
            base_seed=cfg.base_seed,
            matrices={record.run_id: matrix},
        )
        write_results(table, out_dir)
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg = _load_config_arg(args)
    table = run_grid(cfg, jobs=args.jobs)
    out_dir = Path(args.out)
    _write_used_config(cfg, out_dir)
    results_path = write_results(table, out_dir)
    print(f"wrote {results_path} ({len(table.records)} runs, {len(table.failures)} failures)")
    for failure in table.failures:
        print(f"FAILED {failure.run_id}: {failure.error}", file=sys.stderr)
    return EXIT_PARTIAL if table.failures else EXIT_OK


def cmd_analyze(args) -> int:
    loaded = [load_results(path) for path in args.results]
    hashes = [results.config_hash for results in loaded]
    if len(set(hashes)) > 1 and not args.force_mixed:
        print(
            f"error: results files carry different config hashes {sorted(set(hashes))}; "
            f"pass --force-mixed to combine them anyway",
            file=sys.stderr,
        )
        return EXIT_USAGE
    table = column_table(*(results.columns for results in loaded))
    bundle = build_report_bundle(
        table, alpha=args.alpha, config_hash=hashes[0] if len(set(hashes)) == 1 else "mixed"
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bundle_json(bundle, out_dir / "bundle.json")
    written = render_bundle(bundle, out_dir, args.formats)
    print(f"wrote bundle.json and {len(written)} report files to {out_dir}")
    for warning in bundle["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    bundle = load_bundle_json(args.bundle)
    written = render_bundle(bundle, Path(args.out), args.formats)
    print(f"wrote {len(written)} report files to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efcilab",
        description="Exemplar-free class-incremental learning lab over feature embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--config", help="grid config (YAML or JSON); defaults to the shipped grid")
        p.add_argument("--seed", type=int, default=None, help="override the config base seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    def add_formats(p):
        p.add_argument(
            "--formats", type=_formats, help="comma-separated subset of csv,md,svg (default all)"
        )

    p_synth = sub.add_parser("synth", help="write feature CSVs for the configured synthetic datasets")
    add_common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run a single (data, train, incr, scenario, rep) cell")
    add_common(p_run, needs_out=False)
    p_run.add_argument("--out", help="optional output directory for the accuracy matrix")
    p_run.add_argument("--data", required=True)
    p_run.add_argument("--train", required=True)
    p_run.add_argument("--incr", required=True)
    p_run.add_argument("--scenario", required=True, choices=("equal", "half"))
    p_run.add_argument("--rep", type=int, default=0)
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("grid", help="run the full experiment grid")
    add_common(p_grid)
    p_grid.add_argument(
        "--jobs",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes (default: logical cores)",
    )
    p_grid.set_defaults(func=cmd_grid)

    p_an = sub.add_parser("analyze", help="build the statistical report from results files")
    p_an.add_argument("--results", nargs="+", required=True, help="one or more results.csv files")
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--alpha", type=_alpha, default=0.05, help="significance level (default 0.05)")
    add_formats(p_an)
    p_an.add_argument(
        "--force-mixed", action="store_true", help="combine results files with different config hashes"
    )
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report", help="re-render report files from a saved bundle.json")
    p_rep.add_argument("--bundle", required=True)
    p_rep.add_argument("--out", required=True)
    add_formats(p_rep)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error status 2 means a partial grid here
        raise SystemExit(EXIT_USAGE if exc.code == 2 else exc.code) from None
    try:
        return args.func(args)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, LearnerError, OSError) as exc:
        # covers config, results, scenario and dataset errors, and any file
        # that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
