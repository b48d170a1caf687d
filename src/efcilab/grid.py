"""Experiment grid execution and results persistence.

The unit of work is a cell: one (data, strategy, repetition) triple. A
cell materializes or loads its dataset once, read-only, and runs every
learner x scenario combination on it, so all learners of a cell see
identical features. Datasets and scenarios are seeded from the base seed
plus their factor tuple, so the grid can grow without reshuffling
existing runs; the learners themselves are deterministic. Failures are
recorded per run and never abort the grid.
"""

from __future__ import annotations

import concurrent.futures
import csv
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import __version__
from .config import GridConfig, config_hash, stable_seed
from .datagen import FeatureDataset, SynthSpec, load_features, synth_features
from .learners import AccuracyMatrix, run_incremental
from .metrics import compute_metrics
from .scenario import build_scenario
from .stats.design import RunRecord

# (name, type) per RunRecord field: the one schema results.csv is written and parsed by
_RECORD_FIELDS = tuple((f.name, get_type_hints(RunRecord)[f.name]) for f in fields(RunRecord))
# header spelling of each field; three differ from the field names
RESULTS_COLUMNS = tuple(
    {"scenario_b": "scenario_B", "n": "N", "n1": "N1"}.get(name, name) for name, _ in _RECORD_FIELDS
)


class ResultsError(ValueError):
    """Raised for unreadable or inconsistent results files."""


@dataclass(frozen=True)
class RunSpec:
    data: str
    train: str
    incr: str
    scenario: str
    rep: int

    @property
    def run_id(self) -> str:
        return f"{self.data}__{self.train}__{self.incr}__{self.scenario}__r{self.rep}"


@dataclass
class RunFailure:
    run_id: str
    error: str


@dataclass
class ResultsTable:
    records: list[RunRecord]
    failures: list[RunFailure]
    config_hash: str
    base_seed: int
    version: str = __version__
    matrices: dict[str, AccuracyMatrix] | None = None


class LoadedResults(NamedTuple):
    """A parsed results.csv: its header tokens and one array per ``RunRecord``
    field, strings for the text fields and floats for the rest."""

    columns: dict[str, np.ndarray]
    config_hash: str
    base_seed: int
    version: str


def enumerate_runs(cfg: GridConfig) -> list[RunSpec]:
    specs = [
        RunSpec(data=d.name, train=s.name, incr=l, scenario=sc, rep=r)
        for d in cfg.datasets
        for s in cfg.strategies
        for l in cfg.learners
        for sc in cfg.scenarios
        for r in range(cfg.repetitions)
    ]
    return sorted(specs, key=lambda s: s.run_id)


def materialize_dataset(cfg: GridConfig, data_name: str, train_name: str, rep: int) -> FeatureDataset:
    """Read-only features for one (dataset, strategy, repetition) cell.

    The seed ignores the learner and scenario so that every learner is
    compared on identical features. The arrays are read-only because all
    runs of a cell share them.
    """
    ds_spec = cfg.dataset(data_name)
    strat = cfg.strategy(train_name)
    if ds_spec.kind == "synthetic":
        seed = stable_seed(cfg.base_seed, "dataset", data_name, train_name, rep)
        ds = synth_features(
            SynthSpec(
                n_classes=ds_spec.n_classes,
                dim=ds_spec.dim,
                n_train=ds_spec.n_train,
                n_test=ds_spec.n_test,
                separation=strat.separation,
                seed=seed,
                name=data_name,
            )
        )
    else:
        ds = load_features(strat.paths[data_name], name=data_name)
    for array in (ds.features, ds.labels, ds.is_train):
        array.setflags(write=False)
    return ds


def run_single(
    cfg: GridConfig, spec: RunSpec, ds: FeatureDataset
) -> tuple[RunRecord, AccuracyMatrix]:
    """Execute one run on its cell's dataset and assemble its results-table row."""
    sc_seed = stable_seed(cfg.base_seed, "scenario", spec.data, spec.scenario, spec.rep)
    sc = build_scenario(
        [int(c) for c in ds.class_ids], spec.scenario, cfg.n_incr_steps, sc_seed
    )
    matrix = run_incremental(spec.incr, ds, sc, cfg.hyperparams.get(spec.incr, {}))

    metrics = compute_metrics(matrix, sc.initial_fraction)
    n = len(ds.class_ids)
    n1 = int(np.isin(ds.labels[ds.is_train], sc.steps[0]).sum())
    ds_spec = cfg.dataset(spec.data)
    record = RunRecord(
        run_id=spec.run_id,
        data=spec.data,
        train=spec.train,
        incr=spec.incr,
        scenario_b=1 if spec.scenario == "half" else 0,
        n=n,
        n1=n1,
        n_mean=float(np.count_nonzero(ds.is_train) / n),
        small=int(bool(ds_spec.small)),
        width=float(ds_spec.width),
        acc1=metrics.acc1,
        avg_acc=metrics.avg_acc,
        forgetting=metrics.forgetting,
        accK=metrics.accK,
    )
    return record, matrix


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_cell(args: tuple[GridConfig, list[RunSpec]]):
    """Run every spec of one cell on one dataset; each failure stays with its run."""
    cfg, specs = args
    cell = specs[0]
    try:
        ds = materialize_dataset(cfg, cell.data, cell.train, cell.rep)
    except Exception as exc:  # the cell's runs all fail, the grid goes on
        return [(spec.run_id, None, None, _error_text(exc)) for spec in specs]
    outcomes = []
    for spec in specs:
        try:
            record, matrix = run_single(cfg, spec, ds)
            outcomes.append((spec.run_id, record, matrix, None))
        except Exception as exc:  # per-run isolation: the grid must not abort
            outcomes.append((spec.run_id, None, None, _error_text(exc)))
    return outcomes


def run_grid(cfg: GridConfig, jobs: int = 1) -> ResultsTable:
    """Execute every combination x repetition, one task per cell; collect records and failures."""
    cells: dict[tuple[str, str, int], list[RunSpec]] = {}
    for spec in enumerate_runs(cfg):
        cells.setdefault((spec.data, spec.train, spec.rep), []).append(spec)
    tasks = [(cfg, specs) for specs in cells.values()]
    workers = min(jobs, len(tasks))  # a pool for one cell only adds its start-up
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(_run_cell, tasks))
    else:
        per_cell = [_run_cell(t) for t in tasks]

    outcomes = sorted((o for cell in per_cell for o in cell), key=lambda o: o[0])
    records: list[RunRecord] = []
    failures: list[RunFailure] = []
    matrices: dict[str, AccuracyMatrix] = {}
    for run_id, record, matrix, error in outcomes:
        if error is None:
            records.append(record)
            matrices[run_id] = matrix
        else:
            failures.append(RunFailure(run_id=run_id, error=error))
    return ResultsTable(
        records=records,
        failures=failures,
        config_hash=config_hash(cfg),
        base_seed=cfg.base_seed,
        matrices=matrices,
    )


# ---------------------------------------------------------------------------
# Results CSV


def results_csv_text(table: ResultsTable) -> str:
    lines = [
        f"# efcilab-results version={table.version} "
        f"config_hash={table.config_hash} base_seed={table.base_seed}",
        ",".join(RESULTS_COLUMNS),
    ]
    for r in sorted(table.records, key=lambda r: r.run_id):
        values = (getattr(r, name) for name, _ in _RECORD_FIELDS)
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in values))
    return "\n".join(lines) + "\n"


def write_results(table: ResultsTable, out_dir: str | Path) -> Path:
    """Write results.csv, per-run accuracy matrices, and failures.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    results_path.write_text(results_csv_text(table), encoding="utf-8", newline="\n")
    if table.matrices:
        matrix_dir = out_dir / "matrices"
        matrix_dir.mkdir(exist_ok=True)
        for run_id in sorted(table.matrices):
            (matrix_dir / f"{run_id}.csv").write_text(
                table.matrices[run_id].to_csv_text(), encoding="utf-8", newline="\n"
            )
    if table.failures:
        # errors may hold commas and quotes; line breaks become spaces, one line per failure
        with open(out_dir / "failures.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("run_id", "error"))
            for f in sorted(table.failures, key=lambda f: f.run_id):
                writer.writerow((f.run_id, " ".join(f.error.splitlines())))
    return results_path


def load_results(path: str | Path) -> LoadedResults:
    """Parse a results.csv produced by ``write_results`` into one array per column."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = {"config_hash": "", "base_seed": 0, "version": ""}
    first_row = 2  # file line number of the first data row
    if lines and lines[0].startswith("#"):
        first_row = 3
        for token in lines[0].lstrip("# ").split():
            if "=" in token:
                key, val = token.split("=", 1)
                if key in ("config_hash", "version"):
                    meta[key] = val
                elif key == "base_seed":
                    try:
                        meta[key] = int(val)
                    except ValueError:
                        raise ResultsError(f"{path}:1: invalid header token {token!r}") from None
        lines = lines[1:]
    if not lines or lines[0].split(",") != list(RESULTS_COLUMNS):
        raise ResultsError(f"{path}: missing or wrong header; expected {','.join(RESULTS_COLUMNS)}")
    width = len(RESULTS_COLUMNS)
    rows = list(filter(str.strip, lines[1:]))  # blank lines are skipped
    fields = ",".join(rows).split(",") if rows else []
    try:
        if any(row.count(",") != width - 1 for row in rows):
            raise ValueError("wrong field count")
        columns = {
            name: np.array(fields[j::width], dtype=str)
            if kind is str
            else np.fromiter(map(kind, fields[j::width]), dtype=float, count=len(rows))
            for j, (name, kind) in enumerate(_RECORD_FIELDS)
        }
    except ValueError:
        _raise_first_bad_row(path, lines[1:], first_row)
        raise
    return LoadedResults(columns, meta["config_hash"], meta["base_seed"], meta["version"])


def _raise_first_bad_row(path: Path, lines: list[str], first_row: int) -> None:
    """Raise the ResultsError of the first data line that does not parse."""
    width = len(RESULTS_COLUMNS)
    for lineno, line in enumerate(lines, start=first_row):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ResultsError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
        for (_, kind), part in zip(_RECORD_FIELDS, parts):
            try:
                kind(part)
            except ValueError as exc:
                raise ResultsError(f"{path}:{lineno}: {exc}") from None
