"""Experiment grid execution and results persistence.

Datasets and scenarios are seeded from the base seed plus their factor
tuple, so the grid can grow without reshuffling existing runs, and all
learners of one (data, strategy, repetition) cell see identical
features; the learners themselves are deterministic. Failures are
recorded per run and never abort the grid.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .config import GridConfig, config_hash, stable_seed
from .datagen import FeatureDataset, SynthSpec, dataset_stats, load_features, synth_features
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
    """Features for one (dataset, strategy, repetition) cell.

    The seed ignores the learner and scenario so that every learner is
    compared on identical features.
    """
    ds_spec = cfg.dataset(data_name)
    strat = cfg.strategy(train_name)
    if ds_spec.kind == "synthetic":
        seed = stable_seed(cfg.base_seed, "dataset", data_name, train_name, rep)
        return synth_features(
            SynthSpec(
                n_classes=ds_spec.n_classes,
                dim=ds_spec.dim,
                n_train=ds_spec.n_train,
                n_test=ds_spec.n_test,
                separation=strat.separation,
                strategy_tag=train_name,
                seed=seed,
                name=data_name,
            )
        )
    return load_features(
        strat.paths[data_name],
        name=data_name,
        meta={"small": ds_spec.small, "width": ds_spec.width, "strategy": train_name},
    )


def run_single(cfg: GridConfig, spec: RunSpec) -> tuple[RunRecord, AccuracyMatrix]:
    """Execute one grid cell and assemble its results-table row."""
    ds = materialize_dataset(cfg, spec.data, spec.train, spec.rep)
    sc_seed = stable_seed(cfg.base_seed, "scenario", spec.data, spec.scenario, spec.rep)
    sc = build_scenario(
        [int(c) for c in ds.class_ids], spec.scenario, cfg.n_incr_steps, sc_seed
    )
    matrix = run_incremental(spec.incr, ds, sc, cfg.hyperparams.get(spec.incr, {}))

    stats = dataset_stats(ds)
    metrics = compute_metrics(matrix, sc.initial_fraction)
    train_labels = ds.labels[ds.is_train]
    n1 = int(sum(int((train_labels == c).sum()) for c in sc.steps[0]))
    record = RunRecord(
        run_id=spec.run_id,
        data=spec.data,
        train=spec.train,
        incr=spec.incr,
        scenario_b=1 if spec.scenario == "half" else 0,
        n=stats.n_classes,
        n1=n1,
        n_mean=stats.n_mean,
        small=int(stats.small),
        width=stats.width,
        acc1=metrics.acc1,
        avg_acc=metrics.avg_acc,
        forgetting=metrics.forgetting,
        accK=metrics.accK,
    )
    return record, matrix


def _run_single_safe(args: tuple[GridConfig, RunSpec]):
    cfg, spec = args
    try:
        record, matrix = run_single(cfg, spec)
        return spec.run_id, record, matrix, None
    except Exception as exc:  # per-run isolation: the grid must not abort
        return spec.run_id, None, None, f"{type(exc).__name__}: {exc}"


def run_grid(cfg: GridConfig, jobs: int = 1) -> ResultsTable:
    """Execute every combination x repetition; collect records and failures."""
    specs = enumerate_runs(cfg)
    tasks = [(cfg, s) for s in specs]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_single_safe, tasks))
    else:
        outcomes = [_run_single_safe(t) for t in tasks]

    outcomes.sort(key=lambda o: o[0])
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


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def results_csv_text(table: ResultsTable) -> str:
    lines = [
        f"# efcilab-results version={table.version} "
        f"config_hash={table.config_hash} base_seed={table.base_seed}",
        ",".join(RESULTS_COLUMNS),
    ]
    for r in sorted(table.records, key=lambda r: r.run_id):
        lines.append(",".join(_format_value(getattr(r, name)) for name, _ in _RECORD_FIELDS))
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
        fail_lines = ["run_id,error"]
        for f in sorted(table.failures, key=lambda f: f.run_id):
            fail_lines.append(f"{f.run_id},{f.error.replace(chr(10), ' ')}")
        (out_dir / "failures.csv").write_text(
            "\n".join(fail_lines) + "\n", encoding="utf-8", newline="\n"
        )
    return results_path


def load_results(path: str | Path) -> ResultsTable:
    """Parse a results.csv produced by ``write_results``."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = {"config_hash": "", "base_seed": 0, "version": ""}
    if lines and lines[0].startswith("#"):
        for token in lines[0].lstrip("# ").split():
            if "=" in token:
                key, val = token.split("=", 1)
                if key in ("config_hash", "version"):
                    meta[key] = val
                elif key == "base_seed":
                    meta[key] = int(val)
        lines = lines[1:]
    if not lines or lines[0].split(",") != list(RESULTS_COLUMNS):
        raise ResultsError(f"{path}: missing or wrong header; expected {','.join(RESULTS_COLUMNS)}")
    records = []
    for lineno, line in enumerate(lines[1:], start=3 if meta["version"] else 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(RESULTS_COLUMNS):
            raise ResultsError(
                f"{path}:{lineno}: expected {len(RESULTS_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            records.append(
                RunRecord(**{name: kind(part) for (name, kind), part in zip(_RECORD_FIELDS, parts)})
            )
        except ValueError as exc:
            raise ResultsError(f"{path}:{lineno}: {exc}") from None
    return ResultsTable(
        records=records,
        failures=[],
        config_hash=meta["config_hash"],
        base_seed=meta["base_seed"],
        version=meta["version"],
    )
