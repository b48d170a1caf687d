"""Workload definitions and their generated inputs.

Each workload is one `grid` call followed by one `analyze` call, on inputs
the benchmark generates from its seed:

- ``default``: the shipped grid (216 runs) at ``--jobs <nproc>``; the seed
  goes to ``--seed``. No input files.
- ``scale``: one 100-class, 512-d feature CSV written with ``synth_features``
  + ``save_features``, run by a four-learner file-dataset grid at ``--jobs 1``.
- ``analysis``: a 15,360-row results.csv drawn from an additive effects
  model, analysed by ``analyze``. Its grid call is a one-run grid at
  ``--jobs <nproc>``: the fixed cost of a `grid` call.

``tiny`` sizes of every workload run in seconds; the smoke test uses them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RESULTS_HEADER = (
    "run_id,data,train,incr,scenario_B,N,N1,n_mean,small,width,acc1,avg_acc,forgetting,accK"
)
LEARNERS = ("bsil", "dslda", "fetril", "ncm")


def shipped_hyperparams() -> dict:
    """The shipped grid's hyperparameters, so that a written config uses them too."""
    from efcilab.config import default_config

    return default_config().hyperparams


@dataclass(frozen=True)
class Plan:
    """What one cycle of a workload runs, once its inputs exist."""

    grid_args: list[str]  # `efcilab grid` arguments other than --jobs and --out
    jobs: int
    expected_runs: int  # rows the grid's results.csv must hold
    analyze_input: Path | None  # the results.csv `analyze` reads; None: the grid's
    analysis_ops: bool  # bundle sections count as operations


def _grid_config(datasets, strategies, learners, scenarios, steps, reps, seed, hyper):
    return {
        "datasets": datasets,
        "strategies": strategies,
        "learners": list(learners),
        "scenarios": list(scenarios),
        "n_incr_steps": steps,
        "repetitions": reps,
        "base_seed": seed,
        "hyperparams": hyper,
    }


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _expected_runs(cfg: dict) -> int:
    return (
        len(cfg["datasets"])
        * len(cfg["strategies"])
        * len(cfg["learners"])
        * len(cfg["scenarios"])
        * cfg["repetitions"]
    )


def make_default(work: Path, seed: int, size: str, nproc: int) -> Plan:
    if size == "full":
        return Plan(["--seed", str(seed)], nproc, 216, None, False)
    cfg = _grid_config(
        [{"name": "blobs12", "n_classes": 12, "dim": 8, "n_train": 6, "n_test": 4}],
        [{"name": "scratch", "separation": 1.5}, {"name": "ssl-pretrained", "separation": 3.0}],
        LEARNERS,
        ("equal", "half"),
        3,
        2,
        seed,
        shipped_hyperparams(),
    )
    _write_json(work / "grid.json", cfg)
    return Plan(["--config", str(work / "grid.json")], nproc, _expected_runs(cfg), None, False)


SCALE_SIZES = {
    # classes, dim, train and test samples per class, incremental steps
    "full": (100, 512, 15, 10, 10),
    "tiny": (10, 32, 6, 4, 2),
}


def make_scale(work: Path, seed: int, size: str, nproc: int) -> Plan:
    # imported per call, so that the traced pass sees its wrapped functions
    from efcilab.datagen import SynthSpec, save_features, synth_features

    n_classes, dim, n_train, n_test, steps = SCALE_SIZES[size]
    csv_path = work / "features512.csv"
    ds = synth_features(
        SynthSpec(
            n_classes=n_classes,
            dim=dim,
            n_train=n_train,
            n_test=n_test,
            separation=8.0,  # keeps every learner's accuracy well inside (0, 1) at 512-d
            strategy_tag="ingested",
            seed=seed,
            name="feat512",
        )
    )
    save_features(ds, csv_path)
    cfg = _grid_config(
        [{"name": "feat512", "kind": "file"}],
        [{"name": "ingested", "paths": {"feat512": str(csv_path)}}],
        LEARNERS,
        ("equal",),
        steps,
        1,
        seed,
        shipped_hyperparams(),
    )
    _write_json(work / "grid.json", cfg)
    return Plan(["--config", str(work / "grid.json")], 1, _expected_runs(cfg), None, False)


ANALYSIS_SIZES = {
    # datasets, strategies, repetitions (x 4 learners x 2 scenarios)
    "full": (8, 12, 20),
    "tiny": (3, 3, 3),
}


def effects_results_text(seed: int, size: str, version: str) -> str:
    """A results.csv drawn from an additive effects model with Gaussian noise."""
    n_data, n_strat, n_reps = ANALYSIS_SIZES[size]
    rng = np.random.default_rng(seed)
    data_names = [f"ds{i}" for i in range(n_data)]
    strat_names = [f"strat{j:02d}" for j in range(n_strat)]
    # centred, so that the grand mean does not move with the seed
    data_eff = rng.normal(0.0, 0.06, n_data)
    data_eff -= data_eff.mean()
    strat_eff = np.linspace(-0.10, 0.12, n_strat) + rng.normal(0.0, 0.01, n_strat)
    strat_eff -= strat_eff.mean() - 0.01
    incr_eff = {"bsil": -0.08, "dslda": 0.05, "fetril": 0.02, "ncm": 0.0}
    forget_eff = {"bsil": 0.20, "dslda": 0.03, "fetril": 0.06, "ncm": 0.04}
    n_classes = rng.choice([20, 50, 100], n_data)
    n_mean = rng.choice([10.0, 20.0, 50.0], n_data)
    small = rng.integers(0, 2, n_data)
    width = rng.choice([32.0, 64.0, 224.0], n_data)

    lines = [
        f"# efcilab-results version={version} config_hash=effects-model base_seed={seed}",
        RESULTS_HEADER,
    ]
    rows = []
    for d, data in enumerate(data_names):
        for s, strat in enumerate(strat_names):
            for incr in LEARNERS:
                for scen_b, scen in enumerate(("equal", "half")):
                    for rep in range(n_reps):
                        acc1 = 0.62 + data_eff[d] + 1.2 * strat_eff[s] + rng.normal(0.0, 0.03)
                        avg = (
                            0.50 + data_eff[d] + strat_eff[s] + incr_eff[incr] - 0.03 * scen_b
                            + 0.3 * (acc1 - 0.62) + rng.normal(0.0, 0.02)
                        )
                        forget = 0.10 + forget_eff[incr] + 0.04 * scen_b - 0.2 * strat_eff[s]
                        forget += rng.normal(0.0, 0.02)
                        acck = avg - 0.08 + rng.normal(0.0, 0.02)
                        acc1, avg, forget, acck = (
                            float(min(max(v, 0.0), 1.0)) for v in (acc1, avg, forget, acck)
                        )
                        n = int(n_classes[d])
                        n1 = int(n_mean[d] * (n // 2 if scen_b else n // 10))
                        rows.append(
                            (
                                f"{data}__{strat}__{incr}__{scen}__r{rep}",
                                data, strat, incr, scen_b, n, n1, float(n_mean[d]),
                                int(small[d]), float(width[d]), acc1, avg, forget, acck,
                            )
                        )
    rows.sort(key=lambda r: r[0])
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def make_analysis(work: Path, seed: int, size: str, nproc: int) -> Plan:
    import efcilab

    results = work / "effects_results.csv"
    results.write_text(effects_results_text(seed, size, efcilab.__version__), encoding="utf-8")
    cfg = _grid_config(
        [{"name": "blobs20", "n_classes": 20, "dim": 16, "n_train": 20, "n_test": 10}],
        [{"name": "scratch", "separation": 1.5}],
        ("ncm",),
        ("equal",),
        10,
        1,
        seed,
        {},
    )
    _write_json(work / "grid.json", cfg)
    return Plan(["--config", str(work / "grid.json")], nproc, 1, results, True)


WORKLOADS = {"default": make_default, "scale": make_scale, "analysis": make_analysis}
# workloads the command runs but BENCHMARK.json leaves out, and why
NOT_GATED = {
    "default": (
        "unsteady: a run has time for one shipped grid call (33-47 s at --jobs 2 on 2 cores), "
        "and over 5 seeds its interquartile range was 20% of the median under BLAS "
        "oversubscription, too wide for the largest allowed bound of 25%"
    ),
}
