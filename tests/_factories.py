"""Shared factories: a dataset's split and per-step learner inputs, and the
run-record tables and designs used by the stats tests."""

from operator import attrgetter

import numpy as np

from efcilab.scenario import partition_dataset
from efcilab.stats.design import (
    RECORD_VARIABLES,
    DesignMatrix,
    Formula,
    RecordTable,
    RunRecord,
    column_table,
)


def split_arrays(ds, train: bool):
    """``(features, labels)`` of the train rows of ``ds``, or of its test rows."""
    rows = ds.is_train if train else ~ds.is_train
    return ds.features[rows], ds.labels[rows]


def step_arrays(ds, sc):
    """Each step's ``(x, y, test_x, test_y)``: the train rows of step k and
    the cumulative test rows of steps 1..k."""
    step_of = partition_dataset(ds, sc)
    for k in range(1, sc.n_steps + 1):
        train = ds.is_train & (step_of == k)
        test = ~ds.is_train & (1 <= step_of) & (step_of <= k)
        yield ds.features[train], ds.labels[train], ds.features[test], ds.labels[test]


def design_from_arrays(x, y, labels=None) -> DesignMatrix:
    """A design over raw columns; column 0 is labelled the intercept."""
    p = x.shape[1]
    labels = labels or ["intercept"] + [f"x{i}" for i in range(1, p)]
    return DesignMatrix(
        formula=Formula("y", tuple(labels[1:])),
        y=np.asarray(y, dtype=float),
        x=np.asarray(x, dtype=float),
        column_labels=list(labels),
        term_columns={"intercept": [0], **{lab: [i] for i, lab in enumerate(labels[1:], 1)}},
        reference_levels={},
        levels={},
    )


def make_records(
    n,
    seed=0,
    train_levels=("byol", "dino", "scratch"),
    incr_levels=("dslda", "fetril"),
    data_levels=("d1", "d2"),
    train_effects=None,
    incr_effects=None,
    data_effects=None,
    acc1_coef=0.0,
    noise=0.05,
    response="avg_acc",
):
    """Records whose ``response`` column follows an additive factor model."""
    rng = np.random.default_rng(seed)
    train_effects = train_effects or {}
    incr_effects = incr_effects or {}
    data_effects = data_effects or {}
    records = []
    for i in range(n):
        train = train_levels[int(rng.integers(len(train_levels)))]
        incr = incr_levels[int(rng.integers(len(incr_levels)))]
        data = data_levels[int(rng.integers(len(data_levels)))]
        acc1 = float(rng.uniform(0.2, 0.9))
        y = (
            0.4
            + train_effects.get(train, 0.0)
            + incr_effects.get(incr, 0.0)
            + data_effects.get(data, 0.0)
            + acc1_coef * acc1
            + noise * float(rng.standard_normal())
        )
        other = float(rng.random())
        records.append(
            RunRecord(
                run_id=f"r{i:04d}",
                data=data,
                train=train,
                incr=incr,
                scenario_b=int(rng.integers(2)),
                n=20,
                n1=int(rng.integers(40, 400)),
                n_mean=float(rng.uniform(5, 25)),
                small=int(rng.integers(2)),
                width=float(rng.uniform(16, 96)),
                acc1=acc1,
                avg_acc=y if response == "avg_acc" else other,
                forgetting=y if response == "forgetting" else other,
                accK=float(rng.random()),
            )
        )
    return records


def record_table(records) -> RecordTable:
    """``RunRecord``s as the column table the stats functions take."""
    values = list(zip(*map(attrgetter(*RECORD_VARIABLES), records))) or [()] * len(RECORD_VARIABLES)
    return column_table(dict(zip(RECORD_VARIABLES, values)))


def make_table(n, seed=0, **kwargs) -> RecordTable:
    """``make_records(n, seed, **kwargs)`` as the column table the stats functions take."""
    return record_table(make_records(n, seed=seed, **kwargs))
