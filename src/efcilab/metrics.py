"""Evaluation metrics computed from an accuracy matrix.

Average incremental accuracy is the mean cumulative accuracy over steps
2..K (the initial model is excluded). Average forgetting weights the
initial subset by the class fraction b and spreads 1-b uniformly over
the incremental subsets; a subset's forgetting is the gap between its
best-ever accuracy and its final accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .learners import AccuracyMatrix

METRIC_NAMES = ("acc1", "avg_acc", "forgetting", "accK")


@dataclass(frozen=True)
class MetricSet:
    """The four per-run metrics."""

    acc1: float
    avg_acc: float
    forgetting: float
    accK: float


def avg_incremental_accuracy(matrix: AccuracyMatrix) -> float:
    """Mean cumulative accuracy over steps 2..K."""
    k = matrix.n_steps
    if k < 2:
        raise ValueError("average incremental accuracy is undefined for K < 2")
    return float(np.mean(matrix.cumulative[1:]))


def subset_forgetting(matrix: AccuracyMatrix, subset: int) -> float:
    """Best-ever minus final accuracy on one test subset (1-based)."""
    k = matrix.n_steps
    column = matrix.per_subset[subset - 1 : k, subset - 1]
    return float(np.max(column) - column[-1])


def avg_forgetting(matrix: AccuracyMatrix, b: Fraction | float) -> float:
    """Weighted mean of per-subset forgetting: b on subset 1, (1-b)/(K-1) on the rest."""
    k = matrix.n_steps
    if k < 2:
        raise ValueError("average forgetting is undefined for K < 2")
    b = float(b)
    if not (0.0 < b < 1.0):
        raise ValueError(f"initial class fraction must lie in (0, 1), got {b}")
    tail = sum(subset_forgetting(matrix, i) for i in range(2, k + 1))
    return b * subset_forgetting(matrix, 1) + (1.0 - b) / (k - 1) * tail


def initial_accuracy(matrix: AccuracyMatrix) -> float:
    """Accuracy of the first model on the first test subset."""
    return matrix.accuracy(1, 1)


def final_accuracy(matrix: AccuracyMatrix) -> float:
    """Accuracy of the last model on the full cumulative test set."""
    return matrix.cumulative_accuracy(matrix.n_steps)


def compute_metrics(matrix: AccuracyMatrix, b: Fraction | float) -> MetricSet:
    return MetricSet(
        acc1=initial_accuracy(matrix),
        avg_acc=avg_incremental_accuracy(matrix),
        forgetting=avg_forgetting(matrix, b),
        accK=final_accuracy(matrix),
    )


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise Pearson correlations with explicit undefined flags."""

    labels: tuple[str, ...]
    values: np.ndarray  # NaN where undefined
    defined: np.ndarray  # bool per label: column had nonzero variance

    def value(self, a: str, b: str) -> float:
        i, j = self.labels.index(a), self.labels.index(b)
        return float(self.values[i, j])


def metric_correlations(columns: np.ndarray) -> CorrelationMatrix:
    """Population Pearson correlations between the four metrics.

    ``columns`` is (n, 4), one column per metric in ``METRIC_NAMES`` order.
    Zero-variance metrics make their row and column undefined (NaN),
    never silently zero.
    """
    data = np.asarray(columns, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(METRIC_NAMES):
        raise ValueError(f"need one column per metric {METRIC_NAMES}, got shape {data.shape}")
    if len(data) < 3:
        raise ValueError(f"need at least 3 rows to correlate, got {len(data)}")
    centered = data - data.mean(axis=0)
    stds = data.std(axis=0)
    defined = stds > 0

    m = len(METRIC_NAMES)
    values = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(m):
            if defined[i] and defined[j]:
                values[i, j] = float(
                    np.mean(centered[:, i] * centered[:, j]) / (stds[i] * stds[j])
                )
    return CorrelationMatrix(labels=METRIC_NAMES, values=values, defined=defined)
