"""Metric definitions against brute-force oracles and hand values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efcilab.learners import AccuracyMatrix
from efcilab.metrics import (
    avg_forgetting,
    avg_incremental_accuracy,
    compute_metrics,
    final_accuracy,
    initial_accuracy,
    metric_correlations,
)


def brute_force_avg_acc(matrix: AccuracyMatrix) -> float:
    """Plain-loop transcription of the average-incremental-accuracy definition."""
    k = matrix.n_steps
    total = 0.0
    for step in range(2, k + 1):
        total += matrix.cumulative_accuracy(step)
    return total / (k - 1)


def brute_force_forgetting(matrix: AccuracyMatrix, b) -> float:
    """Plain-loop transcription of the weighted-forgetting definition."""
    k = matrix.n_steps

    def f(subset):
        best = -1.0
        for later in range(subset, k + 1):
            best = max(best, matrix.accuracy(later, subset))
        return best - matrix.accuracy(k, subset)

    tail = 0.0
    for subset in range(2, k + 1):
        tail += f(subset)
    return float(b) * f(1) + (1.0 - float(b)) / (k - 1) * tail


def random_matrix(rng, k: int) -> AccuracyMatrix:
    per_subset = np.full((k, k), np.nan)
    tri = np.tril_indices(k)
    per_subset[tri] = rng.random(len(tri[0]))
    return AccuracyMatrix(per_subset=per_subset, cumulative=rng.random(k))


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        k = int(rng.integers(2, 13))
        matrix = random_matrix(rng, k)
        b = Fraction(1, k)
        assert abs(avg_incremental_accuracy(matrix) - brute_force_avg_acc(matrix)) <= 1e-12
        assert abs(avg_forgetting(matrix, b) - brute_force_forgetting(matrix, b)) <= 1e-12


def test_avg_acc_constant_matrix():
    matrix = AccuracyMatrix(
        per_subset=np.tril(np.full((4, 4), 0.5)) + np.triu(np.full((4, 4), np.nan), 1),
        cumulative=np.full(4, 0.7),
    )
    assert avg_incremental_accuracy(matrix) == pytest.approx(0.7, abs=1e-15)


def test_avg_acc_hand_value_k3():
    matrix = AccuracyMatrix(
        per_subset=np.array([[0.9, np.nan, np.nan], [0.8, 0.7, np.nan], [0.6, 0.6, 0.6]]),
        cumulative=np.array([0.9, 0.8, 0.6]),
    )
    assert avg_incremental_accuracy(matrix) == pytest.approx(0.7, abs=1e-15)


def test_avg_acc_k2_single_term():
    matrix = AccuracyMatrix(
        per_subset=np.array([[1.0, np.nan], [0.4, 0.9]]), cumulative=np.array([1.0, 0.65])
    )
    assert avg_incremental_accuracy(matrix) == 0.65


def test_avg_acc_k1_undefined():
    matrix = AccuracyMatrix(per_subset=np.array([[0.8]]), cumulative=np.array([0.8]))
    with pytest.raises(ValueError, match="K < 2"):
        avg_incremental_accuracy(matrix)
    assert initial_accuracy(matrix) == 0.8
    assert final_accuracy(matrix) == 0.8


def test_forgetting_hand_value_k3():
    # subset-1 accuracies (0.9, 0.8, 0.7); subset-2 (0.85, 0.75); subset-3 final only
    matrix = AccuracyMatrix(
        per_subset=np.array(
            [[0.9, np.nan, np.nan], [0.8, 0.85, np.nan], [0.7, 0.75, 0.5]]
        ),
        cumulative=np.array([0.9, 0.8, 0.7]),
    )
    assert avg_forgetting(matrix, Fraction(1, 3)) == pytest.approx(0.1, abs=1e-15)


def test_forgetting_zero_when_final_attains_running_max():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        matrix = random_matrix(rng, k)
        per = matrix.per_subset
        for subset in range(k):
            per[k - 1, subset] = np.nanmax(per[subset:, subset])
        assert avg_forgetting(matrix, Fraction(1, k)) == 0.0


def test_final_subset_forgetting_always_zero():
    from efcilab.metrics import subset_forgetting

    rng = np.random.default_rng(6)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        matrix = random_matrix(rng, k)
        assert subset_forgetting(matrix, k) == 0.0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), num=st.integers(1, 99))
def test_forgetting_bounded_and_weights_sum_to_one(k, seed, num):
    rng = np.random.default_rng(seed)
    matrix = random_matrix(rng, k)
    b = Fraction(num, 100)
    value = avg_forgetting(matrix, b)
    assert 0.0 <= value <= 1.0
    # the subset weights sum to one, exactly, in rational arithmetic
    assert b + (k - 1) * (1 - b) / Fraction(k - 1) == 1


def test_forgetting_rejects_bad_b():
    matrix = random_matrix(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        avg_forgetting(matrix, 1.0)


def test_compute_metrics_bundles_all_four():
    matrix = AccuracyMatrix(
        per_subset=np.array([[0.9, np.nan], [0.5, 0.8]]), cumulative=np.array([0.9, 0.65])
    )
    ms = compute_metrics(matrix, Fraction(1, 2))
    assert ms.acc1 == 0.9
    assert ms.accK == 0.65
    assert ms.avg_acc == 0.65
    assert ms.forgetting == pytest.approx(0.5 * 0.4, abs=1e-15)


# ---------------------------------------------------------------------------
# Correlations


def test_duplicated_column_correlates_perfectly():
    rng = np.random.default_rng(1)
    a = rng.random(40)
    cols = np.column_stack([a, a, rng.random(40), rng.random(40)])
    corr = metric_correlations(cols)
    assert corr.value("acc1", "avg_acc") == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(corr.values, corr.values.T, equal_nan=True)
    assert np.allclose(np.diag(corr.values), 1.0)


def test_independent_columns_nearly_uncorrelated():
    rng = np.random.default_rng(2)
    cols = rng.random((1000, 4))
    corr = metric_correlations(cols)
    off = corr.values[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 0.1)


def test_zero_variance_column_flagged_undefined():
    rng = np.random.default_rng(3)
    cols = rng.random((30, 4))
    cols[:, 2] = 0.25
    corr = metric_correlations(cols)
    assert not corr.defined[2]
    assert np.all(np.isnan(corr.values[2, :]))
    assert np.all(np.isnan(corr.values[:, 2]))
    assert not np.any(np.isnan(corr.values[np.ix_([0, 1, 3], [0, 1, 3])]))


def test_correlations_need_three_rows():
    cols = np.random.default_rng(0).random((2, 4))
    with pytest.raises(ValueError, match="at least 3"):
        metric_correlations(cols)


def test_metrics_invariant_to_class_relabeling():
    # metrics depend only on the accuracy matrix, so a relabeled run that
    # produces the same matrix produces the same metrics
    matrix = random_matrix(np.random.default_rng(8), 5)
    same = AccuracyMatrix(per_subset=matrix.per_subset.copy(), cumulative=matrix.cumulative.copy())
    assert avg_incremental_accuracy(matrix) == avg_incremental_accuracy(same)
    assert avg_forgetting(matrix, 0.2) == avg_forgetting(same, 0.2)
