"""Scenario splitting: sizes, disjointness, determinism, partitioning."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efcilab.datagen import SynthSpec, synth_features
from efcilab.scenario import ScenarioError, build_scenario, partition_dataset


def test_equal_split_100_classes_10_steps():
    sc = build_scenario(list(range(100)), "equal", 10, seed=7)
    assert sc.n_steps == 10
    assert [len(s) for s in sc.steps] == [10] * 10
    assert sc.initial_fraction == Fraction(1, 10)


def test_half_split_100_classes():
    sc = build_scenario(list(range(100)), "half", 10, seed=7)
    assert sc.n_steps == 11
    assert [len(s) for s in sc.steps] == [50] + [5] * 10
    assert sc.initial_fraction == Fraction(1, 2)


def test_equal_split_singletons():
    sc = build_scenario(list(range(10)), "equal", 10, seed=0)
    assert [len(s) for s in sc.steps] == [1] * 10
    assert sc.initial_fraction == Fraction(1, 10)


def test_divisibility_errors_name_counts():
    with pytest.raises(ScenarioError, match="7 classes over 3 steps"):
        build_scenario(list(range(7)), "equal", 3, seed=0)
    with pytest.raises(ScenarioError, match="even class count"):
        build_scenario(list(range(7)), "half", 3, seed=0)
    with pytest.raises(ScenarioError, match="remaining 5 classes"):
        build_scenario(list(range(10)), "half", 3, seed=0)
    with pytest.raises(ScenarioError, match="empty"):
        build_scenario([], "equal", 3, seed=0)
    with pytest.raises(ScenarioError, match="unknown scenario kind"):
        build_scenario(list(range(10)), "thirds", 5, seed=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_incr=st.integers(1, 8),
    per_step=st.integers(1, 6),
    kind=st.sampled_from(["equal", "half"]),
    seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
def test_steps_disjoint_and_cover_for_every_seed(n_incr, per_step, kind, seed):
    n = n_incr * per_step * (2 if kind == "half" else 1)
    ids = list(range(100, 100 + n))
    sc = build_scenario(ids, kind, n_incr, seed)
    flat = [c for step in sc.steps for c in step]
    assert sorted(flat) == sorted(ids)  # coverage, each exactly once
    assert len(set(flat)) == len(flat)  # disjoint
    assert sc.initial_fraction == Fraction(len(sc.steps[0]), n)


@pytest.fixture()
def small_dataset():
    return synth_features(
        SynthSpec(n_classes=10, dim=4, n_train=6, n_test=3, separation=2.0, seed=5)
    )


def test_partition_is_bijection_on_train_samples(small_dataset):
    sc = build_scenario(list(range(10)), "equal", 5, seed=1)
    views = partition_dataset(small_dataset, sc)
    total_train = sum(v.train_features.shape[0] for v in views)
    assert total_train == int(small_dataset.is_train.sum())
    seen = []
    for view, step in zip(views, sc.steps):
        assert set(np.unique(view.train_labels)) == set(step)
        seen.extend(view.train_labels.tolist())
    # each train sample lands in exactly one view
    train_labels = small_dataset.labels[small_dataset.is_train]
    assert sorted(seen) == sorted(train_labels.tolist())


def test_partition_cumulative_test_classes(small_dataset):
    sc = build_scenario(list(range(10)), "half", 5, seed=1)
    views = partition_dataset(small_dataset, sc)
    assert set(np.unique(views[0].test_labels)) == set(sc.steps[0])
    assert len(set(np.unique(views[0].test_labels))) == 5
    assert set(np.unique(views[-1].test_labels)) == set(range(10))


def test_partition_balanced_dataset_equal_views(small_dataset):
    sc = build_scenario(list(range(10)), "equal", 5, seed=3)
    views = partition_dataset(small_dataset, sc)
    for view in views:
        assert view.train_features.shape[0] == 12  # 2 classes x 6 train


def test_partition_sample_order_is_original_index(small_dataset):
    sc = build_scenario(list(range(10)), "equal", 5, seed=3)
    view = partition_dataset(small_dataset, sc)[2]
    idx = np.where(np.isin(small_dataset.labels, list(sc.steps[2])) & small_dataset.is_train)[0]
    assert np.array_equal(view.train_features, small_dataset.features[idx])


def test_partition_missing_class_error(small_dataset):
    sc = build_scenario(list(range(10)), "equal", 5, seed=3)
    keep = small_dataset.labels != 7
    trimmed = type(small_dataset)(
        name="trimmed",
        features=small_dataset.features[keep],
        labels=small_dataset.labels[keep],
        is_train=small_dataset.is_train[keep],
    )
    with pytest.raises(ScenarioError, match=r"missing classes: \[7\]"):
        partition_dataset(trimmed, sc)
