"""Scenario splitting: sizes, disjointness, determinism, the step index of each row."""

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
    step_of = partition_dataset(small_dataset, sc)
    assert step_of.shape == small_dataset.labels.shape and step_of.dtype == np.int64
    train_steps = step_of[small_dataset.is_train]
    assert train_steps.min() == 1 and train_steps.max() == sc.n_steps
    # steps 1..K split the train rows: their counts add up to all of them
    counts = np.bincount(train_steps, minlength=sc.n_steps + 1)
    assert counts[0] == 0 and counts.sum() == int(small_dataset.is_train.sum())


def test_partition_step_rows_are_exactly_its_classes(small_dataset):
    sc = build_scenario(list(range(10)), "equal", 5, seed=3)
    step_of = partition_dataset(small_dataset, sc)
    for k, step in enumerate(sc.steps, start=1):
        assert np.array_equal(step_of == k, np.isin(small_dataset.labels, step))
        train = small_dataset.is_train & (step_of == k)
        assert set(small_dataset.labels[train].tolist()) == set(step)
        assert int(train.sum()) == 12  # 2 classes x 6 train


def test_partition_cumulative_test_classes(small_dataset):
    sc = build_scenario(list(range(10)), "half", 5, seed=1)
    step_of = partition_dataset(small_dataset, sc)
    for k in range(1, sc.n_steps + 1):
        test = ~small_dataset.is_train & (1 <= step_of) & (step_of <= k)
        seen = {c for step in sc.steps[:k] for c in step}
        assert set(small_dataset.labels[test].tolist()) == seen
        assert int(test.sum()) == 3 * len(seen)  # every test row of those classes


def test_partition_sample_order_is_original_index(small_dataset):
    # the index follows the rows as they stand: permuting them permutes it
    sc = build_scenario(list(range(10)), "equal", 5, seed=3)
    step_of = partition_dataset(small_dataset, sc)
    order = np.random.default_rng(0).permutation(small_dataset.n_samples)
    shuffled = type(small_dataset)(
        name="shuffled",
        features=small_dataset.features[order],
        labels=small_dataset.labels[order],
        is_train=small_dataset.is_train[order],
    )
    assert np.array_equal(partition_dataset(shuffled, sc), step_of[order])


def test_partition_gives_step_0_to_classes_outside_the_scenario(small_dataset):
    sc = build_scenario(list(range(6)), "equal", 3, seed=2)
    step_of = partition_dataset(small_dataset, sc)
    assert np.array_equal(step_of == 0, small_dataset.labels >= 6)


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
