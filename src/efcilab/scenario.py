"""Class-to-step assignment for incremental learning streams.

A scenario splits a class set into K disjoint steps. Two layouts are
supported: ``equal`` (classes spread evenly over the incremental steps)
and ``half`` (half of the classes in the first step, the rest spread
evenly). The initial-class fraction ``b`` is kept as an exact fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

_SEED_MASK = (1 << 64) - 1


class ScenarioError(ValueError):
    """Raised for infeasible scenario requests (divisibility, empty inputs)."""


@dataclass(frozen=True)
class Scenario:
    """Assignment of classes to K disjoint, ordered steps."""

    kind: str
    steps: tuple[tuple[int, ...], ...]

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(c for step in self.steps for c in step)

    @property
    def initial_fraction(self) -> Fraction:
        """Share of all classes that the first step holds, exact."""
        return Fraction(len(self.steps[0]), len(self.class_ids))

    def classes_up_to(self, k: int) -> frozenset[int]:
        """Classes of steps 1..k (k is 1-based)."""
        return frozenset(c for step in self.steps[:k] for c in step)


@dataclass(frozen=True)
class StepView:
    """Data visible at one step: current-step train, cumulative test."""

    step_index: int  # 1-based
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray  # cumulative over steps 1..step_index
    test_labels: np.ndarray


def build_scenario(
    class_ids: Sequence[int],
    kind: str,
    n_incr_steps: int,
    seed: int,
) -> Scenario:
    """Split ``class_ids`` into steps after a seeded shuffle.

    ``equal`` yields ``n_incr_steps`` steps of identical size. ``half``
    yields ``n_incr_steps + 1`` steps: half of the classes first, the
    other half spread evenly over the incremental steps. Sizes must
    divide exactly; remainders are rejected.
    """
    ids = list(class_ids)
    if not ids:
        raise ScenarioError("class list is empty")
    if len(set(ids)) != len(ids):
        raise ScenarioError("class ids contain duplicates")
    if n_incr_steps < 1:
        raise ScenarioError(f"n_incr_steps must be >= 1, got {n_incr_steps}")

    n = len(ids)
    if kind == "equal":
        if n % n_incr_steps != 0:
            raise ScenarioError(
                f"equal scenario needs |classes| divisible by the step count: "
                f"{n} classes over {n_incr_steps} steps"
            )
        sizes = [n // n_incr_steps] * n_incr_steps
    elif kind == "half":
        if n % 2 != 0:
            raise ScenarioError(f"half scenario needs an even class count, got {n}")
        rest = n // 2
        if rest % n_incr_steps != 0:
            raise ScenarioError(
                f"half scenario needs the remaining {rest} classes divisible by "
                f"the step count {n_incr_steps}"
            )
        sizes = [n // 2] + [rest // n_incr_steps] * n_incr_steps
    else:
        raise ScenarioError(f"unknown scenario kind {kind!r} (expected 'equal' or 'half')")

    rng = np.random.default_rng(seed & _SEED_MASK)
    order = rng.permutation(n)
    shuffled = [ids[i] for i in order]

    steps: list[tuple[int, ...]] = []
    pos = 0
    for size in sizes:
        steps.append(tuple(shuffled[pos : pos + size]))
        pos += size
    return Scenario(kind=kind, steps=tuple(steps))


def partition_dataset(ds, sc: Scenario) -> list[StepView]:
    """Materialize the per-step views of ``ds`` under scenario ``sc``.

    Each view holds the current step's train samples and the cumulative
    test samples of all steps so far, in original row order. Every class
    of the scenario must have at least one train and one test sample.
    """
    present_train = set(np.unique(ds.labels[ds.is_train]).tolist())
    present_test = set(np.unique(ds.labels[~ds.is_train]).tolist())
    missing = sorted(set(sc.class_ids) - (present_train & present_test))
    if missing:
        raise ScenarioError(f"missing classes: {missing}")

    views: list[StepView] = []
    for k, step in enumerate(sc.steps, start=1):
        step_set = np.isin(ds.labels, list(step))
        cum_set = np.isin(ds.labels, list(sc.classes_up_to(k)))
        train_idx = np.where(step_set & ds.is_train)[0]
        test_idx = np.where(cum_set & ~ds.is_train)[0]
        views.append(
            StepView(
                step_index=k,
                train_features=ds.features[train_idx],
                train_labels=ds.labels[train_idx],
                test_features=ds.features[test_idx],
                test_labels=ds.labels[test_idx],
            )
        )
    return views
