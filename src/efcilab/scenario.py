"""Class-to-step assignment for incremental learning streams.

A scenario splits a class set into K disjoint steps. Two layouts are
supported: ``equal`` (classes spread evenly over the incremental steps)
and ``half`` (half of the classes in the first step, the rest spread
evenly). The initial-class fraction ``b`` is kept as an exact fraction.
A dataset meets a scenario through one array, the step of each of its
rows, from which each step's train and test rows are selected when the
stream reaches that step.
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


def partition_dataset(ds, sc: Scenario) -> np.ndarray:
    """The 1-based step of each row of ``ds`` under scenario ``sc``.

    Rows of classes outside the scenario get 0. Step k trains on the train
    rows of step k and tests on the test rows of steps 1..k. Every class of
    the scenario must have at least one train and one test sample.
    """
    present_train = set(np.unique(ds.labels[ds.is_train]).tolist())
    present_test = set(np.unique(ds.labels[~ds.is_train]).tolist())
    missing = sorted(set(sc.class_ids) - (present_train & present_test))
    if missing:
        raise ScenarioError(f"missing classes: {missing}")

    step_of = np.zeros(ds.labels.shape[0], dtype=np.int64)
    for k, step in enumerate(sc.steps, start=1):
        step_of[np.isin(ds.labels, step)] = k
    return step_of
