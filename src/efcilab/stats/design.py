"""Run records, formulas, and treatment-coded design matrices.

Categorical factors are one-hot encoded with a dropped reference level;
numeric and binary factors enter as single columns. Column order is
deterministic: intercept first, then terms in declaration order with
levels sorted lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np


class DesignError(ValueError):
    """Raised for malformed formulas or infeasible designs."""


CATEGORICAL_VARS = frozenset({"train", "incr", "data"})


@dataclass(frozen=True)
class RunRecord:
    """One experiment's factor levels and metric values."""

    run_id: str
    data: str
    train: str
    incr: str
    scenario_b: int  # 0 = classes spread equally, 1 = half in the first step
    n: int  # total classes
    n1: int  # train samples in the first step
    n_mean: float  # mean train samples per class
    small: int
    width: float
    acc1: float
    avg_acc: float
    forgetting: float
    accK: float


RECORD_VARIABLES = tuple(f.name for f in fields(RunRecord) if f.name != "run_id")


@dataclass(frozen=True)
class Formula:
    """Response plus additive terms; ``a:b`` denotes a product term."""

    response: str
    terms: tuple[str, ...]

    def __str__(self) -> str:
        rhs = " + ".join(self.terms) if self.terms else "1"
        return f"{self.response} ~ {rhs}"


def parse_formula(text: str) -> Formula:
    if "~" not in text:
        raise DesignError(f"formula {text!r} lacks '~'")
    lhs, rhs = (part.strip() for part in text.split("~", 1))
    if not lhs:
        raise DesignError(f"formula {text!r} has an empty response")
    terms = tuple(t.strip() for t in rhs.split("+") if t.strip() and t.strip() != "1")
    seen = set()
    for term in terms:
        if term in seen:
            raise DesignError(f"duplicate term {term!r} in formula {text!r}")
        seen.add(term)
    return Formula(response=lhs, terms=terms)


@dataclass
class DesignMatrix:
    """Response vector and encoded regressor matrix with column metadata."""

    formula: Formula
    y: np.ndarray
    x: np.ndarray
    column_labels: list[str]
    term_columns: dict[str, list[int]]  # term -> column indices (intercept under "intercept")
    reference_levels: dict[str, str]
    levels: dict[str, tuple[str, ...]]

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def p(self) -> int:
        return int(self.x.shape[1])

    def subset(self, terms: Sequence[str]) -> "DesignMatrix":
        """Design restricted to the intercept plus the given terms."""
        keep = list(self.term_columns["intercept"])
        kept_terms: dict[str, list[int]] = {"intercept": [0]}
        cursor = 1
        for term in self.formula.terms:
            if term not in terms:
                continue
            cols = self.term_columns[term]
            keep.extend(cols)
            kept_terms[term] = list(range(cursor, cursor + len(cols)))
            cursor += len(cols)
        return DesignMatrix(
            formula=Formula(self.formula.response, tuple(t for t in self.formula.terms if t in terms)),
            y=self.y,
            x=self.x[:, keep],
            column_labels=[self.column_labels[i] for i in keep],
            term_columns=kept_terms,
            reference_levels=dict(self.reference_levels),
            levels=dict(self.levels),
        )


def _is_categorical(var: str) -> bool:
    return var in CATEGORICAL_VARS


def _check_variable(var: str) -> None:
    if var not in RECORD_VARIABLES:
        raise DesignError(f"unknown variable {var!r}; known: {sorted(RECORD_VARIABLES)}")


def _expand_variable(
    records: Sequence[RunRecord],
    var: str,
    reference_levels: dict[str, str],
    levels_out: dict[str, tuple[str, ...]],
) -> list[tuple[str, np.ndarray]]:
    """Columns for one variable: indicators per non-reference level, or the raw values."""
    _check_variable(var)
    if _is_categorical(var):
        values = [str(getattr(r, var)) for r in records]
        levels = tuple(sorted(set(values)))
        if len(levels) < 2:
            raise DesignError(
                f"variable {var!r} has a single level ({levels[0]!r}); nothing to contrast"
            )
        levels_out[var] = levels
        ref = reference_levels.get(var, levels[0])
        if ref not in levels:
            raise DesignError(
                f"reference level {ref!r} for {var!r} does not occur in the records "
                f"(levels: {list(levels)})"
            )
        reference_levels[var] = ref
        value_arr = np.array(values)
        return [
            (f"{var}[{lvl}]", (value_arr == lvl).astype(float))
            for lvl in levels
            if lvl != ref
        ]
    column = np.array([float(getattr(r, var)) for r in records])
    return [(var, column)]


def encode_design(
    records: Sequence[RunRecord],
    formula: Formula | str,
    reference_levels: dict[str, str] | None = None,
) -> DesignMatrix:
    """Build the treatment-coded design matrix for ``formula`` over ``records``."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    if not records:
        raise DesignError("no records to encode")
    refs = dict(reference_levels or {})
    levels: dict[str, tuple[str, ...]] = {}

    if _is_categorical(formula.response):
        raise DesignError(f"response {formula.response!r} must be numeric")
    _check_variable(formula.response)
    y = np.array([float(getattr(r, formula.response)) for r in records])

    labels: list[str] = ["intercept"]
    columns: list[np.ndarray] = [np.ones(len(records))]
    term_columns: dict[str, list[int]] = {"intercept": [0]}
    for term in formula.terms:
        parts = term.split(":")
        if len(parts) == 1:
            expanded = _expand_variable(records, parts[0], refs, levels)
        elif len(parts) == 2:
            left = _expand_variable(records, parts[0], refs, levels)
            right = _expand_variable(records, parts[1], refs, levels)
            expanded = [
                (f"{lname}:{rname}", lcol * rcol)
                for lname, lcol in left
                for rname, rcol in right
            ]
        else:
            raise DesignError(f"term {term!r}: only two-way products are supported")
        idx = []
        for label, col in expanded:
            idx.append(len(columns))
            labels.append(label)
            columns.append(col)
        term_columns[term] = idx

    x = np.column_stack(columns)
    if x.shape[0] <= x.shape[1]:
        raise DesignError(
            f"underdetermined design: {x.shape[0]} rows for {x.shape[1]} parameters"
        )
    return DesignMatrix(
        formula=formula,
        y=y,
        x=x,
        column_labels=labels,
        term_columns=term_columns,
        reference_levels=refs,
        levels=levels,
    )
