"""Run records, formulas, column tables, and treatment-coded design matrices.

``column_table`` turns raw columns, as parsed from results.csv, into a
column table, the one input of the encoder and of every analysis
function: one numpy array per variable, with categoricals as codes into
their sorted levels.
Categorical factors are one-hot encoded with a dropped reference level;
numeric and binary factors enter as single columns. Column order is
deterministic: intercept first, then terms in declaration order with
levels sorted lexicographically. A design's layout (labels and the
factors of each column) is built apart from its n-row matrix, so a fit
can read the matching columns of the table's factored column bank
(``RecordTable.bank``) without forming that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .linalg import r_factor


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
    """Response vector and encoded regressor matrix with column metadata.

    ``x`` is None in a ``design_layout``: a design whose fit reads its
    table's column bank never forms its n-row matrix.
    """

    formula: Formula
    y: np.ndarray
    x: np.ndarray | None
    column_labels: list[str]
    term_columns: dict[str, list[int]]  # term -> column indices (intercept under "intercept")
    reference_levels: dict[str, str]
    levels: dict[str, tuple[str, ...]]

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return len(self.column_labels)


@dataclass(frozen=True)
class ColumnBank:
    """R of one R-only QR of a table's column bank: the intercept, every
    main-effect column of each record variable with at least two levels
    (default reference levels) and every numeric column, responses included.

    A model over bank columns is fitted from the matching columns of ``r``,
    which have the Gram matrix and column norms of its ``[X | y]``.
    """

    index: dict[tuple, int]  # a column's factors -> its column of ``r``
    r: np.ndarray

    def columns(self, factors: list[tuple]) -> np.ndarray | None:
        """The columns of ``r`` for these column factors; None if one is not in the bank."""
        idx = [self.index.get(f) for f in factors]
        return None if None in idx else self.r[:, idx]


class RecordTable:
    """A record set as columns: variable -> numpy array, one entry per record.

    Numeric variables are floats; categorical ones are codes into
    ``levels[var]``, their sorted distinct values. ``fits`` memoises the
    model fits over these rows and ``bank`` holds the one factorisation
    they are read from (``stats.analysis.fit_model``).
    """

    def __init__(self, columns: dict[str, np.ndarray], levels: dict[str, tuple[str, ...]]):
        self.columns, self.levels, self.fits = columns, levels, {}
        self.n = len(columns[RECORD_VARIABLES[0]])

    @cached_property
    def bank(self) -> ColumnBank:
        """The table's column bank, factored on first use: the one tall QR its fits need."""
        factors: list[tuple] = [()]
        for var in RECORD_VARIABLES:
            if var in CATEGORICAL_VARS:
                factors += [((var, code),) for code in range(1, len(self.levels[var]))]
            else:
                factors.append(((var, None),))
        bank = np.array([_column(self, f) for f in factors]).T
        return ColumnBank({f: i for i, f in enumerate(factors)}, r_factor(bank))

    def take(self, mask: np.ndarray) -> RecordTable:
        """The rows where ``mask`` is True, with only the levels they use."""
        columns = {var: col[mask] for var, col in self.columns.items()}
        levels = {}
        for var, var_levels in self.levels.items():
            used, columns[var] = np.unique(columns[var], return_inverse=True)
            levels[var] = tuple(var_levels[i] for i in used)
        return RecordTable(columns, levels)


def column_table(*parts: dict[str, np.ndarray]) -> RecordTable:
    """One table of the parts' rows, in order, with categoricals coded once.

    Each part maps every record variable to its values, categoricals as
    strings (the columns ``grid.load_results`` parses), so a categorical's
    levels are the union over the parts.
    """
    columns, levels = {}, {}
    for var in RECORD_VARIABLES:
        values = np.concatenate([part[var] for part in parts])
        if var in CATEGORICAL_VARS:
            uniques, columns[var] = np.unique(values.astype(str), return_inverse=True)
            levels[var] = tuple(uniques.tolist())
        else:
            columns[var] = values.astype(float)
    return RecordTable(columns, levels)


def _check_variable(var: str) -> None:
    if var not in RECORD_VARIABLES:
        raise DesignError(f"unknown variable {var!r}; known: {sorted(RECORD_VARIABLES)}")


def _expand_variable(
    table: RecordTable,
    var: str,
    reference_levels: dict[str, str],
    levels_out: dict[str, tuple[str, ...]],
) -> list[tuple[str, tuple]]:
    """Labels and factors of one variable's columns: an indicator per
    non-reference level, or the raw values."""
    _check_variable(var)
    if var not in CATEGORICAL_VARS:
        return [(var, ((var, None),))]
    levels = table.levels[var]
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
    return [(f"{var}[{lvl}]", ((var, code),)) for code, lvl in enumerate(levels) if lvl != ref]


def _column(table: RecordTable, factors: tuple) -> np.ndarray:
    """The product of a column's factors: (variable, level code) is that
    level's indicator, (variable, None) the variable's values, and the
    intercept is the empty product."""
    column = np.ones(table.n)
    for var, code in factors:
        values = table.columns[var]
        column = column * (values if code is None else values == code)
    return column


def design_layout(
    table: RecordTable,
    formula: Formula | str,
    reference_levels: dict[str, str] | None = None,
) -> tuple[DesignMatrix, list[tuple]]:
    """``formula``'s treatment-coded design over ``table`` without its matrix
    (``x`` is None), and each column's factors (see ``_column``)."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    if table.n == 0:
        raise DesignError("no records to encode")
    refs = dict(reference_levels or {})
    levels: dict[str, tuple[str, ...]] = {}

    if formula.response in CATEGORICAL_VARS:
        raise DesignError(f"response {formula.response!r} must be numeric")
    _check_variable(formula.response)

    labels: list[str] = ["intercept"]
    factors: list[tuple] = [()]
    term_columns: dict[str, list[int]] = {"intercept": [0]}
    for term in formula.terms:
        parts = term.split(":")
        if len(parts) == 1:
            expanded = _expand_variable(table, parts[0], refs, levels)
        elif len(parts) == 2:
            left = _expand_variable(table, parts[0], refs, levels)
            right = _expand_variable(table, parts[1], refs, levels)
            expanded = [
                (f"{lname}:{rname}", lfactors + rfactors)
                for lname, lfactors in left
                for rname, rfactors in right
            ]
        else:
            raise DesignError(f"term {term!r}: only two-way products are supported")
        term_columns[term] = list(range(len(labels), len(labels) + len(expanded)))
        for label, column_factors in expanded:
            labels.append(label)
            factors.append(column_factors)

    if table.n <= len(labels):
        raise DesignError(f"underdetermined design: {table.n} rows for {len(labels)} parameters")
    design = DesignMatrix(
        formula=formula,
        y=table.columns[formula.response],
        x=None,
        column_labels=labels,
        term_columns=term_columns,
        reference_levels=refs,
        levels=levels,
    )
    return design, factors


def encode_design(
    table: RecordTable,
    formula: Formula | str,
    reference_levels: dict[str, str] | None = None,
) -> DesignMatrix:
    """Build the treatment-coded design matrix for ``formula`` over ``table``'s rows."""
    design, factors = design_layout(table, formula, reference_levels)
    # the transpose is in Fortran order, the layout LAPACK factors
    design.x = np.array([_column(table, f) for f in factors]).T
    return design
