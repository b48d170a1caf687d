"""Design-matrix encoding: treatment coding, references, interactions."""

import dataclasses
import re

import numpy as np
import pytest

from _factories import make_records, make_table, record_table
from efcilab.analyze import AIC_LADDERS, ANOVA_MODELS
from efcilab.stats.analysis import screen_variables
from efcilab.stats.design import (
    CATEGORICAL_VARS,
    RECORD_VARIABLES,
    DesignError,
    Formula,
    encode_design,
    parse_formula,
)


def test_parse_formula():
    f = parse_formula("avg_acc ~ incr + train + data")
    assert f.response == "avg_acc"
    assert f.terms == ("incr", "train", "data")
    assert str(f) == "avg_acc ~ incr + train + data"
    assert parse_formula("forgetting ~ 1").terms == ()


def test_parse_formula_rejects_duplicates_and_garbage():
    with pytest.raises(DesignError, match="duplicate term"):
        parse_formula("y ~ train + train")
    with pytest.raises(DesignError, match="lacks '~'"):
        parse_formula("avg_acc + train")


def test_three_level_factor_gets_two_columns_plus_intercept():
    table = make_table(30, seed=1)
    design = encode_design(table, "avg_acc ~ train", {"train": "byol"})
    assert design.p == 3
    assert design.column_labels == ["intercept", "train[dino]", "train[scratch]"]
    assert design.reference_levels["train"] == "byol"
    # indicator columns are 0/1 and never both 1
    ind = design.x[:, 1:]
    assert set(np.unique(ind)) <= {0.0, 1.0}
    assert np.all(ind.sum(axis=1) <= 1.0)


def test_default_reference_is_first_sorted_level():
    table = make_table(30, seed=2)
    design = encode_design(table, "avg_acc ~ train")
    assert design.reference_levels["train"] == "byol"


def test_unknown_reference_level_rejected():
    table = make_table(30, seed=3)
    with pytest.raises(DesignError, match="does not occur"):
        encode_design(table, "avg_acc ~ train", {"train": "nonesuch"})


def test_unknown_variable_rejected():
    table = make_table(12, seed=4)
    with pytest.raises(DesignError, match="unknown variable"):
        encode_design(table, "avg_acc ~ epochs")


@pytest.mark.parametrize(
    "formula",
    ["avg_acc ~ train + epochs", "avg_acc ~ train:epochs", "avg_acc ~ epochs:acc1",
     "epochs ~ train"],
    ids=["term", "product_right", "product_left", "response"],
)
def test_unknown_variable_message_in_every_position(formula):
    table = make_table(12, seed=4)
    message = f"unknown variable 'epochs'; known: {sorted(RECORD_VARIABLES)}"
    with pytest.raises(DesignError, match=f"^{re.escape(message)}$"):
        encode_design(table, formula)


def test_numeric_and_binary_variables_single_column():
    records = make_records(25, seed=5)
    design = encode_design(record_table(records), "avg_acc ~ acc1 + scenario_b + n_mean")
    assert design.column_labels == ["intercept", "acc1", "scenario_b", "n_mean"]
    assert np.allclose(design.x[:, 1], [r.acc1 for r in records])


def test_underdetermined_design_rejected():
    table = make_table(4, seed=6)
    with pytest.raises(DesignError, match="underdetermined"):
        encode_design(table, "avg_acc ~ acc1 + n_mean + width + n1")


def test_interaction_numeric_numeric_is_product():
    records = make_records(20, seed=7)
    design = encode_design(record_table(records), "avg_acc ~ acc1 + n_mean + acc1:n_mean")
    col = design.x[:, design.term_columns["acc1:n_mean"][0]]
    assert np.allclose(col, [r.acc1 * r.n_mean for r in records])


def test_interaction_categorical_categorical_crosses_levels():
    table = make_table(60, seed=8)
    design = encode_design(table, "avg_acc ~ train + incr + train:incr")
    # (3-1) x (2-1) = 2 product columns
    assert len(design.term_columns["train:incr"]) == 2
    labels = [design.column_labels[i] for i in design.term_columns["train:incr"]]
    assert labels == ["train[dino]:incr[fetril]", "train[scratch]:incr[fetril]"]


def test_three_way_products_unsupported():
    table = make_table(40, seed=9)
    with pytest.raises(DesignError, match="two-way"):
        encode_design(table, "avg_acc ~ train:incr:data")


def test_categorical_response_rejected():
    table = make_table(10, seed=11)
    with pytest.raises(DesignError, match="must be numeric"):
        encode_design(table, Formula("train", ("acc1",)))


def reference_design(records, formula):
    """Record-by-record encoding, the way the column table must reproduce it."""
    formula = parse_formula(formula)
    levels = {}

    def expand(var):
        values = [getattr(r, var) for r in records]
        if var not in CATEGORICAL_VARS:
            return [(var, np.array([float(v) for v in values]))]
        levels[var] = tuple(sorted(set(values)))
        return [
            (f"{var}[{lvl}]", np.array([1.0 if v == lvl else 0.0 for v in values]))
            for lvl in levels[var][1:]
        ]

    labels, columns = ["intercept"], [np.ones(len(records))]
    for term in formula.terms:
        parts = [expand(var) for var in term.split(":")]
        if len(parts) == 2:
            parts = [[(f"{a}:{b}", ca * cb) for a, ca in parts[0] for b, cb in parts[1]]]
        for label, column in parts[0]:
            labels.append(label)
            columns.append(column)
    y = np.array([float(getattr(r, formula.response)) for r in records])
    return np.column_stack(columns), y, labels, levels


BUNDLE_FORMULAS = sorted(
    {f for ladder in AIC_LADDERS.values() for f in ladder} | set(ANOVA_MODELS)
    | {"avg_acc ~ train + incr + train:incr"}
)


@pytest.mark.parametrize("formula", BUNDLE_FORMULAS)
def test_column_table_design_equals_record_encoding(formula):
    records = make_records(
        200, seed=14, incr_levels=("dslda", "fetril", "ncm"), data_levels=("d1", "d2", "d3")
    )
    table = record_table(records)
    keep = table.columns["train"] != table.levels["train"].index("scratch")
    kept = [r for r in records if r.train != "scratch"]
    for rows, subset in ((table, records), (table.take(keep), kept)):
        design = encode_design(rows, formula)
        x, y, labels, levels = reference_design(subset, formula)
        assert design.column_labels == labels
        assert np.array_equal(design.x, x)
        assert np.array_equal(design.y, y)
        assert design.levels == levels


def test_single_level_message_and_screening_skip():
    records = [dataclasses.replace(r, data="d1") for r in make_records(50, seed=15)]
    message = "variable 'data' has a single level ('d1'); nothing to contrast"
    mixed = make_table(50, seed=15)
    one_level = mixed.take(mixed.columns["data"] == 0)
    for rows in (record_table(records), one_level):
        with pytest.raises(DesignError, match=f"^{re.escape(message)}$"):
            encode_design(rows, "avg_acc ~ data")
        rows_kept = screen_variables(rows, "avg_acc", ("data", "acc1"), alpha=1.0)
        assert [r.variable for r in rows_kept] == ["acc1"]
    unknown = f"unknown variable 'epochs'; known: {sorted(RECORD_VARIABLES)}"
    with pytest.raises(DesignError, match=f"^{re.escape(unknown)}$"):
        encode_design(mixed, "avg_acc ~ train + epochs")
