"""Design-matrix encoding: treatment coding, references, interactions."""

import re

import numpy as np
import pytest

from _factories import make_records
from efcilab.stats.design import (
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
    records = make_records(30, seed=1)
    design = encode_design(records, "avg_acc ~ train", {"train": "byol"})
    assert design.p == 3
    assert design.column_labels == ["intercept", "train[dino]", "train[scratch]"]
    assert design.reference_levels["train"] == "byol"
    # indicator columns are 0/1 and never both 1
    ind = design.x[:, 1:]
    assert set(np.unique(ind)) <= {0.0, 1.0}
    assert np.all(ind.sum(axis=1) <= 1.0)


def test_default_reference_is_first_sorted_level():
    records = make_records(30, seed=2)
    design = encode_design(records, "avg_acc ~ train")
    assert design.reference_levels["train"] == "byol"


def test_unknown_reference_level_rejected():
    records = make_records(30, seed=3)
    with pytest.raises(DesignError, match="does not occur"):
        encode_design(records, "avg_acc ~ train", {"train": "nonesuch"})


def test_unknown_variable_rejected():
    records = make_records(12, seed=4)
    with pytest.raises(DesignError, match="unknown variable"):
        encode_design(records, "avg_acc ~ epochs")


@pytest.mark.parametrize(
    "formula",
    ["avg_acc ~ train + epochs", "avg_acc ~ train:epochs", "avg_acc ~ epochs:acc1",
     "epochs ~ train"],
    ids=["term", "product_right", "product_left", "response"],
)
def test_unknown_variable_message_in_every_position(formula):
    records = make_records(12, seed=4)
    message = f"unknown variable 'epochs'; known: {sorted(RECORD_VARIABLES)}"
    with pytest.raises(DesignError, match=f"^{re.escape(message)}$"):
        encode_design(records, formula)


def test_numeric_and_binary_variables_single_column():
    records = make_records(25, seed=5)
    design = encode_design(records, "avg_acc ~ acc1 + scenario_b + n_mean")
    assert design.column_labels == ["intercept", "acc1", "scenario_b", "n_mean"]
    assert np.allclose(design.x[:, 1], [r.acc1 for r in records])


def test_underdetermined_design_rejected():
    records = make_records(4, seed=6)
    with pytest.raises(DesignError, match="underdetermined"):
        encode_design(records, "avg_acc ~ acc1 + n_mean + width + n1")


def test_interaction_numeric_numeric_is_product():
    records = make_records(20, seed=7)
    design = encode_design(records, "avg_acc ~ acc1 + n_mean + acc1:n_mean")
    col = design.x[:, design.term_columns["acc1:n_mean"][0]]
    assert np.allclose(col, [r.acc1 * r.n_mean for r in records])


def test_interaction_categorical_categorical_crosses_levels():
    records = make_records(60, seed=8)
    design = encode_design(records, "avg_acc ~ train + incr + train:incr")
    # (3-1) x (2-1) = 2 product columns
    assert len(design.term_columns["train:incr"]) == 2
    labels = [design.column_labels[i] for i in design.term_columns["train:incr"]]
    assert labels == ["train[dino]:incr[fetril]", "train[scratch]:incr[fetril]"]


def test_three_way_products_unsupported():
    records = make_records(40, seed=9)
    with pytest.raises(DesignError, match="two-way"):
        encode_design(records, "avg_acc ~ train:incr:data")


def test_subset_keeps_intercept_and_selected_terms():
    records = make_records(40, seed=10)
    design = encode_design(records, "avg_acc ~ train + acc1 + incr")
    sub = design.subset(["acc1"])
    assert sub.column_labels == ["intercept", "acc1"]
    assert np.allclose(sub.x[:, 1], design.x[:, design.term_columns["acc1"][0]])


def test_categorical_response_rejected():
    records = make_records(10, seed=11)
    with pytest.raises(DesignError, match="must be numeric"):
        encode_design(records, Formula("train", ("acc1",)))
