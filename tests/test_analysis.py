"""ANOVA, screening, model selection, and pairwise-comparison behavior."""

import dataclasses
import math
import sys
import traceback
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from _factories import make_records, make_table, record_table
from efcilab.analyze import build_report_bundle
from efcilab.stats.analysis import (
    anova_partial_eta2,
    fit_model,
    pairwise_comparison,
    screen_variables,
    select_model_aic,
)
from efcilab.stats.design import DesignError, Formula, RecordTable, encode_design
from efcilab.stats.linalg import RankDeficientError
from efcilab.stats.regression import ols_fit


def independent_ssr(table, formula_terms, response="avg_acc"):
    """SSR via raw numpy lstsq on an independently assembled design."""
    design = encode_design(table, Formula(response, tuple(formula_terms)))
    beta, *_ = np.linalg.lstsq(design.x, design.y, rcond=None)
    resid = design.y - design.x @ beta
    return float(resid @ resid)


# ---------------------------------------------------------------------------
# Fit memo


def test_fit_model_returns_the_stored_fit_holding_no_per_row_array():
    table = make_table(40, seed=24, train_effects={"dino": 0.2})
    fit = fit_model(table, "avg_acc ~ train + acc1")
    assert fit_model(table, "avg_acc ~ train + acc1") is fit
    arrays = [value for value in vars(fit).values() if isinstance(value, np.ndarray)]
    assert arrays and all(a.shape[0] != fit.n_obs for a in arrays)


@pytest.mark.parametrize(
    "formula, error, columns",
    [("avg_acc ~ data", DesignError, None), ("avg_acc ~ width", RankDeficientError, [1])],
)
def test_remembered_failure_raises_afresh_and_keeps_no_traceback(formula, error, columns):
    records = make_records(30, seed=25, data_levels=("d1",))
    table = record_table([dataclasses.replace(r, width=32.0) for r in records])
    raised = []
    for _ in range(3):
        with pytest.raises(error) as info:
            fit_model(table, formula)
        exc = info.value
        tb_length = len(traceback.extract_tb(exc.__traceback__))
        raised.append((type(exc), str(exc), getattr(exc, "column_indices", None), tb_length))
    assert raised[0] == raised[1] == raised[2]
    assert raised[0][0] is error and raised[0][2] == columns
    (stored,) = table.fits.values()
    assert stored.__traceback__ is None and stored.__context__ is None


# ---------------------------------------------------------------------------
# Column bank: one tall factorisation per table


def _bundle_tables(monkeypatch, table):
    """``table`` and every subgroup table ``build_report_bundle`` takes of it,
    after the bundle is built."""
    tables, take = [table], RecordTable.take

    def recording_take(self, mask):
        tables.append(take(self, mask))
        return tables[-1]

    monkeypatch.setattr(RecordTable, "take", recording_take)
    build_report_bundle(table)
    return tables


def _bundle_table():
    return make_table(
        400, seed=41, train_effects={"dino": 0.2, "byol": 0.05}, incr_effects={"fetril": 0.1},
        data_levels=("d1", "d2", "d3"), data_effects={"d3": -0.04}, acc1_coef=0.3,
    )


def test_every_bundle_fit_matches_lstsq_on_its_own_design(monkeypatch):
    tables = _bundle_tables(monkeypatch, _bundle_table())
    assert len(tables) == 1 + 3 + 2 + 2  # datasets, methods, initial-class shares
    checked = 0
    for table in tables:
        for (response, terms, refs), fit in table.fits.items():
            if isinstance(fit, Exception):
                continue
            design = encode_design(table, Formula(response, terms), dict(refs))
            x, y = design.x, design.y
            n, p = x.shape
            beta, *_ = np.linalg.lstsq(x, y, rcond=None)
            ssr = float((y - x @ beta) @ (y - x @ beta))
            se = np.sqrt(ssr / (n - p) * np.diag(np.linalg.inv(x.T @ x)))
            r_squared = 1.0 - ssr / float((y - y.mean()) @ (y - y.mean()))
            aic = 2.0 * (p + 1) + n * (math.log(2.0 * math.pi * ssr / n) + 1.0)
            for got, want in ((fit.beta, beta), (fit.se, se), (fit.ssr, ssr),
                              (fit.r_squared, r_squared), (fit.aic, aic)):
                assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
            checked += 1
    assert checked >= 30


def test_bundle_factors_each_table_once(monkeypatch):
    qr, rows = np.linalg.qr, []

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "efcilab.stats.linalg":
            rows.append(np.shape(a)[0])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    tables = _bundle_tables(monkeypatch, _bundle_table())
    # every other factorisation is of R columns, no taller than a bank is wide
    bank_width = max(table.bank.r.shape[1] for table in tables)
    tall = Counter(n for n in rows if n > bank_width)
    assert tall == Counter(table.n for table in tables)
    assert tall[tables[0].n] == 1


def test_bank_fit_names_the_collinear_columns_of_a_tall_fit():
    # n is constant within each dataset, so it depends on the intercept and data columns
    classes = {"d1": 20, "d2": 50, "d3": 100}
    records = make_records(3000, seed=43, data_levels=tuple(classes))
    by_dataset = record_table([dataclasses.replace(r, n=classes[r.data]) for r in records])
    # width is 2 acc1 up to a residual between the rank cutoffs at 3000 rows and at
    # the bank R's 16: it is judged against the table's row count, as in a tall fit
    rng = np.random.default_rng(44)
    scale = 300 * 8 * np.finfo(float).eps * math.sqrt(sum(4 * r.acc1**2 for r in records) / 3000)
    near = record_table([
        dataclasses.replace(r, width=2 * r.acc1 + scale * float(rng.standard_normal()))
        for r in records
    ])
    for table, formula, labels in (
        (by_dataset, "avg_acc ~ data + n", ["n"]),
        (by_dataset, "avg_acc ~ n + data", ["data[d3]"]),
        (near, "avg_acc ~ acc1 + width", ["width"]),
    ):
        with pytest.raises(RankDeficientError) as tall:
            ols_fit(encode_design(table, formula))
        with pytest.raises(RankDeficientError) as bank:
            fit_model(table, formula)
        assert "bank" in vars(table)  # the fit read the table's bank
        assert str(bank.value) == str(tall.value) == f"collinear design columns: {labels}"
        assert bank.value.column_indices == tall.value.column_indices


# ---------------------------------------------------------------------------
# ANOVA


def test_anova_eta2_matches_independent_ss_assembly():
    table = make_table(
        120,
        seed=1,
        train_effects={"byol": 0.1, "dino": 0.25},
        incr_effects={"fetril": -0.1},
        data_effects={"d2": 0.05},
    )
    anova = anova_partial_eta2(table, "avg_acc ~ train + incr + data")
    ssr_full = independent_ssr(table, ("train", "incr", "data"))
    all_terms = ["train", "incr", "data"]
    for row in anova.rows:
        rest = [t for t in all_terms if t != row.variable]
        ss_drop = independent_ssr(table, rest) - ssr_full
        assert row.sum_sq == pytest.approx(ss_drop, rel=1e-8, abs=1e-10)
        assert row.partial_eta_sq == pytest.approx(ss_drop / (ss_drop + ssr_full), rel=1e-8)
    assert anova.residual_sum_sq == pytest.approx(ssr_full, rel=1e-10)


def mp_ssr(table, terms):
    """SSR of ``avg_acc`` on ``terms`` from the normal equations in 50 digits."""
    sub = encode_design(table, Formula("avg_acc", tuple(terms)))
    with mp.workdps(50):
        x = mp.matrix(sub.x.tolist())
        y = mp.matrix(sub.y.tolist())
        resid = y - x * mp.lu_solve(x.T * x, x.T * y)
        return sum(r * r for r in resid)


def test_anova_null_term_sum_sq_matches_high_precision_reference():
    # heavy noise, no data effect: the sum of squares is a small difference of
    # two large residual sums of squares
    table = make_table(300, seed=81, noise=10.0)
    row = anova_partial_eta2(table, "avg_acc ~ train + data").row("data")
    with mp.workdps(50):
        ref = mp_ssr(table, ["train"]) - mp_ssr(table, ["train", "data"])
        assert abs((row.sum_sq - ref) / ref) <= 1e-10


def test_anova_nearly_collinear_term_sum_sq_matches_high_precision_reference():
    # acc1 nearly determines train, so train's coefficients are large and its
    # covariance block nearly singular: inverting that block loses most digits
    records = make_records(300, seed=3)
    levels = sorted({r.train for r in records})
    noise = np.random.default_rng(0).normal(0.0, 1e-8, len(records))
    table = record_table([
        dataclasses.replace(r, acc1=0.1 * levels.index(r.train) + e)
        for r, e in zip(records, noise)
    ])
    row = anova_partial_eta2(table, "avg_acc ~ acc1 + train + incr").row("train")
    with mp.workdps(50):
        ref = mp_ssr(table, ["acc1", "incr"]) - mp_ssr(table, ["acc1", "train", "incr"])
        assert abs((row.sum_sq - ref) / ref) <= 1e-6


@pytest.mark.parametrize(
    # with the interaction, the null incr's "with" model {train, incr} is not the full model
    "formula", ["avg_acc ~ train + incr", "avg_acc ~ train + incr + train:incr"]
)
def test_anova_exact_fit_null_term_has_zero_sum_sq(formula):
    table = make_table(60, seed=3, train_effects={"dino": 0.3}, noise=0.0)
    anova = anova_partial_eta2(table, formula)
    row = anova.row("incr")
    assert (row.sum_sq, row.f_stat, row.p_value, row.partial_eta_sq) == (0.0, 0.0, 1.0, 0.0)
    planted = anova.row("train")
    assert planted.sum_sq > 0
    assert (planted.f_stat, planted.p_value, planted.partial_eta_sq) == (math.inf, 0.0, 1.0)


def test_anova_invariant_to_term_order():
    table = make_table(90, seed=2, train_effects={"dino": 0.2}, incr_effects={"fetril": 0.1})
    a = anova_partial_eta2(table, "avg_acc ~ train + incr + data")
    b = anova_partial_eta2(table, "avg_acc ~ data + incr + train")
    for variable in ("train", "incr", "data"):
        assert a.row(variable).sum_sq == pytest.approx(b.row(variable).sum_sq, rel=1e-10)
        assert a.row(variable).partial_eta_sq == pytest.approx(
            b.row(variable).partial_eta_sq, rel=1e-10
        )


def test_anova_noiseless_two_level_factor_eta2_one():
    table = make_table(
        24, seed=3, train_levels=("lo", "hi"), train_effects={"hi": 0.3}, noise=0.0,
        incr_levels=("only",), data_levels=("only",),
    )
    row = anova_partial_eta2(table, "avg_acc ~ train").row("train")
    assert row.partial_eta_sq == 1.0
    assert math.isinf(row.f_stat)
    assert row.p_value == 0.0


def test_anova_independent_factor_has_tiny_eta2():
    table = make_table(1000, seed=4, incr_effects={"fetril": 0.3})
    anova = anova_partial_eta2(table, "avg_acc ~ train + incr")
    assert anova.row("train").partial_eta_sq < 0.02
    assert anova.row("incr").partial_eta_sq > 0.5


def test_anova_ranked_orders_by_eta2():
    table = make_table(150, seed=5, train_effects={"dino": 0.4}, incr_effects={"fetril": 0.05})
    ranked = anova_partial_eta2(table, "avg_acc ~ train + incr").ranked()
    assert ranked[0].variable == "train"


def test_anova_type2_with_interaction_excludes_containing_terms():
    table = make_table(200, seed=6, train_effects={"dino": 0.2}, incr_effects={"fetril": 0.1})
    anova = anova_partial_eta2(table, "avg_acc ~ train + incr + train:incr")
    # main effect of train judged against {incr}, not {incr, train:incr}
    ssr_incr = independent_ssr(table, ("incr",))
    ssr_incr_train = independent_ssr(table, ("incr", "train"))
    assert anova.row("train").sum_sq == pytest.approx(ssr_incr - ssr_incr_train, rel=1e-8)


@pytest.mark.parametrize(
    "formula, expected",
    [
        ("avg_acc ~ train", 1),
        ("avg_acc ~ train + incr + data", 1),
        ("avg_acc ~ train + incr + data + acc1", 1),
        # the full model, which tests train:incr, and {train, incr}: the "with" model
        # of both main effects, fitted once
        ("avg_acc ~ train + incr + train:incr", 2),
    ],
)
def test_anova_fits_full_model_once(monkeypatch, formula, expected):
    import efcilab.stats.analysis as analysis

    table = make_table(150, seed=8, train_effects={"dino": 0.2}, incr_effects={"fetril": 0.1})
    fits, encodes = [], []
    monkeypatch.setattr(analysis, "ols_fit", lambda *args: fits.append(1) or ols_fit(*args))
    monkeypatch.setattr(
        analysis, "encode_design", lambda *args: encodes.append(1) or encode_design(*args)
    )
    anova_partial_eta2(table, formula)
    # every sum of squares comes from a fit's coefficients, and every fit reads the
    # table's bank but the full model with a product term, which the bank lacks
    assert len(fits) == expected
    assert len(encodes) == (":" in formula)


def _refit_anova_rows(table, formula):
    """Type-II rows from explicit base and "with" refits of every term."""
    design = encode_design(table, formula)
    full = ols_fit(design)
    rows = {}
    terms = design.formula.terms
    for term in terms:
        base = [t for t in terms if t != term and term not in t.split(":")]
        fit_base = ols_fit(encode_design(table, Formula("avg_acc", tuple(base))))
        with_terms = tuple(t for t in terms if t in base or t == term)
        fit_with = ols_fit(encode_design(table, Formula("avg_acc", with_terms)))
        sum_sq = max(fit_base.ssr - fit_with.ssr, 0.0)
        df = fit_with.n_params - fit_base.n_params
        rows[term] = (sum_sq, df, (sum_sq / df) / (full.ssr / full.df_resid),
                      sum_sq / (sum_sq + full.ssr))
    return rows


@pytest.mark.parametrize(
    "formula",
    ["avg_acc ~ train + incr + data", "avg_acc ~ acc1 + incr + train + data",
     "avg_acc ~ train + incr + train:incr"],
)
def test_anova_matches_explicit_refit_of_every_model(formula):
    table = make_table(
        300, seed=9, train_effects={"dino": 0.2, "byol": 0.05},
        incr_effects={"fetril": 0.1}, data_effects={"d2": 0.03}, acc1_coef=0.3,
    )
    anova = anova_partial_eta2(table, formula)
    for term, (sum_sq, df, f_stat, eta_sq) in _refit_anova_rows(table, formula).items():
        row = anova.row(term)
        assert row.df == df
        assert row.sum_sq == pytest.approx(sum_sq, rel=1e-12, abs=0.0)
        assert row.f_stat == pytest.approx(f_stat, rel=1e-12, abs=0.0)
        assert row.partial_eta_sq == pytest.approx(eta_sq, rel=1e-12, abs=0.0)


def test_anova_infeasible_full_model_raises_design_error():
    levels = ("a", "b", "c", "d", "e", "f")
    table = record_table([
        dataclasses.replace(r, train=levels[i % 6])
        for i, r in enumerate(make_records(6, seed=7))
    ])
    with pytest.raises(DesignError, match="underdetermined"):
        anova_partial_eta2(table, "avg_acc ~ train")


# ---------------------------------------------------------------------------
# Screening


def test_screening_exact_predictor_ranks_first_with_r2_one():
    records = make_records(60, seed=8)
    table = record_table([type(r)(**{**r.__dict__, "avg_acc": r.acc1}) for r in records])
    rows = screen_variables(table, "avg_acc", ("acc1", "n_mean", "width"), alpha=0.05)
    assert rows[0].variable == "acc1"
    assert rows[0].r_squared == pytest.approx(1.0, abs=1e-12)


def test_screening_excludes_pure_noise_usually():
    excluded = 0
    for seed in range(20):
        table = make_table(500, seed=seed, noise=1.0)
        rows = screen_variables(table, "avg_acc", ("width",), alpha=0.05)
        if not rows:
            excluded += 1
    assert excluded >= 18  # >= 90% of seeds


def test_screening_sorted_by_r2_descending():
    table = make_table(
        300, seed=9, train_effects={"dino": 0.5}, incr_effects={"fetril": 0.2}, noise=0.02
    )
    rows = screen_variables(table, "avg_acc", ("incr", "train"), alpha=0.05)
    assert [r.variable for r in rows] == ["train", "incr"]
    assert rows[0].r_squared >= rows[1].r_squared


def test_screening_skips_constant_candidate():
    records = make_records(50, seed=10)
    table = record_table([type(r)(**{**r.__dict__, "width": 32.0}) for r in records])
    rows = screen_variables(table, "avg_acc", ("width",), alpha=0.05)
    assert rows == []


# ---------------------------------------------------------------------------
# AIC model selection


def test_aic_prefers_smaller_model_when_extra_term_is_noise():
    wins = 0
    for seed in range(100):
        table = make_table(400, seed=100 + seed, incr_effects={"fetril": 0.2}, noise=0.1)
        selection = select_model_aic(
            table, "avg_acc", ("avg_acc ~ incr", "avg_acc ~ incr + width")
        )
        if str(selection.best) == "avg_acc ~ incr":
            wins += 1
    assert wins > 50


def test_aic_identical_column_space_ties_broken_by_declaration():
    table = make_table(80, seed=11, train_effects={"dino": 0.1})
    selection = select_model_aic(
        table, "avg_acc", ("avg_acc ~ train + incr", "avg_acc ~ incr + train")
    )
    aics = [c.aic for c in selection.candidates]
    assert aics[0] == pytest.approx(aics[1], abs=1e-9)
    assert str(selection.best) == "avg_acc ~ train + incr"


def test_aic_true_model_beats_subformulas():
    table = make_table(
        400,
        seed=12,
        train_effects={"byol": 0.15, "dino": 0.3},
        incr_effects={"fetril": -0.2},
        data_effects={"d2": 0.1},
        noise=0.03,
    )
    selection = select_model_aic(
        table,
        "avg_acc",
        (
            "avg_acc ~ train",
            "avg_acc ~ incr",
            "avg_acc ~ train + incr",
            "avg_acc ~ train + incr + data",
        ),
    )
    assert str(selection.best) == "avg_acc ~ train + incr + data"


def test_aic_reports_and_skips_failing_formula():
    records = make_records(30, seed=13)
    table = record_table([type(r)(**{**r.__dict__, "width": 1.0}) for r in records])
    selection = select_model_aic(table, "avg_acc", ("avg_acc ~ width", "avg_acc ~ acc1"))
    failed = selection.candidates[0]
    assert failed.error is not None and failed.aic is None
    assert str(selection.best) == "avg_acc ~ acc1"


def test_aic_all_failing_raises():
    records = make_records(30, seed=14)
    table = record_table([type(r)(**{**r.__dict__, "width": 1.0}) for r in records])
    with pytest.raises(DesignError, match="no candidate"):
        select_model_aic(table, "avg_acc", ("avg_acc ~ width",))


def test_aic_response_mismatch_rejected():
    table = make_table(30, seed=15)
    with pytest.raises(DesignError, match="expected"):
        select_model_aic(table, "avg_acc", ("forgetting ~ acc1",))


# ---------------------------------------------------------------------------
# Pairwise comparisons


def test_pairwise_recovers_known_effects():
    effects = {"a": 0.0, "b": 1.0, "c": 2.0}
    table = make_table(
        300, seed=16, train_levels=("a", "b", "c"), train_effects=effects, noise=0.01
    )
    pw = pairwise_comparison(table, "avg_acc ~ train", alpha=0.05)
    assert pw.levels == ("a", "b", "c")
    assert pw.n_tests == 3
    for i, lvl_i in enumerate(pw.levels):
        for j, lvl_j in enumerate(pw.levels):
            if i == j:
                continue
            expected = effects[lvl_i] - effects[lvl_j]
            assert pw.gain[i, j] == pytest.approx(expected, abs=0.02)
            assert pw.significant[i, j]
    assert np.max(np.abs(pw.gain + pw.gain.T)) <= 1e-12


def test_pairwise_cross_fit_antisymmetry():
    table = make_table(120, seed=17, train_effects={"byol": 0.2, "dino": -0.1})
    formula = "avg_acc ~ train + incr"
    levels = table.levels["train"]
    for ref_a in levels:
        fit_a = ols_fit(encode_design(table, formula, {"train": ref_a}))
        for ref_b in levels:
            if ref_a == ref_b:
                continue
            fit_b = ols_fit(encode_design(table, formula, {"train": ref_b}))
            beta_ab = fit_a.coef(f"train[{ref_b}]")[0]
            beta_ba = fit_b.coef(f"train[{ref_a}]")[0]
            assert abs(beta_ab + beta_ba) <= 1e-12


def test_pairwise_reference_choice_leaves_fitted_values_unchanged():
    table = make_table(80, seed=18, train_effects={"dino": 0.3})
    fitted = []
    for ref in table.levels["train"]:
        design = encode_design(table, "avg_acc ~ train + incr", {"train": ref})
        fitted.append(design.x @ ols_fit(design).beta)
    for other in fitted[1:]:
        assert np.max(np.abs(fitted[0] - other)) <= 1e-10


def test_pairwise_null_levels_rarely_significant():
    false_hits = 0
    for seed in range(20):
        table = make_table(200, seed=200 + seed, train_effects={}, noise=0.2)
        pw = pairwise_comparison(table, "avg_acc ~ train", alpha=0.05)
        if pw.significant.any():
            false_hits += 1
    assert false_hits <= 1  # >= 95% of seeds fully null


def test_pairwise_bonferroni_threshold_arithmetic():
    levels = tuple(f"s{i:02d}" for i in range(13))
    table = make_table(400, seed=19, train_levels=levels, noise=0.3)
    pw = pairwise_comparison(table, "avg_acc ~ train", alpha=0.05)
    assert pw.n_tests == 78
    assert pw.corrected_alpha == pytest.approx(0.05 / 78)


def test_pairwise_corrected_significant_subset_of_uncorrected():
    for seed in range(10):
        table = make_table(
            150, seed=300 + seed, train_effects={"byol": 0.05, "dino": 0.02}, noise=0.1
        )
        pw = pairwise_comparison(table, "avg_acc ~ train", alpha=0.05)
        with np.errstate(invalid="ignore"):
            uncorrected = pw.estimable & (pw.p_values < pw.alpha)
        assert np.all(uncorrected[pw.significant])


def test_pairwise_requires_variable_in_formula():
    table = make_table(40, seed=20)
    with pytest.raises(DesignError, match="does not contain"):
        pairwise_comparison(table, "avg_acc ~ incr", alpha=0.05, variable="train")


def test_pairwise_single_level_rejected():
    table = make_table(40, seed=21, train_levels=("only",))
    with pytest.raises(DesignError, match=">= 2 levels"):
        pairwise_comparison(table, "avg_acc ~ train", alpha=0.05)


def test_pairwise_honors_other_reference_levels():
    table = make_table(120, seed=22, train_effects={"dino": 0.2})
    pw1 = pairwise_comparison(table, "avg_acc ~ train + incr", reference_levels={"incr": "fetril"})
    pw2 = pairwise_comparison(table, "avg_acc ~ train + incr", reference_levels={"incr": "dslda"})
    # gains over train levels are invariant to the other factor's reference
    assert np.allclose(pw1.gain, pw2.gain, atol=1e-10)


def refit_per_reference(table, formula):
    """Gains, p-values and estimability by refitting once per reference level of train."""
    levels = table.levels["train"]
    gain = np.full((len(levels), len(levels)), np.nan)
    p_values = np.full_like(gain, np.nan)
    estimable = np.zeros(gain.shape, dtype=bool)
    for j, ref in enumerate(levels):
        try:
            fit = ols_fit(encode_design(table, formula, {"train": ref}))
        except (DesignError, RankDeficientError):
            continue
        for i, level in enumerate(levels):
            if i != j:
                gain[i, j], _, _, p_values[i, j] = fit.coef(f"train[{level}]")
                estimable[i, j] = True
    return gain, p_values, estimable


def _collinear_with_data(records):
    data_of = {"a": "d1", "b": "d2", "c": "d3", "d": "d1"}
    return [dataclasses.replace(r, data=data_of[r.train]) for r in records]


@pytest.mark.parametrize(
    "noise, formula, transform",
    [
        (0.05, "avg_acc ~ train + incr", None),
        (0.05, "avg_acc ~ train + incr + train:incr", None),
        (0.0, "avg_acc ~ train + incr", None),
        (0.05, "avg_acc ~ train + data", _collinear_with_data),
    ],
    ids=["additive", "interaction", "exact_fit", "collinear"],
)
def test_pairwise_one_fit_matches_refit_per_reference(noise, formula, transform):
    records = make_records(
        240,
        seed=23,
        train_levels=("a", "b", "c", "d"),
        train_effects={"b": 0.03, "c": 0.2},  # a and d tie: an exact fit tests p = 1
        incr_effects={"fetril": -0.1},
        noise=noise,
    )
    if transform is not None:
        records = transform(records)
    table = record_table(records)
    pw = pairwise_comparison(table, formula, alpha=0.05)
    gain, p_values, estimable = refit_per_reference(table, formula)

    assert np.array_equal(pw.estimable, estimable)
    assert transform is None or not estimable.any()
    assert np.all(np.abs(pw.gain[estimable] - gain[estimable]) <= 1e-12)
    assert np.all(np.abs(pw.p_values[estimable] - p_values[estimable]) <= 1e-12)
    assert np.all(np.isnan(pw.gain[~estimable & ~np.eye(4, dtype=bool)]))
    with np.errstate(invalid="ignore"):
        significant = estimable & (p_values < 0.05 / pw.n_tests)
    assert np.array_equal(pw.significant, significant)
    if noise == 0.0:
        assert set(np.unique(pw.p_values[estimable])) == {0.0, 1.0}
