"""Variance decomposition, variable screening, model selection, pairwise tests.

ANOVA uses Type-II sums of squares (each variable judged against the
model holding every term that does not contain it), which makes the
table invariant to term declaration order; each is read off the
coefficients and R factor of one fit, the model that adds the term.
Pairwise comparisons read every level pair from one fit's coefficients
and covariance and gate significance with a Bonferroni-corrected
threshold over unordered pairs. Every function takes one ``RecordTable``
and fits through ``fit_model``, the table's fit memo: each distinct model
is fitted once per table and shared, so callers must not modify its fits.
A table takes one tall factorisation, of its column bank; every model
whose columns are all in the bank is fitted from that bank's R.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import DesignError, Formula, RecordTable, design_layout, encode_design, parse_formula
from .distributions import f_pvalue
from .linalg import RankDeficientError
from .regression import RegressionFit, exact_fit_tolerance, ols_fit


def fit_model(
    table: RecordTable,
    formula: Formula | str,
    reference_levels: dict[str, str] | None = None,
) -> RegressionFit:
    """OLS fit of ``formula``, memoised on ``table``.

    The fit reads the columns of ``table.bank``'s R that match its design's
    columns and response, so no n-row matrix is formed per model. A design
    with a column the bank lacks (a product term, or a reference level other
    than the first) is encoded and factored on its own instead.

    The key is (response, terms, reference levels), so callers that share a
    table fit each distinct model once and get the same fit object, which
    they must not modify. A model that cannot be fitted raises again without
    a retry.
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    refs = reference_levels or {}
    key = (formula.response, formula.terms, tuple(sorted(refs.items())))
    if key not in table.fits:
        try:
            design, factors = design_layout(table, formula, refs)
            r_xy = table.bank.columns(factors + [((formula.response, None),)])
            if r_xy is None:
                design = encode_design(table, formula, refs)
            table.fits[key] = ols_fit(design, r_xy)
        except (DesignError, RankDeficientError) as exc:
            # a copy has no traceback or context: the memo pins none of the call's frames
            table.fits[key] = copy.copy(exc)
    fit = table.fits[key]
    if isinstance(fit, Exception):
        raise copy.copy(fit)  # each raise starts a fresh traceback on a fresh object
    return fit


# ---------------------------------------------------------------------------
# ANOVA


@dataclass(frozen=True)
class AnovaRow:
    variable: str
    sum_sq: float
    df: int
    f_stat: float
    p_value: float
    partial_eta_sq: float


@dataclass
class AnovaTable:
    formula: str
    rows: list[AnovaRow]
    residual_sum_sq: float
    residual_df: int
    r_squared: float

    def ranked(self) -> list[AnovaRow]:
        """Rows by decreasing partial eta squared (ties by declaration order)."""
        order = sorted(range(len(self.rows)), key=lambda i: (-self.rows[i].partial_eta_sq, i))
        return [self.rows[i] for i in order]

    def row(self, variable: str) -> AnovaRow:
        for r in self.rows:
            if r.variable == variable:
                return r
        raise KeyError(f"no ANOVA row for {variable!r}")


def anova_partial_eta2(
    table: RecordTable,
    formula: Formula | str,
    reference_levels: dict[str, str] | None = None,
) -> AnovaTable:
    """Type-II ANOVA with partial eta squared per variable.

    By the Frisch-Waugh-Lovell theorem a term's sum of squares is ``||R_T b||^2``
    in the fit that adds it: ``b`` its coefficients, ``R_T`` the trailing block of
    that fit's R refactored with the term's columns last. Nothing is inverted.
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    try:
        full_fit = fit_model(table, formula, reference_levels)
    except RankDeficientError as exc:
        raise DesignError(f"full model {formula}: {exc}") from None
    ss_res = full_fit.ssr
    df_res = full_fit.df_resid
    exact = exact_fit_tolerance(table.columns[formula.response])

    rows: list[AnovaRow] = []
    for term in formula.terms:
        # the "with" model's columns are some of the full model's, so it is fittable;
        # for an additive formula it is the full model, fitted once
        with_terms = tuple(t for t in formula.terms if t == term or term not in t.split(":"))
        fit = fit_model(table, Formula(formula.response, with_terms), reference_levels)
        cols = fit.term_columns[term]
        rest = [i for i in range(fit.n_params) if i not in cols]
        r_t = np.linalg.qr(fit.r[:, rest + cols], mode="r")[-len(cols):, -len(cols):]
        z = r_t @ fit.beta[cols]
        sum_sq = float(z @ z)
        if fit.ssr + sum_sq <= exact:
            sum_sq = 0.0  # the model without ``term`` fits exactly: nothing is left to add
        df = len(cols)
        if ss_res > 0:
            f_stat = (sum_sq / df) / (ss_res / df_res)
            p_val = f_pvalue(f_stat, df, df_res)
        else:
            f_stat = math.inf if sum_sq > 0 else 0.0
            p_val = 0.0 if sum_sq > 0 else 1.0
        eta_sq = sum_sq / (sum_sq + ss_res) if (sum_sq + ss_res) > 0 else 0.0
        rows.append(
            AnovaRow(
                variable=term,
                sum_sq=sum_sq,
                df=df,
                f_stat=f_stat,
                p_value=p_val,
                partial_eta_sq=eta_sq,
            )
        )
    return AnovaTable(
        formula=str(formula),
        rows=rows,
        residual_sum_sq=ss_res,
        residual_df=df_res,
        r_squared=full_fit.r_squared,
    )


# ---------------------------------------------------------------------------
# Screening and model selection


@dataclass(frozen=True)
class ScreeningRow:
    variable: str
    p_value: float
    r_squared: float


def screen_variables(
    table: RecordTable,
    response: str,
    candidates: Sequence[str],
    alpha: float = 0.05,
) -> list[ScreeningRow]:
    """One-variable regressions; survivors sorted by R^2 descending.

    Candidates whose single-variable model cannot be fitted (constant
    column, too few rows) are silently excluded, as are those whose
    model p-value misses ``alpha``.
    """
    rows: list[ScreeningRow] = []
    for var in candidates:
        try:
            fit = fit_model(table, Formula(response, (var,)))
        except (DesignError, RankDeficientError):
            continue
        p_val = fit.f_pvalue
        if math.isnan(p_val) or p_val >= alpha:
            continue
        rows.append(ScreeningRow(variable=var, p_value=p_val, r_squared=fit.r_squared))
    rows.sort(key=lambda r: -r.r_squared)
    return rows


@dataclass(frozen=True)
class ModelCandidate:
    formula: str
    aic: float | None
    n_params: int | None
    error: str | None


@dataclass
class ModelSelection:
    best: Formula
    candidates: list[ModelCandidate]


def select_model_aic(
    table: RecordTable,
    response: str,
    candidate_formulas: Sequence[str],
) -> ModelSelection:
    """Fit every candidate and keep the smallest AIC.

    Ties (within 1e-9) prefer fewer parameters, then earlier declaration.
    Unfittable formulas are reported and skipped.
    """
    candidates: list[ModelCandidate] = []
    best: tuple[float, int, int] | None = None  # (aic, n_params, index)
    best_formula: Formula | None = None
    for idx, text in enumerate(candidate_formulas):
        formula = parse_formula(text)
        if formula.response != response:
            raise DesignError(
                f"candidate {text!r} models {formula.response!r}, expected {response!r}"
            )
        try:
            fit = fit_model(table, formula)
        except (DesignError, RankDeficientError) as exc:
            candidates.append(ModelCandidate(text, None, None, str(exc)))
            continue
        candidates.append(ModelCandidate(text, fit.aic, fit.n_params, None))
        key = (fit.aic, fit.n_params, idx)
        if best is None or key[0] < best[0] - 1e-9 or (
            abs(key[0] - best[0]) <= 1e-9 and key[1:] < best[1:]
        ):
            best = key
            best_formula = formula
    if best_formula is None:
        raise DesignError("no candidate formula could be fitted")
    return ModelSelection(best=best_formula, candidates=candidates)


# ---------------------------------------------------------------------------
# Pairwise comparisons


@dataclass
class PairwiseMatrix:
    """Level-by-level effect gains with Bonferroni-gated significance.

    ``gain[i, j]`` estimates the response gain of level i over level j;
    the matrix is antisymmetric by construction. ``significant`` is True
    where the pair's p-value beats ``alpha / n_tests``. Pairs that could
    not be estimated are flagged False in ``estimable`` and NaN in
    ``gain``.
    """

    variable: str
    response: str
    levels: tuple[str, ...]
    gain: np.ndarray
    p_values: np.ndarray
    significant: np.ndarray
    estimable: np.ndarray
    n_tests: int
    alpha: float
    corrected_alpha: float


def pairwise_comparison(
    table: RecordTable,
    formula: Formula | str,
    alpha: float = 0.05,
    variable: str = "train",
    reference_levels: dict[str, str] | None = None,
) -> PairwiseMatrix:
    """Tabulate the gain of every level of ``variable`` over every other.

    Under treatment coding the gain of level i over level j is
    ``beta_i - beta_j`` with variance ``sigma2 (c_ii + c_jj - 2 c_ij)``,
    where ``c`` is the unscaled covariance and the reference level has
    ``beta = 0`` and ``c = 0``; one fit serves every pair.
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    if variable not in formula.terms:
        raise DesignError(f"formula {formula} does not contain {variable!r} as a term")
    # the compared variable's own reference level changes no contrast
    refs = {k: v for k, v in (reference_levels or {}).items() if k != variable}
    levels = table.levels.get(variable, ())
    n_levels = len(levels)
    if n_levels < 2:
        raise DesignError(f"pairwise comparison needs >= 2 levels of {variable!r}")

    n_tests = n_levels * (n_levels - 1) // 2
    corrected = alpha / n_tests
    gain = np.full((n_levels, n_levels), np.nan)
    p_values = np.full((n_levels, n_levels), np.nan)
    estimable = np.zeros((n_levels, n_levels), dtype=bool)

    try:
        fit = fit_model(table, formula, refs)
    except (DesignError, RankDeficientError):
        pass  # the rank does not depend on the reference level: no pair is estimable
    else:
        # rows pick each level's coefficient; the reference level (the first, as refs
        # leaves ``variable`` out) has none and its row stays zero
        pick = np.zeros((n_levels, fit.n_params))
        pick[np.arange(1, n_levels), fit.term_columns[variable]] = 1.0
        beta = pick @ fit.beta
        cov = pick @ fit.cov_unscaled @ pick.T
        var = np.diag(cov)[:, None] + np.diag(cov)[None, :] - 2.0 * cov
        se = np.sqrt(np.clip(fit.sigma2 * var, 0.0, None))
        gain = beta[:, None] - beta[None, :]
        for i in range(n_levels):
            for j in range(i + 1, n_levels):
                p_values[i, j] = p_values[j, i] = fit.t_test(float(gain[i, j]), float(se[i, j]))[1]
        estimable = ~np.eye(n_levels, dtype=bool)

    np.fill_diagonal(gain, 0.0)
    with np.errstate(invalid="ignore"):
        significant = estimable & (p_values < corrected)
    return PairwiseMatrix(
        variable=variable,
        response=formula.response,
        levels=levels,
        gain=gain,
        p_values=p_values,
        significant=significant,
        estimable=estimable,
        n_tests=n_tests,
        alpha=alpha,
        corrected_alpha=corrected,
    )
