"""Builds the full analysis bundle from a results table.

The bundle is a plain JSON-serializable dict: metric correlations,
screening tables, AIC model selection, ANOVA tables with partial eta
squared, pairwise strategy comparisons (overall and per subgroup), and
regression diagnostics for the selected accuracy model; NaN is written as
None. The records become one column table (pairwise subgroups are masked
takes of it), and every section fits through its memo: each distinct model
is fitted once per bundle, and the memo goes with the table.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .metrics import MetricSet, metric_correlations
from .report import slugify
from .stats.analysis import (
    AnovaTable,
    PairwiseMatrix,
    anova_partial_eta2,
    fit_model,
    pairwise_comparison,
    screen_variables,
    select_model_aic,
)
from .stats.design import DesignError, RecordTable, RunRecord, parse_formula, record_table
from .stats.linalg import RankDeficientError
from .stats.regression import diagnostics, gram_min_eigenvalue

SCREENING_CANDIDATES = (
    "acc1",
    "data",
    "train",
    "incr",
    "n_mean",
    "small",
    "width",
    "scenario_b",
    "n",
    "n1",
)

AIC_LADDERS = {
    "avg_acc": (
        "avg_acc ~ incr",
        "avg_acc ~ train",
        "avg_acc ~ data",
        "avg_acc ~ incr + train",
        "avg_acc ~ incr + data",
        "avg_acc ~ train + data",
        "avg_acc ~ incr + train + data",
        "avg_acc ~ acc1 + incr + train + data",
    ),
    "forgetting": (
        "forgetting ~ incr",
        "forgetting ~ train",
        "forgetting ~ data",
        "forgetting ~ incr + train",
        "forgetting ~ incr + data",
        "forgetting ~ train + data",
        "forgetting ~ incr + train + data",
        "forgetting ~ acc1 + incr + train + data",
    ),
}

ANOVA_MODELS = (
    "avg_acc ~ incr + train + data",
    "avg_acc ~ acc1 + incr + train + data",
    "forgetting ~ incr + train + data",
)


class AnalysisError(ValueError):
    """Raised when the results table cannot support any analysis."""


def _anova_to_dict(table: AnovaTable) -> dict:
    return {
        "formula": table.formula,
        "r_squared": table.r_squared,
        "residual_sum_sq": table.residual_sum_sq,
        "residual_df": table.residual_df,
        "rows": [
            {
                "variable": r.variable,
                "sum_sq": r.sum_sq,
                "df": r.df,
                "f_stat": r.f_stat,
                "p_value": r.p_value,
                "partial_eta_sq": r.partial_eta_sq,
            }
            for r in table.rows
        ],
    }


def _pairwise_to_dict(pw: PairwiseMatrix, title: str) -> dict:
    return {
        "title": title,
        "slug": slugify(title),
        "variable": pw.variable,
        "response": pw.response,
        "levels": list(pw.levels),
        "gain": _nan_to_none(pw.gain),
        "p_values": _nan_to_none(pw.p_values),
        "significant": pw.significant.tolist(),
        "estimable": pw.estimable.tolist(),
        "n_tests": pw.n_tests,
        "alpha": pw.alpha,
        "corrected_alpha": pw.corrected_alpha,
    }


def _nan_to_none(values: np.ndarray) -> list:
    """Nested lists with None for NaN, so the bundle survives a JSON round trip.

    Infinities are kept: they round-trip and compare equal, unlike NaN.
    """
    return np.where(np.isnan(values), None, values).tolist()


def build_report_bundle(
    records: list[RunRecord],
    alpha: float = 0.05,
    config_hash: str = "",
) -> dict:
    """Run the full analysis pipeline over the records."""
    if len(records) < 3:
        raise AnalysisError(f"need at least 3 result rows to analyze, got {len(records)}")
    table = record_table(records)
    warnings: list[str] = []

    corr = metric_correlations(
        [MetricSet(r.acc1, r.avg_acc, r.forgetting, r.accK) for r in records]
    )
    bundle: dict = {
        "version": __version__,
        "alpha": alpha,
        "config_hash": config_hash,
        "n_records": len(records),
        "correlations": {
            "labels": list(corr.labels),
            "values": _nan_to_none(corr.values),
            "defined": corr.defined.tolist(),
        },
        "screening": {},
        "aic": {},
        "anova": [],
        "pairwise": [],
        "coefficients": None,
        "diagnostics": None,
        "warnings": warnings,
    }

    usable_responses = []
    for response in ("avg_acc", "forgetting"):
        if float(table.columns[response].var()) == 0.0:
            warnings.append(f"response {response!r} has zero variance; its models were skipped")
            continue
        usable_responses.append(response)
        bundle["screening"][response] = [
            {"variable": row.variable, "p_value": row.p_value, "r_squared": row.r_squared}
            for row in screen_variables(table, response, SCREENING_CANDIDATES, alpha)
        ]
        try:
            selection = select_model_aic(table, response, AIC_LADDERS[response])
            bundle["aic"][response] = {
                "best": str(selection.best),
                "candidates": [
                    {
                        "formula": c.formula,
                        "aic": c.aic,
                        "n_params": c.n_params,
                        "error": c.error,
                    }
                    for c in selection.candidates
                ],
            }
        except DesignError as exc:
            warnings.append(f"AIC selection for {response!r} failed: {exc}")

    for model in ANOVA_MODELS:
        response = parse_formula(model).response
        if response not in usable_responses:
            continue
        try:
            bundle["anova"].append(_anova_to_dict(anova_partial_eta2(table, model)))
        except DesignError as exc:
            warnings.append(f"ANOVA for {model!r} skipped: {exc}")

    _add_pairwise_sections(bundle, table, alpha, usable_responses)
    _add_diagnostics(bundle, table, usable_responses, warnings)
    return bundle


def _add_pairwise(bundle: dict, records, formula: str, alpha: float, title: str) -> None:
    try:
        pw = pairwise_comparison(records, formula, alpha=alpha, variable="train")
    except DesignError as exc:
        bundle["warnings"].append(f"pairwise {title!r} skipped: {exc}")
        return
    bundle["pairwise"].append(_pairwise_to_dict(pw, title))


def _add_pairwise_sections(bundle, table: RecordTable, alpha, usable_responses) -> None:
    if "avg_acc" in usable_responses:
        _add_pairwise(bundle, table, "avg_acc ~ incr + train + data", alpha, "accuracy overall")
        for code, lvl in enumerate(table.levels["data"]):
            _add_pairwise(
                bundle,
                table.take(table.columns["data"] == code),
                "avg_acc ~ incr + train",
                alpha,
                f"accuracy on dataset {lvl}",
            )
        for code, lvl in enumerate(table.levels["incr"]):
            _add_pairwise(
                bundle,
                table.take(table.columns["incr"] == code),
                "avg_acc ~ train + data",
                alpha,
                f"accuracy with method {lvl}",
            )
        # scenario flag encodes the initial-class share (equal vs half split)
        for lvl in sorted(set(table.columns["scenario_b"].tolist())):
            _add_pairwise(
                bundle,
                table.take(table.columns["scenario_b"] == lvl),
                "avg_acc ~ incr + train + data",
                alpha,
                f"accuracy with initial-class share {'50%' if lvl else 'equal'}",
            )
    if "forgetting" in usable_responses:
        _add_pairwise(
            bundle, table, "forgetting ~ incr + train + data", alpha, "forgetting overall"
        )


def _add_diagnostics(bundle, table: RecordTable, usable_responses, warnings) -> None:
    if "avg_acc" not in usable_responses:
        return
    model = bundle.get("aic", {}).get("avg_acc", {}).get("best", "avg_acc ~ incr + train + data")
    try:
        fit = fit_model(table, model)
    except (DesignError, RankDeficientError) as exc:
        warnings.append(f"diagnostics for {model!r} skipped: {exc}")
        return
    bundle["coefficients"] = {"formula": model, "rows": _coef_rows(fit)}
    diag = diagnostics(fit)
    gram = gram_min_eigenvalue(fit.design())
    bundle["diagnostics"] = {
        "formula": model,
        "r_squared": fit.r_squared,
        "aic": fit.aic,
        "qq_theoretical": diag.qq_theoretical.tolist(),
        "qq_residuals": diag.qq_residuals.tolist(),
        "fitted": diag.fitted.tolist(),
        "sqrt_abs_std_residuals": diag.sqrt_abs_std_residuals.tolist(),
        "leverage": diag.leverage.tolist(),
        "std_residuals": diag.std_residuals.tolist(),
        "gram": {
            "min_eigenvalue": gram.min_eigenvalue,
            "max_eigenvalue": gram.max_eigenvalue,
            "threshold": gram.threshold,
            "collinear": gram.collinear,
        },
    }


def _coef_rows(fit) -> list[dict]:
    return [
        {
            "coefficient": label,
            "estimate": float(fit.beta[i]),
            "se": float(fit.se[i]),
            "t_stat": float(fit.t_stats[i]),
            "p_value": float(fit.p_values[i]),
        }
        for i, label in enumerate(fit.column_labels)
    ]
