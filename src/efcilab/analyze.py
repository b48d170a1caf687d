"""Builds the full analysis bundle from a results table.

The bundle is a plain JSON-serializable dict: metric correlations,
screening tables, AIC model selection, ANOVA tables with partial eta
squared, pairwise strategy comparisons (overall and per subgroup), and
regression diagnostics for the selected accuracy model. Each section is
the field dict of its stats result (``_as_json``), so the stats dataclasses
are the bundle's schema; NaN is written as None. Only a few keys are not
fields: a pairwise section's title and slug, the AIC winner (``best``), the
diagnostics' formula, R^2, AIC and Gram check, and the coefficient table,
which comes from the fit's arrays. ``build_report_bundle`` takes the column
table that the CLI codes from the loader's columns (pairwise subgroups are
masked takes of it); every section fits through the table's memo, so each
distinct model is fitted once per bundle, from one factorisation per table.
The diagnostics encode the selected model once, for the residual point
sets; the Gram check reads the fit's R.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import __version__
from .metrics import METRIC_NAMES, metric_correlations
from .report import slugify
from .stats.analysis import (
    anova_partial_eta2,
    fit_model,
    pairwise_comparison,
    screen_variables,
    select_model_aic,
)
from .stats.design import DesignError, RecordTable, encode_design, parse_formula
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

AIC_LADDER_RHS = (
    "incr",
    "train",
    "data",
    "incr + train",
    "incr + data",
    "train + data",
    "incr + train + data",
    "acc1 + incr + train + data",
)

AIC_LADDERS = {
    response: tuple(f"{response} ~ {rhs}" for rhs in AIC_LADDER_RHS)
    for response in ("avg_acc", "forgetting")
}

ANOVA_MODELS = (
    "avg_acc ~ incr + train + data",
    "avg_acc ~ acc1 + incr + train + data",
    "forgetting ~ incr + train + data",
)


class AnalysisError(ValueError):
    """Raised when the results table cannot support any analysis."""


def _as_json(value):
    """A stats result as JSON data: a dataclass becomes the dict of its fields.

    Arrays become nested lists with None for NaN, so the bundle survives a
    JSON round trip; infinities are kept, as they round-trip and compare
    equal, unlike NaN. Tuples become lists.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: _as_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isnan(value).any():
            return np.where(np.isnan(value), None, value).tolist()
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    return value


def build_report_bundle(
    table: RecordTable,
    alpha: float = 0.05,
    config_hash: str = "",
) -> dict:
    """Run the full analysis pipeline over the table's rows."""
    if table.n < 3:
        raise AnalysisError(f"need at least 3 result rows to analyze, got {table.n}")
    warnings: list[str] = []

    corr = metric_correlations(np.column_stack([table.columns[m] for m in METRIC_NAMES]))
    bundle: dict = {
        "version": __version__,
        "alpha": alpha,
        "config_hash": config_hash,
        "n_records": table.n,
        "correlations": _as_json(corr),
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
        bundle["screening"][response] = _as_json(
            screen_variables(table, response, SCREENING_CANDIDATES, alpha)
        )
        try:
            selection = select_model_aic(table, response, AIC_LADDERS[response])
            bundle["aic"][response] = {
                "best": str(selection.best),
                "candidates": _as_json(selection.candidates),
            }
        except DesignError as exc:
            warnings.append(f"AIC selection for {response!r} failed: {exc}")

    for model in ANOVA_MODELS:
        response = parse_formula(model).response
        if response not in usable_responses:
            continue
        try:
            bundle["anova"].append(_as_json(anova_partial_eta2(table, model)))
        except DesignError as exc:
            warnings.append(f"ANOVA for {model!r} skipped: {exc}")

    _add_pairwise_sections(bundle, table, alpha, usable_responses)
    _add_diagnostics(bundle, table, usable_responses, warnings)
    return bundle


def _add_pairwise(
    bundle: dict, table: RecordTable, formula: str, alpha: float, title: str
) -> None:
    try:
        pw = pairwise_comparison(table, formula, alpha=alpha, variable="train")
    except DesignError as exc:
        bundle["warnings"].append(f"pairwise {title!r} skipped: {exc}")
        return
    bundle["pairwise"].append({"title": title, "slug": slugify(title), **_as_json(pw)})


def _add_pairwise_sections(bundle, table: RecordTable, alpha, usable_responses) -> None:
    if "avg_acc" in usable_responses:
        _add_pairwise(bundle, table, "avg_acc ~ incr + train + data", alpha, "accuracy overall")
        for factor, formula, title in (
            ("data", "avg_acc ~ incr + train", "accuracy on dataset {}"),
            ("incr", "avg_acc ~ train + data", "accuracy with method {}"),
        ):
            for code, lvl in enumerate(table.levels[factor]):
                subset = table.take(table.columns[factor] == code)
                _add_pairwise(bundle, subset, formula, alpha, title.format(lvl))
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
    design = encode_design(table, model)
    bundle["coefficients"] = {"formula": model, "rows": _coef_rows(fit)}
    bundle["diagnostics"] = {
        "formula": model,
        "r_squared": fit.r_squared,
        "aic": fit.aic,
        **_as_json(diagnostics(fit, design)),
        "gram": _as_json(gram_min_eigenvalue(fit.r)),
    }


def _coef_rows(fit) -> list[dict]:
    keys = ("coefficient", "estimate", "se", "t_stat", "p_value")
    rows = zip(fit.column_labels, fit.beta.tolist(), fit.se.tolist(), fit.t_stats.tolist(),
               fit.p_values.tolist())
    return [dict(zip(keys, row)) for row in rows]
