"""Deterministic rendering of a report bundle to CSV, Markdown, and SVG."""

from __future__ import annotations

import json
import math
from pathlib import Path

FORMATS = ("csv", "md", "svg")

_CELL = 72
_LEFT = 170
_TOP = 64


def _fmt(x, digits: int = 6) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, f".{digits}g")
    return str(x)


def _csv(rows: list[list]) -> str:
    return "\n".join(",".join(_fmt(v) for v in row) for row in rows) + "\n"


def _md_table(header: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Section renderers


def correlation_rows(corr: dict) -> tuple[list[str], list[list]]:
    labels = corr["labels"]
    header = ["metric"] + labels
    rows = []
    for i, lab in enumerate(labels):
        rows.append([lab] + [corr["values"][i][j] for j in range(len(labels))])
    return header, rows


def anova_rows(table: dict) -> tuple[list[str], list[list]]:
    header = ["variable", "sum_sq", "df", "F", "p_value", "partial_eta_sq"]
    ranked = sorted(table["rows"], key=lambda r: -r["partial_eta_sq"])
    rows = [
        [r["variable"], r["sum_sq"], r["df"], r["f_stat"], r["p_value"], r["partial_eta_sq"]]
        for r in ranked
    ]
    rows.append(["residual", table["residual_sum_sq"], table["residual_df"], "", "", ""])
    return header, rows


def pairwise_rows(pw: dict) -> tuple[list[str], list[list]]:
    levels = pw["levels"]
    header = ["level"] + levels
    rows = []
    for i, lvl in enumerate(levels):
        row = [lvl]
        for j in range(len(levels)):
            if i == j:
                row.append(0.0)
            elif not pw["estimable"][i][j]:
                row.append("")
            else:
                row.append(pw["gain"][i][j])
        rows.append(row)
    return header, rows


def pairwise_markdown(pw: dict) -> str:
    """Gain matrix with significant cells in bold, mirroring the heatmap."""
    levels = pw["levels"]
    header = [f"{pw['response']} gain"] + levels
    rows = []
    for i, lvl in enumerate(levels):
        row = [lvl]
        for j in range(len(levels)):
            if i == j:
                row.append("·")
            elif not pw["estimable"][i][j]:
                row.append("n/a")
            else:
                text = f"{pw['gain'][i][j] * 100:.1f}"
                row.append(f"**{text}**" if pw["significant"][i][j] else text)
        rows.append(row)
    note = (
        f"\nRow level over column level, in response points x100. Bold cells pass the "
        f"Bonferroni-corrected threshold {_fmt(pw['corrected_alpha'])} "
        f"({pw['n_tests']} tests at alpha={_fmt(pw['alpha'])}).\n"
    )
    return _md_table(header, rows) + note


def _heat_color(value: float, vmax: float) -> str:
    if vmax <= 0:
        return "#ffffff"
    t = max(-1.0, min(1.0, value / vmax))
    if t >= 0:
        # white -> red
        r, g, b = 255, round(255 - 150 * t), round(255 - 170 * t)
    else:
        # white -> blue
        r, g, b = round(255 + 170 * t), round(255 + 110 * t), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_svg(pw: dict) -> str:
    """Pairwise gain heatmap; significant cells bold, others dimmed."""
    levels = pw["levels"]
    n = len(levels)
    width = _LEFT + _CELL * n + 20
    height = _TOP + _CELL * n + 40
    finite = [
        abs(pw["gain"][i][j])
        for i in range(n)
        for j in range(n)
        if i != j and pw["estimable"][i][j]
    ]
    vmax = max(finite) if finite else 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="Helvetica, Arial, sans-serif">',
        f'<text x="{_LEFT}" y="20" font-size="14">{pw["title"]}: row {pw["variable"]} '
        f'gain over column ({pw["response"]} x100)</text>',
        f'<text x="{_LEFT}" y="38" font-size="11" fill="#555555">bold = significant at '
        f'alpha/m = {_fmt(pw["corrected_alpha"], 4)} (m={pw["n_tests"]})</text>',
    ]
    for j, lvl in enumerate(levels):
        x = _LEFT + j * _CELL + _CELL // 2
        parts.append(
            f'<text x="{x}" y="{_TOP - 8}" font-size="11" text-anchor="middle">{lvl}</text>'
        )
    for i, lvl in enumerate(levels):
        y = _TOP + i * _CELL + _CELL // 2 + 4
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y}" font-size="11" text-anchor="end">{lvl}</text>'
        )
    for i in range(n):
        for j in range(n):
            x = _LEFT + j * _CELL
            y = _TOP + i * _CELL
            if i == j:
                fill, text, bold, opacity = "#eeeeee", "", False, 1.0
            elif not pw["estimable"][i][j]:
                fill, text, bold, opacity = "#dddddd", "n/a", False, 0.45
            else:
                gain = pw["gain"][i][j]
                fill = _heat_color(gain, vmax)
                text = f"{gain * 100:.1f}"
                bold = bool(pw["significant"][i][j])
                opacity = 1.0 if bold else 0.45
            parts.append(
                f'<g opacity="{opacity:g}"><rect x="{x}" y="{y}" width="{_CELL}" '
                f'height="{_CELL}" fill="{fill}" stroke="#999999"/>'
                + (
                    f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 5}" font-size="13" '
                    f'text-anchor="middle"'
                    + (' font-weight="bold"' if bold else "")
                    + f">{text}</text>"
                    if text
                    else ""
                )
                + "</g>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Bundle rendering


def write_bundle_json(bundle: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(bundle, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def load_bundle_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def render_bundle(bundle: dict, out_dir: str | Path, formats: set[str] | None = None) -> list[Path]:
    """Write every requested artifact; returns the paths written."""
    formats = set(formats or FORMATS)
    unknown = formats - set(FORMATS)
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}; expected {FORMATS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)

    header, rows = correlation_rows(bundle["correlations"])
    if "csv" in formats:
        emit("correlations.csv", _csv([header] + rows))

    for response, screen in sorted(bundle["screening"].items()):
        s_header = ["variable", "p_value", "r_squared"]
        s_rows = [[r["variable"], r["p_value"], r["r_squared"]] for r in screen]
        if "csv" in formats:
            emit(f"screening_{response}.csv", _csv([s_header] + s_rows))

    for response, sel in sorted(bundle["aic"].items()):
        a_header = ["formula", "aic", "n_params", "error"]
        a_rows = [[c["formula"], c["aic"], c["n_params"], c["error"] or ""] for c in sel["candidates"]]
        if "csv" in formats:
            emit(f"aic_{response}.csv", _csv([a_header] + a_rows))

    for table in bundle["anova"]:
        slug = slugify(table["formula"])
        t_header, t_rows = anova_rows(table)
        if "csv" in formats:
            emit(f"anova_{slug}.csv", _csv([t_header] + t_rows))
        if "md" in formats:
            emit(
                f"anova_{slug}.md",
                f"## ANOVA: `{table['formula']}`\n\n" + _md_table(t_header, t_rows),
            )

    for pw in bundle["pairwise"]:
        p_header, p_rows = pairwise_rows(pw)
        if "csv" in formats:
            emit(f"pairwise_{pw['slug']}.csv", _csv([p_header] + p_rows))
        if "md" in formats:
            emit(f"pairwise_{pw['slug']}.md", f"## {pw['title']}\n\n" + pairwise_markdown(pw))
        if "svg" in formats:
            emit(f"pairwise_{pw['slug']}.svg", render_heatmap_svg(pw))

    coef = bundle.get("coefficients")
    if coef and "csv" in formats:
        emit(
            "coefficients.csv",
            _csv(
                [["coefficient", "estimate", "se", "t_stat", "p_value"]]
                + [
                    [r["coefficient"], r["estimate"], r["se"], r["t_stat"], r["p_value"]]
                    for r in coef["rows"]
                ]
            ),
        )

    diag = bundle.get("diagnostics")
    if diag and "csv" in formats:
        emit(
            "diagnostics_qq.csv",
            _csv(
                [["theoretical_quantile", "standardized_residual"]]
                + [list(pair) for pair in zip(diag["qq_theoretical"], diag["qq_residuals"])]
            ),
        )
        emit(
            "diagnostics_scale_location.csv",
            _csv(
                [["fitted", "sqrt_abs_standardized_residual"]]
                + [list(pair) for pair in zip(diag["fitted"], diag["sqrt_abs_std_residuals"])]
            ),
        )
        emit(
            "diagnostics_leverage.csv",
            _csv(
                [["leverage", "standardized_residual"]]
                + [list(pair) for pair in zip(diag["leverage"], diag["std_residuals"])]
            ),
        )
        gram = diag["gram"]
        emit(
            "gram_check.csv",
            _csv(
                [
                    ["min_eigenvalue", "max_eigenvalue", "threshold", "collinear"],
                    [
                        gram["min_eigenvalue"],
                        gram["max_eigenvalue"],
                        gram["threshold"],
                        gram["collinear"],
                    ],
                ]
            ),
        )

    if "md" in formats:
        emit("summary.md", summary_markdown(bundle))
    return written


def slugify(text: str) -> str:
    """Lower-case alphanumerics with single underscores: the file-name form of a title."""
    out = []
    for ch in text:
        if ch.isalnum():
            out.append(ch.lower())
        elif out and out[-1] != "_":
            out.append("_")
    return "".join(out).strip("_")


def summary_markdown(bundle: dict) -> str:
    """One readable document covering every analysis section."""
    parts = [
        "# Incremental-learning analysis report",
        "",
        f"- rows analyzed: {bundle['n_records']}",
        f"- significance level: {_fmt(bundle['alpha'])}",
        f"- config hash: {bundle['config_hash'] or '(none)'}",
        "",
        "## Metric correlations",
        "",
    ]
    header, rows = correlation_rows(bundle["correlations"])
    parts.append(_md_table(header, rows))

    for response, screen in sorted(bundle["screening"].items()):
        parts += [f"## Screening: one-variable models for `{response}`", ""]
        parts.append(
            _md_table(
                ["variable", "p_value", "r_squared"],
                [[r["variable"], r["p_value"], r["r_squared"]] for r in screen],
            )
        )

    for response, sel in sorted(bundle["aic"].items()):
        parts += [f"## Model selection for `{response}` (best: `{sel['best']}`)", ""]
        parts.append(
            _md_table(
                ["formula", "AIC", "params", "note"],
                [
                    [c["formula"], c["aic"], c["n_params"], c["error"] or ""]
                    for c in sel["candidates"]
                ],
            )
        )

    for table in bundle["anova"]:
        parts += [f"## ANOVA: `{table['formula']}` (R² = {_fmt(table['r_squared'], 3)})", ""]
        t_header, t_rows = anova_rows(table)
        parts.append(_md_table(t_header, t_rows))

    for pw in bundle["pairwise"]:
        parts += [f"## Pairwise: {pw['title']}", ""]
        parts.append(pairwise_markdown(pw))

    coef = bundle.get("coefficients")
    if coef:
        parts += [f"## Coefficients: `{coef['formula']}`", ""]
        parts.append(
            _md_table(
                ["coefficient", "estimate", "se", "t", "p_value"],
                [
                    [r["coefficient"], r["estimate"], r["se"], r["t_stat"], r["p_value"]]
                    for r in coef["rows"]
                ],
            )
        )

    diag = bundle.get("diagnostics")
    if diag:
        gram = diag["gram"]
        parts += [
            f"## Diagnostics for `{diag['formula']}`",
            "",
            f"- R²: {_fmt(diag['r_squared'])}  AIC: {_fmt(diag['aic'])}",
            f"- Gram smallest eigenvalue: {_fmt(gram['min_eigenvalue'])} "
            f"(threshold {_fmt(gram['threshold'])}; "
            f"collinearity {'WARNING' if gram['collinear'] else 'ok'})",
            "- point sets for Q-Q, scale-location, and leverage plots are in the CSV outputs",
            "",
        ]

    if bundle["warnings"]:
        parts += ["## Warnings", ""]
        parts += [f"- {w}" for w in bundle["warnings"]]
        parts.append("")
    return "\n".join(parts)
