"""Deterministic rendering of a report bundle to CSV, Markdown, and SVG."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

from .stats.analysis import AnovaRow, ModelCandidate, ScreeningRow
from .stats.regression import GramDiagnostic

FORMATS = ("csv", "md", "svg")

_CELL = 72
_LEFT = 170
_TOP = 64


def _fmt(x, digits: int = 6) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):  # prints nan, inf and -inf as such
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


@dataclass(frozen=True)
class Table:
    """One report table: header and rows, shared by its CSV file and summary.md."""

    header: list[str]
    rows: list[list]
    md_header: list[str] | None = None  # summary.md's names, where they differ

    def csv(self) -> str:
        return _csv([self.header] + self.rows)

    def markdown(self) -> str:
        return _md_table(self.md_header or self.header, self.rows)


def _field_table(records: list[dict], result_type, md_header: list[str] | None = None) -> Table:
    """Bundle records of a stats result type, one column per dataclass field."""
    columns = [f.name for f in dataclasses.fields(result_type)]
    return Table(columns, [[r[c] for c in columns] for r in records], md_header)


def correlation_table(corr: dict) -> Table:
    labels = corr["labels"]
    return Table(["metric"] + labels, [[lab] + corr["values"][i] for i, lab in enumerate(labels)])


def screening_table(screen: list[dict]) -> Table:
    return _field_table(screen, ScreeningRow)


def aic_table(selection: dict) -> Table:
    md_header = ["formula", "AIC", "params", "note"]
    return _field_table(selection["candidates"], ModelCandidate, md_header)


def anova_table(table: dict) -> Table:
    """Rows by decreasing partial eta squared, then the residual row."""
    ranked = sorted(table["rows"], key=lambda r: -r["partial_eta_sq"])
    rows = _field_table(ranked, AnovaRow).rows
    rows.append(["residual", table["residual_sum_sq"], table["residual_df"], "", "", ""])
    return Table(["variable", "sum_sq", "df", "F", "p_value", "partial_eta_sq"], rows)


def coefficient_table(coef: dict) -> Table:
    columns = ["coefficient", "estimate", "se", "t_stat", "p_value"]
    return Table(
        columns,
        [[r[c] for c in columns] for r in coef["rows"]],
        ["coefficient", "estimate", "se", "t", "p_value"],
    )


class _Blank:
    """A missing value: formats as an empty cell under any spec, as ``_fmt`` prints None."""

    def __format__(self, spec: str) -> str:
        return ""


_BLANK = _Blank()


def _cells(values: list) -> list:
    return [_BLANK if v is None else v for v in values] if None in values else values


@dataclass(frozen=True)
class Points:
    """One diagnostic point set: the ``x`` and ``y`` float columns of a CSV file.

    ``csv`` prints what ``Table.csv`` prints for the rows ``zip(x, y)`` (the
    cells of ``_fmt``: ``.6g``, None empty) with one format call per row.
    """

    header: list[str]
    x: list
    y: list

    def csv(self) -> str:
        rows = map("{:.6g},{:.6g}\n".format, _cells(self.x), _cells(self.y))
        return ",".join(self.header) + "\n" + "".join(rows)


def diagnostic_tables(diag) -> dict[str, Points]:
    """Q-Q, scale-location and leverage points: normal quantiles at (i - 1/2)/n
    against the sorted standardized residuals, sqrt|residual| against fitted."""
    resid, n = diag["std_residuals"], len(diag["std_residuals"])
    quantile = NormalDist().inv_cdf
    return {
        "qq": Points(
            ["theoretical_quantile", "standardized_residual"],
            [quantile((i + 0.5) / n) for i in range(n)],
            sorted(resid),
        ),
        "scale_location": Points(
            ["fitted", "sqrt_abs_standardized_residual"],
            diag["fitted"],
            [math.sqrt(abs(r)) for r in resid],
        ),
        "leverage": Points(["leverage", "standardized_residual"], diag["leverage"], resid),
    }


def pairwise_table(pw: dict) -> Table:
    levels = pw["levels"]
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
    return Table(["level"] + levels, rows)


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
    """One line of JSON with sorted keys (no indent, so ``json`` runs its C encoder)."""
    Path(path).write_text(
        json.dumps(bundle, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


def load_bundle_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def report_formats(formats) -> set[str]:
    """``formats`` as a set, each one of ``FORMATS``; raises ValueError otherwise."""
    formats = set(formats)
    unknown = formats - set(FORMATS)
    if unknown:
        raise ValueError(f"unknown report formats: {sorted(unknown)}; expected {FORMATS}")
    return formats


def render_bundle(bundle: dict, out_dir: str | Path, formats: set[str] | None = None) -> list[Path]:
    """Write every requested artifact; returns the paths written."""
    formats = report_formats(formats or FORMATS)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)

    if "csv" in formats:
        emit("correlations.csv", correlation_table(bundle["correlations"]).csv())
        for response, screen in sorted(bundle["screening"].items()):
            emit(f"screening_{response}.csv", screening_table(screen).csv())
        for response, selection in sorted(bundle["aic"].items()):
            emit(f"aic_{response}.csv", aic_table(selection).csv())

    for table in bundle["anova"]:
        slug = slugify(table["formula"])
        anova = anova_table(table)
        if "csv" in formats:
            emit(f"anova_{slug}.csv", anova.csv())
        if "md" in formats:
            emit(f"anova_{slug}.md", f"## ANOVA: `{table['formula']}`\n\n" + anova.markdown())

    for pw in bundle["pairwise"]:
        if "csv" in formats:
            emit(f"pairwise_{pw['slug']}.csv", pairwise_table(pw).csv())
        if "md" in formats:
            emit(f"pairwise_{pw['slug']}.md", f"## {pw['title']}\n\n" + pairwise_markdown(pw))
        if "svg" in formats:
            emit(f"pairwise_{pw['slug']}.svg", render_heatmap_svg(pw))

    coef = bundle.get("coefficients")
    if coef and "csv" in formats:
        emit("coefficients.csv", coefficient_table(coef).csv())

    diag = bundle.get("diagnostics")
    if diag and "csv" in formats:
        for name, points in diagnostic_tables(diag).items():
            emit(f"diagnostics_{name}.csv", points.csv())
        emit("gram_check.csv", _field_table([diag["gram"]], GramDiagnostic).csv())

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
    parts.append(correlation_table(bundle["correlations"]).markdown())

    for response, screen in sorted(bundle["screening"].items()):
        parts += [f"## Screening: one-variable models for `{response}`", ""]
        parts.append(screening_table(screen).markdown())

    for response, selection in sorted(bundle["aic"].items()):
        parts += [f"## Model selection for `{response}` (best: `{selection['best']}`)", ""]
        parts.append(aic_table(selection).markdown())

    for table in bundle["anova"]:
        parts += [f"## ANOVA: `{table['formula']}` (R² = {_fmt(table['r_squared'], 3)})", ""]
        parts.append(anova_table(table).markdown())

    for pw in bundle["pairwise"]:
        parts += [f"## Pairwise: {pw['title']}", ""]
        parts.append(pairwise_markdown(pw))

    coef = bundle.get("coefficients")
    if coef:
        parts += [f"## Coefficients: `{coef['formula']}`", ""]
        parts.append(coefficient_table(coef).markdown())

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
