"""Report bundle construction and deterministic rendering."""

import copy
import dataclasses
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from _factories import make_records, make_table, record_table
from efcilab.analyze import AnalysisError, build_report_bundle
from efcilab.cli import main
from efcilab.report import (
    _fmt,
    load_bundle_json,
    pairwise_markdown,
    render_bundle,
    render_heatmap_svg,
    write_bundle_json,
)
from efcilab.metrics import CorrelationMatrix
from efcilab.stats.analysis import (
    AnovaRow,
    AnovaTable,
    ModelCandidate,
    PairwiseMatrix,
    ScreeningRow,
)
from efcilab.stats.regression import DiagnosticsBundle, GramDiagnostic, ols_fit


@pytest.fixture(scope="module")
def rich_records():
    return make_records(
        120,
        seed=31,
        train_levels=("byol", "dino", "scratch"),
        incr_levels=("dslda", "fetril", "ncm"),
        data_levels=("d1", "d2"),
        train_effects={"byol": 0.1, "dino": 0.25},
        incr_effects={"fetril": -0.08},
        data_effects={"d2": 0.04},
        acc1_coef=0.2,
        noise=0.05,
    )


@pytest.fixture(scope="module")
def bundle(rich_records):
    return build_report_bundle(record_table(rich_records), alpha=0.05, config_hash="abc123")


def test_bundle_sections_present(bundle):
    assert bundle["config_hash"] == "abc123"
    assert bundle["correlations"]["labels"] == ["acc1", "avg_acc", "forgetting", "accK"]
    assert "avg_acc" in bundle["screening"] and "forgetting" in bundle["screening"]
    assert "avg_acc" in bundle["aic"]
    assert any(t["formula"] == "avg_acc ~ incr + train + data" for t in bundle["anova"])
    assert any(pw["title"] == "accuracy overall" for pw in bundle["pairwise"])
    assert bundle["diagnostics"] is not None
    gram = bundle["diagnostics"]["gram"]
    assert gram["min_eigenvalue"] > 0
    coef = bundle["coefficients"]
    assert coef["formula"] == bundle["diagnostics"]["formula"]
    assert coef["rows"][0]["coefficient"] == "intercept"
    assert all(0.0 <= r["p_value"] <= 1.0 for r in coef["rows"])


def _fields(result_type) -> set[str]:
    return {f.name for f in dataclasses.fields(result_type)}


def test_bundle_sections_are_their_stats_result_fields(bundle):
    # each section's keys are its dataclass's fields plus the few extras analyze adds
    assert set(bundle["correlations"]) == _fields(CorrelationMatrix)
    for response in ("avg_acc", "forgetting"):
        assert all(set(r) == _fields(ScreeningRow) for r in bundle["screening"][response])
        assert set(bundle["aic"][response]) == {"best", "candidates"}
        for c in bundle["aic"][response]["candidates"]:
            assert set(c) == _fields(ModelCandidate)
    assert len(bundle["anova"]) == 3
    for table in bundle["anova"]:
        assert set(table) == _fields(AnovaTable)
        assert all(set(r) == _fields(AnovaRow) for r in table["rows"])
    assert bundle["pairwise"]
    for pw in bundle["pairwise"]:
        assert set(pw) == _fields(PairwiseMatrix) | {"title", "slug"}
    diag = bundle["diagnostics"]
    assert set(diag) == _fields(DiagnosticsBundle) | {"formula", "r_squared", "aic", "gram"}
    assert set(diag["gram"]) == _fields(GramDiagnostic)
    assert set(bundle["coefficients"]) == {"formula", "rows"}


def test_bundle_screening_recovers_strong_predictor(bundle):
    rows = bundle["screening"]["avg_acc"]
    assert rows, "screening should find at least one predictor"
    assert rows[0]["variable"] in {"train", "acc1"}


def test_constant_forgetting_skips_its_models_but_not_accuracy():
    records = [
        dataclasses.replace(r, forgetting=0.125) for r in make_records(60, seed=32)
    ]
    bundle = build_report_bundle(record_table(records), alpha=0.05)
    assert any("forgetting" in w for w in bundle["warnings"])
    assert "forgetting" not in bundle["screening"]
    assert "avg_acc" in bundle["screening"]
    assert all(t["formula"].startswith("avg_acc") for t in bundle["anova"])


def test_too_few_rows_raises_analysis_error():
    with pytest.raises(AnalysisError, match="at least 3"):
        build_report_bundle(make_table(2, seed=33))


def test_analysis_of_toy_table_is_fast(rich_records):
    start = time.perf_counter()
    build_report_bundle(record_table(rich_records[:36]), alpha=0.05)
    assert time.perf_counter() - start < 1.0


def test_bundle_json_round_trip(tmp_path, bundle):
    path = tmp_path / "bundle.json"
    write_bundle_json(bundle, path)
    assert load_bundle_json(path) == bundle


def test_undefined_values_become_null_and_round_trip(tmp_path):
    records = [
        # accK constant: its correlations are undefined. On d2 the method follows
        # the strategy, so no strategy pair is estimable within that dataset.
        dataclasses.replace(
            r,
            accK=0.5,
            incr=("dslda" if r.train == "byol" else "fetril") if r.data == "d2" else r.incr,
        )
        for r in make_records(120, seed=32, train_effects={"dino": 0.2})
    ]
    bundle = build_report_bundle(record_table(records))
    corr = bundle["correlations"]
    k = corr["labels"].index("accK")
    assert not corr["defined"][k]
    assert corr["values"][k] == [None] * len(corr["labels"])
    d2 = next(pw for pw in bundle["pairwise"] if pw["title"] == "accuracy on dataset d2")
    assert not any(e for row in d2["estimable"] for e in row)
    n = len(d2["levels"])
    assert all(d2["gain"][i][j] is None for i in range(n) for j in range(n) if i != j)
    assert all(d2["p_values"][i][j] is None for i in range(n) for j in range(n))
    assert [d2["gain"][i][i] for i in range(n)] == [0.0] * n
    path = tmp_path / "bundle.json"
    write_bundle_json(bundle, path)
    assert "NaN" not in path.read_text()
    assert load_bundle_json(path) == bundle


def test_bundle_fits_each_distinct_model_once(monkeypatch, rich_records):
    import efcilab.stats.analysis as analysis

    fitted = []

    def counting(design, r_xy=None):
        columns = design.x if r_xy is None else r_xy
        fitted.append((tuple(design.column_labels), columns.tobytes(), design.y.tobytes()))
        return ols_fit(design, r_xy)

    monkeypatch.setattr(analysis, "ols_fit", counting)
    build_report_bundle(record_table(rich_records))
    assert len(fitted) == len(set(fitted))
    # screening 2 x 10, AIC 2 x 5 more (each ANOVA model is additive and on an AIC
    # ladder, so ANOVA fits nothing new), and one pairwise model per dataset (2),
    # method (3) and initial-class share (2)
    assert len(fitted) == 20 + 10 + 7


def test_render_twice_is_byte_identical(tmp_path, bundle):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    files1 = render_bundle(bundle, out1)
    files2 = render_bundle(bundle, out2)
    assert [f.name for f in files1] == [f.name for f in files2]
    for a, b in zip(files1, files2):
        assert a.read_bytes() == b.read_bytes()


def test_report_renders_a_bundle_carrying_the_derived_diagnostics_alike(tmp_path, bundle):
    # older bundles also stored the Q-Q abscissae and ordinates and the
    # scale-location ordinates; the report derives them from std_residuals
    diag = bundle["diagnostics"]
    resid = np.array(diag["std_residuals"])
    n = len(resid)
    old = copy.deepcopy(bundle)
    old["diagnostics"].update(
        qq_theoretical=[NormalDist().inv_cdf((i - 0.5) / n) for i in range(1, n + 1)],
        qq_residuals=np.sort(resid).tolist(),
        sqrt_abs_std_residuals=np.sqrt(np.abs(resid)).tolist(),
    )
    for name, b in (("old", old), ("new", bundle)):
        write_bundle_json(b, tmp_path / f"{name}.json")
        assert main(["report", "--bundle", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
    names = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "old").iterdir())
    for name in names:
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()
    # the files hold exactly the point sets the older bundle stored
    for name, (x, y) in (
        ("qq", ("qq_theoretical", "qq_residuals")),
        ("scale_location", ("fitted", "sqrt_abs_std_residuals")),
    ):
        rows = (tmp_path / "new" / f"diagnostics_{name}.csv").read_text().splitlines()[1:]
        stored = zip(old["diagnostics"][x], old["diagnostics"][y])
        assert rows == [f"{a:.6g},{b:.6g}" for a, b in stored]


def test_diagnostics_csvs_match_per_value_rendering(tmp_path, bundle):
    special = [None, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, -1e300, 0.123456789]
    resid = [math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, -1e300, 2.5, -0.75]
    edge = copy.deepcopy(bundle)
    edge["diagnostics"].update(fitted=special, leverage=special[::-1], std_residuals=resid)
    n = len(resid)
    quantile = NormalDist().inv_cdf
    expected = {
        "qq": (["theoretical_quantile", "standardized_residual"],
               [[quantile((i + 0.5) / n), r] for i, r in enumerate(sorted(resid))]),
        "scale_location": (["fitted", "sqrt_abs_standardized_residual"],
                           [[f, math.sqrt(abs(r))] for f, r in zip(special, resid)]),
        "leverage": (["leverage", "standardized_residual"],
                     [[h, r] for h, r in zip(special[::-1], resid)]),
    }
    write_bundle_json(edge, tmp_path / "bundle.json")
    for name, b in (("memory", edge), ("json", load_bundle_json(tmp_path / "bundle.json"))):
        render_bundle(b, tmp_path / name, {"csv"})
        for table, (header, rows) in expected.items():
            text = "\n".join(",".join(_fmt(v) for v in row) for row in [header] + rows) + "\n"
            assert (tmp_path / name / f"diagnostics_{table}.csv").read_text() == text
    assert "\n,inf\n" in (tmp_path / "json" / "diagnostics_scale_location.csv").read_text()


def test_render_respects_format_subsets(tmp_path, bundle):
    only_svg = render_bundle(bundle, tmp_path / "svg", {"svg"})
    assert only_svg and all(p.suffix == ".svg" for p in only_svg)
    only_md = render_bundle(bundle, tmp_path / "md", {"md"})
    assert only_md and all(p.suffix == ".md" for p in only_md)
    assert any(p.name.startswith("anova_") for p in only_md)
    assert any(p.name.startswith("pairwise_") for p in only_md)
    assert any(p.name == "summary.md" for p in only_md)
    with pytest.raises(ValueError, match="unknown report formats"):
        render_bundle(bundle, tmp_path / "x", {"pdf"})


def test_single_cell_heatmap_svg_is_valid():
    pw = {
        "title": "degenerate", "slug": "degenerate", "variable": "train",
        "response": "avg_acc", "levels": ["only"], "gain": [[0.0]],
        "p_values": [[float("nan")]], "significant": [[False]],
        "estimable": [[False]], "n_tests": 0, "alpha": 0.05,
        "corrected_alpha": float("inf"),
    }
    svg = render_heatmap_svg(pw)
    assert svg.startswith("<svg") or svg.startswith("<svg", 0)
    assert svg.count("<rect") == 1
    assert "</svg>" in svg


def test_heatmap_svg_bold_marks_significant(bundle):
    pw = next(p for p in bundle["pairwise"] if p["title"] == "accuracy overall")
    svg = render_heatmap_svg(pw)
    n_sig = sum(sum(map(bool, row)) for row in pw["significant"])
    assert svg.count('font-weight="bold"') == n_sig
    # cell text is the gain x100 to one decimal
    i, j = 0, 1
    if pw["estimable"][i][j]:
        assert f">{pw['gain'][i][j] * 100:.1f}<" in svg


def test_pairwise_markdown_column_count(bundle):
    pw = next(p for p in bundle["pairwise"] if p["title"] == "accuracy overall")
    md = pairwise_markdown(pw)
    header = md.splitlines()[0]
    assert header.count("|") == len(pw["levels"]) + 2  # levels + label column


def test_markdown_bolds_only_significant_cells(bundle):
    pw = next(p for p in bundle["pairwise"] if p["title"] == "accuracy overall")
    md = pairwise_markdown(pw)
    n_sig = sum(sum(map(bool, row)) for row in pw["significant"])
    assert md.count("**") == 2 * n_sig
