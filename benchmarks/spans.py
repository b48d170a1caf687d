"""In-process tracing from outside the program.

``Tracer.install`` wraps public functions of efcilab at every module
attribute that binds them (``from .x import f`` copies the name, so the
original module is not enough) and learner methods on their classes. Each
call records a span: name, start, end, parent span and optional call facts.
Spans stay in memory until ``write_jsonl`` at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path


def _bound(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _head_shape(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    features = a.get("features")
    if getattr(features, "ndim", 0) != 2:
        return None
    n, dim = features.shape
    return {"n": n, "dim": dim, "classes": a.get("n_classes", 0), "epochs": a.get("epochs", 0)}


def _cell(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    return {"cell": [a.get("data_name"), a.get("train_name"), a.get("rep")]}


def _path(fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    return {"path": str(a.get("path"))}


# (span name, module, attribute, class or None, call-facts extractor)
TARGETS = [
    ("datagen.synth_features", "efcilab.datagen", "synth_features", None, None),
    ("datagen.save_features", "efcilab.datagen", "save_features", None, _path),
    ("datagen.load_features", "efcilab.datagen", "load_features", None, _path),
    ("datagen.dataset_stats", "efcilab.datagen", "dataset_stats", None, None),
    ("scenario.build_scenario", "efcilab.scenario", "build_scenario", None, None),
    ("scenario.partition_dataset", "efcilab.scenario", "partition_dataset", None, None),
    ("learners.run_incremental", "efcilab.learners", "run_incremental", None, None),
    ("learners.fit_softmax_head", "efcilab.learners", "fit_softmax_head", None, _head_shape),
    ("learners.balanced_softmax_anchor_loss", "efcilab.learners", "balanced_softmax_anchor_loss", None, None),
    ("learners.dslda.learn_step", "efcilab.learners", "learn_step", "StreamingLDA", None),
    ("learners.dslda.predict", "efcilab.learners", "predict", "StreamingLDA", None),
    ("learners.fetril.learn_step", "efcilab.learners", "learn_step", "FeTrILLite", None),
    ("learners.fetril.predict", "efcilab.learners", "predict", "FeTrILLite", None),
    ("learners.bsil.learn_step", "efcilab.learners", "learn_step", "BSILLite", None),
    ("learners.bsil.predict", "efcilab.learners", "predict", "BSILLite", None),
    ("learners.ncm.learn_step", "efcilab.learners", "learn_step", "NearestClassMean", None),
    ("learners.ncm.predict", "efcilab.learners", "predict", "NearestClassMean", None),
    ("metrics.compute_metrics", "efcilab.metrics", "compute_metrics", None, None),
    ("metrics.metric_correlations", "efcilab.metrics", "metric_correlations", None, None),
    ("grid.run_grid", "efcilab.grid", "run_grid", None, None),
    ("grid.run_single", "efcilab.grid", "run_single", None, None),
    ("grid.materialize_dataset", "efcilab.grid", "materialize_dataset", None, _cell),
    ("grid.write_results", "efcilab.grid", "write_results", None, None),
    ("grid.load_results", "efcilab.grid", "load_results", None, None),
    ("stats.encode_design", "efcilab.stats.design", "encode_design", None, None),
    ("stats.ols_fit", "efcilab.stats.regression", "ols_fit", None, None),
    ("stats.least_squares", "efcilab.stats.linalg", "least_squares", None, None),
    ("stats.hat_diagonal", "efcilab.stats.linalg", "hat_diagonal", None, None),
    ("stats.unscaled_covariance", "efcilab.stats.linalg", "unscaled_covariance", None, None),
    ("stats.student_t_pvalue", "efcilab.stats.distributions", "student_t_pvalue", None, None),
    ("stats.f_pvalue", "efcilab.stats.distributions", "f_pvalue", None, None),
    ("stats.pairwise_comparison", "efcilab.stats.analysis", "pairwise_comparison", None, None),
    ("stats.anova_partial_eta2", "efcilab.stats.analysis", "anova_partial_eta2", None, None),
    ("stats.select_model_aic", "efcilab.stats.analysis", "select_model_aic", None, None),
    ("stats.screen_variables", "efcilab.stats.analysis", "screen_variables", None, None),
    ("stats.diagnostics", "efcilab.stats.regression", "diagnostics", None, None),
    ("stats.gram_min_eigenvalue", "efcilab.stats.regression", "gram_min_eigenvalue", None, None),
    ("analyze.build_report_bundle", "efcilab.analyze", "build_report_bundle", None, None),
    ("report.write_bundle_json", "efcilab.report", "write_bundle_json", None, None),
    ("report.render_bundle", "efcilab.report", "render_bundle", None, None),
]


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, call facts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, facts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            if facts is not None:
                spans[idx][4] = facts(fn, args, kwargs)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        importlib.import_module("efcilab.cli")  # binds every module the CLI uses
        modules = [m for n, m in sorted(sys.modules.items()) if n == "efcilab" or n.startswith("efcilab.")]
        for name, mod_name, attr, cls_name, facts in TARGETS:
            owner = sys.modules.get(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
                original = getattr(owner, "__dict__", {}).get(attr)
            else:
                original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, facts)
            holders = [owner] if cls_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, facts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "facts": facts}) + "\n")


def tail_percentile(n: int) -> int | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99, 98, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return None


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, per-call median and tail."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        durations.setdefault(name, []).append(end - start)
    for name, values in durations.items():
        values.sort()
        out[name]["p50_ms"] = 1e3 * statistics.median(values)
        pct = tail_percentile(len(values))
        if pct is not None:
            out[name]["tail_pct"] = pct
            out[name]["tail_ms"] = 1e3 * values[min(len(values) - 1, int(len(values) * pct / 100))]
    return out


def run_seconds_by_learner(spans: list[list]) -> dict[str, float]:
    """Whole grid.run_single time per learner kind, the unit of the ROADMAP baseline."""
    owner: dict[int, str] = {}
    for name, _, _, parent, _ in spans:
        if name.startswith("learners.") and name.endswith(".learn_step"):
            while parent >= 0 and spans[parent][0] != "grid.run_single":
                parent = spans[parent][3]
            if parent >= 0:
                owner[parent] = name.split(".")[1]
    totals: dict[str, float] = {}
    for i, kind in owner.items():
        totals[kind] = totals.get(kind, 0.0) + spans[i][2] - spans[i][1]
    return totals
