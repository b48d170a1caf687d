"""Output checks, written independently of the program's own code.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

METRIC_COLUMNS = ("acc1", "avg_acc", "forgetting", "accK")
CATEGORICAL = ("data", "train", "incr")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_results(path: Path) -> list[dict[str, str]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_results(path: Path, expected_runs: int) -> list[str]:
    """One row per attempted run, every metric finite and in [0, 1]."""
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = read_results(path)
    problems = []
    if len(rows) != expected_runs:
        problems.append(f"{path.name}: {len(rows)} rows for {expected_runs} attempted runs")
    if len({r["run_id"] for r in rows}) != len(rows):
        problems.append(f"{path.name}: duplicate run ids")
    for row in rows:
        for col in METRIC_COLUMNS:
            try:
                value = float(row[col])
            except (KeyError, TypeError, ValueError):
                problems.append(f"{path.name}: {row.get('run_id')} has no numeric {col}")
                continue
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{path.name}: {row['run_id']} {col}={value} outside [0, 1]")
    return problems


def first_difference(a: bytes, b: bytes) -> str | None:
    """Where two outputs stop being byte-identical, or None if they are."""
    if a == b:
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            line = a.count(b"\n", 0, i) + 1
            return f"first differing byte at offset {i} (line {line})"
    return f"lengths differ ({len(a)} vs {len(b)} bytes)"


def _design(rows: list[dict[str, str]], formula: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Treatment-coded design: first sorted level of a factor is the reference."""
    response, rhs = (part.strip() for part in formula.split("~"))
    lower = [{k.lower(): v for k, v in r.items()} for r in rows]
    labels = ["intercept"]
    columns = [np.ones(len(rows))]
    for term in (t.strip() for t in rhs.split("+")):
        if term in CATEGORICAL:
            values = [r[term] for r in lower]
            for level in sorted(set(values))[1:]:
                labels.append(f"{term}[{level}]")
                columns.append(np.array([v == level for v in values], dtype=float))
        else:
            labels.append(term)
            columns.append(np.array([float(r[term]) for r in lower]))
    y = np.array([float(r[response.lower()]) for r in lower])
    return labels, np.column_stack(columns), y


def check_bundle(bundle: dict, results_path: Path, tol: float = 1e-8) -> list[str]:
    """Coefficients against numpy lstsq; every pairwise gain matrix antisymmetric."""
    problems = []
    coefs = bundle.get("coefficients")
    if coefs:
        labels, x, y = _design(read_results(results_path), coefs["formula"])
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        got = {row["coefficient"]: row["estimate"] for row in coefs["rows"]}
        if sorted(got) != sorted(labels):
            problems.append(f"coefficient labels {sorted(got)} != {sorted(labels)}")
        else:
            worst = max(abs(got[label] - b) for label, b in zip(labels, beta))
            if not worst <= tol:
                problems.append(f"coefficients differ from lstsq by {worst:.3g} (> {tol:g})")
    for pw in bundle.get("pairwise", []):
        gain = np.array([[math.nan if v is None else v for v in row] for row in pw["gain"]])
        defined = ~np.isnan(gain) & ~np.isnan(gain.T)
        if np.any(np.abs(gain + gain.T)[defined] > 1e-12) or np.any(np.diag(gain) != 0):
            problems.append(f"pairwise {pw['slug']}: gain matrix is not antisymmetric")
    return problems


def count_operations(bundle: dict) -> tuple[int, int]:
    """(attempted, failed) over bundle sections and AIC candidates.

    A section counts as failed when it was skipped (each skip leaves a
    warning) or carries an error.
    """
    candidates = [c for sel in bundle["aic"].values() for c in sel["candidates"]]
    done = (
        len(bundle["screening"]) + len(bundle["aic"]) + len(bundle["anova"]) + len(bundle["pairwise"])
        + (bundle["coefficients"] is not None) + (bundle["diagnostics"] is not None)
    )
    failed = len(bundle["warnings"]) + sum(1 for c in candidates if c["error"])
    return done + len(bundle["warnings"]) + len(candidates), failed
