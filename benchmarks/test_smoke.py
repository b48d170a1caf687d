"""Smoke test of the benchmark itself, on the tiny size of every workload.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_smoke.py

It is not part of the repository's test suite (pytest collects ``tests/``
only), because it runs the CLI many times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import first_difference
from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(*args: str) -> tuple[dict, str]:
    proc = bench(*args, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    out, text = result("--workload", workload, "--seed", "1", "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, text
    assert out["attempted"] >= 1 and out["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_corrupted_results_byte_fails_the_determinism_check():
    result("--workload", "default", "--seed", "1", "--trace", "1")
    traced = ROOT / ".bench_work" / "default-tiny" / "traced" / "grid" / "results.csv"
    data = traced.read_bytes()
    assert first_difference(data, data) is None
    corrupt = bytearray(data)
    corrupt[len(corrupt) // 2] ^= 0x01
    assert first_difference(data, bytes(corrupt)) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_cleanly_on_other_inputs(workload):
    first, first_text = result("--workload", workload, "--seed", "1", "--trace", "0")
    second, second_text = result("--workload", workload, "--seed", "2", "--trace", "0")
    assert first["correct"] and second["correct"], second_text
    digests = [line for line in (first_text + second_text).splitlines() if "sha256 results.csv" in line]
    assert len(digests) == 2 and digests[0] != digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "default", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
