"""End-to-end benchmark of the efcilab CLI, with a traced per-layer pass.

One sequential client drives the real CLI in a closed loop: set-up, then
cycles of one `efcilab grid` call followed by one `efcilab analyze` call on
its results, each call a separate process that the next waits for. The only
parallelism is the program's own (`grid --jobs` and its BLAS threads);
run.py clears the BLAS thread variables before anything imports numpy.

With ``--trace 0`` the run repeats cycles for ``--seconds`` and reports the
end-to-end metrics. With ``--trace 1`` it runs one untraced cycle and then
the same work in-process with ``jobs=1``, every public layer function
wrapped (see spans.py), and reports the per-layer metrics. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import efcilab.cli

import checks
import inputs
from machine import machine_facts
from spans import Tracer, run_seconds_by_learner, summarize, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 7  # set-ups per run; setup_s is their median
TIME_LIMIT_S = 170.0  # a run stops its children and fails past this

END_TO_END = {
    "cycle_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "avg_acc_mean": "fraction",
}

LEARNER_KINDS = ("dslda", "fetril", "bsil", "ncm")


def _per_layer_units() -> dict[str, str]:
    units = {}
    for kind in LEARNER_KINDS:
        units.update({
            f"learners.{kind}.learn_step.s": "s",
            f"learners.{kind}.learn_step.calls": "count",
            f"learners.{kind}.learn_step.p50_ms": "ms",
            f"learners.{kind}.learn_step.tail_ms": "ms",
            f"learners.{kind}.predict.s": "s",
        })
    units.update({
        "grid_s": "s",
        "analyze_s": "s",
        "learners.fit_softmax_head.s": "s",
        "learners.fit_softmax_head.calls": "count",
        "learners.fit_softmax_head.epochs": "count",
        "learners.fit_softmax_head.p50_ms": "ms",
        "learners.fit_softmax_head.tail_ms": "ms",
        "learners.balanced_softmax_anchor_loss.s": "s",
        "learners.balanced_softmax_anchor_loss.calls": "count",
        "learners.fetril.head_gflop": "GFLOP",
        "learners.fetril.head_gflop_per_s": "GFLOP/s",
        "datagen.load_features.s": "s",
        "datagen.load_features.calls": "count",
        "datagen.load_features.mb_per_s": "MB/s",
        "datagen.save_features.s": "s",
        "datagen.save_features.mb_per_s": "MB/s",
        "datagen.synth_features.s": "s",
        "grid.dataset_reuse_ratio": "ratio",
        "grid.run_single.self_s": "s",
        "scenario.partition_dataset.s": "s",
        "metrics.compute_metrics.s": "s",
        "grid.cpu_s": "s",
        "grid.involuntary_ctx_switches": "count",
        "grid.parallel_efficiency": "ratio",
        "stats.encode_design.s": "s",
        "stats.encode_design.calls": "count",
        "stats.ols_fit.s": "s",
        "stats.ols_fit.calls": "count",
        "stats.ols_fit.self_s": "s",
        "stats.ols_fit.p50_ms": "ms",
        "stats.ols_fit.tail_ms": "ms",
        "stats.least_squares.s": "s",
        "stats.hat_diagonal.s": "s",
        "stats.unscaled_covariance.s": "s",
        "stats.student_t_pvalue.calls": "count",
        "stats.f_pvalue.calls": "count",
        "stats.pairwise_comparison.s": "s",
        "stats.pairwise_comparison.fits": "count",
        "stats.anova_partial_eta2.s": "s",
        "stats.select_model_aic.s": "s",
        "stats.screen_variables.s": "s",
        "stats.diagnostics.s": "s",
        "stats.gram_min_eigenvalue.s": "s",
        "analyze.build_report_bundle.s": "s",
        "grid.load_results.s": "s",
        "report.write_bundle_json.s": "s",
        "report.render_bundle.s": "s",
        "report.bytes_written": "bytes",
        "cli.import_s": "s",
        "trace.overhead_ratio": "ratio",
        "failure_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Call:
    """One CLI process, with resource use from wait4 on that child alone."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    nivcsw: int
    exit_code: int


@dataclass
class Cycle:
    grid: Call
    analyze: Call
    digests: dict[str, str]
    avg_acc_mean: float
    report_bytes: int
    attempted: int
    failed: int
    problems: list[str]


def run_child(cmd: list[str], env: dict, log: Path, deadline: float) -> Call:
    """Run one child to completion; kill it if it outlives the run's deadline."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        nivcsw=usage.ru_nivcsw,
        exit_code=proc.returncode,
    )


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "efcilab.cli", *args]


def run_cycle(plan, cycle_dir: Path, env: dict, deadline: float) -> Cycle:
    """One `grid` call, then one `analyze` call on its results, with the checks."""
    cycle_dir.mkdir(parents=True)
    grid = run_child(
        cli("grid", *plan.grid_args, "--jobs", str(plan.jobs), "--out", str(cycle_dir / "grid")),
        env, cycle_dir / "grid.log", deadline,
    )
    results = cycle_dir / "grid" / "results.csv"
    analyze_input = plan.analyze_input or results
    analyze = run_child(
        cli("analyze", "--results", str(analyze_input), "--out", str(cycle_dir / "report")),
        env, cycle_dir / "analyze.log", deadline,
    )

    problems = [f"{name} exited with {c.exit_code}" for name, c in (("grid", grid), ("analyze", analyze))
                if c.exit_code != 0]
    problems += checks.check_results(results, plan.expected_runs)
    failures = cycle_dir / "grid" / "failures.csv"
    failed_runs = len(failures.read_text().splitlines()) - 1 if failures.is_file() else 0
    if grid.exit_code not in (0, 2):
        failed_runs = plan.expected_runs
    attempted, failed = plan.expected_runs, failed_runs

    digests = {"results.csv": checks.sha256(results)} if results.is_file() else {}
    bundle_path = cycle_dir / "report" / "bundle.json"
    if bundle_path.is_file():
        bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
        problems += checks.check_bundle(bundle, analyze_input)
        digests["bundle.json"] = checks.sha256(bundle_path)
        if plan.analyze_input is not None:
            digests["analyzed_results.csv"] = checks.sha256(analyze_input)
        if plan.analysis_ops:
            ops, bad = checks.count_operations(bundle)
            attempted, failed = attempted + ops, failed + bad
    else:
        problems.append("analyze wrote no bundle.json")
    rows = checks.read_results(analyze_input) if analyze_input.is_file() else []
    avg_acc = statistics.fmean(float(r["avg_acc"]) for r in rows) if rows else float("nan")
    report_dir = cycle_dir / "report"
    report_bytes = sum(p.stat().st_size for p in report_dir.rglob("*") if p.is_file())
    return Cycle(grid, analyze, digests, avg_acc, report_bytes, attempted, failed, problems)


def run_setups(make, work: Path, seed: int, size: str, nproc: int, env: dict, deadline: float):
    """SETUPS times: one program start (warms the file cache) plus the workload's inputs."""
    starts, inputs_s, totals = [], [], []
    for i in range(SETUPS):
        begin = time.perf_counter()
        start = run_child([sys.executable, "-c", "import efcilab.cli"], env, work / f"start{i}.log", deadline)
        if start.exit_code != 0:
            raise SystemExit(f"error: the program does not start (see {work / f'start{i}.log'})")
        made = time.perf_counter()
        plan = make(work, seed, size, nproc)
        end = time.perf_counter()
        starts.append(start)
        inputs_s.append(end - made)
        totals.append(end - begin)
    return plan, starts, inputs_s, totals


def describe(values: list[float], unit: str) -> str:
    values = sorted(values)
    pct = tail_percentile(len(values))
    tail = (
        f", p{pct} {values[min(len(values) - 1, int(len(values) * pct / 100))]:.4f} {unit}"
        if pct is not None
        else ", no tail percentile (fewer than 40 samples)"
    )
    return f"median {statistics.median(values):.4f} {unit} over n={len(values)}{tail}"


def traced_pass(make, work: Path, seed: int, size: str, nproc: int):
    """The cycle's work in-process at jobs=1, with every layer function wrapped."""
    tracer = Tracer()
    tracer.install()
    out = work / "traced"
    stages = {}
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            begin = time.perf_counter()
            traced_plan = make(work, seed, size, nproc)
            stages["inputs"] = time.perf_counter() - begin
            begin = time.perf_counter()
            grid_rc = efcilab.cli.main(["grid", *traced_plan.grid_args, "--jobs", "1", "--out", str(out / "grid")])
            stages["grid"] = time.perf_counter() - begin
            analyze_input = traced_plan.analyze_input or out / "grid" / "results.csv"
            begin = time.perf_counter()
            analyze_rc = efcilab.cli.main(["analyze", "--results", str(analyze_input), "--out", str(out / "report")])
            stages["analyze"] = time.perf_counter() - begin
    finally:
        tracer.uninstall()
    tracer.write_jsonl(work / "spans.jsonl")
    problems = []
    if grid_rc != 0 or analyze_rc != 0:
        problems.append(f"traced pass exited with grid={grid_rc} analyze={analyze_rc}")
    return tracer, stages, out, problems


def layer_metrics(tracer, stages, cycle: Cycle, inputs_s: float, imports: list[float], nproc: int):
    """Per-layer metrics and the span summary they come from."""
    summary = summarize(tracer.spans)

    def stat(name: str, key: str = "s") -> float:
        return float(summary.get(name, {}).get(key, 0))

    def facts(name: str) -> list[dict]:
        return [s[4] for s in tracer.spans if s[0] == name and s[4]]

    m: dict[str, float] = {}
    for kind in LEARNER_KINDS:
        base = f"learners.{kind}.learn_step"
        m[f"{base}.s"] = stat(base)
        m[f"{base}.calls"] = stat(base, "calls")
        m[f"{base}.p50_ms"] = stat(base, "p50_ms")
        m[f"{base}.tail_ms"] = stat(base, "tail_ms")
        m[f"learners.{kind}.predict.s"] = stat(f"learners.{kind}.predict")
    head = "learners.fit_softmax_head"
    shapes = facts(head)
    m[f"{head}.s"] = stat(head)
    m[f"{head}.calls"] = stat(head, "calls")
    m[f"{head}.epochs"] = float(sum(f["epochs"] for f in shapes))
    m[f"{head}.p50_ms"] = stat(head, "p50_ms")
    m[f"{head}.tail_ms"] = stat(head, "tail_ms")
    loss = "learners.balanced_softmax_anchor_loss"
    m[f"{loss}.s"] = stat(loss)
    m[f"{loss}.calls"] = stat(loss, "calls")
    # computed, not counted: two matmuls of n x dim x classes per epoch
    gflop = sum(4.0 * f["n"] * f["dim"] * f["classes"] * f["epochs"] for f in shapes) / 1e9
    m["learners.fetril.head_gflop"] = gflop
    m["learners.fetril.head_gflop_per_s"] = gflop / m[f"{head}.s"] if m[f"{head}.s"] else 0.0

    def mb(name: str) -> float:
        return sum(os.path.getsize(f["path"]) for f in facts(name) if os.path.exists(f["path"])) / 1e6

    for name in ("datagen.load_features", "datagen.save_features"):
        m[f"{name}.s"] = stat(name)
        m[f"{name}.mb_per_s"] = mb(name) / m[f"{name}.s"] if m[f"{name}.s"] else 0.0
    m["datagen.load_features.calls"] = stat("datagen.load_features", "calls")
    m["datagen.synth_features.s"] = stat("datagen.synth_features")
    cells = [tuple(f["cell"]) for f in facts("grid.materialize_dataset")]
    m["grid.dataset_reuse_ratio"] = len(set(cells)) / len(cells) if cells else 0.0
    m["grid.run_single.self_s"] = stat("grid.run_single", "self_s")
    m["scenario.partition_dataset.s"] = stat("scenario.partition_dataset")
    m["metrics.compute_metrics.s"] = stat("metrics.compute_metrics")
    grid_s = cycle.grid.wall_s
    m["grid_s"] = grid_s
    m["analyze_s"] = cycle.analyze.wall_s
    m["grid.cpu_s"] = cycle.grid.cpu_s
    m["grid.involuntary_ctx_switches"] = float(cycle.grid.nivcsw)
    m["grid.parallel_efficiency"] = stages["grid"] / (nproc * grid_s)

    for name in ("encode_design", "ols_fit"):
        m[f"stats.{name}.s"] = stat(f"stats.{name}")
        m[f"stats.{name}.calls"] = stat(f"stats.{name}", "calls")
    m["stats.ols_fit.self_s"] = stat("stats.ols_fit", "self_s")
    m["stats.ols_fit.p50_ms"] = stat("stats.ols_fit", "p50_ms")
    m["stats.ols_fit.tail_ms"] = stat("stats.ols_fit", "tail_ms")
    for name in ("least_squares", "hat_diagonal", "unscaled_covariance", "pairwise_comparison",
                 "anova_partial_eta2", "select_model_aic", "screen_variables", "diagnostics",
                 "gram_min_eigenvalue"):
        m[f"stats.{name}.s"] = stat(f"stats.{name}")
    m["stats.student_t_pvalue.calls"] = stat("stats.student_t_pvalue", "calls")
    m["stats.f_pvalue.calls"] = stat("stats.f_pvalue", "calls")
    pairwise = {i for i, s in enumerate(tracer.spans) if s[0] == "stats.pairwise_comparison"}
    m["stats.pairwise_comparison.fits"] = float(
        sum(1 for s in tracer.spans if s[0] == "stats.ols_fit" and s[3] in pairwise)
    )
    for name in ("analyze.build_report_bundle", "grid.load_results", "report.write_bundle_json",
                 "report.render_bundle"):
        m[f"{name}.s"] = stat(name)
    m["report.bytes_written"] = float(cycle.report_bytes)
    m["cli.import_s"] = statistics.median(imports)
    untraced = inputs_s + grid_s + cycle.analyze.wall_s
    m["trace.overhead_ratio"] = sum(stages.values()) / untraced
    m["failure_ratio"] = cycle.failed / cycle.attempted
    return m, summary


def main(cleared: dict[str, str], argv: list[str] | None = None) -> int:
    """``cleared``: the thread variables run.py removed, with their values."""
    parser = argparse.ArgumentParser(description="Benchmark the efcilab CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the cycles run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: seconds-long smoke size")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(SRC))

    nproc = os.cpu_count() or 1
    work = WORK / f"{args.workload}-{args.size}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    make = inputs.WORKLOADS[args.workload]

    plan, starts, inputs_s, setup_totals = run_setups(make, work, args.seed, args.size, nproc, env, deadline)
    cycles: list[Cycle] = []
    measure_start = time.perf_counter()
    while True:
        cycles.append(run_cycle(plan, work / f"cycle{len(cycles)}", env, deadline))
        elapsed = time.perf_counter() - measure_start
        per_cycle = elapsed / len(cycles)
        if args.trace or elapsed + per_cycle > args.seconds:
            break
        if time.monotonic() + per_cycle > deadline - 20:
            break

    problems = [p for c in cycles for p in c.problems]
    for key in cycles[0].digests:
        if len({c.digests.get(key) for c in cycles}) > 1:
            problems.append(f"{key} differs between identical cycles")
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    grid_calls = [c.grid for c in cycles]
    analyze_calls = [c.analyze for c in cycles]
    cycle_times = [c.grid.wall_s + c.analyze.wall_s for c in cycles]
    calls = starts + grid_calls + analyze_calls
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "machine": machine_facts(cleared),
        "client": "one sequential client, closed loop; grid --jobs %d" % plan.jobs,
        "cycles": len(cycles),
        "not_gated": inputs.NOT_GATED,
        "sha256": cycles[0].digests,
        "samples_s": {
            "cycle": cycle_times,
            "grid": [c.wall_s for c in grid_calls],
            "analyze": [c.wall_s for c in analyze_calls],
            "setup": setup_totals,
        },
    }

    print(f"workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} cycles={len(cycles)}")
    print(f"  cycle_s       {describe(cycle_times, 's')}")
    print(f"  grid_s        {describe([c.wall_s for c in grid_calls], 's')}")
    print(f"  analyze_s     {describe([c.wall_s for c in analyze_calls], 's')}")
    print(f"  setup_s       {describe(setup_totals, 's')} (inputs alone: median {statistics.median(inputs_s):.4f} s)")
    print(f"  peak_rss_mb   {max(c.maxrss_mb for c in calls):.1f} MB (largest CLI process)")
    print(f"  avg_acc_mean  {cycles[0].avg_acc_mean:.6f}")
    print(f"  failure_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for key, digest in cycles[0].digests.items():
        print(f"  sha256 {key} {digest}")
    for name, why in inputs.NOT_GATED.items():
        print(f"  note: workload {name} is not in BENCHMARK.json: {why}")

    if args.trace:
        tracer, stages, traced_dir, traced_problems = traced_pass(make, work, args.seed, args.size, nproc)
        problems += traced_problems
        traced_results = traced_dir / "grid" / "results.csv"
        untraced_results = work / "cycle0" / "grid" / "results.csv"
        if traced_results.is_file() and untraced_results.is_file():
            diff = checks.first_difference(untraced_results.read_bytes(), traced_results.read_bytes())
            if diff:
                problems.append(f"results.csv at --jobs {plan.jobs} differs from the serial traced run: {diff}")
        else:
            problems.append("a results.csv for the determinism check is missing")
        metrics, summary = layer_metrics(
            tracer, stages, cycles[0], statistics.median(inputs_s), [s.wall_s for s in starts], nproc
        )
        detail["traced_stages_s"] = stages
        detail["not_traced"] = tracer.missing  # their metrics read 0
        detail["notes"] = ["learners.fetril.head_gflop is computed from array shapes: 4*n*dim*classes per epoch"]
        if plan.jobs > 1:
            detail["notes"].append("trace.overhead_ratio compares a serial traced pass with a parallel grid")
        print(f"  traced pass: {', '.join(f'{k} {v:.3f} s' for k, v in stages.items())}")
        if tracer.missing:
            print(f"  note: not found, so not traced: {', '.join(tracer.missing)}")
        by_learner = run_seconds_by_learner(tracer.spans)
        detail["run_single_s_by_learner"] = by_learner
        print(f"  whole runs by learner: {', '.join(f'{k} {v:.2f} s' for k, v in sorted(by_learner.items()))}")
        for name in sorted(summary):
            entry = summary[name]
            tail = f" p{entry['tail_pct']} {entry['tail_ms']:.3f} ms" if "tail_pct" in entry else ""
            print(
                f"  span {name:42s} calls {entry['calls']:7d} total {entry['s']:9.4f} s "
                f"self {entry['self_s']:9.4f} s p50 {entry['p50_ms']:.3f} ms{tail}"
            )
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "cycle_s": statistics.median(cycle_times),
            "setup_s": statistics.median(setup_totals),
            "peak_rss_mb": max(c.maxrss_mb for c in calls),
            "avg_acc_mean": cycles[0].avg_acc_mean,
        }
        out_metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'ok' if not problems else f'{len(problems)} failed'}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0
