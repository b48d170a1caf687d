"""Config handling, grid execution, results persistence, CLI surface."""

import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from _factories import record_table
from efcilab.cli import main
from efcilab.config import (
    ConfigError,
    DatasetSpec,
    GridConfig,
    StrategySpec,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    stable_seed,
    write_config,
)
from efcilab import grid
from efcilab.datagen import FeatureDataset, SynthSpec, save_features, synth_features
from efcilab.grid import (
    ResultsError,
    ResultsTable,
    RunFailure,
    enumerate_runs,
    load_results,
    materialize_dataset,
    run_grid,
    run_single,
    write_results,
)
from efcilab.learners import LEARNER_KINDS
from efcilab.stats.design import RunRecord, column_table


def toy_config(**overrides) -> GridConfig:
    base = dict(
        datasets=(
            DatasetSpec(name="tiny1", n_classes=10, dim=6, n_train=6, n_test=3),
            DatasetSpec(name="tiny2", n_classes=10, dim=8, n_train=5, n_test=3),
        ),
        strategies=(
            StrategySpec(name="s-lo", separation=1.5),
            StrategySpec(name="s-mid", separation=3.0),
            StrategySpec(name="s-hi", separation=4.5),
        ),
        learners=("dslda", "ncm", "fetril"),
        scenarios=("equal", "half"),
        n_incr_steps=5,
        repetitions=1,
        base_seed=77,
        hyperparams={"fetril": {"epochs": 25}},
    )
    base.update(overrides)
    return GridConfig(**base)


N_FIELD, AVG_ACC_FIELD = 5, 11  # field positions of N and avg_acc in a results row


def _with_field(row: str, index: int, value: str) -> str:
    parts = row.split(",")
    parts[index] = value
    return ",".join(parts)


def test_grid_row_count_is_the_product():
    cfg = toy_config()
    assert len(enumerate_runs(cfg)) == 2 * 3 * 3 * 2 * 1


def test_stable_seed_is_deterministic_and_spread():
    a = stable_seed(7, "dataset", "d", "s", 0)
    assert a == stable_seed(7, "dataset", "d", "s", 0)
    assert a != stable_seed(7, "dataset", "d", "s", 1)
    assert 0 <= a < 2**63


def test_config_yaml_json_round_trip(tmp_path):
    cfg = toy_config()
    for name in ("cfg.yaml", "cfg.json"):
        path = tmp_path / name
        write_config(cfg, path)
        back = load_config(path)
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)


def test_config_hash_changes_with_content():
    cfg = toy_config()
    assert config_hash(cfg) != config_hash(dataclasses.replace(cfg, base_seed=78))


def test_config_hash_reads_feature_file_bytes_not_paths(tmp_path):
    ds = synth_features(SynthSpec(n_classes=4, dim=3, n_train=3, n_test=2, separation=3.0,
                                  seed=5, name="ext"))
    paths = [tmp_path / "a" / "ext.csv", tmp_path / "b" / "feats.csv"]
    for path in paths:
        path.parent.mkdir()
        save_features(ds, path)

    def file_config(path):
        return toy_config(datasets=(DatasetSpec(name="ext", kind="file"),),
                          strategies=(StrategySpec(name="emb", paths={"ext": str(path)}),))

    first = config_hash(file_config(paths[0]))
    assert config_hash(file_config(paths[1])) == first
    data = bytearray(paths[1].read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")  # a digit of the last value
    paths[1].write_bytes(bytes(data))
    assert config_hash(file_config(paths[1])) != first


def test_default_config_hash_is_unchanged():
    # a synthetic grid has no feature files: its hash is that of the config as written
    assert config_hash(default_config()) == "911b5ab02c7f"


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="duplicate dataset"):
        config_from_dict(
            config_to_dict(toy_config(datasets=(
                DatasetSpec(name="x", n_classes=4, dim=2, n_train=2, n_test=1),
                DatasetSpec(name="x", n_classes=4, dim=2, n_train=2, n_test=1),
            )))
        )
    with pytest.raises(ConfigError, match="unknown learner"):
        config_from_dict(config_to_dict(toy_config(learners=("dslda", "icarl"))))
    with pytest.raises(ConfigError, match="unknown scenario"):
        config_from_dict(config_to_dict(toy_config(scenarios=("equal", "thirds"))))
    with pytest.raises(ConfigError, match="repetitions"):
        config_from_dict(config_to_dict(toy_config(repetitions=0)))
    with pytest.raises(ConfigError, match="lacks a feature file"):
        config_from_dict(
            config_to_dict(toy_config(datasets=(DatasetSpec(name="ext", kind="file"),)))
        )
    # a synthetic dataset is drawn, never read: a feature file for it would go unread
    with pytest.raises(ConfigError, match="synthetic dataset 'tiny1'"):
        config_from_dict(config_to_dict(toy_config(strategies=(
            StrategySpec(name="s-lo", separation=1.5, paths={"tiny1": "tiny1.csv"}),
        ))))
    # a file dataset's geometry is the file's: a declared one would go unread
    for geometry in ({"n_classes": 10}, {"dim": 4}, {"n_train": 5}, {"n_test": 3}):
        with pytest.raises(ConfigError, match="dataset 'ext': a file dataset takes no"):
            config_from_dict(config_to_dict(toy_config(
                datasets=(DatasetSpec(name="ext", kind="file", **geometry),),
                strategies=(StrategySpec(name="emb", paths={"ext": "ext.csv"}),),
            )))
    # hyperparameters every run of a learner would reject fail at load, naming the learner
    for hyperparams, pattern in (
        ({"ncm": {"epochs": 5}}, "learner 'ncm': invalid hyperparameters"),
        ({"dslda": {"shrinkage": -2.0}}, "learner 'dslda': shrinkage must lie in"),
        # NaN passes no range check, a bool is no number, and epochs are counted, not truncated
        ({"dslda": {"shrinkage": float("nan")}}, "learner 'dslda': shrinkage must lie in"),
        ({"dslda": {"shrinkage": True}}, "learner 'dslda': shrinkage must lie in"),
        ({"bsil": {"anchor_strength": False}}, "learner 'bsil': anchor_strength must be a finite"),
        ({"bsil": {"lr": float("inf")}}, "learner 'bsil': lr must be a finite number > 0, got inf"),
        ({"fetril": {"epochs": 2.5}}, "learner 'fetril': epochs must be an integer >= 1, got 2.5"),
        ({"fetril": {"epochs": float("nan")}}, "learner 'fetril': epochs must be an integer >= 1"),
        # ncm is dslda at a fixed shrinkage of 1 and takes none
        ({"ncm": {"shrinkage": 0.5}}, "learner 'ncm': invalid hyperparameters"),
    ):
        with pytest.raises(ConfigError, match=pattern):
            config_from_dict(
                config_to_dict(toy_config(learners=LEARNER_KINDS, hyperparams=hyperparams))
            )
    # numbers are checked, not coerced; the error names the dataset or strategy and field
    for path, value, message in (
        (("base_seed",), 1.5, "base_seed must be an integer, got 1.5"),
        (("repetitions",), True, "repetitions must be an integer, got True"),
        (("n_incr_steps",), "3", "n_incr_steps must be an integer, got '3'"),
        (("datasets", 1, "n_classes"), 10.7, "dataset 'tiny2': n_classes must be an integer"),
        (("datasets", 0, "width"), "wide", "dataset 'tiny1': width must be a finite number"),
        (("datasets", 0, "width"), float("inf"), "dataset 'tiny1': width must be a finite number"),
        (("datasets", 0, "small"), "false", "dataset 'tiny1': small must be true or false"),
        (("strategies", 1, "separation"), "far", "strategy 's-mid': separation must be a finite"),
        # every run would fail drawing its dataset
        (("strategies", 2, "separation"), -1.0, "strategy 's-hi': separation must be >= 0, got -1.0"),
    ):
        data = config_to_dict(toy_config())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(data)
    # a float field takes an integer as is
    data = config_to_dict(toy_config())
    data["datasets"][0]["width"] = 2
    assert config_from_dict(data).datasets[0].width == 2


@pytest.mark.parametrize("name", ["a,b", "a/b", "", "a\nb", "a\0b", 7])
@pytest.mark.parametrize("owner", ["dataset", "strategy"])
def test_names_the_outputs_cannot_hold_are_config_errors(tmp_path, monkeypatch, capsys, owner, name):
    # a ',' splits a results.csv field, a '/' makes a matrix file a directory
    if owner == "dataset":
        overrides = {"datasets": (DatasetSpec(name=name, n_classes=10, dim=6, n_train=6, n_test=3),)}
    else:
        overrides = {"strategies": (StrategySpec(name=name, separation=1.5),)}
    cfg_path = write_toy_config(tmp_path, **overrides)
    message = f"{owner} name {name!r} must be a non-empty string"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg_path)

    def no_runs(*args, **kwargs):
        raise AssertionError("a grid ran on an invalid config")

    monkeypatch.setattr("efcilab.cli.run_grid", no_runs)
    assert main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config schema", 1)[1]
    path = tmp_path / "readme.yaml"
    path.write_text(section.split("```yaml\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    cfg = load_config(path)
    assert {d.kind for d in cfg.datasets} == {"synthetic", "file"}


def test_default_config_is_valid_and_sized_as_shipped():
    cfg = default_config()
    assert len(cfg.datasets) == 3
    assert len(cfg.strategies) == 3
    assert len(cfg.learners) == 4
    assert len(cfg.scenarios) == 2
    assert cfg.repetitions == 3
    assert len(enumerate_runs(cfg)) == 216


def test_run_single_produces_consistent_record():
    cfg = toy_config()
    spec = enumerate_runs(cfg)[0]
    ds = materialize_dataset(cfg, spec.data, spec.train, spec.rep)
    record, matrix = run_single(cfg, spec, ds)
    assert record.run_id == spec.run_id
    assert record.n == 10
    assert matrix.n_steps == (6 if spec.scenario == "half" else 5)
    assert 0.0 <= record.avg_acc <= 1.0
    # N1 = train samples in the first step
    classes_step1 = 5 if spec.scenario == "half" else 2
    n_train = 6 if spec.data == "tiny1" else 5
    assert record.n1 == classes_step1 * n_train


def test_run_single_reports_class_count_and_mean_train_count(tmp_path):
    # a file dataset with train counts 3, 5, 2 and 6 (mean 4) and one test row per class
    train_counts = (3, 5, 2, 6)
    labels = np.repeat(np.arange(4, dtype=np.int64), [n + 1 for n in train_counts])
    is_train = np.concatenate([[True] * n + [False] for n in train_counts])
    features = np.random.default_rng(0).standard_normal((len(labels), 3))
    path = tmp_path / "ext.csv"
    save_features(FeatureDataset(name="ext", features=features, labels=labels, is_train=is_train), path)
    cfg = toy_config(
        datasets=(DatasetSpec(name="ext", kind="file", small=True, width=32.0),),
        strategies=(StrategySpec(name="emb", paths={"ext": str(path)}),),
        learners=("ncm",),
        n_incr_steps=2,
    )
    for spec in enumerate_runs(cfg):
        record, _ = run_single(cfg, spec, materialize_dataset(cfg, spec.data, spec.train, spec.rep))
        assert (record.n, record.n_mean, record.small, record.width) == (4, 4.0, 1, 32.0)


def test_synthetic_dataset_writes_its_configured_small_and_width(tmp_path):
    cfg = toy_config(
        datasets=(DatasetSpec(name="tiny1", n_classes=10, dim=6, n_train=6, n_test=3,
                              small=True, width=2.5),),
        strategies=(StrategySpec(name="s-mid", separation=3.0),),
        learners=("ncm",),
        scenarios=("equal",),
    )
    header, row = write_results(run_grid(cfg), tmp_path).read_text().splitlines()[1:]
    values = dict(zip(header.split(","), row.split(",")))
    assert [values[k] for k in ("N", "n_mean", "small", "width")] == ["10", "6.0", "1", "2.5"]


def test_grid_results_deterministic_and_parallel_equivalent(tmp_path):
    cfg = toy_config()
    t1 = run_grid(cfg, jobs=1)
    t2 = run_grid(cfg, jobs=1)
    p1 = write_results(t1, tmp_path / "a")
    p2 = write_results(t2, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    t3 = run_grid(cfg, jobs=2)
    p3 = write_results(t3, tmp_path / "c")
    assert p1.read_bytes() == p3.read_bytes()
    ma = sorted((tmp_path / "a" / "matrices").iterdir())
    mc = sorted((tmp_path / "c" / "matrices").iterdir())
    assert [m.name for m in ma] == [m.name for m in mc]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(ma, mc))


def test_results_csv_round_trip(tmp_path):
    cfg = toy_config(repetitions=1, learners=("ncm",))
    table = run_grid(cfg)
    path = write_results(table, tmp_path)
    back = load_results(path)
    assert back.config_hash == table.config_hash
    assert back.base_seed == cfg.base_seed
    records = sorted(table.records, key=lambda r: r.run_id)
    assert list(back.columns) == [f.name for f in dataclasses.fields(RunRecord)]
    for name, column in back.columns.items():
        assert column.tolist() == [getattr(r, name) for r in records]
    # coded from the columns, the table is the one the records give
    coded, expected = column_table(back.columns), record_table(records)
    assert coded.levels == expected.levels
    for var, column in expected.columns.items():
        assert np.array_equal(coded.columns[var], column)


def test_grid_records_failures_without_aborting(tmp_path):
    cfg = toy_config(hyperparams={"dslda": {"shrinkage": -2.0}, "fetril": {"epochs": 25}})
    table = run_grid(cfg)
    assert len(table.failures) == 12  # every dslda cell
    assert len(table.records) == 24
    assert all("shrinkage" in f.error for f in table.failures)
    write_results(table, tmp_path)
    assert (tmp_path / "failures.csv").exists()


def test_grid_materializes_each_cell_once(monkeypatch):
    calls = []
    original = grid.materialize_dataset

    def counting(cfg, data_name, train_name, rep):
        calls.append((data_name, train_name, rep))
        return original(cfg, data_name, train_name, rep)

    monkeypatch.setattr(grid, "materialize_dataset", counting)
    cfg = toy_config(repetitions=2)
    table = run_grid(cfg, jobs=1)
    assert len(table.records) == len(enumerate_runs(cfg))
    assert sorted(calls) == sorted({(s.data, s.train, s.rep) for s in enumerate_runs(cfg)})
    assert len(calls) == 2 * 3 * 2


def test_one_cell_grid_runs_in_process_at_any_jobs(monkeypatch, tmp_path):
    cfg = toy_config(
        datasets=(DatasetSpec(name="tiny1", n_classes=10, dim=6, n_train=6, n_test=3),),
        strategies=(StrategySpec(name="s-mid", separation=3.0),),
    )
    serial = write_results(run_grid(cfg, jobs=1), tmp_path / "serial")

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-cell grid started a process pool")

    monkeypatch.setattr(grid.concurrent.futures, "ProcessPoolExecutor", no_pool)
    table = run_grid(cfg, jobs=2)
    assert len(table.records) == len(enumerate_runs(cfg)) == 6
    parallel = write_results(table, tmp_path / "parallel")
    assert parallel.read_bytes() == serial.read_bytes()
    for m in sorted((tmp_path / "serial" / "matrices").iterdir()):
        assert (tmp_path / "parallel" / "matrices" / m.name).read_bytes() == m.read_bytes()


def test_grid_missing_feature_file_fails_only_its_cell(tmp_path):
    paths = {}
    for name, sep in (("good", 3.0), ("gone", 3.0)):
        ds = synth_features(SynthSpec(n_classes=10, dim=4, n_train=5, n_test=3, separation=sep,
                                      seed=len(paths), name="ext"))
        paths[name] = tmp_path / f"{name}.csv"
        save_features(ds, paths[name])
    paths["gone"].unlink()
    cfg = toy_config(
        datasets=(DatasetSpec(name="ext", kind="file"),),
        strategies=(
            StrategySpec(name="good", paths={"ext": str(paths["good"])}),
            StrategySpec(name="gone", paths={"ext": str(paths["gone"])}),
        ),
        learners=("dslda", "ncm"),
    )
    table = run_grid(cfg)
    assert sorted(r.run_id for r in table.records) == sorted(
        s.run_id for s in enumerate_runs(cfg) if s.train == "good"
    )
    assert sorted(f.run_id for f in table.failures) == sorted(
        s.run_id for s in enumerate_runs(cfg) if s.train == "gone"
    )
    errors = {f.error for f in table.failures}
    assert len(errors) == 1
    assert errors.pop().startswith("FileNotFoundError: ")


def test_a_file_grid_parses_its_feature_file_once(tmp_path, parse_calls):
    path = tmp_path / "ext.csv"
    save_features(synth_features(SynthSpec(n_classes=10, dim=4, n_train=5, n_test=3, separation=3.0, seed=1)), path)
    calls = parse_calls
    cfg = toy_config(
        datasets=(DatasetSpec(name="ext", kind="file"),),
        strategies=(StrategySpec(name="file", paths={"ext": str(path)}),),
        learners=("dslda", "ncm"),
        repetitions=3,
    )
    cold = write_results(run_grid(cfg, jobs=1), tmp_path / "cold")
    assert len(calls) == 1  # three cells, one per repetition, share one parse
    warm = write_results(run_grid(cfg, jobs=1), tmp_path / "warm")
    assert len(calls) == 1
    assert warm.read_bytes() == cold.read_bytes()
    assert len(warm.read_text().splitlines()) == 2 + len(enumerate_runs(cfg)) == 14  # provenance, header

    ds = materialize_dataset(cfg, "ext", "file", 0)
    assert len(calls) == 1 and ds.name == "ext"
    for array in (ds.features, ds.labels, ds.is_train):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


def test_materialized_dataset_is_read_only():
    cfg = toy_config()
    ds = materialize_dataset(cfg, "tiny1", "s-lo", 0)
    for array in (ds.features, ds.labels, ds.is_train):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


def test_load_results_line_numbers_count_any_comment_header(tmp_path):
    cfg = toy_config(learners=("ncm",), scenarios=("equal",))
    text = (write_results(run_grid(cfg), tmp_path / "g")).read_text()
    comment, header, *rows = text.splitlines()
    bad_rows = (  # (bad line, its error), each with a later bad line that must not be named
        ("a,b,c", "expected 14 fields, got 3"),
        (rows[1] + ",extra", "expected 14 fields, got 15"),
        (_with_field(rows[1], N_FIELD, "7.5"), "invalid literal for int() with base 10: '7.5'"),
        (_with_field(rows[1], AVG_ACC_FIELD, "high"), "could not convert string to float: 'high'"),
    )
    later_bad = _with_field(rows[2], AVG_ACC_FIELD, "also bad")
    # blank and whitespace-only data lines are skipped but still counted
    for top in ([comment], ["# hand-written, no tokens"], []):
        for blanks in ([], ["", "  "]):
            good = top + [header, rows[0]] + blanks
            for bad, message in bad_rows:
                path = tmp_path / "bad.csv"
                path.write_text("\n".join(good + [bad, later_bad] + rows[3:]) + "\n")
                with pytest.raises(ResultsError) as exc:
                    load_results(path)
                assert str(exc.value) == f"{path}:{len(good) + 1}: {message}"


def test_load_results_names_the_file_and_token_of_a_bad_header_seed(tmp_path, capsys):
    cfg = toy_config(learners=("ncm",), scenarios=("equal",))
    text = (write_results(run_grid(cfg), tmp_path / "g")).read_text()
    path = tmp_path / "bad.csv"
    path.write_text(re.sub(r"base_seed=\d+", "base_seed=abc", text, count=1))
    with pytest.raises(ResultsError, match=r"bad\.csv:1: .*'base_seed=abc'"):
        load_results(path)
    assert main(["analyze", "--results", str(path), "--out", str(tmp_path / "r")]) == 1
    assert "bad.csv:1: " in capsys.readouterr().err


def _small_results_text(tmp_path) -> str:
    cfg = toy_config(learners=("ncm",), scenarios=("equal",))
    return write_results(run_grid(cfg), tmp_path / "g").read_text()


def test_load_results_header_errors(tmp_path):
    comment_line, header, *rows = _small_results_text(tmp_path).splitlines()
    path = tmp_path / "bad.csv"
    wrong = header.replace("avg_acc", "avg_accuracy")
    for lines in ([comment_line, wrong] + rows, [comment_line], []):
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ResultsError) as exc:
            load_results(path)
        assert str(exc.value) == f"{path}: missing or wrong header; expected {header}"


def test_load_results_of_a_header_only_file_has_empty_columns(tmp_path):
    comment_line, header, *_ = _small_results_text(tmp_path).splitlines()
    path = tmp_path / "empty.csv"
    path.write_text(f"{comment_line}\n{header}\n\n")
    loaded = load_results(path)
    assert loaded.base_seed == 77
    assert all(len(column) == 0 for column in loaded.columns.values())
    assert main(["analyze", "--results", str(path), "--out", str(tmp_path / "r")]) == 3


def test_analyze_codes_levels_over_all_files(tmp_path):
    cfg = toy_config(learners=("dslda", "ncm"))
    comment_line, header, *rows = write_results(run_grid(cfg), tmp_path / "g").read_text().splitlines()
    # s-lo only in the first file, s-hi only in the second, s-mid in both
    first = [r for r in rows if "__s-lo__" in r or r.startswith("tiny1__s-mid__")]
    second = [r for r in rows if r not in first]
    for name, part in (("a", first), ("b", second), ("both", first + second)):
        (tmp_path / f"{name}.csv").write_text("\n".join([comment_line, header] + part) + "\n")
    split = ["analyze", "--results", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    assert main(split + ["--out", str(tmp_path / "split")]) == 0
    assert main(["analyze", "--results", str(tmp_path / "both.csv"), "--out", str(tmp_path / "one")]) == 0
    bundle = (tmp_path / "split" / "bundle.json").read_bytes()
    assert bundle == (tmp_path / "one" / "bundle.json").read_bytes()
    assert b'"s-hi"' in bundle and b'"s-lo"' in bundle


def test_failures_csv_reads_back_as_run_error_pairs(tmp_path):
    failures = [
        RunFailure(run_id="b__x", error="ResultsError: f.csv:4: expected 14 fields, got 3"),
        RunFailure(run_id="a__y", error='LearnerError: step 2: "quoted", then\na second line'),
    ]
    table = ResultsTable(records=[], failures=failures, config_hash="h", base_seed=0)
    write_results(table, tmp_path)
    text = (tmp_path / "failures.csv").read_text(encoding="utf-8")
    assert len(text.splitlines()) == 1 + len(failures)
    with open(tmp_path / "failures.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["run_id", "error"],
        ["a__y", 'LearnerError: step 2: "quoted", then a second line'],
        ["b__x", "ResultsError: f.csv:4: expected 14 fields, got 3"],
    ]


# ---------------------------------------------------------------------------
# CLI


def write_toy_config(tmp_path, **overrides):
    path = tmp_path / "config.yaml"
    write_config(toy_config(**overrides), path)
    return path


def test_cli_grid_then_analyze_then_report(tmp_path, capsys):
    cfg_path = write_toy_config(tmp_path)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "config.used.yaml").exists()

    rep = tmp_path / "report"
    code = main(["analyze", "--results", str(out / "results.csv"), "--out", str(rep)])
    assert code == 0
    assert (rep / "bundle.json").exists()
    assert (rep / "summary.md").exists()
    assert (rep / "correlations.csv").exists()
    svgs = list(rep.glob("pairwise_*.svg"))
    assert svgs

    rep2 = tmp_path / "report2"
    assert main(["report", "--bundle", str(rep / "bundle.json"), "--out", str(rep2)]) == 0
    for produced in rep2.iterdir():
        assert produced.read_bytes() == (rep / produced.name).read_bytes()


def test_cli_grid_partial_failure_exit_code(tmp_path):
    # the config loads; one strategy's feature file is missing when its runs start
    good = tmp_path / "good.csv"
    save_features(synth_features(SynthSpec(n_classes=10, dim=4, n_train=5, n_test=3,
                                           separation=3.0, seed=0)), good)
    cfg_path = write_toy_config(
        tmp_path,
        datasets=(DatasetSpec(name="ext", kind="file"),),
        strategies=(
            StrategySpec(name="good", paths={"ext": str(good)}),
            StrategySpec(name="gone", paths={"ext": str(tmp_path / "gone.csv")}),
        ),
        learners=("ncm",),
    )
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert load_results(out / "results.csv").columns["train"].tolist() == ["good", "good"]
    assert (out / "failures.csv").exists()


def test_cli_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("datasets: []\n")
    assert main(["grid", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


_JOBS_ERROR = "--jobs: expected an integer of at least 1, got '{}'"


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["--jobs", "0", "--out", "o"], _JOBS_ERROR.format("0"), id="0"),
        pytest.param(["--jobs", "-3", "--out", "o"], _JOBS_ERROR.format("-3"), id="-3"),
        pytest.param([], "the following arguments are required: --out", id="no-out"),
    ],
)
def test_cli_grid_rejects_jobs_below_one(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["grid", *args])
    assert exc.value.code == 1  # a usage error, not "grid completed with failures" (2)
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, flag", [("analyze", "--results"), ("grid", "--config"), ("report", "--bundle")]
)
def test_cli_unreadable_input_is_a_usage_error(tmp_path, capsys, command, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main([command, flag, str(folder), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A results.csv that analyzes, and the bundle.json analyze writes from it."""
    root = tmp_path_factory.mktemp("analyzed")
    results = write_results(run_grid(toy_config(learners=("dslda", "ncm"))), root / "g")
    assert main(["analyze", "--results", str(results), "--out", str(root / "r")]) == 0
    return results, root / "r" / "bundle.json"


_ALPHA_ERROR = "expected a number strictly between 0 and 1, got '{}'"
_FORMATS_ERROR = "unknown report formats: ['pdf']; expected ('csv', 'md', 'svg')"


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        *(
            pytest.param("analyze", "--alpha", v, _ALPHA_ERROR.format(v), id=f"alpha={v}")
            for v in ("nan", "-1", "0", "1", "2", "x")
        ),
        pytest.param("analyze", "--formats", "pdf", _FORMATS_ERROR, id="analyze-pdf"),
        pytest.param("analyze", "--formats", "csv,pdf", _FORMATS_ERROR, id="analyze-csv,pdf"),
        pytest.param("report", "--formats", "pdf", _FORMATS_ERROR, id="report-pdf"),
    ],
)
def test_cli_rejects_a_bad_option_before_any_work(
    analyzed, tmp_path, monkeypatch, capsys, command, option, value, message
):
    results, bundle = analyzed
    source = ["--results", str(results)] if command == "analyze" else ["--bundle", str(bundle)]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--out", "out", option, value])
    assert exc.value.code == 1
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_run_single_cell(tmp_path, capsys):
    cfg_path = write_toy_config(tmp_path)
    code = main([
        "run", "--config", str(cfg_path), "--data", "tiny1", "--train", "s-hi",
        "--incr", "ncm", "--scenario", "equal", "--out", str(tmp_path / "runout"),
    ])
    assert code == 0
    assert "avg_acc=" in capsys.readouterr().out
    produced = load_results(tmp_path / "runout" / "results.csv")
    assert produced.columns["run_id"].tolist() == ["tiny1__s-hi__ncm__equal__r0"]
    assert list((tmp_path / "runout" / "matrices").glob("*.csv"))


def test_cli_synth_writes_feature_files(tmp_path):
    cfg_path = write_toy_config(tmp_path)
    out = tmp_path / "s"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    files = sorted(p.name for p in (out / "features").iterdir())
    assert files == [
        "tiny1__s-hi.csv", "tiny1__s-lo.csv", "tiny1__s-mid.csv",
        "tiny2__s-hi.csv", "tiny2__s-lo.csv", "tiny2__s-mid.csv",
    ]


def test_cli_analyze_refuses_mixed_hashes(tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    write_results(run_grid(toy_config(learners=("ncm",))), out1)
    write_results(run_grid(toy_config(learners=("ncm",), base_seed=99)), out2)
    args = ["analyze", "--results", str(out1 / "results.csv"), str(out2 / "results.csv"),
            "--out", str(tmp_path / "r")]
    assert main(args) == 1
    assert main(args + ["--force-mixed"]) == 0


def test_cli_analyze_too_few_rows_is_infeasible(tmp_path):
    out = tmp_path / "g"
    cfg = toy_config(learners=("ncm",), scenarios=("equal",), strategies=(
        StrategySpec(name="only", separation=2.0),), datasets=(
        DatasetSpec(name="tiny1", n_classes=10, dim=6, n_train=6, n_test=3),))
    write_results(run_grid(cfg), out)
    assert main(["analyze", "--results", str(out / "results.csv"), "--out", str(tmp_path / "r")]) == 3


def test_cli_run_seed_override_changes_results(tmp_path, capsys):
    cfg_path = write_toy_config(tmp_path)
    base = ["run", "--config", str(cfg_path), "--data", "tiny1", "--train", "s-lo",
            "--incr", "ncm", "--scenario", "equal"]
    main(base)
    first = capsys.readouterr().out
    main(base + ["--seed", "123456"])
    second = capsys.readouterr().out
    assert first != second
