"""Grid configuration: parsing, validation, hashing, deterministic seeds.

A config is one YAML or JSON document. Strategy levels bind either a
mean-separation value (used to synthesize datasets of that quality) or
per-dataset embedding-file paths for ingested features.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .datagen import file_digest
from .learners import LEARNER_KINDS, LearnerError, make_learner

SCENARIO_KINDS = ("equal", "half")


class ConfigError(ValueError):
    """Raised for invalid or inconsistent grid configuration."""


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    kind: str = "synthetic"  # synthetic | file
    n_classes: int = 0
    dim: int = 0
    n_train: int = 0
    n_test: int = 0
    small: bool = False
    width: float = 0.0


@dataclass(frozen=True)
class StrategySpec:
    name: str
    separation: float = 0.0  # for synthetic datasets
    paths: dict = field(default_factory=dict)  # dataset name -> feature CSV, for file datasets


@dataclass(frozen=True)
class GridConfig:
    datasets: tuple[DatasetSpec, ...]
    strategies: tuple[StrategySpec, ...]
    learners: tuple[str, ...]
    scenarios: tuple[str, ...]
    n_incr_steps: int
    repetitions: int
    base_seed: int
    hyperparams: dict = field(default_factory=dict)

    def dataset(self, name: str) -> DatasetSpec:
        for spec in self.datasets:
            if spec.name == name:
                return spec
        raise ConfigError(f"unknown dataset {name!r}")

    def strategy(self, name: str) -> StrategySpec:
        for spec in self.strategies:
            if spec.name == name:
                return spec
        raise ConfigError(f"unknown strategy {name!r}")


_NUMBER_KINDS = {"int": "an integer", "float": "a finite number", "bool": "true or false"}


def _check_numbers(spec, owner: str = "") -> None:
    """Reject a number field holding the wrong type; nothing is coerced.

    An int field takes an integer but not a bool, a float field a finite
    integer or float, and a bool field a bool.
    """
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type == "bool":
            ok = isinstance(value, bool)
        elif f.type == "int":
            ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        elif f.type == "float":
            ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
        else:
            continue
        if not ok:
            raise ConfigError(f"{owner}{f.name} must be {_NUMBER_KINDS[f.type]}, got {value!r}")


def _check_name(owner: str, name) -> None:
    """Reject a name that a results.csv field or a matrix file name cannot hold."""
    if not (isinstance(name, str) and name.splitlines() == [name]
            and not any(ch in name for ch in ",/\0")):
        raise ConfigError(
            f"{owner} name {name!r} must be a non-empty string with no ',', '/', NUL or line break"
        )


def validate_config(cfg: GridConfig) -> None:
    _check_numbers(cfg)
    for ds in cfg.datasets:
        _check_name("dataset", ds.name)
        _check_numbers(ds, f"dataset {ds.name!r}: ")
    for strat in cfg.strategies:
        _check_name("strategy", strat.name)
        _check_numbers(strat, f"strategy {strat.name!r}: ")
        if strat.separation < 0:
            raise ConfigError(
                f"strategy {strat.name!r}: separation must be >= 0, got {strat.separation}"
            )
    names = [d.name for d in cfg.datasets]
    if not names:
        raise ConfigError("config declares no datasets")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate dataset names: {names}")
    strategy_names = [s.name for s in cfg.strategies]
    if not strategy_names:
        raise ConfigError("config declares no strategies")
    if len(set(strategy_names)) != len(strategy_names):
        raise ConfigError(f"duplicate strategy names: {strategy_names}")
    if not cfg.learners:
        raise ConfigError("config declares no learners")
    for kind in cfg.learners:
        if kind not in LEARNER_KINDS:
            raise ConfigError(f"unknown learner {kind!r}; expected one of {LEARNER_KINDS}")
    if len(set(cfg.learners)) != len(cfg.learners):
        raise ConfigError(f"duplicate learners: {cfg.learners}")
    for scen in cfg.scenarios:
        if scen not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario {scen!r}; expected one of {SCENARIO_KINDS}")
    if not cfg.scenarios or len(set(cfg.scenarios)) != len(cfg.scenarios):
        raise ConfigError(f"scenarios must be non-empty and unique: {cfg.scenarios}")
    if cfg.n_incr_steps < 1:
        raise ConfigError(f"n_incr_steps must be >= 1, got {cfg.n_incr_steps}")
    if cfg.repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {cfg.repetitions}")
    for kind in cfg.hyperparams:
        if kind not in LEARNER_KINDS:
            raise ConfigError(f"hyperparams for unknown learner {kind!r}")
    for kind in cfg.learners:
        try:
            make_learner(kind, cfg.hyperparams.get(kind))
        except LearnerError as exc:
            raise ConfigError(f"learner {kind!r}: {exc}") from None
    for ds in cfg.datasets:
        if ds.kind == "synthetic":
            if ds.n_classes < 2 or ds.dim < 1 or ds.n_train < 1 or ds.n_test < 1:
                raise ConfigError(f"dataset {ds.name!r}: invalid synthetic geometry")
            for strat in cfg.strategies:
                if ds.name in strat.paths:
                    raise ConfigError(
                        f"strategy {strat.name!r} names a feature file for synthetic dataset {ds.name!r}"
                    )
        elif ds.kind == "file":
            if ds.n_classes or ds.dim or ds.n_train or ds.n_test:
                raise ConfigError(
                    f"dataset {ds.name!r}: a file dataset takes no n_classes, dim, n_train or n_test"
                )
            for strat in cfg.strategies:
                if ds.name not in strat.paths:
                    raise ConfigError(
                        f"strategy {strat.name!r} lacks a feature file for dataset {ds.name!r}"
                    )
        else:
            raise ConfigError(f"dataset {ds.name!r}: unknown kind {ds.kind!r}")


def config_to_dict(cfg: GridConfig) -> dict:
    data = asdict(cfg)
    data["datasets"] = [asdict(d) for d in cfg.datasets]
    data["strategies"] = [asdict(s) for s in cfg.strategies]
    data["learners"] = list(cfg.learners)
    data["scenarios"] = list(cfg.scenarios)
    return data


def config_from_dict(data: dict) -> GridConfig:
    try:
        cfg = GridConfig(
            datasets=tuple(DatasetSpec(**d) for d in data["datasets"]),
            strategies=tuple(StrategySpec(**s) for s in data["strategies"]),
            learners=tuple(data["learners"]),
            scenarios=tuple(data["scenarios"]),
            n_incr_steps=data["n_incr_steps"],
            repetitions=data["repetitions"],
            base_seed=data["base_seed"],
            hyperparams=dict(data.get("hyperparams", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> GridConfig:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        if path.suffix == ".json":
            data = json.loads(text)
        else:
            data = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: cannot parse config: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config document must be a mapping")
    return config_from_dict(data)


def write_config(cfg: GridConfig, path: str | Path) -> None:
    path = Path(path)
    data = config_to_dict(cfg)
    if path.suffix == ".json":
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        path.write_text(yaml.safe_dump(data, sort_keys=True), encoding="utf-8")


def _file_token(path) -> str:
    """A feature file's sha256; an unreadable file (its runs fail) keeps its path."""
    path = str(path)  # a YAML number must not open as a file descriptor
    try:
        return file_digest(path)
    except OSError:
        return path


def config_hash(cfg: GridConfig) -> str:
    """Stable short hash of the config contents.

    A feature file enters by the sha256 of its bytes, not by its path, so
    one grid over the same files hashes alike from any directory.
    """
    data = config_to_dict(cfg)
    for strat in data["strategies"]:
        strat["paths"] = {name: _file_token(path) for name, path in strat["paths"].items()}
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from arbitrary hashable parts.

    Independent of process hash randomization, so reruns and workers
    agree; adding grid combinations never changes existing seeds.
    """
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def default_config() -> GridConfig:
    """The shipped synthetic grid: 3 datasets x 3 strategies x 4 learners
    x 2 scenarios x 3 repetitions (216 runs)."""
    return GridConfig(
        datasets=(
            DatasetSpec(name="blobs20", n_classes=20, dim=16, n_train=20, n_test=10),
            DatasetSpec(name="blobs40", n_classes=40, dim=24, n_train=12, n_test=6),
            DatasetSpec(name="blobs60", n_classes=60, dim=32, n_train=8, n_test=5),
        ),
        strategies=(
            StrategySpec(name="scratch", separation=1.5),
            StrategySpec(name="ssl-pretrained", separation=3.0),
            StrategySpec(name="ssl-pretrained-ft", separation=4.0),
        ),
        learners=("dslda", "fetril", "bsil", "ncm"),
        scenarios=("equal", "half"),
        n_incr_steps=10,
        repetitions=3,
        base_seed=20240,
        hyperparams={
            "dslda": {"shrinkage": 1e-4},
            "fetril": {"lr": 0.1, "epochs": 200, "weight_decay": 1e-4},
            # anchor_strength 0 exposes forgetting in the fine-tuning-style
            # learner, the contrast the analysis is after
            "bsil": {"lr": 0.1, "epochs": 200, "anchor_strength": 0.0, "scale_init": 2.0},
            "ncm": {},
        },
    )
