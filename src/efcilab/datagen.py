"""Feature datasets: synthetic Gaussian class clusters and CSV ingestion.

Synthetic datasets stand in for backbone embeddings. Class means sit on a
scaled random orthonormal frame so that every pair of means is exactly
``separation`` apart (in within-class standard deviations); within-class
noise is isotropic unit Gaussian. When there are more classes than
dimensions an exact frame is impossible and means fall back to random
directions with matching expected spacing.

A dataset is only its features, labels and train/test split. The factors
a run reports about its dataset (class count, mean train samples per
class, and the caller-supplied ``small``/``width`` labels) are assembled
by the grid from the dataset and its config entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SEED_MASK = (1 << 64) - 1

CSV_SPLITS = ("train", "test")


class DatasetError(ValueError):
    """Raised for malformed feature files or invalid dataset contents."""


@dataclass
class FeatureDataset:
    """Labeled feature vectors with a train/test split."""

    name: str
    features: np.ndarray  # (n, dim) float64
    labels: np.ndarray  # (n,) int64
    is_train: np.ndarray  # (n,) bool

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def class_ids(self) -> np.ndarray:
        return np.unique(self.labels)

    def validate(self) -> None:
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise DatasetError("features must be a non-empty 2-D array")
        if not np.all(np.isfinite(self.features)):
            raise DatasetError("features contain non-finite values")
        if self.labels.shape != (self.n_samples,) or self.is_train.shape != (self.n_samples,):
            raise DatasetError("labels/split arrays do not match the sample count")
        for c in self.class_ids:
            mask = self.labels == c
            if not np.any(mask & self.is_train) or not np.any(mask & ~self.is_train):
                raise DatasetError(f"class {int(c)} lacks a train or test sample")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset."""

    n_classes: int
    dim: int
    n_train: int
    n_test: int
    separation: float
    strategy_tag: str = ""
    seed: int = 0
    name: str = "synthetic"

    def validate(self) -> None:
        if self.n_classes < 2:
            raise DatasetError(f"need at least 2 classes, got {self.n_classes}")
        if self.dim < 1:
            raise DatasetError(f"dim must be positive, got {self.dim}")
        if self.n_train < 1 or self.n_test < 1:
            raise DatasetError("per-class train and test counts must be >= 1")
        if self.separation < 0:
            raise DatasetError(f"separation must be >= 0, got {self.separation}")


def class_means_frame(n_classes: int, dim: int, separation: float, rng) -> np.ndarray:
    """Means with pairwise distance ``separation``; exact when n_classes <= dim."""
    if n_classes <= dim:
        q, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
        return (separation / math.sqrt(2.0)) * q.T
    # Too many classes for an orthonormal frame: random unit directions,
    # same scaling, so the expected pairwise distance matches.
    raw = rng.standard_normal((n_classes, dim))
    return (separation / math.sqrt(2.0)) * raw / np.linalg.norm(raw, axis=1, keepdims=True)


def synth_features(spec: SynthSpec) -> FeatureDataset:
    """Draw a dataset per ``spec``; deterministic in ``spec.seed``."""
    spec.validate()
    rng = np.random.default_rng(spec.seed & _SEED_MASK)
    means = class_means_frame(spec.n_classes, spec.dim, spec.separation, rng)

    per_class = spec.n_train + spec.n_test
    features = np.empty((spec.n_classes * per_class, spec.dim))
    labels = np.empty(spec.n_classes * per_class, dtype=np.int64)
    is_train = np.zeros(spec.n_classes * per_class, dtype=bool)
    for c in range(spec.n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = means[c] + rng.standard_normal((per_class, spec.dim))
        labels[block] = c
        is_train[block.start : block.start + spec.n_train] = True

    ds = FeatureDataset(name=spec.name, features=features, labels=labels, is_train=is_train)
    ds.validate()
    return ds


def save_features(ds: FeatureDataset, path: str | Path) -> None:
    """Stream the canonical feature CSV (UTF-8, LF) one row at a time: label,split,f0..f{d-1}."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("label,split," + ",".join(f"f{i}" for i in range(ds.dim)) + "\n")
        for label, train, row in zip(ds.labels.tolist(), ds.is_train.tolist(), ds.features):
            fh.write(f"{label},{'train' if train else 'test'}," + ",".join(map(repr, row.tolist())) + "\n")


def load_features(path: str | Path, name: str | None = None) -> FeatureDataset:
    """Parse a canonical feature CSV, streamed line by line; errors carry the offending line number.

    LF or CRLF ends a line; blank lines are skipped. Labels are integers below 2**63."""
    path = Path(path)
    labels, splits, rows = [], [], []
    with path.open(encoding="utf-8") as fh:
        first = next(fh, None)
        if first is None:
            raise DatasetError(f"{path}: empty file")
        header = first.rstrip("\n").split(",")
        if header[:2] != ["label", "split"] or len(header) < 3:
            raise DatasetError(f"{path}:1: header must be 'label,split,f0,...'")
        for i, col in enumerate(header[2:]):
            if col != f"f{i}":
                raise DatasetError(f"{path}:1: feature column {i} is named {col!r}, expected 'f{i}'")
        dim = len(header) - 2

        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != dim + 2:
                raise DatasetError(f"{path}:{lineno}: expected {dim + 2} fields, got {len(parts)}")
            try:
                label = int(parts[0])
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: label {parts[0]!r} is not an integer") from None
            if label < 0:
                raise DatasetError(f"{path}:{lineno}: label must be nonnegative, got {label}")
            if label >= 1 << 63:
                raise DatasetError(f"{path}:{lineno}: label must be below 2**63, got {label}")
            if parts[1] not in CSV_SPLITS:
                raise DatasetError(f"{path}:{lineno}: split {parts[1]!r} is not one of {CSV_SPLITS}")
            try:
                values = np.array(parts[2:], dtype=np.float64)
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric feature value") from None
            if not np.isfinite(values).all():
                raise DatasetError(f"{path}:{lineno}: non-finite feature value")
            labels.append(label)
            splits.append(parts[1] == "train")
            rows.append(values)

    if not rows:
        raise DatasetError(f"{path}: no data rows")
    ds = FeatureDataset(
        name=name if name is not None else path.stem,
        features=np.stack(rows),
        labels=np.array(labels, dtype=np.int64),
        is_train=np.array(splits, dtype=bool),
    )
    try:
        ds.validate()
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return ds
