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

A feature CSV is parsed once per content: ``load_features`` keeps the
parsed arrays in a binary cache entry per file, under
``$XDG_CACHE_HOME/efcilab/features-v1`` (``~/.cache`` when that is unset
or not absolute), and uses an entry only while it holds the sha256 of the
file's current bytes. Writing an entry removes those of feature files that
no longer exist. Deleting the cache is always safe.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

_SEED_MASK = (1 << 64) - 1

CSV_SPLITS = ("train", "test")

# bump the version directory when the entry layout changes; the one change so
# far, from a single .npz file to the .bin records below, reused this directory,
# so the sweep also removes every .npz entry
_CACHE_DIR = Path("efcilab", "features-v1")
# An entry holds these arrays as .npy records, one after another: written with
# write_array and read with read_array, so neither side copies the features.
_ENTRY_FIELDS = ("sha256", "source", "features", "labels", "is_train")


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
        # a class fails when it is in just one of the two splits; name the smallest
        lacking = np.setxor1d(self.labels[self.is_train], self.labels[~self.is_train])
        if lacking.size:
            raise DatasetError(f"class {int(lacking[0])} lacks a train or test sample")


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


def _blocks(path: str | Path):
    """A file's bytes in 64 KiB blocks."""
    with open(path, "rb") as fh:
        yield from iter(lambda: fh.read(1 << 16), b"")


def file_digest(path: str | Path) -> str:
    """sha256 hex digest of a file's bytes, read in 64 KiB blocks."""
    digest = hashlib.sha256()
    for block in _blocks(path):
        digest.update(block)
    return digest.hexdigest()


def load_features(path: str | Path, name: str | None = None) -> FeatureDataset:
    """Load a canonical feature CSV, parsing it only when its cache entry is not current.

    The entry is ``<cache>/efcilab/features-v1/<sha256 of the resolved path>.bin``,
    with ``<cache>`` the absolute ``$XDG_CACHE_HOME`` or else ``~/.cache``. It is
    used only when it holds the sha256 of the file's bytes and arrays of the
    right dtypes and shapes that pass ``FeatureDataset.validate``. Otherwise the
    file is parsed, with the line-numbered errors of ``_parse_features``, and a
    file that parsed and did not change meanwhile is written to its entry. A
    cache that cannot be read or written costs a parse, never the load.
    """
    path = Path(path)
    mtime = path.stat().st_mtime_ns
    digest = file_digest(path)
    entry = _cache_entry(path)
    ds = _cached_features(entry, digest) if entry is not None else None
    if ds is None:
        ds = _parse_features(path)
        if entry is not None and path.stat().st_mtime_ns == mtime:
            _write_entry(entry, path, digest, ds)
    ds.name = name if name is not None else path.stem
    return ds


def _cache_entry(path: Path) -> Path | None:
    """Where ``path``'s entry lives; None when no cache directory can be named."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    try:
        root = Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache"
        key = hashlib.sha256(os.fsencode(path.resolve())).hexdigest()
    except (OSError, RuntimeError):
        return None
    return root / _CACHE_DIR / f"{key}.bin"


def _read_entry(entry: Path, fields: int = len(_ENTRY_FIELDS)) -> dict[str, np.ndarray]:
    """The first ``fields`` arrays of an entry; OSError or ValueError if they are not all there."""
    with open(entry, "rb") as fh:
        return {f: npy_format.read_array(fh, allow_pickle=False) for f in _ENTRY_FIELDS[:fields]}


def _cached_features(entry: Path, digest: str) -> FeatureDataset | None:
    """The entry's dataset if it is current and valid; None for any other entry."""
    try:
        arrays = _read_entry(entry)
    except (OSError, ValueError):
        return None
    if str(arrays["sha256"]) != digest:
        return None
    ds = FeatureDataset("", arrays["features"], arrays["labels"], arrays["is_train"])
    if (ds.features.dtype, ds.labels.dtype, ds.is_train.dtype) != (np.float64, np.int64, np.bool_):
        return None
    try:
        ds.validate()
    except DatasetError:
        return None
    return ds


def _write_entry(entry: Path, path: Path, digest: str, ds: FeatureDataset) -> None:
    """Replace the entry atomically, so concurrent loaders never read a partial one,
    then remove the entries of feature files that no longer exist."""
    tmp = entry.with_name(f"{entry.stem}.{os.getpid()}.tmp")
    try:
        arrays = {
            "sha256": np.array(digest),
            "source": np.array(os.fsdecode(path.resolve())),
            "features": ds.features,
            "labels": ds.labels,
            "is_train": ds.is_train,
        }
        entry.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            for field in _ENTRY_FIELDS:
                npy_format.write_array(fh, arrays[field], allow_pickle=False)
        os.replace(tmp, entry)
        _remove_orphans(entry.parent)
    except (OSError, RuntimeError):
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass  # the entry is only a cache: a load never fails for it


def _remove_orphans(directory: Path) -> None:
    """Delete every entry whose recorded feature file is gone, or that cannot be read,
    and every entry of the .npz layout, which no load reads. Other writers'
    in-flight ``.tmp`` files are left alone."""
    for entry in directory.glob("*.npz"):
        entry.unlink(missing_ok=True)
    for entry in directory.glob("*.bin"):
        try:
            source = str(_read_entry(entry, 2)["source"])
        except (OSError, ValueError):
            source = ""
        if not os.path.isfile(source):
            entry.unlink(missing_ok=True)


def _line_end_bound(path: Path) -> int:
    """An upper bound on the lines after the first that text mode reads from ``path``.

    Counts every LF and every CR not followed by LF in its 64 KiB block, so
    CRLF counts once, and a CRLF split across two blocks twice."""
    ends = 0
    for block in _blocks(path):
        cr = block.count(b"\r")  # mostly 0, which saves the slower two-byte count
        ends += block.count(b"\n") + (cr - block.count(b"\r\n") if cr else 0)
    return ends


def _check_utf8(path: Path, lineno: int, line: str) -> None:
    """Fail a line whose bytes were not UTF-8: ``surrogateescape`` read them as lone surrogates."""
    if not line.isascii():  # O(1), and true for every valid data line
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise DatasetError(f"{path}:{lineno}: not valid UTF-8") from None


def _parse_features(path: Path) -> FeatureDataset:
    """Parse a canonical feature CSV, streamed line by line; errors carry the offending line number.

    LF, CRLF or a lone CR ends a line; blank lines are skipped. Labels are
    integers below 2**63. A byte that is not UTF-8 reads as a lone surrogate
    and fails the check of its own line, so the error names the first bad
    line, whatever its fault. The arrays are allocated once, from a count of
    the file's line ends, and each row is parsed straight into its slot, so
    the features are held once."""
    capacity = _line_end_bound(path)
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        first = next(fh, None)
        if first is None:
            raise DatasetError(f"{path}: empty file")
        _check_utf8(path, 1, first)
        header = first.rstrip("\n").split(",")
        if header[:2] != ["label", "split"] or len(header) < 3:
            raise DatasetError(f"{path}:1: header must be 'label,split,f0,...'")
        for i, col in enumerate(header[2:]):
            if col != f"f{i}":
                raise DatasetError(f"{path}:1: feature column {i} is named {col!r}, expected 'f{i}'")
        dim = len(header) - 2

        features = np.empty((capacity, dim))
        labels = np.empty(capacity, dtype=np.int64)
        is_train = np.empty(capacity, dtype=bool)
        n = 0
        for lineno, line in enumerate(fh, start=2):
            _check_utf8(path, lineno, line)
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
                features[n] = parts[2:]
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric feature value") from None
            if not np.isfinite(features[n]).all():
                raise DatasetError(f"{path}:{lineno}: non-finite feature value")
            labels[n] = label
            is_train[n] = parts[1] == "train"
            n += 1

    if n == 0:
        raise DatasetError(f"{path}: no data rows")
    ds = FeatureDataset(name="", features=features[:n], labels=labels[:n], is_train=is_train[:n])
    try:
        ds.validate()
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return ds
