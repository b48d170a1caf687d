"""Synthetic feature generation and CSV round trips."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from _factories import split_arrays
from efcilab import datagen
from efcilab.datagen import (
    DatasetError,
    FeatureDataset,
    SynthSpec,
    class_means_frame,
    load_features,
    save_features,
    synth_features,
)


def batch_lda_accuracy(ds) -> float:
    """Independent batch-LDA oracle: fit on train, score on test."""
    x, y = split_arrays(ds, train=True)
    ids = np.unique(y)
    mu = np.stack([x[y == c].mean(axis=0) for c in ids])
    centered = x - mu[np.searchsorted(ids, y)]
    sigma = centered.T @ centered / len(y)
    lam = np.linalg.inv(0.999 * sigma + 0.001 * np.eye(ds.dim))
    w = mu @ lam
    b = -0.5 * np.einsum("ij,ij->i", w, mu)
    tx, ty = split_arrays(ds, train=False)
    pred = ids[np.argmax(tx @ w.T + b, axis=1)]
    return float((pred == ty).mean())


def test_high_separation_is_perfectly_classifiable():
    ds = synth_features(SynthSpec(n_classes=4, dim=8, n_train=50, n_test=25, separation=10.0, seed=1))
    assert batch_lda_accuracy(ds) == 1.0


def test_zero_separation_gives_chance_accuracy():
    ds = synth_features(SynthSpec(n_classes=4, dim=8, n_train=100, n_test=100, separation=0.0, seed=2))
    acc = batch_lda_accuracy(ds)
    assert abs(acc - 0.25) < 0.1


def test_pairwise_mean_distances_match_separation():
    spec = SynthSpec(n_classes=5, dim=12, n_train=400, n_test=5, separation=3.0, seed=3)
    ds = synth_features(spec)
    x, y = split_arrays(ds, train=True)
    mu = np.stack([x[y == c].mean(axis=0) for c in range(5)])
    for i in range(5):
        for j in range(i + 1, 5):
            assert abs(np.linalg.norm(mu[i] - mu[j]) - 3.0) < 0.35


def test_class_means_converge_componentwise():
    # componentwise |mu_hat - mu| <= 5/sqrt(n_train), over several seeds
    for seed in range(10):
        spec = SynthSpec(n_classes=3, dim=6, n_train=64, n_test=2, separation=2.0, seed=seed)
        ds = synth_features(spec)
        means = class_means_frame(3, 6, 2.0, np.random.default_rng(seed))
        x, y = split_arrays(ds, train=True)
        bound = 5.0 / math.sqrt(64)
        for c in range(3):
            emp = x[y == c].mean(axis=0)
            assert np.all(np.abs(emp - means[c]) <= bound)


def _pairwise_distances(means):
    i, j = np.triu_indices(len(means), k=1)
    return np.linalg.norm(means[i] - means[j], axis=1)


def test_more_classes_than_dims_uses_random_placement():
    rng = np.random.default_rng(0)
    # while the classes fit the dimensions, every pair of means is exactly `separation` apart
    for n_classes in (2, 4):
        frame = class_means_frame(n_classes, 4, 5.0, rng)
        assert np.all(np.abs(_pairwise_distances(frame) - 5.0) <= 1e-12)
    # beyond that, random directions at the frame's radius separation / sqrt(2)
    scattered = class_means_frame(10, 4, 5.0, rng)
    assert np.all(np.abs(np.linalg.norm(scattered, axis=1) - 5.0 / math.sqrt(2.0)) <= 1e-12)
    assert np.ptp(_pairwise_distances(scattered)) > 1.0


def test_same_seed_same_bytes(tmp_path):
    spec = SynthSpec(n_classes=3, dim=5, n_train=4, n_test=2, separation=1.0, seed=42)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_features(synth_features(spec), a)
    save_features(synth_features(spec), b)
    assert a.read_bytes() == b.read_bytes()


def test_invalid_spec_errors():
    with pytest.raises(DatasetError, match="dim"):
        SynthSpec(n_classes=3, dim=0, n_train=1, n_test=1, separation=1.0).validate()
    with pytest.raises(DatasetError, match="2 classes"):
        SynthSpec(n_classes=1, dim=4, n_train=1, n_test=1, separation=1.0).validate()
    with pytest.raises(DatasetError, match="separation"):
        SynthSpec(n_classes=3, dim=4, n_train=1, n_test=1, separation=-0.5).validate()


def test_csv_round_trip(tmp_path):
    ds = synth_features(SynthSpec(n_classes=3, dim=4, n_train=5, n_test=2, separation=2.0, seed=9))
    path = tmp_path / "feat.csv"
    save_features(ds, path)
    back = load_features(path, name=ds.name)
    assert back.dim == ds.dim
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.is_train, ds.is_train)


def test_saved_floats_keep_their_repr_bytes(tmp_path):
    edge = [-0.0, 5e-324, 0.1, 1e16]
    ds = FeatureDataset(
        name="edge",
        features=np.array([edge, edge[::-1]]),
        labels=np.array([3, 0], dtype=np.int64),
        is_train=np.array([True, False]),
    )
    path = tmp_path / "edge.csv"
    save_features(ds, path)
    # the formatting of numpy scalars one at a time
    expected = ["label,split,f0,f1,f2,f3"] + [
        f"{int(ds.labels[i])},{'train' if ds.is_train[i] else 'test'},"
        + ",".join(repr(float(v)) for v in ds.features[i])
        for i in range(2)
    ]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
    assert path.read_text().splitlines()[1] == "3,train,-0.0,5e-324,0.1,1e+16"


def test_load_small_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("label,split,f0,f1\n0,train,1.5,2.0\n0,test,0.5,1.0\n1,train,3.0,4.0\n1,test,2.5,3.5\n")
    ds = load_features(path)
    assert ds.dim == 2
    assert ds.n_samples == 4
    assert ds.labels.tolist() == [0, 0, 1, 1]


def test_load_errors_carry_line_numbers(tmp_path, feature_cache):
    # each file is the header "label,split,f0,f1" followed by these bytes
    cases = [
        ("nan", b"\n0,train,1.0,nan\n0,test,0.5,1.0\n", r"nan\.csv:2: non-finite"),
        ("ragged", b"\n0,train,1.0\n", r"ragged\.csv:2: expected 4 fields"),
        ("split", b"\n0,validate,1.0,2.0\n", r"split\.csv:2: split"),
        # one past the largest int64
        ("huge", b"\n9223372036854775808,train,1.0,2.0\n", r"huge\.csv:2: label must be below 2\*\*63"),
        # line numbers count every physical line: CRLF endings, blank and whitespace-only lines
        ("crlf", b"\r\n0,train,1.0,2.0\r\n0,train,1.0,inf\r\n", r"crlf\.csv:3: non-finite"),
        ("blank", b"\n0,train,1.0,2.0\n\n   \n\t\n0,validate,1.0,2.0\n", r"blank\.csv:6: split"),
        ("crlf_blank", b"\r\n\r\n  \r\n0,train,1.0\r\n", r"crlf_blank\.csv:4: expected 4 fields"),
        ("missing", b"\n0,train,1.0,2.0\n1,train,0.5,1.0\n1,test,0.5,1.0\n", "class 0 lacks"),
        # two classes fail, each on a different split: the smaller is named
        ("missing_two", b"\n4,test,1.0,2.0\n3,train,1.0,2.0\n1,train,0.5,1.0\n1,test,0.5,1.0\n",
         r"missing_two\.csv: class 3 lacks"),
        # not UTF-8: each line is checked where it is read, past the decoder's first chunk here
        ("latin1", b"\n0,train,1.0,2.0\n0,test,caf\xe9,1.0\n", r"latin1\.csv:3: not valid UTF-8"),
        ("late_latin1", b"\n" + b"0,train,1.0,2.0\n" * 1000 + b"\r\n0,test,\xff,1.0\n",
         r"late_latin1\.csv:1003: not valid UTF-8"),
        # a lone CR ends a line for the text reader, so it counts here too
        ("cr_latin1", b"\n0,train,1.0,2.0\r0,test,\xe9,1.0\n", r"cr_latin1\.csv:3: not valid UTF-8"),
        # the first bad line is named, whatever its fault, though the decoder reads past it
        ("mixed", b"\n0,train,1.0\n0,test,caf\xe9,1.0\n", r"mixed\.csv:2: expected 4 fields, got 3"),
        ("header_latin1", b",f\xe92\n0,train,1.0,2.0,3.0\n", r"header_latin1\.csv:1: not valid UTF-8"),
        # UTF-8 that is not ASCII passes the check and fails as the value it is
        ("utf8", b"\n0,train,1.0,\xc3\xa9\n", r"utf8\.csv:2: non-numeric"),
    ]
    for stem, body, pattern in cases:
        path = tmp_path / f"{stem}.csv"
        path.write_bytes(b"label,split,f0,f1" + body)
        messages = []
        for _ in range(2):  # the same error again: no entry stands in for a file that failed
            with pytest.raises(DatasetError, match=pattern) as err:
                load_features(path)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    assert not feature_cache.exists()

    top = tmp_path / "top.csv"
    top.write_bytes(b"label,split,f0\r\n9223372036854775807,train,1.0\r\n9223372036854775807,test,2.0\r\n")
    assert load_features(top).labels.tolist() == [2**63 - 1] * 2


def test_csv_save_and_load_stream_their_rows(tmp_path, feature_cache):
    # 300 x 128 values: a Python object per value would take several times the array
    ds = synth_features(SynthSpec(n_classes=30, dim=128, n_train=6, n_test=4, separation=2.0, seed=4))
    path = tmp_path / "feat.csv"
    load_peaks = []
    tracemalloc.start()
    try:
        save_features(ds, path)
        _, save_peak = tracemalloc.get_traced_memory()
        for _ in range(2):  # a miss that parses and writes the entry, then a hit
            tracemalloc.reset_peak()
            back = load_features(path)
            _, peak = tracemalloc.get_traced_memory()
            load_peaks.append(peak)
            assert np.array_equal(back.features, ds.features)
            del back
    finally:
        tracemalloc.stop()
    assert len(list(feature_cache.glob("*.bin"))) == 1
    assert save_peak < ds.features.nbytes
    # a parse holds the features once
    assert max(load_peaks) < 1.5 * ds.features.nbytes

    # one line end per CRLF, not two; a lone-CR file is still read a line at a time
    for end in (b"\r\n", b"\r"):
        other = tmp_path / f"feat_{end.hex()}.csv"
        other.write_bytes(path.read_bytes().replace(b"\n", end))
        tracemalloc.start()
        try:
            back = load_features(other)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.features, ds.features)
        assert peak < 1.5 * ds.features.nbytes


@pytest.mark.parametrize(
    "variant",
    [
        lambda b: b,
        lambda b: b.replace(b"\n", b"\r\n"),
        lambda b: b.replace(b"\n", b"\r"),
        lambda b: b.replace(b"\n", b"\n\n \t\n", 2),  # blank and whitespace-only lines
        lambda b: b.rstrip(b"\n"),
    ],
    ids=["lf", "crlf", "lone_cr", "blank", "no_final_newline"],
)
def test_every_line_end_loads_the_same_arrays(tmp_path, variant):
    lf = b"label,split,f0,f1\n0,train,1.5,-0.0\n0,test,0.5,1e+16\n1,train,3.0,5e-324\n1,test,2.5,3.5\n"
    path = tmp_path / "feat.csv"
    path.write_bytes(variant(lf))
    expected = FeatureDataset(
        name="",
        features=np.array([[1.5, -0.0], [0.5, 1e16], [3.0, 5e-324], [2.5, 3.5]]),
        labels=np.array([0, 0, 1, 1], dtype=np.int64),
        is_train=np.array([True, False, True, False]),
    )
    assert _same_arrays(load_features(path), expected)


def _entry(cache, path):
    """The cache entry of ``path``: named by the sha256 of its resolved path."""
    return cache / f"{hashlib.sha256(os.fsencode(path.resolve())).hexdigest()}.bin"


def _same_arrays(a, b) -> bool:
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.features, b.features), (a.labels, b.labels), (a.is_train, b.is_train))
    )


@pytest.fixture
def feature_file(tmp_path):
    ds = synth_features(SynthSpec(n_classes=4, dim=3, n_train=3, n_test=2, separation=2.0, seed=5))
    path = tmp_path / "feat.csv"
    save_features(ds, path)
    return path


def test_cached_load_is_bit_identical_to_a_parse(feature_file, feature_cache, parse_calls):
    fresh = datagen._parse_features(feature_file)
    first = load_features(feature_file, name="a")
    second = load_features(feature_file, name="b")
    third = load_features(feature_file)
    assert len(parse_calls) == 2  # the direct call, then the one miss
    assert _entry(feature_cache, feature_file).is_file()
    assert [first.name, second.name, third.name] == ["a", "b", "feat"]
    for ds in (first, second, third):
        assert _same_arrays(ds, fresh)


def test_an_edited_file_misses_its_entry(feature_file, feature_cache, parse_calls):
    before = load_features(feature_file)
    text = feature_file.read_text()
    value = repr(float(before.features[0, 0]))
    feature_file.write_text(text.replace(value, value[:-1] + ("1" if value[-1] != "1" else "2"), 1))
    after = load_features(feature_file)
    assert len(parse_calls) == 2
    assert after.features[0, 0] != before.features[0, 0]
    assert np.array_equal(after.features[1:], before.features[1:])
    assert _same_arrays(load_features(feature_file), after)
    assert len(parse_calls) == 2
    assert len(list(feature_cache.iterdir())) == 1  # the entry was overwritten, not added to


def _fail_validate(arrays):
    arrays["is_train"] = np.ones_like(arrays["is_train"])  # no class keeps a test sample


@pytest.mark.parametrize(
    "spoil",
    [
        "truncated",
        "npz",
        lambda a: a.update(features=a["features"].astype(np.float32)),
        lambda a: a.update(labels=a["labels"].astype(np.int32)),
        lambda a: a.update(labels=a["labels"][:-1]),
        lambda a: a.update(features=a["features"].ravel()),
        lambda a: a.update(sha256=np.array("0" * 64)),
        lambda a: a.pop("is_train"),
        _fail_validate,
    ],
    ids=["truncated", "npz", "f32", "i32", "short", "1d", "digest", "missing", "invalid"],
)
def test_a_bad_entry_is_parsed_again_and_overwritten(feature_file, feature_cache, spoil, request):
    good = load_features(feature_file)
    entry = _entry(feature_cache, feature_file)
    if spoil == "truncated":
        entry.write_bytes(entry.read_bytes()[:-1])  # one byte short of the last array
    elif spoil == "npz":  # the right arrays, but not as .npy records
        arrays = datagen._read_entry(entry)
        with open(entry, "wb") as fh:
            np.savez(fh, **arrays)
    else:
        arrays = datagen._read_entry(entry)
        spoil(arrays)
        with open(entry, "wb") as fh:
            for array in arrays.values():
                np.lib.format.write_array(fh, array)
    calls = request.getfixturevalue("parse_calls")  # counts from here on
    assert _same_arrays(load_features(feature_file), good)
    assert _same_arrays(load_features(feature_file), good)
    assert len(calls) == 1  # the second load hit the entry the first one rewrote


def test_a_file_changed_while_parsed_writes_no_entry(feature_file, feature_cache, monkeypatch):
    original = datagen._parse_features

    def parse_then_touch(path):
        ds = original(path)
        st = path.stat()
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        return ds

    monkeypatch.setattr(datagen, "_parse_features", parse_then_touch)
    load_features(feature_file)
    assert not feature_cache.exists()


def test_loads_without_a_writable_cache(feature_file, tmp_path, monkeypatch, parse_calls):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert _same_arrays(load_features(feature_file), load_features(feature_file))
    assert len(parse_calls) == 2
    assert blocker.read_text() == ""


@pytest.mark.parametrize("xdg", [None, "", "relative/cache"])
def test_the_cache_falls_back_to_the_home_directory(feature_file, tmp_path, monkeypatch, xdg):
    # an unset, empty or relative XDG_CACHE_HOME names no cache directory
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    if xdg is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    monkeypatch.chdir(tmp_path)
    load_features(feature_file)
    assert _entry(tmp_path / "home" / ".cache" / "efcilab" / "features-v1", feature_file).is_file()
    assert not (tmp_path / "relative").exists()


def test_entries_of_gone_files_are_removed_at_the_next_write(tmp_path, feature_file, feature_cache):
    kept, gone, moved = (tmp_path / f"{stem}.csv" for stem in ("kept", "gone", "moved"))
    for path in (kept, gone, moved):
        path.write_bytes(feature_file.read_bytes())
        load_features(path)
    junk = feature_cache / f"{'0' * 64}.bin"
    junk.write_bytes(b"not an entry")
    gone.unlink()
    moved.rename(tmp_path / "moved_to.csv")
    assert _entry(feature_cache, gone).is_file()  # nothing is removed until a write
    load_features(tmp_path / "moved_to.csv")
    assert sorted(feature_cache.iterdir()) == sorted(
        _entry(feature_cache, p) for p in (kept, tmp_path / "moved_to.csv")
    )
    load_features(kept)  # a hit writes nothing and removes nothing
    assert len(list(feature_cache.iterdir())) == 2


def test_a_write_removes_npz_layout_entries_and_leaves_temporaries(feature_file, tmp_path, feature_cache):
    load_features(feature_file)
    entry = _entry(feature_cache, feature_file)
    old_layout = entry.with_suffix(".npz")  # the entry an earlier layout wrote for the same file
    np.savez(old_layout, **datagen._read_entry(entry))
    in_flight = feature_cache / f"{'1' * 64}.4242.tmp"  # another writer's entry, not yet replaced
    in_flight.write_bytes(b"partial")
    other = tmp_path / "other.csv"
    other.write_bytes(feature_file.read_bytes())
    load_features(other)
    assert sorted(feature_cache.iterdir()) == sorted([entry, _entry(feature_cache, other), in_flight])
