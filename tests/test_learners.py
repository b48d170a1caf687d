"""Learner behaviors against batch oracles, finite differences, and contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _factories import split_arrays, step_arrays
from efcilab import learners
from efcilab.datagen import FeatureDataset, SynthSpec, synth_features
from efcilab.learners import (
    BSILLite,
    FeTrILLite,
    LearnerError,
    NearestClassMean,
    StreamingLDA,
    _anchor_prox,
    _cosine_softmax_loss,
    _inner_products,
    _unit_rows,
    argmax_by_class,
    descend,
    fit_softmax_head,
    run_incremental,
    select_source_class,
)
from efcilab.scenario import Scenario, build_scenario, partition_dataset


def batch_lda_params(x, y, shrinkage):
    """Independent batch oracle for the shrunk discriminant parameters."""
    ids = np.unique(y)
    mu = np.stack([x[y == c].mean(axis=0) for c in ids])
    centered = x - mu[np.searchsorted(ids, y)]
    sigma = centered.T @ centered / len(y)
    lam = np.linalg.inv((1 - shrinkage) * sigma + shrinkage * np.eye(x.shape[1]))
    w = mu @ lam
    b = -0.5 * np.einsum("ij,ij->i", w, mu)
    return ids, w, b, sigma


# ---------------------------------------------------------------------------
# Streaming LDA


def test_streaming_matches_batch_lda():
    rng = np.random.default_rng(0)
    for trial in range(10):
        ds = synth_features(
            SynthSpec(n_classes=5, dim=7, n_train=25, n_test=10, separation=3.0, seed=trial)
        )
        x, y = split_arrays(ds, train=True)
        order = rng.permutation(len(y))
        learner = StreamingLDA(shrinkage=1e-4)
        learner.learn_step(x[order], y[order])
        ids, w, b = learner.discriminant_parameters()
        ids2, w2, b2, sigma = batch_lda_params(x, y, 1e-4)
        assert np.array_equal(ids, ids2)
        assert np.max(np.abs(w - w2)) <= 1e-6 * np.max(np.abs(w2))
        assert np.max(np.abs(b - b2)) <= 1e-6 * np.max(np.abs(b2))
        tx, _ = split_arrays(ds, train=False)
        oracle_pred = ids2[np.argmax(tx @ w2.T + b2, axis=1)]
        assert np.array_equal(learner.predict(tx), oracle_pred)


def test_streaming_scatter_equals_batch_scatter():
    ds = synth_features(SynthSpec(n_classes=4, dim=6, n_train=40, n_test=2, separation=2.0, seed=3))
    x, y = split_arrays(ds, train=True)
    learner = StreamingLDA()
    learner.learn_step(x, y)
    _, _, _, sigma = batch_lda_params(x, y, 0.0)
    rel = np.max(np.abs(learner.covariance() - sigma)) / np.max(np.abs(sigma))
    assert rel <= 1e-6


def test_streaming_order_invariance():
    ds = synth_features(SynthSpec(n_classes=3, dim=5, n_train=30, n_test=2, separation=2.0, seed=4))
    x, y = split_arrays(ds, train=True)
    a, b = StreamingLDA(), StreamingLDA()
    a.learn_step(x, y)
    order = np.random.default_rng(1).permutation(len(y))
    b.learn_step(x[order], y[order])
    assert np.max(np.abs(a.covariance() - b.covariance())) <= 1e-6
    for c in a.means:
        assert np.max(np.abs(a.means[c] - b.means[c])) <= 1e-9


def test_streaming_merge_across_steps_matches_batch():
    ds = synth_features(SynthSpec(n_classes=4, dim=6, n_train=30, n_test=2, separation=2.0, seed=6))
    x, y = split_arrays(ds, train=True)
    rng = np.random.default_rng(2)
    # each class's rows go to 3 calls in uneven blocks: 1 row, then a random cut of the rest
    step_of = np.empty(len(y), dtype=np.int64)
    for c in np.unique(y):
        rows = rng.permutation(np.flatnonzero(y == c))
        cut = int(rng.integers(2, len(rows) - 1))
        step_of[rows[:1]] = int(c) % 3
        step_of[rows[1:cut]] = (int(c) + 1) % 3
        step_of[rows[cut:]] = (int(c) + 2) % 3
    learner = StreamingLDA(shrinkage=1e-4)
    for step in range(3):
        learner.learn_step(x[step_of == step], y[step_of == step])
    ids, w, b = learner.discriminant_parameters()
    ids2, w2, b2, sigma = batch_lda_params(x, y, 1e-4)
    assert np.array_equal(ids, ids2)
    for c in ids:
        assert learner.counts[int(c)] == int((y == c).sum())
        assert np.max(np.abs(learner.means[int(c)] - x[y == c].mean(axis=0))) <= 1e-9
    assert np.max(np.abs(learner.covariance() - sigma)) / np.max(np.abs(sigma)) <= 1e-6
    assert np.max(np.abs(w - w2)) <= 1e-6 * np.max(np.abs(w2))
    assert np.max(np.abs(b - b2)) <= 1e-6 * np.max(np.abs(b2))


def test_dslda_shrinkage_one_equals_nearest_mean():
    ds = synth_features(SynthSpec(n_classes=4, dim=5, n_train=10, n_test=20, separation=1.0, seed=5))
    x, y = split_arrays(ds, train=True)
    slda = StreamingLDA(shrinkage=1.0)
    ncm = NearestClassMean()
    slda.learn_step(x, y)
    ncm.learn_step(x, y)
    tx, _ = split_arrays(ds, train=False)
    assert np.array_equal(slda.predict(tx), ncm.predict(tx))


def test_two_gaussian_stream_matches_batch_everywhere():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.normal((-2, 0), 1.0, (60, 2)), rng.normal((2, 0), 1.0, (60, 2))])
    y = np.array([0] * 60 + [1] * 60)
    learner = StreamingLDA(shrinkage=1e-3)
    learner.learn_step(x, y)
    ids, w, b, _ = batch_lda_params(x, y, 1e-3)
    grid = rng.normal(0, 2.5, (500, 2))
    assert np.array_equal(learner.predict(grid), ids[np.argmax(grid @ w.T + b, axis=1)])


def test_dslda_errors():
    learner = StreamingLDA()
    with pytest.raises(LearnerError, match="before any update"):
        learner.predict(np.zeros((1, 3)))
    learner.learn_step(np.zeros((2, 3)), np.array([0, 0]))
    with pytest.raises(LearnerError, match="at least 2 known classes"):
        learner.predict(np.zeros((1, 3)))

    # singular scatter with no shrinkage: 2 samples in 3 dims
    bare = StreamingLDA(shrinkage=0.0)
    bare.learn_step(np.eye(3)[:2] * 2.0, np.array([0, 1]))
    with pytest.raises(LearnerError, match="shrinkage > 0"):
        bare.predict(np.zeros((1, 3)))


def two_steps_in_256_dims():
    """20 classes in 256 dimensions over two steps of 256 rows each, the
    second merging 4 classes seen in the first, and 100 query rows."""
    rng = np.random.default_rng(3)
    steps = [np.repeat(np.arange(16), 16), np.repeat(np.arange(12, 20), 32)]
    return [(rng.normal(0, 1, (len(y), 256)), y) for y in steps], rng.normal(0, 1, (100, 256))


def test_dslda_holds_few_dim_by_dim_arrays():
    unit = 256 * 256 * 8  # bytes of one dim x dim float64 array
    steps, queries = two_steps_in_256_dims()
    learner = StreamingLDA()
    peaks = []
    tracemalloc.start()
    try:
        for call in [lambda: learner.learn_step(*steps[0]), lambda: learner.learn_step(*steps[1])]:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            call()
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / unit)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        learner.predict(queries)
        predict_peak = (tracemalloc.get_traced_memory()[1] - before) / unit
    finally:
        tracemalloc.stop()
    # a step holds the scatter, its centred rows (at most dim of them) and one
    # 64-row block of the scatter's update; the first step allocates the scatter
    assert max(peaks) < 2.5
    # the second step's class merges update the scatter in blocks as well
    assert peaks[1] < 1.5
    # the discriminant is solved in the scatter's own buffer: predict holds no
    # dim x dim array of its own
    assert predict_peak < 0.5


def test_dslda_scatter_in_blocks_matches_one_product():
    steps, _ = two_steps_in_256_dims()
    x, y = steps[0]
    learner = StreamingLDA()
    learner.learn_step(x, y)
    means = np.stack([x[y == c].mean(axis=0) for c in range(16)])
    centred = x - means[y]
    expected = centred.T @ centred
    np.testing.assert_allclose(
        learner.scatter, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
    )


def test_dslda_solve_restores_the_scatter(monkeypatch):
    steps, queries = two_steps_in_256_dims()
    x, y = steps[0]
    learner = StreamingLDA()
    learner.learn_step(x, y)
    before = learner.scatter.copy()

    def no_cholesky(*args, **kwargs):
        raise AssertionError("no Cholesky factor is needed at shrinkage > 0")

    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    learner.predict(queries)
    assert np.array_equal(learner.scatter, before)

    def failing_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    with pytest.raises(LearnerError, match="could not be solved"):
        learner.discriminant_parameters()
    assert np.array_equal(learner.scatter, before)


def test_dslda_non_finite_features_fail_prediction():
    steps, queries = two_steps_in_256_dims()
    x, y = steps[0]
    x = x.copy()
    x[5] = np.nan
    learner = StreamingLDA()
    learner.learn_step(x, y)
    with pytest.raises(LearnerError, match="features hold NaN or infinity"):
        learner.predict(queries)


def test_shrinkage_one_holds_no_dim_by_dim_array():
    # at shrinkage 1 the scores need only the class means, so no scatter,
    # centred rows or solve is ever allocated
    unit = 256 * 256 * 8
    steps, queries = two_steps_in_256_dims()
    learner = StreamingLDA(shrinkage=1.0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for step in steps:
            learner.learn_step(*step)
            learner.predict(queries)
        peak = (tracemalloc.get_traced_memory()[1] - before) / unit
    finally:
        tracemalloc.stop()
    assert learner.scatter is None
    assert peak < 1.0


def test_covariance_at_shrinkage_one_is_a_learner_error():
    learner = StreamingLDA(shrinkage=1.0)
    learner.learn_step(np.eye(3), np.array([0, 1, 2]))
    with pytest.raises(LearnerError, match="no covariance is kept at shrinkage 1"):
        learner.covariance()
    # the discriminant is nearest-mean scoring, solved from nothing
    ids, weights, biases = learner.discriminant_parameters()
    assert np.array_equal(weights, np.eye(3)) and np.array_equal(biases, [-0.5] * 3)


# ---------------------------------------------------------------------------
# Nearest class mean


def test_ncm_single_sample_per_class():
    x = np.array([[0.0, 1.0], [4.0, 0.0], [0.0, -3.0]])
    y = np.array([2, 5, 9])
    ncm = NearestClassMean()
    ncm.learn_step(x, y)
    assert np.array_equal(ncm.predict(x), y)


def test_ncm_tie_goes_to_lowest_class_id():
    ncm = NearestClassMean()
    ncm.learn_step(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([3, 1]))
    assert ncm.predict(np.zeros((1, 2)))[0] == 1


def test_ncm_predicts_its_one_known_class():
    # nearest-mean scoring needs no second class, unlike DSLDA below shrinkage 1
    ncm = NearestClassMean()
    ncm.learn_step(np.ones((3, 2)), np.array([4, 4, 4]))
    queries = np.random.default_rng(0).normal(0, 5, (10, 2))
    assert np.array_equal(ncm.predict(queries), np.full(10, 4))


def test_ncm_incremental_mean_merging():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, (30, 4))
    y = rng.integers(0, 3, 30)
    ncm = NearestClassMean()
    ncm.learn_step(x[:17], y[:17])
    ncm.learn_step(x[17:], y[17:])
    for c in range(3):
        assert np.allclose(ncm.means[c], x[y == c].mean(axis=0))


# ---------------------------------------------------------------------------
# Descent


def test_descend_matches_closed_form_iterates_and_calls_prox_each_epoch():
    # on f(p) = sum a * (p - c)^2 / 2 a step scales p - c by 1 - lr * a, so
    # the iterates are c + (1 - lr * a)^t * (p0 - c); the dyadic inputs keep
    # every iterate exact
    lr, epochs = 0.5, 8
    a = [np.array([0.5, 1.0, 1.5]), np.array(1.5)]
    c = [np.array([3.0, -2.0, 0.25]), np.array(-1.0)]
    p0 = [np.array([-5.0, 7.5, 1.0]), np.array(4.0)]

    def gradient(params):
        return [ai * (p - ci) for ai, p, ci in zip(a, params, c)]

    def iterate(t):
        return [ci + (1 - lr * ai) ** t * (pi - ci) for ai, ci, pi in zip(a, c, p0)]

    def close(got, want):
        return all(np.max(np.abs(g - w)) <= 1e-15 * np.max(np.abs(w)) for g, w in zip(got, want))

    params = [p.copy() for p in p0]
    assert descend(gradient, params, lr, epochs) is params
    assert close(params, iterate(epochs))

    seen = []
    params = descend(
        gradient, [p.copy() for p in p0], lr, epochs, lambda ps: seen.append([p.copy() for p in ps])
    )
    assert len(seen) == epochs
    assert all(close(got, iterate(t)) for t, got in enumerate(seen, start=1))
    assert close(params, iterate(epochs))


# ---------------------------------------------------------------------------
# FeTrIL-style head


def reference_head(x, class_idx, n_classes, lr, epochs, weight_decay):
    """Materialising oracle: gradient descent over every training row."""
    n, dim = x.shape
    weights = np.zeros((n_classes, dim))
    biases = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), class_idx] = 1.0
    for _ in range(epochs):
        logits = x @ weights.T + biases
        logits -= logits.max(axis=1, keepdims=True)
        expz = np.exp(logits)
        probs = expz / expz.sum(axis=1, keepdims=True)
        grad = (probs - onehot) / n
        weights -= lr * (grad.T @ x + weight_decay * weights)
        biases -= lr * grad.sum(axis=0)
    return weights, biases


def reference_training_rows(features, labels, step_means, past_means):
    """FeTrIL's training set, materialised: the real rows, then for each past
    class the rows of its most similar new class translated so that their
    mean lands on the past class's mean."""
    new_ids = np.array(sorted(step_means), dtype=np.int64)
    new_means = np.stack([step_means[c] for c in new_ids])
    xs, ys = [features], [labels]
    for past_id in sorted(past_means):
        src = select_source_class(past_means[past_id], new_ids, new_means)
        source = features[labels == src]
        xs.append(source + (past_means[past_id] - step_means[src]))
        ys.append(np.full(len(source), past_id))
    return np.concatenate(xs), np.concatenate(ys)


# pseudo-row blocks of each case: (source new class, offset index, past class)
HEAD_CASES = {
    "first_step": [],
    # class 0 serves three past classes, 1 two, 2 none
    "shared_sources": [(0, 1, 0), (0, 2, 1), (0, 3, 2), (1, 4, 3), (1, 5, 4)],
    # the same rows under the same offset, labelled with two past classes
    "repeated_pair": [(0, 1, 0), (0, 1, 1)],
    # a sixteenth real row that no training row uses
    "unused_real_row": [(1, 1, 0)],
}


def factored_problem(rng, dim, case):
    """Three new classes of five rows, then one block of five pseudo-rows per
    entry of ``HEAD_CASES[case]``: the source class's rows plus the offset."""
    blocks = HEAD_CASES[case]
    labels = np.repeat([0, 1, 2], 5)
    n_past = len({past for _, _, past in blocks})
    features = rng.normal(0, 1, (16 if case == "unused_real_row" else 15, dim))
    n_offsets = max((offset for _, offset, _ in blocks), default=0)
    shifts = np.vstack([np.zeros(dim), rng.normal(0, 2, (n_offsets, dim))])
    rows = [np.arange(15)] + [np.flatnonzero(labels == src) for src, _, _ in blocks]
    shift_of = np.repeat([0] + [offset for _, offset, _ in blocks], [len(r) for r in rows])
    class_idx = np.concatenate([labels + n_past] + [np.full(5, past) for _, _, past in blocks])
    return features, np.concatenate(rows), shifts, shift_of, class_idx, n_past + 3


# basis rows (real rows plus offsets): 16 for first_step, 17 to 21 for the
# others. At dim 8 first_step takes the Gram order (16 <= 16) and the
# others the weights order; at dim 256 every case takes the Gram order
@pytest.mark.parametrize("dim", [8, 256])
@pytest.mark.parametrize("case", list(HEAD_CASES))
def test_factored_head_matches_materialising_oracle(dim, case):
    features, rows, shifts, shift_of, class_idx, n_classes = factored_problem(
        np.random.default_rng(dim + len(HEAD_CASES[case])), dim, case
    )
    x = features[rows] + shifts[shift_of]
    # one input under two labels never saturates its softmax, so gradient
    # descent there amplifies rounding (the oracle itself, fed its rows in
    # another order, moves by over 10%) unless the step stays below the
    # inverse curvature; the other cases saturate and take 0.5
    lr = 1 / np.linalg.eigvalsh(x.T @ x / len(x)).max() if case == "repeated_pair" else 0.5
    weights, biases = fit_softmax_head(
        features, rows, shifts, shift_of, class_idx, n_classes, lr, 100, 1e-3
    )
    ref_w, ref_b = reference_head(x, class_idx, n_classes, lr, 100, 1e-3)
    assert np.max(np.abs(weights - ref_w)) <= 1e-12 * np.max(np.abs(ref_w))
    assert np.max(np.abs(biases - ref_b)) <= 1e-12 * np.max(np.abs(ref_b))


def test_head_epochs_allocate_no_training_row_array():
    # 5 new classes of 4 rows, each row also shifted to each of 200 past classes
    rng = np.random.default_rng(0)
    m, dim, n_past = 20, 256, 200
    features = rng.normal(0, 1, (m, dim))
    shifts = np.vstack([np.zeros(dim), rng.normal(0, 1, (n_past, dim))])
    rows = np.tile(np.arange(m), n_past + 1)
    shift_of = np.repeat(np.arange(n_past + 1), m)
    class_idx = np.concatenate([n_past + np.arange(m) // 4, np.repeat(np.arange(n_past), m)])
    n_classes = n_past + 5
    tracemalloc.start()
    try:
        fit_softmax_head(features, rows, shifts, shift_of, class_idx, n_classes, 0.1, 3, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(rows) * n_classes * 8  # one float64 logit array over the rows


def test_tall_fetril_step_allocates_no_gram_matrix():
    # 2,000 real rows and 3 offsets in 8 dimensions: a Gram matrix of the
    # 2,003 basis rows would take 32 MB, the weights order a few kB an epoch
    rng = np.random.default_rng(5)
    learner = FeTrILLite(epochs=3)
    learner.learn_step(rng.normal(0, 1, (6, 8)), np.repeat([0, 1], 3))
    features, labels = rng.normal(0, 1, (2000, 8)), np.repeat([2, 3], 1000)
    tracemalloc.start()
    try:
        learner.learn_step(features, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2003**2 * 8 / 4  # a quarter of that Gram matrix


# 6 rows (7 basis rows) take the Gram order, 40 rows (41) the weights order
@pytest.mark.parametrize("n_rows", [6, 40])
def test_fetril_nan_feature_raises(n_rows):
    features = np.random.default_rng(6).normal(0, 1, (n_rows, 8))
    features[1, 3] = np.nan
    labels = np.arange(n_rows) % 2
    with np.errstate(invalid="ignore"), pytest.raises(LearnerError, match="not finite"):
        FeTrILLite(epochs=3).learn_step(features, labels)


def test_head_unused_pair_contributes_zero_where_its_normaliser_underflows():
    # after one epoch real row 0 favours class 0 and offset 1 favours class
    # 2, each by 1e7 logits or more: the normaliser of the pair (0, 1)
    # underflows to 0, but no training row uses that pair
    features = np.array([[1e4, 0.0], [-1e4, 0.0]])
    shifts = np.array([[0.0, 0.0], [-1e4, 0.0]])
    rows, shift_of, class_idx = np.array([0, 1, 1]), np.array([0, 0, 1]), np.array([0, 1, 2])
    weights, biases = fit_softmax_head(features, rows, shifts, shift_of, class_idx, 3, 1.0, 3, 0.0)
    ref_w, ref_b = reference_head(features[rows] + shifts[shift_of], class_idx, 3, 1.0, 3, 0.0)
    assert np.max(np.abs(weights - ref_w)) <= 1e-12 * np.max(np.abs(ref_w))
    assert np.max(np.abs(biases - ref_b)) <= 1e-12  # lr times sums of probabilities


def test_head_rejects_an_underflowed_normaliser():
    # after one epoch the real row's logits favour class 0 and its shifted
    # copy's offset favours class 1 by about 1e8: their product underflows
    features = np.array([[1e4, 0.0]])
    shifts = np.array([[0.0, 0.0], [-2e4, 0.0]])
    with pytest.raises(LearnerError, match="not finite and positive"):
        fit_softmax_head(
            features, np.array([0, 0]), shifts, np.array([0, 1]), np.array([0, 1]), 2, 1.0, 2, 0.0
        )


# 20 real rows and 1 to 5 offsets per step: the weights order at dim 8, the
# Gram order at dim 256
@pytest.mark.parametrize("dim", [8, 256])
def test_fetril_head_receives_real_rows_and_one_offset_per_past_class(monkeypatch, dim):
    ds = synth_features(SynthSpec(n_classes=6, dim=dim, n_train=10, n_test=5, separation=4.0, seed=3))
    sc = build_scenario(list(range(6)), "equal", 3, seed=4)
    calls = []
    original = learners.fit_softmax_head
    monkeypatch.setattr(learners, "fit_softmax_head", lambda *a: calls.append(a) or original(*a))
    learner = FeTrILLite()
    past_means = {}
    for x, y, test_x, _ in step_arrays(ds, sc):
        step_means = {int(c): x[y == c].mean(axis=0) for c in np.unique(y)}
        learner.learn_step(x, y)
        features, rows, shifts, shift_of, class_idx, n_classes, lr, epochs, decay = calls[-1]
        assert features.shape == x.shape and np.array_equal(features, x)
        ref_x, ref_y = reference_training_rows(x, y, step_means, past_means)
        assert (features[rows] + shifts[shift_of]).tobytes() == ref_x.tobytes()
        past_means.update(step_means)
        ids = np.array(sorted(past_means))
        w, b = reference_head(ref_x, np.searchsorted(ids, ref_y), len(ids), lr, epochs, decay)
        expected = argmax_by_class(test_x @ w.T + b, ids)
        assert np.array_equal(learner.predict(test_x), expected)
    assert len(calls) == 3


def test_source_selection_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(25):
        target = rng.normal(0, 1, 5)
        ids = np.array([4, 9, 17])
        means = rng.normal(0, 1, (3, 5))
        best = select_source_class(target, ids, means)
        sims = [
            means[i] @ target / (np.linalg.norm(means[i]) * np.linalg.norm(target))
            for i in range(3)
        ]
        assert best == int(ids[int(np.argmax(sims))])


def test_source_selection_zero_norm_falls_back_to_euclidean():
    ids = np.array([1, 2])
    means = np.array([[0.0, 2.0], [0.0, 5.0]])
    assert select_source_class(np.zeros(2), ids, means) == 1  # nearer in distance


def test_fetril_same_distribution_head_is_chance():
    rng = np.random.default_rng(9)
    center = rng.normal(0, 1, 8) * 2
    step1 = center + rng.standard_normal((80, 8))
    step2 = center + rng.standard_normal((80, 8))
    test = np.concatenate([center + rng.standard_normal((200, 8)) for _ in range(2)])
    test_labels = np.array([0] * 200 + [1] * 200)
    learner = FeTrILLite()
    learner.learn_step(step1, np.zeros(80, dtype=np.int64))
    learner.learn_step(step2, np.ones(80, dtype=np.int64))
    acc = float((learner.predict(test) == test_labels).mean())
    assert abs(acc - 0.5) <= 0.12


def test_fetril_learns_separable_classes_incrementally():
    ds = synth_features(SynthSpec(n_classes=6, dim=8, n_train=30, n_test=15, separation=10.0, seed=1))
    sc = build_scenario(list(range(6)), "equal", 3, seed=2)
    matrix = run_incremental("fetril", ds, sc, {})
    assert matrix.cumulative_accuracy(3) >= 0.95


def test_fetril_rejects_repeated_class():
    learner = FeTrILLite(epochs=5)
    learner.learn_step(np.random.default_rng(0).normal(0, 1, (6, 3)), np.array([0, 0, 0, 1, 1, 1]))
    with pytest.raises(LearnerError, match="already learned"):
        learner.learn_step(np.zeros((2, 3)), np.array([1, 1]))


# ---------------------------------------------------------------------------
# BSIL-style head


def weight_space_loss(weights, scale, unit_x, class_idx, class_counts):
    """Weight-space oracle of ``_cosine_softmax_loss``: the balanced-softmax
    cross-entropy of a cosine head on unit-norm rows, with logits
    ``scale * cos(weights_c, x)`` offset by ``log(count_c)`` inside the
    softmax. Returns ``(loss, d loss / d weights, d loss / d scale)``."""
    n = unit_x.shape[0]
    w_norms = np.linalg.norm(weights, axis=1)
    w_norms[w_norms == 0] = 1.0  # a zero row's cosines are 0
    unit_w = weights / w_norms[:, None]
    cosines = unit_x @ unit_w.T  # (n, C)
    logits = scale * cosines + np.log(class_counts)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(expz.sum(axis=1, keepdims=True))
    ce = -log_probs[np.arange(n), class_idx].mean()

    grad_logits = probs.copy()
    grad_logits[np.arange(n), class_idx] -= 1.0
    grad_logits /= n

    # d cos/d w_c = (x_hat - (u_c . x_hat) u_c) / ||w_c||
    weighted_x = unit_x.T @ grad_logits  # (d, C)
    diag_coef = np.sum(grad_logits * cosines, axis=0)  # (C,)
    grad_w = scale * (weighted_x.T - diag_coef[:, None] * unit_w) / w_norms[:, None]
    grad_scale = float(np.sum(grad_logits * cosines))
    return float(ce), grad_w, grad_scale


def random_loss_config(rng, dim):
    """A BSIL-shaped loss: ``n`` unit rows, one imprint-like row ``w0`` per
    class, and parameters ``(coef, own, scale)`` that have moved from their
    start ``(0, 1, scale)``."""
    n_classes = int(rng.integers(3, 7))
    n = int(rng.integers(7, 20))
    unit_x = _unit_rows(rng.standard_normal((n, dim)) * 2.0)
    w0 = rng.standard_normal((n_classes, dim)) * 1.5 + 0.3
    coef = rng.standard_normal((n, n_classes)) * 0.3
    own = 1.0 + rng.standard_normal(n_classes) * 0.3
    scale = float(rng.uniform(1.0, 12.0))
    class_idx = rng.integers(0, n_classes, n)
    counts = rng.integers(1, 40, n_classes).astype(float)
    return [coef, own, scale], unit_x, w0, class_idx, counts


def coefficient_loss(params, unit_x, w0, class_idx, counts):
    args = (_inner_products(unit_x), unit_x @ w0.T, np.sum(w0 * w0, axis=1))
    return _cosine_softmax_loss(params, *args, class_idx, np.log(counts))


def weight_rows(coef, own, unit_x, w0):
    return coef.T @ unit_x + own[:, None] * w0


def test_balanced_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    h = 1e-6
    # 7 to 19 unit rows: dim 3 takes every config through the weights,
    # dim 16 through the Gram matrix
    for dim in [3, 16] * 5:
        params, unit_x, w0, class_idx, counts = random_loss_config(rng, dim)
        coef, own, scale = params

        def loss_at(*params):
            return coefficient_loss(list(params), unit_x, w0, class_idx, counts)[0]

        _, (grad_coef, grad_own, grad_s) = coefficient_loss(params, unit_x, w0, class_idx, counts)
        grad_w = weight_rows(grad_coef, grad_own, unit_x, w0)
        # along a parameter direction (d_coef, d_own) the loss moves by
        # <grad_w, d_coef.T @ unit_x + d_own * w0> per unit step
        numeric, analytic = [], []
        for _ in range(2 * (coef.size + own.size)):
            d_coef, d_own = rng.standard_normal(coef.shape), rng.standard_normal(own.shape)
            numeric.append(
                (
                    loss_at(coef + h * d_coef, own + h * d_own, scale)
                    - loss_at(coef - h * d_coef, own - h * d_own, scale)
                )
                / (2 * h)
            )
            analytic.append(np.sum(grad_w * weight_rows(d_coef, d_own, unit_x, w0)))
        numeric, analytic = np.array(numeric), np.array(analytic)
        assert np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-9) <= 1e-4
        num_s = (loss_at(coef, own, scale + h) - loss_at(coef, own, scale - h)) / (2 * h)
        assert abs(grad_s - num_s) / max(abs(num_s), 1e-9) <= 1e-4


@pytest.mark.parametrize("dim", [3, 16])  # weights order, Gram order
def test_coefficient_loss_matches_weight_space_loss(dim):
    rng = np.random.default_rng(7 + dim)
    for _ in range(10):
        params, unit_x, w0, class_idx, counts = random_loss_config(rng, dim)
        coef, own, scale = params
        loss, grads = coefficient_loss(params, unit_x, w0, class_idx, counts)
        grad_coef, grad_own, grad_s = grads
        ref_loss, ref_w, ref_s = weight_space_loss(
            weight_rows(coef, own, unit_x, w0), scale, unit_x, class_idx, counts
        )
        grad_w = weight_rows(grad_coef, grad_own, unit_x, w0)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.max(np.abs(grad_w - ref_w)) <= 1e-12 * np.max(np.abs(ref_w))
        assert abs(grad_s - ref_s) <= 1e-12 * max(abs(ref_s), 1e-9)


def test_anchor_prox_minimises_its_objective():
    rng = np.random.default_rng(11)
    for _ in range(10):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 9)))
        stepped, snapshot = rng.standard_normal(shape) * 3, rng.standard_normal(shape) * 3
        lr, strength = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.0, 1e3))

        def objective(w):
            return strength * np.sum((w - snapshot) ** 2) + np.sum((w - stepped) ** 2) / (2 * lr)

        best = _anchor_prox(stepped, snapshot, lr, strength)
        # the objective is a strictly convex quadratic: its gradient vanishes
        # at the minimiser and every move away from it costs
        gradient = 2 * strength * (best - snapshot) + (best - stepped) / lr
        assert np.max(np.abs(gradient)) <= 1e-10 * (strength + 1 / lr) * np.max(np.abs(best))
        for _ in range(5):
            assert objective(best + 1e-3 * rng.standard_normal(shape)) > objective(best)


def test_equal_counts_reduce_to_plain_softmax():
    rng = np.random.default_rng(4)
    params, unit_x, w0, class_idx, _ = random_loss_config(rng, 8)
    counts_equal = np.full(len(w0), 17.0)
    counts_one = np.ones(len(w0))
    balanced = coefficient_loss(params, unit_x, w0, class_idx, counts_equal)[0]
    plain = coefficient_loss(params, unit_x, w0, class_idx, counts_one)[0]
    assert abs(balanced - plain) <= 1e-12


def reference_bsil_step(learner, features, labels):
    """Full-dimension oracle of one BSIL step: gradient descent on the
    weight rows in feature space, from the learner's state before the step.
    Returns the weight rows in class-id order and the scale."""
    weights = dict(learner.weights)
    counts = dict(learner.counts)
    old_ids = sorted(weights)
    for c in np.unique(labels):
        mean = features[labels == c].mean(axis=0)
        norm = np.linalg.norm(mean)
        weights[int(c)] = mean / norm if norm > 0 else mean
        counts[int(c)] = int(np.sum(labels == c))
    ids = sorted(weights)
    w = np.stack([weights[c] for c in ids])
    count_vec = np.array([counts[c] for c in ids], dtype=float)
    anchored = np.isin(ids, old_ids)
    snapshot = w.copy()
    unit_x = features / np.linalg.norm(features, axis=1, keepdims=True)
    class_idx = np.searchsorted(ids, labels)
    scale, lr, strength = learner.scale, learner.lr, learner.anchor_strength
    for _ in range(learner.epochs):
        _, grad_w, grad_s = weight_space_loss(w, scale, unit_x, class_idx, count_vec)
        w -= lr * grad_w
        scale = max(scale - lr * grad_s, 1e-3)
        if strength > 0:
            w[anchored] = snapshot[anchored] + (w[anchored] - snapshot[anchored]) / (
                1 + 2 * lr * strength
            )
    return w, scale


# 18 unit rows at each step: the weights order at dim 8 (18 > 16), the Gram
# order at dim 32
@pytest.mark.parametrize("dim", [8, 32])
@pytest.mark.parametrize("strength", [0.0, 0.1])
def test_bsil_matches_full_dimension_oracle(dim, strength):
    spec = SynthSpec(n_classes=6, dim=dim, n_train=6, n_test=2, separation=3.0, seed=dim)
    ds = synth_features(spec)
    sc = Scenario(kind="equal", steps=((0, 1, 2), (3, 4, 5)))
    learner = BSILLite(lr=0.1, epochs=100, anchor_strength=strength)
    for x, y, _, _ in step_arrays(ds, sc):
        ref_w, ref_scale = reference_bsil_step(learner, x, y)
        learner.learn_step(x, y)
        w = np.stack([learner.weights[int(c)] for c in learner.known_classes])
        assert np.max(np.abs(w - ref_w)) <= 1e-10 * np.max(np.abs(ref_w))
        assert abs(learner.scale - ref_scale) <= 1e-10 * ref_scale


# 10 unit rows: the weights order at dim 4, the Gram order at dim 16
@pytest.mark.parametrize("dim", [4, 16])
def test_bsil_zero_mean_class_trains_from_a_zero_weight_row(dim):
    # class 0's rows cancel, so its imprint is the zero row, whose cosine
    # the zero-norm rule sets to 0 in the first epoch
    rng = np.random.default_rng(dim)
    row = rng.normal(0, 1, dim)
    features = np.vstack([row, -row, rng.normal(2, 1, (8, dim))])
    labels = np.repeat([0, 1, 2], [2, 4, 4])
    learner = BSILLite(lr=0.1, epochs=20)
    ref_w, ref_scale = reference_bsil_step(learner, features, labels)
    learner.learn_step(features, labels)
    w = np.stack([learner.weights[c] for c in (0, 1, 2)])
    assert np.max(np.abs(w - ref_w)) <= 1e-10 * np.max(np.abs(ref_w))
    assert abs(learner.scale - ref_scale) <= 1e-10 * ref_scale


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    scale_num=st.integers(1, 10_000),
    row=st.integers(0, 19),
    seed=st.integers(0, 100),
)
def test_bsil_prediction_invariant_to_input_rescaling(scale_num, row, seed):
    rng = np.random.default_rng(seed)
    learner = BSILLite(epochs=8)
    x = rng.standard_normal((12, 4)) * 3
    y = np.repeat(np.arange(3), 4)
    learner.learn_step(x, y)
    queries = rng.standard_normal((20, 4))
    baseline = learner.predict(queries)
    scaled = queries.copy()
    scaled[row] *= scale_num / 100.0 + 1e-3
    assert learner.predict(scaled)[row] == baseline[row]


def test_bsil_forgets_without_anchor_and_holds_with_anchor():
    # interfering geometry (more classes than dimensions), two steps
    ds = synth_features(SynthSpec(n_classes=16, dim=8, n_train=30, n_test=15, separation=8.0, seed=1))
    sc = build_scenario(list(range(16)), "equal", 2, seed=1)
    free = run_incremental("bsil", ds, sc, {"anchor_strength": 0.0, "lr": 0.3, "epochs": 60})
    anchored = run_incremental("bsil", ds, sc, {"anchor_strength": 1e4, "lr": 0.3, "epochs": 60})
    # without the anchor, step-1 accuracy slides toward chance
    assert free.accuracy(2, 1) <= free.accuracy(1, 1) - 0.25
    # a strong anchor preserves step-1 accuracy within 5 points
    assert anchored.accuracy(1, 1) - anchored.accuracy(2, 1) <= 0.05


def test_bsil_interleaved_plane_collapses_fully():
    # 2-D cosine geometry where new classes sit between the old directions:
    # with no anchor the old rows are pushed away and old accuracy falls
    # to (below) chance
    rng = np.random.default_rng(0)

    def cluster(angle_deg, n):
        theta = np.deg2rad(angle_deg)
        mu = 12.0 * np.array([np.cos(theta), np.sin(theta)])
        return mu + 0.6 * rng.standard_normal((n, 2))

    feats = np.concatenate([cluster(a, 100) for a in (0, 90, 30, 60)])
    labels = np.repeat([0, 1, 2, 3], 100)
    is_train = np.tile([True] * 60 + [False] * 40, 4)
    ds = FeatureDataset("angular", feats, labels, is_train)
    sc = Scenario(kind="equal", steps=((0, 1), (2, 3)))
    matrix = run_incremental("bsil", ds, sc, {"anchor_strength": 0.0})
    assert matrix.accuracy(1, 1) == 1.0
    assert matrix.accuracy(2, 1) <= 0.25  # chance for 4 known classes


def test_bsil_non_finite_loss_reports_step_and_lr():
    learner = BSILLite(lr=0.5)
    with np.errstate(invalid="ignore"), pytest.raises(LearnerError, match=r"step 1 \(lr=0.5\)"):
        learner.learn_step(np.array([[np.inf, 1.0], [1.0, 2.0]]), np.array([0, 1]))


def test_bsil_rejects_repeated_class():
    learner = BSILLite(epochs=3)
    learner.learn_step(np.random.default_rng(0).normal(0, 1, (4, 3)), np.array([0, 0, 1, 1]))
    with pytest.raises(LearnerError, match="already learned"):
        learner.learn_step(np.zeros((2, 3)), np.array([0, 0]))


# ---------------------------------------------------------------------------
# Full process


def test_accuracy_matrix_has_lower_triangle_count():
    ds = synth_features(SynthSpec(n_classes=20, dim=8, n_train=6, n_test=3, separation=6.0, seed=2))
    sc = build_scenario(list(range(20)), "equal", 10, seed=2)
    matrix = run_incremental("ncm", ds, sc, {})
    assert matrix.n_steps == 10
    assert np.count_nonzero(~np.isnan(matrix.per_subset)) == 55


def test_dslda_high_separation_cumulative_accuracies():
    ds = synth_features(SynthSpec(n_classes=20, dim=24, n_train=12, n_test=6, separation=10.0, seed=3))
    sc = build_scenario(list(range(20)), "equal", 10, seed=3)
    matrix = run_incremental("dslda", ds, sc, {"shrinkage": 1e-4})
    assert np.all(matrix.cumulative[1:] >= 0.95)


def test_bsil_free_head_forgets_on_same_data():
    ds = synth_features(SynthSpec(n_classes=30, dim=8, n_train=20, n_test=10, separation=10.0, seed=2))
    sc = build_scenario(list(range(30)), "equal", 10, seed=3)
    matrix = run_incremental("bsil", ds, sc, {"anchor_strength": 0.0})
    assert matrix.accuracy(10, 1) < matrix.accuracy(1, 1)


def ncm_protocol_oracle(ds, sc):
    """The NCM accuracy matrix rebuilt with plain loops over the scenario's
    steps: after step k the model is the batch class means of the train rows
    of steps 1..k, scored on the test rows of each step i <= k."""
    k_total = sc.n_steps
    per_subset = np.full((k_total, k_total), np.nan)
    cumulative = np.full(k_total, np.nan)
    for k in range(1, k_total + 1):
        seen = sorted(c for step in sc.steps[:k] for c in step)
        means = {c: ds.features[ds.is_train & (ds.labels == c)].mean(axis=0) for c in seen}
        hits_so_far = rows_so_far = 0
        for i in range(1, k + 1):
            hits = rows = 0
            for x, label, is_train in zip(ds.features, ds.labels, ds.is_train):
                if is_train or int(label) not in sc.steps[i - 1]:
                    continue
                nearest = min(seen, key=lambda c: float(np.sum((x - means[c]) ** 2)))
                hits += nearest == int(label)
                rows += 1
            per_subset[k - 1, i - 1] = hits / rows
            hits_so_far += hits
            rows_so_far += rows
        cumulative[k - 1] = hits_so_far / rows_so_far
    return per_subset, cumulative


@pytest.mark.parametrize("kind, n_incr_steps", [("equal", 4), ("half", 3)])
def test_ncm_stream_matches_loop_oracle(kind, n_incr_steps):
    ds = synth_features(SynthSpec(n_classes=12, dim=5, n_train=8, n_test=6, separation=1.0, seed=9))
    sc = build_scenario(list(range(12)), kind, n_incr_steps, seed=9)
    matrix = run_incremental("ncm", ds, sc, {})
    per_subset, cumulative = ncm_protocol_oracle(ds, sc)
    assert 0.0 < np.nanmin(per_subset) and np.nanmax(per_subset[1:]) < 1.0  # not a trivial stream
    assert np.array_equal(matrix.per_subset, per_subset, equal_nan=True)
    assert np.array_equal(matrix.cumulative, cumulative)


def test_ncm_runs_one_class_per_step():
    ds = synth_features(SynthSpec(n_classes=6, dim=5, n_train=8, n_test=6, separation=1.0, seed=9))
    sc = build_scenario(list(range(6)), "equal", 6, seed=9)
    matrix = run_incremental("ncm", ds, sc, {})
    per_subset, cumulative = ncm_protocol_oracle(ds, sc)
    assert matrix.accuracy(1, 1) == 1.0
    assert np.array_equal(matrix.per_subset, per_subset, equal_nan=True)
    assert np.array_equal(matrix.cumulative, cumulative)
    with pytest.raises(LearnerError, match="step 1: prediction needs at least 2 known classes"):
        run_incremental("dslda", ds, sc, {})


def test_run_incremental_holds_one_step_of_rows_at_a_time():
    # 10 steps of 2 classes: a step holds its 40 train rows and one test
    # subset's 40 rows at a time, while every step's rows held at once are
    # 400 train and 2,200 cumulative test rows
    ds = synth_features(SynthSpec(n_classes=20, dim=64, n_train=20, n_test=20, separation=4.0, seed=4))
    sc = build_scenario(list(range(20)), "equal", 10, seed=4)
    every_step = sum(sum(a.nbytes for a in step) for step in step_arrays(ds, sc))
    tracemalloc.start()
    try:
        run_incremental("ncm", ds, sc, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < every_step / 2


def cumulative_copy_matrix(kind, ds, sc, hyperparams):
    """The accuracy matrix from one copy of the cumulative test set and one
    ``predict`` per step: each subset's and the whole set's accuracy are
    read from the hits of that one prediction."""
    learner = learners.make_learner(kind, hyperparams)
    step_of = partition_dataset(ds, sc)
    per_subset = np.full((sc.n_steps, sc.n_steps), np.nan)
    cumulative = np.full(sc.n_steps, np.nan)
    for k in range(1, sc.n_steps + 1):
        train = ds.is_train & (step_of == k)
        test = ~ds.is_train & (1 <= step_of) & (step_of <= k)
        learner.learn_step(ds.features[train], ds.labels[train])
        hits = learner.predict(ds.features[test]) == ds.labels[test]
        for i in range(1, k + 1):
            per_subset[k - 1, i - 1] = float(hits[step_of[test] == i].mean())
        cumulative[k - 1] = float(hits.mean())
    return per_subset, cumulative


@pytest.mark.parametrize("kind, n_incr_steps", [("equal", 4), ("half", 3)])
@pytest.mark.parametrize("learner", learners.LEARNER_KINDS)
def test_per_subset_scoring_matches_one_cumulative_prediction(learner, kind, n_incr_steps):
    ds = synth_features(SynthSpec(n_classes=12, dim=16, n_train=10, n_test=9, separation=2.0, seed=13))
    sc = build_scenario(list(range(12)), kind, n_incr_steps, seed=13)
    matrix = run_incremental(learner, ds, sc, {})
    per_subset, cumulative = cumulative_copy_matrix(learner, ds, sc, {})
    assert np.nanmin(per_subset) < 1.0  # not a trivial stream
    assert matrix.per_subset.tobytes() == per_subset.tobytes()
    assert matrix.cumulative.tobytes() == cumulative.tobytes()


@pytest.mark.parametrize("kind", learners.LEARNER_KINDS)
def test_run_incremental_peak_is_a_few_test_subsets(kind):
    # 10 steps of 2 classes with 200 test rows each: scoring the cumulative
    # test set at step 10 would copy ten subsets' features at once
    ds = synth_features(SynthSpec(n_classes=20, dim=64, n_train=10, n_test=200, separation=4.0, seed=14))
    sc = build_scenario(list(range(20)), "equal", 10, seed=14)
    subset_bytes = 2 * 200 * 64 * ds.features.itemsize
    tracemalloc.start()
    try:
        run_incremental(kind, ds, sc, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * subset_bytes


def test_dslda_solves_its_discriminant_once_per_step(monkeypatch):
    calls = {"predict": 0, "discriminant_parameters": 0}
    for name in calls:
        original = getattr(StreamingLDA, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(StreamingLDA, name, counted)
    ds = synth_features(SynthSpec(n_classes=10, dim=6, n_train=8, n_test=4, separation=4.0, seed=15))
    run_incremental("dslda", ds, build_scenario(list(range(10)), "equal", 5, seed=15), {})
    assert calls == {"predict": 1 + 2 + 3 + 4 + 5, "discriminant_parameters": 5}


def test_dslda_learn_step_discards_the_solved_discriminant():
    # the second step brings new classes, so a kept first-step discriminant
    # could not predict the queries drawn from them
    rng = np.random.default_rng(16)
    centres = rng.normal(0, 6, (4, 5))
    steps = [
        (np.repeat(centres[ids], 6, axis=0) + rng.normal(0, 1, (12, 5)), np.repeat(ids, 6))
        for ids in ([0, 1], [2, 3])
    ]
    queries = centres[[2, 3]] + rng.normal(0, 0.1, (2, 5))
    used, fresh = StreamingLDA(), StreamingLDA()
    used.learn_step(*steps[0])
    before = used.predict(queries)
    for learner in (used, fresh):
        learner.learn_step(*steps[1])
    after = used.predict(queries)
    assert set(before.tolist()) <= {0, 1}
    assert after.tolist() == [2, 3]
    assert np.array_equal(after, fresh.predict(queries))


def _held_arrays(learner):
    """Every array a learner holds: its array attributes and its dicts' array values."""
    held = []
    for value in vars(learner).values():
        values = value.values() if isinstance(value, dict) else [value]
        held += [v for v in values if isinstance(v, np.ndarray)]
    return held


@pytest.mark.parametrize("kind", learners.LEARNER_KINDS)
def test_learner_state_is_exemplar_free(kind):
    # the same 9 classes over the same 3 steps, with 1x and 3x the samples per
    # class: the learner must hold the same bytes, none of them an input's
    sc = Scenario(kind="equal", steps=((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    held_bytes = []
    for n_train in (4, 12):
        ds = synth_features(SynthSpec(n_classes=9, dim=8, n_train=n_train, n_test=2, separation=3.0, seed=5))
        learner = learners.make_learner(kind, {"epochs": 5} if kind in ("fetril", "bsil") else None)
        inputs = []
        for x, y, _, _ in step_arrays(ds, sc):
            learner.learn_step(x, y)
            inputs += [x, y]
        held = _held_arrays(learner)
        assert held
        assert not any(np.shares_memory(a, b) for a in held for b in inputs)
        held_bytes.append(sum(a.nbytes for a in held))
    assert held_bytes[0] == held_bytes[1]


def _state(learner):
    """A learner's attributes, with every array as its bytes."""

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tobytes() if isinstance(value, np.ndarray) else value

    return {name: plain(value) for name, value in vars(learner).items()}


@pytest.mark.parametrize(
    "kind, failure", [("fetril", "not finite"), ("bsil", r"incremental step 2 \(lr=0.1\)")]
)
def test_failed_step_leaves_the_head_unchanged(kind, failure):
    # a rejected step and a step whose descent raises change nothing: predict
    # still works, the same classes can be retried, and BSIL's error names
    # the number of the step among the accepted ones
    rng = np.random.default_rng(12)
    x1, x2, queries = rng.normal(0, 1, (6, 4)), rng.normal(0, 1, (4, 4)), rng.normal(0, 1, (8, 4))
    y1, y2 = np.repeat([0, 1, 2], 2), np.repeat([3, 4], 2)
    broken = x2.copy()
    broken[1, 2] = np.nan
    learner, clean = (learners.make_learner(kind, {"epochs": 5}) for _ in range(2))
    learner.learn_step(x1, y1)
    clean.learn_step(x1, y1)
    with pytest.raises(LearnerError, match="already learned"):
        learner.learn_step(x2, np.repeat([2, 3], 2))
    with np.errstate(invalid="ignore"), pytest.raises(LearnerError, match=failure):
        learner.learn_step(broken, y2)
    assert _state(learner) == _state(clean)
    assert np.array_equal(learner.predict(queries), clean.predict(queries))
    learner.learn_step(x2, y2)
    clean.learn_step(x2, y2)
    assert _state(learner) == _state(clean)


def test_run_incremental_is_deterministic():
    ds = synth_features(SynthSpec(n_classes=8, dim=6, n_train=10, n_test=5, separation=4.0, seed=6))
    sc = build_scenario(list(range(8)), "half", 4, seed=6)
    a = run_incremental("bsil", ds, sc, {"epochs": 30})
    b = run_incremental("bsil", ds, sc, {"epochs": 30})
    assert a.to_csv_text() == b.to_csv_text()


def test_learner_errors_annotated_with_step():
    ds = synth_features(SynthSpec(n_classes=4, dim=10, n_train=2, n_test=1, separation=4.0, seed=7))
    sc = build_scenario(list(range(4)), "equal", 2, seed=7)
    with pytest.raises(LearnerError, match="step 1:"):
        run_incremental("dslda", ds, sc, {"shrinkage": 0.0})


def test_unknown_learner_kind():
    ds = synth_features(SynthSpec(n_classes=4, dim=3, n_train=2, n_test=1, separation=4.0, seed=8))
    sc = build_scenario(list(range(4)), "equal", 2, seed=8)
    with pytest.raises(LearnerError, match="unknown learner kind"):
        run_incremental("lucir", ds, sc, {})


def test_invalid_hyperparameter_rejected():
    from efcilab.learners import make_learner

    for knob in ("bogus_knob", "seed"):
        with pytest.raises(LearnerError, match="invalid hyperparameters"):
            make_learner("dslda", {knob: 3})
