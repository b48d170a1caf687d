"""Incremental learners over fixed feature embeddings.

Four algorithms behind one exemplar-free contract (``learn_step`` sees only
the current step's training data) and one scoring path: each is a linear
model ``(sorted class ids, W, b)`` from its ``discriminant_parameters``,
built at the first ``predict`` after a step and kept until the next step
(``LinearModelLearner``):

* ``StreamingLDA`` — class means and shared scatter merged per class
  block, with shrinkage; linear discriminant prediction. At shrinkage 1
  it keeps no scatter and solves nothing.
* ``FeTrILLite`` — frozen class means plus a linear head retrained each
  step on real new-class features and pseudo-features for past classes.
  A pseudo-feature is a real row plus one offset per past class; the head
  trains through the real rows and the offsets alone, never through the
  shifted rows.
* ``BSILLite`` — cosine-normalized linear head trained with a
  balanced-softmax cross-entropy on new-class features and an L2 anchor
  that ties previous class weights to their snapshot. A feature-space
  stand-in for fine-tuning-based methods.
* ``NearestClassMean`` — ``StreamingLDA`` at shrinkage 1: nearest class mean.

One fixed-step loop, ``descend``, drives both gradient-descent heads on
dual coefficients: every update of a weight row adds a combination of
the step's rows and a multiple of the row itself. FeTrIL's weights stay
``coef.T @ basis`` over its real rows and offsets; BSIL's stay
``coef.T @ unit_rows + own[:, None] * w0``, one scale per class on the
row ``w0`` it started from. The rows' inner products with the weights
come from one product per epoch (see ``_inner_products``). The weights
map back once, at the end; the descent is the weight-space one up to
float rounding.

Ties in every argmax go to the lowest class id.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, partition_dataset


class LearnerError(RuntimeError):
    """Raised for invalid learner usage or diverging training."""


# ---------------------------------------------------------------------------
# Accuracy bookkeeping


@dataclass
class AccuracyMatrix:
    """Lower-triangular accuracies A[k][i] plus cumulative row accuracies.

    ``per_subset[k-1, i-1]`` is the accuracy of the model after step k on
    the test samples of step i (defined for i <= k, NaN above the
    diagonal). ``cumulative[k-1]`` is the accuracy on all test samples of
    steps 1..k.
    """

    per_subset: np.ndarray
    cumulative: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.cumulative.shape[0])

    def accuracy(self, k: int, i: int) -> float:
        """A[k][i] with 1-based step/subset indices, i <= k."""
        if not (1 <= i <= k <= self.n_steps):
            raise IndexError(f"subset accuracy undefined for k={k}, i={i}")
        return float(self.per_subset[k - 1, i - 1])

    def cumulative_accuracy(self, k: int) -> float:
        if not (1 <= k <= self.n_steps):
            raise IndexError(f"step {k} out of range 1..{self.n_steps}")
        return float(self.cumulative[k - 1])

    def validate(self) -> None:
        k = self.n_steps
        if self.per_subset.shape != (k, k):
            raise ValueError("per-subset matrix must be K x K")
        lower = np.tril_indices(k)
        vals = self.per_subset[lower]
        if not np.all((vals >= 0) & (vals <= 1)):
            raise ValueError("accuracies must lie in [0, 1]")
        if not np.all(np.isnan(self.per_subset[np.triu_indices(k, 1)])):
            raise ValueError("entries above the diagonal must be NaN")
        if not np.all((self.cumulative >= 0) & (self.cumulative <= 1)):
            raise ValueError("cumulative accuracies must lie in [0, 1]")

    def to_csv_text(self) -> str:
        lines = ["step,subset,accuracy"]
        for k in range(1, self.n_steps + 1):
            for i in range(1, k + 1):
                lines.append(f"{k},{i},{self.accuracy(k, i)!r}")
            lines.append(f"{k},cumulative,{self.cumulative_accuracy(k)!r}")
        return "\n".join(lines) + "\n"


def argmax_by_class(scores: np.ndarray, class_ids: np.ndarray) -> np.ndarray:
    """Row-wise argmax over score columns; ties resolved to the lowest id."""
    order = np.argsort(class_ids, kind="stable")
    sorted_ids = class_ids[order]
    best = np.argmax(scores[:, order], axis=1)
    return sorted_ids[best]


def _is_real(value) -> bool:
    """Whether a hyperparameter is a real number: a bool or a string is not,
    so it fails the range check that follows without being compared."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _new_class_ids(features: np.ndarray, labels: np.ndarray, learned) -> list[int]:
    """The sorted class ids of a step; an empty step, or a class already in
    ``learned``, is an error."""
    if features.shape[0] == 0:
        raise LearnerError("empty training step")
    new_ids = [int(c) for c in np.unique(labels)]
    overlap = [c for c in new_ids if c in learned]
    if overlap:
        raise LearnerError(f"classes {overlap} were already learned in an earlier step")
    return new_ids


class LinearModelLearner:
    """Scores ``x @ W.T + b`` of the model ``discriminant_parameters()``,
    built at the first ``predict`` after a ``learn_step`` and kept until the
    next one, whose first act drops it. Each subclass binds ``predict`` and
    ``learn_step`` in its own body, since ``benchmarks/spans.py`` traces the
    methods in a class's own ``__dict__``.
    """

    _model: tuple | None = None

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._model is None:
            self._model = self.discriminant_parameters()
        ids, weights, biases = self._model
        return argmax_by_class(features @ weights.T + biases, ids)


# ---------------------------------------------------------------------------
# Streaming LDA

_SCATTER_BLOCK = 64  # scatter rows a step updates at a time


class StreamingLDA(LinearModelLearner):
    """Streaming linear discriminant classifier with shrinkage.

    Each ``learn_step`` takes every class's block mean and centred scatter
    and merges them into the running class mean and shared scatter with
    the pairwise update of Chan, Golub & LeVeque (1979), so the final
    state matches a batch fit over the same samples up to float rounding
    regardless of arrival order or how a class is split over steps.

    The scatter is the one ``dim x dim`` array it holds. A step adds its
    within-class scatter and its mean merges to it in blocks of 64 rows,
    so no ``dim x dim`` temporary is made. The discriminant is solved in
    the scatter's own buffer: its diagonal is shifted by the shrinkage,
    then restored exactly. Only at shrinkage 0 is the scatter first
    checked positive definite by a Cholesky factor, once per step: at the
    first ``predict`` after a ``learn_step``.

    At shrinkage 1 no scatter is kept and nothing is solved: the scores are
    ``x . mu - ||mu||^2 / 2``, nearest-mean scoring, for one known class too.
    """

    def __init__(self, shrinkage: float = 1e-4):
        if not _is_real(shrinkage) or not 0 <= shrinkage <= 1:  # NaN fails too
            raise LearnerError(f"shrinkage must lie in [0, 1], got {shrinkage!r}")
        self.shrinkage = float(shrinkage)
        self.means: dict[int, np.ndarray] = {}
        self.counts: dict[int, int] = {}
        self.scatter: np.ndarray | None = None
        self.total = 0

    def learn_step(self, features: np.ndarray, labels: np.ndarray) -> None:
        self._model = None
        if features.shape[0] == 0:
            raise LearnerError("empty training step")
        dim = features.shape[1]
        if self.scatter is None and self.shrinkage < 1:
            self.scatter = np.zeros((dim, dim))
        blocks = [slice(lo, lo + _SCATTER_BLOCK) for lo in range(0, dim, _SCATTER_BLOCK)]
        ids, inverse = np.unique(labels, return_inverse=True)
        block_means = np.stack([features[inverse == j].mean(axis=0) for j in range(len(ids))])
        if self.scatter is not None:
            centred = block_means[inverse]
            np.subtract(features, centred, out=centred)
            for rows in blocks:
                self.scatter[rows] += centred[:, rows].T @ centred
            del centred
        for c, n_b, mean_b in zip(ids.tolist(), np.bincount(inverse).tolist(), block_means):
            n_a = self.counts.get(c, 0)
            if n_a == 0:
                self.means[c] = mean_b
            else:
                n = n_a + n_b
                delta = mean_b - self.means[c]
                if self.scatter is not None:
                    for rows in blocks:
                        self.scatter[rows] += (n_a * n_b / n) * np.outer(delta[rows], delta)
                self.means[c] = self.means[c] + delta * (n_b / n)
            self.counts[c] = n_a + n_b
            self.total += n_b

    def discriminant_parameters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sorted class ids, weight rows w_c = Lambda mu_c, biases -mu'Lambda mu/2).

        The shrunk covariance ``(1 - s) S / total + s I`` is ``a (S + t I)``
        with ``a = (1 - s) / total`` and ``t = s / a``, so the weights are
        ``(S + t I)^-1 mu_c / a``, solved on the scatter ``S`` itself with
        its diagonal shifted by ``t`` and then restored bit for bit.
        """
        if self.total == 0:
            raise LearnerError("predict before any update")
        ids = np.array(sorted(self.means), dtype=np.int64)
        if self.scatter is None:  # shrinkage 1: Lambda is the identity
            mu = np.stack([self.means[int(c)] for c in ids])
            return ids, mu, -0.5 * np.sum(mu * mu, axis=1)
        if len(ids) < 2:
            raise LearnerError(f"prediction needs at least 2 known classes, have {len(ids)}")
        if self.shrinkage == 0:
            try:
                np.linalg.cholesky(self.scatter)  # only the check that it is positive definite
            except np.linalg.LinAlgError:
                raise LearnerError(
                    "shrunk scatter is singular; use shrinkage > 0 to guarantee invertibility"
                ) from None
        mu = np.stack([self.means[int(c)] for c in ids])
        scale = (1.0 - self.shrinkage) / self.total
        diagonal = self.scatter.diagonal().copy()
        np.fill_diagonal(self.scatter, diagonal + self.shrinkage / scale)
        try:
            weights = np.linalg.solve(self.scatter, mu.T).T
        except np.linalg.LinAlgError as exc:
            raise LearnerError(f"the shrunk scatter could not be solved: {exc}") from None
        finally:
            np.fill_diagonal(self.scatter, diagonal)
        if not np.isfinite(weights).all():
            raise LearnerError("the discriminant is not finite: the features hold NaN or infinity")
        weights /= scale
        biases = -0.5 * np.einsum("ij,ij->i", weights, mu)
        return ids, weights, biases

    predict = LinearModelLearner.predict


class NearestClassMean(StreamingLDA):
    """Nearest class mean: ``StreamingLDA`` fixed at shrinkage 1."""

    def __init__(self):
        super().__init__(shrinkage=1.0)

    learn_step = StreamingLDA.learn_step
    predict = StreamingLDA.predict


# ---------------------------------------------------------------------------
# Descent and dual coefficients of the gradient-descent heads


def descend(gradient, params: list, lr: float, epochs: int, prox=None) -> list:
    """``epochs`` fixed steps ``p -= lr * g`` in place over the arrays
    ``params``, each ``g`` from ``gradient(params)``; after each step
    ``prox(params)``, if given, may change them in place. Returns ``params``."""
    for _ in range(epochs):
        for p, g in zip(params, gradient(params)):
            p -= lr * g
        if prox is not None:
            prox(params)
    return params


def _check_descent_settings(epochs, positive: dict, nonnegative: dict) -> None:
    """Reject ``epochs`` not an integer >= 1 and values not finite and > 0
    (``positive``) or >= 0 (``nonnegative``); a value that is no real number
    (a bool, a string, ``None``) is neither, and NaN fails both."""
    if isinstance(epochs, bool) or not isinstance(epochs, numbers.Integral) or epochs < 1:
        raise LearnerError(f"epochs must be an integer >= 1, got {epochs!r}")
    for name, value in positive.items():
        if not _is_real(value) or not 0 < value < math.inf:
            raise LearnerError(f"{name} must be a finite number > 0, got {value!r}")
    for name, value in nonnegative.items():
        if not _is_real(value) or not 0 <= value < math.inf:
            raise LearnerError(f"{name} must be a finite number >= 0, got {value!r}")


def _inner_products(basis: np.ndarray):
    """The map from coefficients ``coef`` (``k x C``) to the inner products
    ``basis @ (coef.T @ basis).T`` of the ``k`` basis rows with the weight
    rows they combine to, by one product per call: through the Gram matrix
    of the rows, formed once (``k * k * C`` a call and a ``k x k`` array),
    when ``k <= 2 * dim``, else through the weights (``2 * k * dim * C``).
    """
    k, dim = basis.shape
    if k <= 2 * dim:
        gram = basis @ basis.T
        return lambda coef: gram @ coef
    return lambda coef: basis @ (basis.T @ coef)


# ---------------------------------------------------------------------------
# FeTrIL-style pseudo-feature head


def select_source_class(
    target_mean: np.ndarray, candidate_ids: np.ndarray, candidate_means: np.ndarray
) -> int:
    """Candidate whose mean is most cosine-similar to ``target_mean``.

    Falls back to the Euclidean nearest mean when the cosine is undefined
    (zero-norm target or no nonzero-norm candidate). Ties go to the lowest
    candidate id.
    """
    order = np.argsort(candidate_ids, kind="stable")
    ids = candidate_ids[order]
    means = candidate_means[order]
    norms = np.linalg.norm(means, axis=1)
    t_norm = np.linalg.norm(target_mean)
    if t_norm > 0 and np.any(norms > 0):
        sims = np.full(len(ids), -np.inf)
        ok = norms > 0
        sims[ok] = (means[ok] @ target_mean) / (norms[ok] * t_norm)
        return int(ids[np.argmax(sims)])
    d2 = np.sum((means - target_mean) ** 2, axis=1)
    return int(ids[np.argmin(d2)])


def fit_softmax_head(
    features: np.ndarray,
    rows: np.ndarray,
    shifts: np.ndarray,
    shift_of: np.ndarray,
    class_idx: np.ndarray,
    n_classes: int,
    lr: float,
    epochs: int,
    weight_decay: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic regression by full-batch gradient descent.

    The training set is given in factored form: row ``r`` is
    ``features[rows[r]] + shifts[shift_of[r]]``, with label ``class_idx[r]``.
    Its logits ``u[rows[r]] + v[shift_of[r]]`` split over the ``m + J``
    basis rows (the rows of ``features`` and the shifts), so the softmax
    factors: with each basis row's maximum subtracted, the normalisers of
    the pairs ``(i, p)`` are ``N = exp(u) @ exp(v).T`` (``m x J``), and each
    epoch works on basis-row arrays and the pair counts only, never on the
    training rows. Zero-initialized, hence deterministic. Returns
    (weights, biases).

    ``descend`` trains the biases and the ``(m + J) x C`` coefficients of
    the weights ``coef.T @ basis``, with gradient ``grad + weight_decay *
    coef``, ``grad`` from ``u`` and ``v`` (one product, see
    ``_inner_products``). The weights map back once at the end.
    """
    n = len(rows)
    m = len(features)
    basis = np.concatenate([features, shifts])
    inner_products = _inner_products(basis)
    pairs = np.zeros((m, len(shifts)))
    np.add.at(pairs, (rows, shift_of), 1.0)
    used = pairs > 0
    # target counts of every basis row: each training row adds 1 to its real
    # row's and its shift's entry at its label
    counts = np.zeros((len(basis), n_classes))
    np.add.at(counts, (np.concatenate([rows, m + shift_of]), np.tile(class_idx, 2)), 1.0)
    ratio = np.zeros_like(pairs)

    def gradient(params):
        coef, biases = params
        grad = inner_products(coef)
        grad[:m] += biases
        grad -= grad.max(axis=1, keepdims=True)
        np.exp(grad, out=grad)
        eu, ev = grad[:m], grad[m:]
        # an unused pair contributes exactly 0, even where its normaliser underflows
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(pairs, eu @ ev.T, out=ratio, where=used)
        if not np.isfinite(ratio).all():
            raise LearnerError(
                "softmax normaliser of a used (row, offset) pair is not finite and "
                "positive: the logits spread past float64's exp range (rescale the "
                "features or lower lr)"
            )
        # per basis row: the softmax summed over its training rows, minus its targets
        to_u, to_v = ratio @ ev, ratio.T @ eu
        eu *= to_u
        ev *= to_v
        grad -= counts
        grad /= n
        grad_biases = grad[:m].sum(axis=0)
        grad += weight_decay * coef
        return grad, grad_biases

    coef, biases = descend(gradient, [np.zeros_like(counts), np.zeros(n_classes)], lr, epochs)
    return coef.T @ basis, biases


class FeTrILLite(LinearModelLearner):
    """Frozen class means plus a pseudo-feature-trained linear head.

    Each step stores the new classes' means and retrains the multinomial
    logistic head from scratch on the real new features plus
    pseudo-features for every past class. A past class's pseudo-features
    are the rows of the current step's most similar class, translated by
    one offset so that their mean lands on the past class's mean. The head
    receives them factored, as the real rows plus the offsets, and trains
    on those alone. The head ``(sorted class ids, weights, biases)`` is its
    linear model.
    """

    def __init__(self, lr: float = 0.1, epochs: int = 200, weight_decay: float = 1e-4):
        _check_descent_settings(epochs, {"lr": lr}, {"weight_decay": weight_decay})
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.weight_decay = float(weight_decay)
        self.means: dict[int, np.ndarray] = {}
        self.head: tuple | None = None

    def learn_step(self, features: np.ndarray, labels: np.ndarray) -> None:
        self._model = None
        new_ids = _new_class_ids(features, labels, self.means)

        step_means = {c: features[labels == c].mean(axis=0) for c in new_ids}
        cand_ids = np.array(new_ids, dtype=np.int64)
        cand_means = np.stack([step_means[c] for c in new_ids])

        # past class p's pseudo-features: the rows of its source class
        # shifted by one offset, means[p] - step_means[src]
        m = features.shape[0]
        rows = [np.arange(m)]
        shifts = [np.zeros(features.shape[1])]
        targets = [labels.astype(np.int64)]
        for past_id in sorted(self.means):
            src = select_source_class(self.means[past_id], cand_ids, cand_means)
            src_rows = np.flatnonzero(labels == src)
            rows.append(src_rows)
            shifts.append(self.means[past_id] - step_means[src])
            targets.append(np.full(len(src_rows), past_id, dtype=np.int64))
        shift_of = np.repeat(np.arange(len(shifts)), [len(r) for r in rows])

        # a head fit that raises leaves the learner as it was
        all_ids = np.array(sorted([*self.means, *new_ids]), dtype=np.int64)
        class_idx = np.searchsorted(all_ids, np.concatenate(targets))
        self.head = all_ids, *fit_softmax_head(
            features,
            np.concatenate(rows),
            np.stack(shifts),
            shift_of,
            class_idx,
            len(all_ids),
            self.lr,
            self.epochs,
            self.weight_decay,
        )
        self.means.update(step_means)

    def discriminant_parameters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.head is None:
            raise LearnerError("predict before any update")
        return self.head

    predict = LinearModelLearner.predict


# ---------------------------------------------------------------------------
# BSIL-style balanced-softmax cosine head


def _unit_rows(arr: np.ndarray) -> np.ndarray:
    """``arr`` with each nonzero row scaled to unit norm; zero rows stay zero."""
    norms = np.linalg.norm(arr, axis=1)
    return arr / np.where(norms > 0, norms, 1.0)[:, None]


def _anchor_prox(weights: np.ndarray, snapshot, lr: float, strength: float) -> np.ndarray:
    """Proximal step of the anchor: the minimiser over ``w`` of
    ``strength * ||w - snapshot||^2 + ||w - weights||^2 / (2 * lr)``."""
    shrink = 1.0 / (1.0 + 2.0 * lr * strength)
    return snapshot + shrink * (weights - snapshot)


def _cosine_softmax_loss(
    params: list, inner_products, cross: np.ndarray, sq_norms: np.ndarray, class_idx, log_counts
) -> tuple[float, tuple]:
    """Balanced-softmax cross-entropy of a cosine head over its unit rows.

    ``params`` is ``(coef, own, scale)``: weight row ``c`` is
    ``coef[:, c] @ unit_rows + own[c] * w0[c]``, over the ``n`` unit-norm
    training rows and the row ``w0[c]`` the class started from.
    ``inner_products`` is ``_inner_products(unit_rows)``, ``cross`` is
    ``unit_rows @ w0.T`` and ``sq_norms`` holds ``||w0[c]||^2``. Logits are
    ``scale * cos(w_c, x)`` offset by ``log_counts[c]`` inside the softmax.
    Returns ``(loss, (grad_coef, grad_own, d loss / d scale))``, the first
    two the weight gradient ``grad_coef.T @ unit_rows + grad_own[:, None] * w0``.
    """
    coef, own, scale = params
    n = len(class_idx)
    inner = inner_products(coef)  # (n, C)
    inner += cross * own
    # ||w_c||^2 = coef_c . inner_c + own_c * (w0_c . w_c); rounding may take
    # a zero norm below 0
    along_w0 = np.einsum("nc,nc->c", cross, coef) + own * sq_norms
    norms = np.sqrt(np.maximum(np.einsum("nc,nc->c", coef, inner) + own * along_w0, 0.0))
    norms[norms == 0] = 1.0
    cosines = inner / norms
    logits = scale * cosines + log_counts
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    totals = probs.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    ce = np.mean(np.log(totals[:, 0]) - logits[rows, class_idx])

    grad_logits = probs
    grad_logits /= totals
    grad_logits[rows, class_idx] -= 1.0
    grad_logits /= n

    # d cos/d w_c = (x_hat - cos * w_c / ||w_c||) / ||w_c||: the x_hat part
    # lands on the unit rows' coefficients, the rest on all of w_c's
    diag_coef = np.einsum("nc,nc->c", grad_logits, cosines)
    along_w = -scale * diag_coef / norms**2
    grad_coef = coef * along_w
    grad_coef += grad_logits * (scale / norms)
    return float(ce), (grad_coef, own * along_w, diag_coef.sum())


class BSILLite(LinearModelLearner):
    """Cosine head with balanced softmax and an anchor on past weights.

    Trains on the current step's features only. The balanced softmax
    offsets each class logit by the log of its cumulative train count;
    the anchor term replaces feature distillation by pulling previous
    class weight rows toward their pre-step snapshot.
    """

    def __init__(
        self,
        lr: float = 0.1,
        epochs: int = 200,
        anchor_strength: float = 0.1,
        scale_init: float = 2.0,
    ):
        _check_descent_settings(
            epochs, {"lr": lr, "scale_init": scale_init}, {"anchor_strength": anchor_strength}
        )
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.anchor_strength = float(anchor_strength)
        self.scale = float(scale_init)
        self.weights: dict[int, np.ndarray] = {}
        self.counts: dict[int, int] = {}
        self.steps_seen = 0

    def learn_step(self, features: np.ndarray, labels: np.ndarray) -> None:
        self._model = None
        new_ids = _new_class_ids(features, labels, self.weights)

        # the learner changes only once the descent has returned
        weights, counts = dict(self.weights), dict(self.counts)
        for c in new_ids:
            mean = features[labels == c].mean(axis=0)
            norm = np.linalg.norm(mean)
            # imprint init: unit-norm class prototype (keeps the training
            # dynamics independent of the feature scale)
            weights[c] = mean / norm if norm > 0 else mean
            counts[c] = int(np.sum(labels == c))

        all_ids = np.array(sorted(weights), dtype=np.int64)
        w0 = np.stack([weights[int(c)] for c in all_ids])
        log_counts = np.log(np.array([counts[int(c)] for c in all_ids], dtype=float))
        anchored = ~np.isin(all_ids, new_ids)
        class_idx = np.searchsorted(all_ids, labels)
        # updates and the anchor keep each row unit-row terms plus a multiple of its w0
        unit_x = _unit_rows(features)
        loss_args = (_inner_products(unit_x), unit_x @ w0.T, np.einsum("cd,cd->c", w0, w0))
        step = self.steps_seen + 1

        def gradient(params):
            loss, grads = _cosine_softmax_loss(params, *loss_args, class_idx, log_counts)
            if not math.isfinite(loss):
                raise LearnerError(f"non-finite loss at incremental step {step} (lr={self.lr})")
            return grads

        def prox(params):
            # after the gradient step: the scale floor, and the anchor's exact
            # proximal step (any strength) to the old classes' start, coef 0, own 1
            coef, own, scale = params
            np.maximum(scale, 1e-3, out=scale)
            if self.anchor_strength > 0:
                for p, snapshot in ((coef.T, 0.0), (own, 1.0)):
                    p[anchored] = _anchor_prox(p[anchored], snapshot, self.lr, self.anchor_strength)

        start = [np.zeros((len(unit_x), len(w0))), np.ones(len(w0)), np.array(self.scale)]
        coef, own, scale = descend(gradient, start, self.lr, self.epochs, prox)
        w0 *= own[:, None]  # the weights, built in w0's buffer
        w0 += coef.T @ unit_x
        self.weights = dict(zip(all_ids.tolist(), w0))
        self.counts, self.scale, self.steps_seen = counts, float(scale), step

    def discriminant_parameters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sorted class ids, unit-norm weight rows, zero biases). A row's
        positive norm scales all its cosines alike, so the argmax needs no
        normalised copy of the features; a zero row scores 0."""
        if not self.weights:
            raise LearnerError("predict before any update")
        ids = np.array(sorted(self.weights), dtype=np.int64)
        return ids, _unit_rows(np.stack([self.weights[int(c)] for c in ids])), np.zeros(len(ids))

    predict = LinearModelLearner.predict


# ---------------------------------------------------------------------------
# Process runner

LEARNER_KINDS = ("dslda", "fetril", "bsil", "ncm")

_CONSTRUCTORS = {
    "dslda": StreamingLDA,
    "fetril": FeTrILLite,
    "bsil": BSILLite,
    "ncm": NearestClassMean,
}


def make_learner(kind: str, hyperparams: dict | None = None):
    if kind not in _CONSTRUCTORS:
        raise LearnerError(f"unknown learner kind {kind!r}; expected one of {LEARNER_KINDS}")
    try:
        return _CONSTRUCTORS[kind](**(hyperparams or {}))
    except TypeError as exc:
        raise LearnerError(f"invalid hyperparameters for {kind}: {exc}") from None


def run_incremental(
    kind: str,
    ds,
    sc: Scenario,
    hyperparams: dict | None = None,
) -> AccuracyMatrix:
    """Run a full incremental process and collect the accuracy matrix.

    Step k's rows are selected when the loop reaches it, from the step
    index of every row: the learner trains on the train rows of step k and
    is then scored on the test rows of each step i <= k, one ``predict``
    call per subset. The cumulative accuracy of steps 1..k comes from the
    subsets' summed hits and row counts, so the cumulative test set is
    never copied: one step's train rows and one subset's test rows are
    held at a time.
    """
    learner = make_learner(kind, hyperparams)
    step_of = partition_dataset(ds, sc)
    is_test = ~ds.is_train
    k_total = sc.n_steps

    per_subset = np.full((k_total, k_total), np.nan)
    cumulative = np.full(k_total, np.nan)
    for k in range(1, k_total + 1):
        train = ds.is_train & (step_of == k)
        hits = rows = 0
        try:
            learner.learn_step(ds.features[train], ds.labels[train])
            for i in range(1, k + 1):
                test = is_test & (step_of == i)
                predictions = learner.predict(ds.features[test])
                subset_hits = int(np.count_nonzero(predictions == ds.labels[test]))
                subset_rows = int(np.count_nonzero(test))
                per_subset[k - 1, i - 1] = subset_hits / subset_rows
                hits += subset_hits
                rows += subset_rows
        except LearnerError as exc:
            raise LearnerError(f"step {k}: {exc}") from exc
        cumulative[k - 1] = hits / rows

    matrix = AccuracyMatrix(per_subset=per_subset, cumulative=cumulative)
    matrix.validate()
    return matrix
