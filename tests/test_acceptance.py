"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Each criterion is checked at its stated tolerance against independently
written oracles (brute-force metric evaluation, normal-equation solves,
high-precision incomplete beta, batch LDA, central finite differences).
Criteria 8-11 run the shipped default synthetic grid.
"""

import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from _factories import design_from_arrays, make_table, record_table, split_arrays, with_reference
from efcilab.analyze import build_report_bundle
from efcilab.config import default_config
from efcilab.datagen import SynthSpec, synth_features
from efcilab.grid import run_grid, write_results
from efcilab.learners import (
    AccuracyMatrix,
    StreamingLDA,
    _cosine_softmax_loss,
    _inner_products,
    _unit_rows,
)
from efcilab.metrics import avg_forgetting, avg_incremental_accuracy
from efcilab.report import render_bundle
from efcilab.stats.analysis import anova_partial_eta2, pairwise_comparison
from efcilab.stats.design import Formula, encode_design
from efcilab.stats.regression import ols_fit

mp.mp.dps = 40


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 1 and 2: metric oracles


def _brute_force_avg_acc(matrix):
    total = 0.0
    for step in range(2, matrix.n_steps + 1):
        total += matrix.cumulative_accuracy(step)
    return total / (matrix.n_steps - 1)


def _brute_force_forgetting(matrix, b):
    k = matrix.n_steps

    def f(subset):
        best = -1.0
        for later in range(subset, k + 1):
            best = max(best, matrix.accuracy(later, subset))
        return best - matrix.accuracy(k, subset)

    tail = sum(f(s) for s in range(2, k + 1))
    return float(b) * f(1) + (1.0 - float(b)) / (k - 1) * tail


def _random_matrix(rng, k):
    per_subset = np.full((k, k), np.nan)
    tri = np.tril_indices(k)
    per_subset[tri] = rng.random(len(tri[0]))
    return AccuracyMatrix(per_subset=per_subset, cumulative=rng.random(k))


def test_criterion_01_metrics_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 13))
        matrix = _random_matrix(rng, k)
        b = Fraction(int(rng.integers(1, k)), k)
        worst = max(
            worst,
            abs(avg_incremental_accuracy(matrix) - _brute_force_avg_acc(matrix)),
            abs(avg_forgetting(matrix, b) - _brute_force_forgetting(matrix, b)),
        )
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "metrics match brute-force evaluation on 200 random matrices",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst |delta|={worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_02_zero_forgetting_property():
    rng = np.random.default_rng(1002)
    exact_zero = True
    bounded = True
    for _ in range(100):
        k = int(rng.integers(2, 10))
        matrix = _random_matrix(rng, k)
        bounded &= 0.0 <= avg_forgetting(matrix, Fraction(1, k)) <= 1.0
        final_max = _random_matrix(rng, k)
        for subset in range(k):
            final_max.per_subset[k - 1, subset] = np.nanmax(final_max.per_subset[subset:, subset])
        exact_zero &= avg_forgetting(final_max, Fraction(1, k)) == 0.0
    _verdict(
        2,
        "forgetting is exactly 0 when the final row attains the running max, and always in [0,1]",
        exact_zero and bounded,
    )


# ---------------------------------------------------------------------------
# Criterion 3: OLS oracle


def _oracle_t_pvalue(t, df):
    x = mp.mpf(df) / (df + mp.mpf(t) ** 2)
    return float(mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, x, regularized=True))


def test_criterion_03_ols_oracle():
    rng = np.random.default_rng(1003)
    worst_beta = worst_p = worst_orth = 0.0
    for _ in range(50):
        n = int(rng.integers(15, 201))
        p = int(rng.integers(2, 11))
        x = rng.standard_normal((n, p))
        x[:, 0] = 1.0
        y = x @ rng.standard_normal(p) + rng.standard_normal(n)
        fit = ols_fit(design_from_arrays(x, y))
        beta_ref = np.linalg.solve(x.T @ x, x.T @ y)
        worst_beta = max(worst_beta, float(np.max(np.abs(fit.beta - beta_ref))))
        worst_orth = max(worst_orth, float(np.max(np.abs(x.T @ (y - x @ fit.beta)))))
        resid = y - x @ beta_ref
        sigma2 = (resid @ resid) / (n - p)
        se = np.sqrt(np.diag(sigma2 * np.linalg.inv(x.T @ x)))
        for j in range(p):
            ref_p = _oracle_t_pvalue(beta_ref[j] / se[j], n - p)
            worst_p = max(worst_p, abs(fit.p_values[j] - ref_p))
    _verdict(
        3,
        "OLS coefficients, residual orthogonality, and p-values match the oracles",
        worst_beta <= 1e-8 and worst_p <= 1e-6 and worst_orth <= 1e-8,
        f"beta={worst_beta:.2e} p={worst_p:.2e} Xt.eps={worst_orth:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: reference-level invariance, antisymmetry, Bonferroni subset


def test_criterion_04_reference_invariance_and_antisymmetry():
    rng = np.random.default_rng(1004)
    worst_fitted = worst_antisym = 0.0
    bonferroni_ok = True
    for trial in range(20):
        n_levels = int(rng.integers(2, 6))
        levels = tuple(f"lvl{i}" for i in range(n_levels))
        table = make_table(
            120,
            seed=2000 + trial,
            train_levels=levels,
            train_effects={lvl: float(rng.normal(0, 0.2)) for lvl in levels},
            incr_effects={"fetril": 0.05},
            noise=0.08,
        )
        observed = table.levels["train"]
        designs = {
            ref: encode_design(with_reference(table, "train", ref), "avg_acc ~ train + incr")
            for ref in observed
        }
        fits = {ref: ols_fit(design) for ref, design in designs.items()}
        fitted = {ref: designs[ref].x @ fits[ref].beta for ref in observed}
        for values in fitted.values():
            worst_fitted = max(worst_fitted, float(np.max(np.abs(values - fitted[observed[0]]))))
        for ref_a in observed:
            for ref_b in observed:
                if ref_a == ref_b:
                    continue
                beta_ab = fits[ref_a].coef(f"train[{ref_b}]")[0]
                beta_ba = fits[ref_b].coef(f"train[{ref_a}]")[0]
                worst_antisym = max(worst_antisym, abs(beta_ab + beta_ba))
        if len(observed) >= 2:
            pw = pairwise_comparison(table, "avg_acc ~ train + incr", alpha=0.05)
            worst_antisym = max(worst_antisym, float(np.max(np.abs(pw.gain + pw.gain.T))))
            with np.errstate(invalid="ignore"):
                uncorrected = pw.estimable & (pw.p_values < pw.alpha)
            bonferroni_ok &= bool(np.all(uncorrected[pw.significant]))
    _verdict(
        4,
        "reference choice leaves fitted values unchanged; pairwise gains are antisymmetric; "
        "Bonferroni-corrected set is a subset of the uncorrected set",
        worst_fitted <= 1e-10 and worst_antisym <= 1e-12 and bonferroni_ok,
        f"fitted={worst_fitted:.2e} antisym={worst_antisym:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: ANOVA identity


def test_criterion_05_anova_identity():
    table = make_table(
        150,
        seed=1005,
        train_effects={"byol": 0.15, "dino": 0.3},
        incr_effects={"fetril": -0.1},
        data_effects={"d2": 0.07},
        noise=0.06,
    )

    def independent_ssr(terms):
        design = encode_design(table, Formula("avg_acc", tuple(terms)))
        beta, *_ = np.linalg.lstsq(design.x, design.y, rcond=None)
        resid = design.y - design.x @ beta
        return float(resid @ resid)

    anova = anova_partial_eta2(table, "avg_acc ~ train + incr + data")
    ssr_full = independent_ssr(("train", "incr", "data"))
    identity_ok = True
    for row in anova.rows:
        rest = [t for t in ("train", "incr", "data") if t != row.variable]
        ss_indep = independent_ssr(rest) - ssr_full
        eta_indep = ss_indep / (ss_indep + ssr_full)
        identity_ok &= abs(row.partial_eta_sq - eta_indep) <= 1e-8

    permuted = anova_partial_eta2(table, "avg_acc ~ data + incr + train")
    order_ok = all(
        abs(anova.row(v).partial_eta_sq - permuted.row(v).partial_eta_sq) <= 1e-10
        for v in ("train", "incr", "data")
    )

    noiseless = make_table(
        30, seed=1055, train_levels=("lo", "hi"), train_effects={"hi": 0.4},
        noise=0.0, incr_levels=("only",), data_levels=("only",),
    )
    pure = anova_partial_eta2(noiseless, "avg_acc ~ train")
    noiseless_ok = pure.row("train").partial_eta_sq == 1.0

    _verdict(
        5,
        "partial eta^2 equals independently assembled SS ratios; Type-II is order-invariant; "
        "noiseless 2-level factor yields eta^2 = 1",
        identity_ok and order_ok and noiseless_ok,
    )


# ---------------------------------------------------------------------------
# Criterion 6: DSLDA streaming vs batch


def test_criterion_06_dslda_streaming_equals_batch():
    rng = np.random.default_rng(1006)
    worst_rel = 0.0
    all_agree = True
    for trial in range(20):
        n_classes = int(rng.integers(3, 8))
        dim = int(rng.integers(4, 12))
        ds = synth_features(
            SynthSpec(
                n_classes=n_classes,
                dim=dim,
                n_train=int(rng.integers(15, 40)),
                n_test=12,
                separation=float(rng.uniform(1.0, 6.0)),
                seed=3000 + trial,
            )
        )
        x, y = split_arrays(ds, train=True)
        order = rng.permutation(len(y))
        learner = StreamingLDA(shrinkage=1e-4)
        learner.learn_step(x[order], y[order])
        ids, w, b = learner.discriminant_parameters()

        mu = np.stack([x[y == c].mean(axis=0) for c in ids])
        centered = x - mu[np.searchsorted(ids, y)]
        sigma = centered.T @ centered / len(y)
        lam = np.linalg.inv((1 - 1e-4) * sigma + 1e-4 * np.eye(dim))
        w_ref = mu @ lam
        b_ref = -0.5 * np.einsum("ij,ij->i", w_ref, mu)
        worst_rel = max(
            worst_rel,
            float(np.max(np.abs(w - w_ref)) / np.max(np.abs(w_ref))),
            float(np.max(np.abs(b - b_ref)) / np.max(np.abs(b_ref))),
        )
        tx, _ = split_arrays(ds, train=False)
        ref_pred = ids[np.argmax(tx @ w_ref.T + b_ref, axis=1)]
        all_agree &= bool(np.array_equal(learner.predict(tx), ref_pred))
    _verdict(
        6,
        "streaming discriminant parameters match batch LDA and predictions agree on all points",
        worst_rel <= 1e-6 and all_agree,
        f"worst rel err={worst_rel:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: BSIL gradient check


def test_criterion_07_balanced_softmax_gradient_check():
    rng = np.random.default_rng(1007)
    worst_rel = 0.0
    for trial in range(10):
        n_classes = int(rng.integers(3, 7))
        # 9 to 17 unit rows: odd trials take them through the Gram matrix,
        # even trials through the weights
        dim = int(rng.integers(12, 16)) if trial % 2 else int(rng.integers(3, 5))
        n = int(rng.integers(9, 18))
        unit_x = _unit_rows(rng.standard_normal((n, dim)) * 2.0)
        w0 = rng.standard_normal((n_classes, dim)) * 1.5 + 0.2
        coef = rng.standard_normal((n, n_classes)) * 0.3
        own = 1.0 + rng.standard_normal(n_classes) * 0.3
        scale = float(rng.uniform(1.5, 10.0))
        class_idx = rng.integers(0, n_classes, n)
        log_counts = np.log(rng.integers(1, 30, n_classes).astype(float))
        rows = (_inner_products(unit_x), unit_x @ w0.T, np.sum(w0 * w0, axis=1))
        args = (*rows, class_idx, log_counts)
        _, (grad_coef, grad_own, grad_s) = _cosine_softmax_loss([coef, own, scale], *args)
        grad_w = grad_coef.T @ unit_x + grad_own[:, None] * w0

        # central differences along random parameter directions against the
        # weight-space gradient paired with each direction's weight move
        h = 1e-6
        numeric, analytic = [], []
        for _ in range(2 * (coef.size + own.size)):
            d_coef, d_own = rng.standard_normal(coef.shape), rng.standard_normal(own.shape)
            numeric.append(
                (
                    _cosine_softmax_loss([coef + h * d_coef, own + h * d_own, scale], *args)[0]
                    - _cosine_softmax_loss([coef - h * d_coef, own - h * d_own, scale], *args)[0]
                )
                / (2 * h)
            )
            analytic.append(float(np.sum(grad_w * (d_coef.T @ unit_x + d_own[:, None] * w0))))
        numeric, analytic = np.array(numeric), np.array(analytic)
        num_s = (
            _cosine_softmax_loss([coef, own, scale + h], *args)[0]
            - _cosine_softmax_loss([coef, own, scale - h], *args)[0]
        ) / (2 * h)
        worst_rel = max(
            worst_rel,
            float(np.max(np.abs(analytic - numeric))) / max(float(np.max(np.abs(numeric))), 1e-9),
            abs(grad_s - num_s) / max(abs(num_s), 1e-9),
        )

    unit_x = _unit_rows(rng.standard_normal((9, 5)))
    w0 = rng.standard_normal((4, 5)) + 0.4
    params = [np.zeros((9, 4)), np.ones(4), 3.0]
    args = (_inner_products(unit_x), unit_x @ w0.T, np.sum(w0 * w0, axis=1), rng.integers(0, 4, 9))
    balanced = _cosine_softmax_loss(params, *args, np.log(np.full(4, 21.0)))[0]
    plain = _cosine_softmax_loss(params, *args, np.zeros(4))[0]
    equal_counts_ok = abs(balanced - plain) <= 1e-12

    _verdict(
        7,
        "analytic gradients match central differences; equal counts reduce to plain softmax",
        worst_rel <= 1e-4 and equal_counts_ok,
        f"worst rel err={worst_rel:.2e}, |balanced-plain|={abs(balanced - plain):.2e}",
    )


# ---------------------------------------------------------------------------
# Criteria 8-11: the shipped default grid


@pytest.fixture(scope="module")
def default_grid():
    cfg = default_config()
    start = time.perf_counter()
    table = run_grid(cfg, jobs=1)
    elapsed = time.perf_counter() - start
    return cfg, table, elapsed


def test_criterion_08_qualitative_forgetting_anova(default_grid):
    cfg, table, elapsed = default_grid
    records = table.records
    grid_ok = len(records) == 216 and not table.failures and elapsed < 120.0

    anova = anova_partial_eta2(record_table(records), "forgetting ~ incr + train + data")
    incr_first = anova.ranked()[0].variable == "incr"

    mean_f = {
        incr: float(np.mean([r.forgetting for r in records if r.incr == incr]))
        for incr in ("dslda", "fetril", "ncm", "bsil")
    }
    frozen_lower = all(mean_f[k] < mean_f["bsil"] for k in ("dslda", "fetril", "ncm"))
    _verdict(
        8,
        "default grid: forgetting ANOVA ranks the incremental method first by partial eta^2, "
        "and frozen-representation learners forget less than the anchor-free head",
        grid_ok and incr_first and frozen_lower,
        f"{elapsed:.0f}s, eta2={[(r.variable, round(r.partial_eta_sq, 3)) for r in anova.ranked()]}, "
        f"meanF={ {k: round(v, 3) for k, v in mean_f.items()} }",
    )


def test_criterion_09_accuracy_correlation_sign(default_grid):
    from efcilab.metrics import metric_correlations

    _, table, _ = default_grid
    columns = np.array([(r.acc1, r.avg_acc, r.forgetting, r.accK) for r in table.records])
    corr = metric_correlations(columns).value("avg_acc", "accK")
    oracle = float(np.corrcoef([r.avg_acc for r in table.records],
                               [r.accK for r in table.records])[0, 1])
    _verdict(
        9,
        "corr(avg incremental accuracy, final accuracy) > 0 on the grid",
        corr > 0.0 and abs(corr - oracle) <= 1e-12,
        f"corr={corr:.3f}",
    )


def test_criterion_10_byte_identical_rerun(default_grid, tmp_path_factory):
    cfg, table, _ = default_grid
    base = tmp_path_factory.mktemp("determinism")
    first = write_results(table, base / "run1")
    # the rerun goes through the process pool, so this also checks that
    # --jobs leaves the results unchanged
    second_table = run_grid(cfg, jobs=2)
    second = write_results(second_table, base / "run2")
    results_identical = first.read_bytes() == second.read_bytes()

    rendered = []
    for sub in ("rep1", "rep2"):
        bundle = build_report_bundle(
            record_table(table.records), alpha=0.05, config_hash=table.config_hash
        )
        rendered.append(sorted(render_bundle(bundle, base / sub), key=lambda p: p.name))
    reports_identical = len(rendered[0]) == len(rendered[1]) > 0
    for a, b in zip(*rendered):
        reports_identical &= a.name == b.name and a.read_bytes() == b.read_bytes()

    _verdict(
        10,
        "rerunning the grid (at jobs=2) and the analysis reproduces byte-identical results and reports",
        results_identical and reports_identical,
    )


def test_criterion_11_qualitative_accuracy_anova(default_grid):
    _, table, _ = default_grid
    ranked = anova_partial_eta2(
        record_table(table.records), "avg_acc ~ incr + train + data"
    ).ranked()
    _verdict(
        11,
        "default grid: average-accuracy ANOVA ranks the initial training strategy first "
        "by partial eta^2",
        ranked[0].variable == "train",
        f"eta2={[(r.variable, round(r.partial_eta_sq, 3)) for r in ranked]}",
    )
