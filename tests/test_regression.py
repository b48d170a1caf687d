"""OLS fitting, inference, diagnostics, and the Gram collinearity check."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from _factories import design_from_arrays, make_table
from efcilab.report import diagnostic_tables
from efcilab.stats.design import encode_design
from efcilab.stats.linalg import RankDeficientError, hat_diagonal, r_factor
from efcilab.stats.regression import diagnostics, gram_min_eigenvalue, ols_fit

mp.mp.dps = 40


def oracle_t_pvalue(t, df):
    x = mp.mpf(df) / (df + mp.mpf(t) ** 2)
    return float(mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, x, regularized=True))


def test_exact_line():
    x = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
    design = design_from_arrays(x, [1.0, 3.0, 5.0])
    fit = ols_fit(design)
    assert np.allclose(fit.beta, [1.0, 2.0], atol=1e-12)
    assert fit.r_squared == 1.0
    assert np.allclose(design.y - design.x @ fit.beta, 0.0, atol=1e-12)


def test_intercept_only_model():
    y = np.array([2.0, 4.0, 9.0, 1.0])
    fit = ols_fit(design_from_arrays(np.ones((4, 1)), y, ["intercept"]))
    assert fit.beta[0] == pytest.approx(y.mean(), abs=1e-12)
    assert fit.r_squared == 0.0
    assert math.isnan(fit.f_stat)


def test_random_problems_match_normal_equations_and_oracle_pvalues():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(15, 200))
        p = int(rng.integers(2, 11))
        x = rng.standard_normal((n, p))
        x[:, 0] = 1.0
        y = x @ rng.standard_normal(p) + rng.standard_normal(n)
        fit = ols_fit(design_from_arrays(x, y))
        beta_ref = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.max(np.abs(fit.beta - beta_ref)) <= 1e-8
        assert np.max(np.abs(x.T @ (y - x @ fit.beta))) <= 1e-8
        resid = y - x @ beta_ref
        sigma2 = (resid @ resid) / (n - p)
        se = np.sqrt(np.diag(sigma2 * np.linalg.inv(x.T @ x)))
        for j in range(p):
            t = beta_ref[j] / se[j]
            assert abs(fit.p_values[j] - oracle_t_pvalue(t, n - p)) <= 1e-6


def test_r_squared_never_decreases_with_extra_regressor():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = 60
        x = rng.standard_normal((n, 4))
        x[:, 0] = 1.0
        y = rng.standard_normal(n)
        small = ols_fit(design_from_arrays(x[:, :3], y, ["intercept", "x1", "x2"]))
        big = ols_fit(design_from_arrays(x, y))
        assert big.r_squared >= small.r_squared - 1e-12


def test_aic_definition():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 3))
    x[:, 0] = 1.0
    y = rng.standard_normal(40)
    fit = ols_fit(design_from_arrays(x, y))
    expected = 2 * (3 + 1) + 40 * (math.log(2 * math.pi * fit.ssr / 40) + 1)
    assert fit.aic == pytest.approx(expected, rel=1e-12)


def test_collinear_columns_named():
    design = encode_design(make_table(40, seed=5), "avg_acc ~ acc1 + n_mean")
    design.x[:, 2] = design.x[:, 1] * 3.0
    with pytest.raises(RankDeficientError, match=r"collinear design columns: \['n_mean'\]"):
        ols_fit(design)


def test_perfect_fit_pvalues_degenerate():
    x = np.column_stack([np.ones(5), np.arange(5.0)])
    y = 2.0 + 0.0 * np.arange(5.0)
    fit = ols_fit(design_from_arrays(x, y))
    assert fit.p_values[0] == 0.0  # nonzero coefficient, exact fit
    assert fit.p_values[1] == 1.0  # zero coefficient


# ---------------------------------------------------------------------------
# Diagnostics


def test_perfect_fit_residual_points_all_zero():
    x = np.column_stack([np.ones(6), np.arange(6.0)])
    y = 1.0 + 2.0 * np.arange(6.0)
    design = design_from_arrays(x, y)
    bundle = diagnostics(ols_fit(design), design)
    assert np.allclose(bundle.std_residuals, 0.0)
    tables = diagnostic_tables(dataclasses.asdict(bundle))
    assert np.allclose(tables["qq"].y, 0.0)
    assert np.allclose(tables["scale_location"].y, 0.0)


def test_hat_diagonal_trace_is_p():
    design = encode_design(make_table(50, seed=6), "avg_acc ~ train + acc1")
    fit = ols_fit(design)
    assert diagnostics(fit, design).leverage.sum() == pytest.approx(fit.n_params, abs=1e-10)


def test_hat_diag_matches_projection_matrix():
    design = encode_design(make_table(60, seed=6), "avg_acc ~ train + acc1")
    leverage = diagnostics(ols_fit(design), design).leverage
    x = design.x
    projection = x @ np.linalg.inv(x.T @ x) @ x.T
    assert np.max(np.abs(leverage - np.diag(projection))) <= 1e-12


def test_fit_is_independent_of_design_memory_layout():
    table = make_table(
        2000, seed=12, train_effects={"dino": 0.2}, incr_effects={"fetril": 0.1}, acc1_coef=0.3
    )
    design = encode_design(table, "avg_acc ~ acc1 + incr + train + data")
    assert design.x.flags.f_contiguous
    c_order = dataclasses.replace(design, x=np.ascontiguousarray(design.x))
    reference = ols_fit(design)
    fit = ols_fit(c_order)
    assert np.array_equal(fit.beta, reference.beta)
    assert fit.ssr == reference.ssr
    assert np.array_equal(fit.cov_unscaled, reference.cov_unscaled)


def test_qq_slope_near_one_for_normal_residuals():
    rng = np.random.default_rng(7)
    n = 2000
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = 0.5 + 1.5 * x[:, 1] + rng.standard_normal(n)
    design = design_from_arrays(x, y)
    bundle = diagnostics(ols_fit(design), design)
    qq = diagnostic_tables(dataclasses.asdict(bundle))["qq"]
    slope = np.polyfit(qq.x, qq.y, 1)[0]
    assert 0.95 <= slope <= 1.05


def test_diagnostics_shapes_and_leverage_pairing():
    design = encode_design(make_table(30, seed=8), "avg_acc ~ acc1")
    fit = ols_fit(design)
    bundle = diagnostics(fit, design)
    n = fit.n_obs
    for arr in (bundle.fitted, bundle.leverage, bundle.std_residuals):
        assert arr.shape == (n,)
    assert np.allclose(bundle.leverage, hat_diagonal(design.x, r_factor(design.x)))
    # the report's point sets: sorted residuals against ascending normal
    # quantiles, sqrt|residual| against fitted values, residual against leverage
    tables = {
        k: np.column_stack([t.x, t.y])
        for k, t in diagnostic_tables(dataclasses.asdict(bundle)).items()
    }
    assert all(points.shape == (n, 2) for points in tables.values())
    assert np.all(np.diff(tables["qq"][:, 0]) > 0)
    assert np.array_equal(tables["qq"][:, 1], np.sort(bundle.std_residuals))
    assert np.array_equal(tables["scale_location"][:, 0], bundle.fitted)
    assert np.allclose(tables["scale_location"][:, 1], np.sqrt(np.abs(bundle.std_residuals)))
    assert np.array_equal(tables["leverage"], np.column_stack([bundle.leverage, bundle.std_residuals]))


def test_standardized_residuals_use_leverage():
    design = encode_design(make_table(30, seed=9), "avg_acc ~ acc1")
    fit = ols_fit(design)
    residuals = design.y - design.x @ fit.beta
    leverage = hat_diagonal(design.x, r_factor(design.x))
    expected = residuals / (math.sqrt(fit.sigma2) * np.sqrt(1 - leverage))
    assert np.allclose(diagnostics(fit, design).std_residuals, expected)


# ---------------------------------------------------------------------------
# Gram check


def test_gram_orthonormal_columns():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    design = design_from_arrays(q, rng.standard_normal(30), ["intercept", "a", "b", "c"])
    check = gram_min_eigenvalue(design.x)
    assert check.min_eigenvalue == pytest.approx(1.0, abs=1e-10)
    assert not check.collinear


def test_gram_duplicate_column_flags_collinearity():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((25, 3))
    x = np.column_stack([base, base[:, 1]])
    design = design_from_arrays(x, rng.standard_normal(25), ["intercept", "a", "b", "b2"])
    check = gram_min_eigenvalue(design.x)
    assert abs(check.min_eigenvalue) <= 1e-10 * check.max_eigenvalue
    assert check.collinear
