"""QR least squares and Gram-matrix eigenvalues against independent oracles."""

import numpy as np
import pytest

from efcilab.stats.linalg import (
    RankDeficientError,
    hat_diagonal,
    least_squares,
    r_factor,
    unscaled_covariance,
)
from efcilab.stats.regression import gram_min_eigenvalue


def normal_equation_solve(x, y):
    """Independent oracle: solve the normal equations directly."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def char_poly_eigenvalues(sym):
    """Faddeev-LeVerrier characteristic polynomial + root finding."""
    m = sym.shape[0]
    coeffs = np.zeros(m + 1)
    coeffs[0] = 1.0
    work = np.zeros_like(sym)
    identity = np.eye(m)
    for k in range(1, m + 1):
        work = sym @ work + coeffs[k - 1] * identity
        coeffs[k] = -np.trace(sym @ work) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def gram_check(x):
    """The Gram check of raw columns x. The ``test_jacobi_*`` tests below keep
    their names from the cyclic Jacobi solver that ``eigvalsh`` replaced."""
    return gram_min_eigenvalue(x)


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(15, 200))
        p = int(rng.integers(2, 11))
        x = rng.standard_normal((n, p))
        x[:, 0] = 1.0
        y = rng.standard_normal(n)
        beta, _, ssr = least_squares(x, y)
        assert np.max(np.abs(beta - normal_equation_solve(x, y))) <= 1e-8
        resid = y - x @ beta
        assert abs(ssr - resid @ resid) <= 1e-10 * max(1.0, resid @ resid)


def test_r_factor_reproduces_gram():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 5))
    r = r_factor(x)
    assert r.shape == (5, 5)
    assert np.allclose(r.T @ r, x.T @ x, atol=1e-10)
    assert np.array_equal(r, np.triu(r))


def test_least_squares_on_r_columns_matches_the_tall_problem():
    # a bank's R columns stand for the tall [X | y]: same fit, same rank cutoff
    rng = np.random.default_rng(2)
    bank = rng.standard_normal((500, 8))
    bank[:, 6] = bank[:, 1] - 2.0 * bank[:, 3]  # dependent on columns 1 and 3
    r = r_factor(bank)
    for cols in ([0, 2, 5], [4, 1, 3], [7, 0]):
        beta, r_x, ssr = least_squares(r[:, cols], r[:, 6], rows=500)
        beta_ref, r_ref, ssr_ref = least_squares(bank[:, cols], bank[:, 6])
        assert np.allclose(beta, beta_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(np.abs(r_x), np.abs(r_ref), rtol=1e-12)
        assert ssr == pytest.approx(ssr_ref, rel=1e-12)
    with pytest.raises(RankDeficientError) as excinfo:
        least_squares(r[:, [0, 1, 3, 6]], r[:, 7], rows=500)
    assert excinfo.value.column_indices == [3]
    # a near dependence between the cutoffs at 5 and at 500 rows counts as
    # dependent, as it does in the tall problem: the cutoff scales with ``rows``
    near = bank[:, [1, 3]] @ [1.0, -2.0]
    residual = 60 * 8 * np.finfo(float).eps * np.linalg.norm(near) / np.sqrt(500)
    near += residual * rng.standard_normal(500)
    tall = np.column_stack([bank[:, [0, 1, 3]], near, bank[:, 7]])
    r = r_factor(tall)
    for matrix, y, rows in ((tall[:, :4], tall[:, 4], None), (r[:, :4], r[:, 4], 500)):
        with pytest.raises(RankDeficientError) as excinfo:
            least_squares(matrix, y, rows=rows)
        assert excinfo.value.column_indices == [3]
    least_squares(r[:, :4], r[:, 4])  # at the R's own 5 rows the column passes


def test_unscaled_covariance_matches_inverse_gram():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 6))
    _, r, _ = least_squares(x, rng.standard_normal(40))
    assert np.allclose(unscaled_covariance(r), np.linalg.inv(x.T @ x), atol=1e-10)


def test_hat_diagonal_sums_to_p():
    rng = np.random.default_rng(4)
    for p in (2, 5, 9):
        x = rng.standard_normal((50, p))
        h = hat_diagonal(x, r_factor(x))
        assert abs(h.sum() - p) <= 1e-10
        assert np.all(h >= -1e-12) and np.all(h <= 1 + 1e-12)


def test_duplicate_column_raises_rank_error():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((25, 4))
    x[:, 3] = x[:, 1]
    with pytest.raises(RankDeficientError) as excinfo:
        least_squares(x, rng.standard_normal(25))
    assert excinfo.value.column_indices == [3]


def test_wide_matrix_rejected():
    with pytest.raises(ValueError, match="rows as columns"):
        least_squares(np.ones((3, 5)), np.ones(3))


def test_jacobi_against_characteristic_polynomial():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.standard_normal((20, 5))
        check = gram_check(x)
        ref = char_poly_eigenvalues(x.T @ x)
        scale = max(abs(ref).max(), 1e-12)
        assert abs(check.min_eigenvalue - ref[0]) / scale <= 1e-8
        assert abs(check.max_eigenvalue - ref[-1]) / scale <= 1e-8


def test_jacobi_against_shifted_power_iteration():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 4))
    gram = x.T @ x
    check = gram_check(x)

    def power_dominant(mat, iters=20000):
        v = np.ones(mat.shape[0]) / np.sqrt(mat.shape[0])
        for _ in range(iters):
            w = mat @ v
            v = w / np.linalg.norm(w)
        return float(v @ mat @ v)

    top = power_dominant(gram)
    # shift to flip the spectrum: dominant of (top*I - A) is top - lambda_min
    gap = power_dominant(top * np.eye(4) - gram)
    assert abs(check.max_eigenvalue - top) / top <= 1e-6
    assert abs(check.min_eigenvalue - (top - gap)) / top <= 1e-6


def test_jacobi_orthonormal_columns_give_unit_eigenvalues():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    check = gram_check(q)
    assert check.min_eigenvalue == pytest.approx(1.0, abs=1e-10)
    assert check.max_eigenvalue == pytest.approx(1.0, abs=1e-10)


def test_jacobi_duplicated_column_gives_zero_eigenvalue():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 3))
    x = np.column_stack([x, x[:, 0]])
    check = gram_check(x)
    assert abs(check.min_eigenvalue) <= 1e-10 * abs(check.max_eigenvalue)


def test_jacobi_one_by_one():
    check = gram_check(np.array([[1.5], [-1.0], [0.5]]))
    assert check.min_eigenvalue == check.max_eigenvalue == 3.5
