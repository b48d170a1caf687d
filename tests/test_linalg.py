"""QR least squares and Gram-matrix eigenvalues against independent oracles."""

import numpy as np
import pytest

from _factories import design_from_arrays
from efcilab.stats.linalg import (
    RankDeficientError,
    hat_diagonal,
    least_squares,
    qr_factor,
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
    return gram_min_eigenvalue(design_from_arrays(x, np.zeros(x.shape[0])))


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(15, 200))
        p = int(rng.integers(2, 11))
        x = rng.standard_normal((n, p))
        x[:, 0] = 1.0
        y = rng.standard_normal(n)
        beta, _ = least_squares(x, y)
        assert np.max(np.abs(beta - normal_equation_solve(x, y))) <= 1e-8


def test_qr_reconstructs_input():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 5))
    q, r = qr_factor(x)
    assert np.allclose(q @ r, x, atol=1e-10)
    assert np.allclose(q.T @ q, np.eye(5), atol=1e-12)
    assert np.array_equal(r, np.triu(r))


def test_unscaled_covariance_matches_inverse_gram():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 6))
    _, qrf = least_squares(x, rng.standard_normal(40))
    assert np.allclose(unscaled_covariance(qrf), np.linalg.inv(x.T @ x), atol=1e-10)


def test_hat_diagonal_sums_to_p():
    rng = np.random.default_rng(4)
    for p in (2, 5, 9):
        h = hat_diagonal(qr_factor(rng.standard_normal((50, p))))
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
        qr_factor(np.ones((3, 5)))


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
