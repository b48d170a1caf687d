"""Dense linear algebra for the regression engine, on numpy's LAPACK.

Every factorisation is R-only (Björck, 1996, §2.4): a table factors its
column bank once (``r_factor``), and each fit is a small QR of R columns,
which have the Gram matrix and column norms of ``[X | y]``. The
leverages come from X and R, never from Q. A column whose R diagonal is
negligible depends on the columns before it, so a rank deficient design
raises with those columns named.
"""

from __future__ import annotations

import numpy as np


class RankDeficientError(ValueError):
    """Design matrix is numerically rank deficient.

    ``column_indices`` holds the indices of the columns that depend on the
    columns before them.
    """

    def __init__(self, message: str, column_indices: list[int]):
        super().__init__(message)
        self.column_indices = column_indices

    def __reduce__(self):  # copies and pickles keep the columns
        return type(self), (self.args[0], self.column_indices)


def _check_rank(a: np.ndarray, r: np.ndarray, rows: int) -> None:
    """Raise unless ``a`` (p columns, standing for ``rows`` rows) has ``rows >= p``
    and each leading diagonal entry of its R exceeds eps * 8 * max(rows, p) times
    the largest column norm of ``a``."""
    p = a.shape[1]
    if rows < p:
        raise ValueError(f"need at least as many rows as columns, got {rows} x {p}")
    cutoff = np.finfo(float).eps * 8.0 * max(rows, p) * np.linalg.norm(a, axis=0).max(initial=0.0)
    dependent = np.flatnonzero(np.abs(np.diag(r)[:p]) <= cutoff).tolist()
    if dependent:
        raise RankDeficientError(
            f"rank-deficient design: columns {dependent} are linearly dependent "
            f"on the preceding ones",
            column_indices=dependent,
        )


def r_factor(matrix: np.ndarray) -> np.ndarray:
    """R of an R-only QR of ``matrix`` = QR: R^T R = A^T A, and each column of R
    is Q^T times the column of A, so any column subset of A has its Gram matrix."""
    return np.linalg.qr(np.asarray(matrix, dtype=float), mode="r")


def least_squares(
    matrix: np.ndarray, y: np.ndarray, rows: int | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize ||y - A beta||_2; return beta, A's R factor (p x p) and the
    residual sum of squares.

    ``[A | y]`` may be the tall matrix itself or any ``Q^T [A | y]`` with Q's
    columns orthonormal, such as columns of a bank's R; ``rows`` is then the
    tall matrix's row count, which the rank cutoff scales with. The R of
    ``[A | y]`` holds A's R as its leading block, Q^T y in its last column and
    the residual norm as its last diagonal entry, so beta solves one
    triangular system.
    """
    a = np.asarray(matrix, dtype=float)
    p = a.shape[1]
    rows = a.shape[0] if rows is None else rows
    r = r_factor(np.column_stack([a, y]))
    _check_rank(a, r, rows)
    # y in the span of A's columns leaves no row for a residual when A is square
    ssr = float(r[p, p] ** 2) if r.shape[0] > p else 0.0
    return np.linalg.solve(r[:p, :p], r[:p, p]), r[:p, :p], ssr


def unscaled_covariance(r: np.ndarray) -> np.ndarray:
    """(A^T A)^{-1} = R^{-1} R^{-T} from A's R factor."""
    r_inv = np.linalg.inv(r)
    return r_inv @ r_inv.T


def hat_diagonal(matrix: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Diagonal of the projection matrix A (A^T A)^{-1} A^T from A and its R
    factor: the row sums of (A R^{-1})^2, as A R^{-1} has orthonormal columns."""
    q = np.asarray(matrix, dtype=float) @ np.linalg.inv(r)
    return np.einsum("ij,ij->i", q, q)
