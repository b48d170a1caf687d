"""Dense linear algebra for the regression engine, on numpy's LAPACK.

Least squares goes through a thin Householder QR. A column whose R
diagonal is negligible depends on the columns before it, so a rank
deficient design raises with those columns named.
"""

from __future__ import annotations

from typing import NamedTuple

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


class QRFactors(NamedTuple):
    """Thin QR of an n x p matrix (n >= p): A = Q R."""

    q: np.ndarray  # (n, p) orthonormal columns
    r: np.ndarray  # (p, p) upper triangular


def qr_factor(matrix: np.ndarray) -> QRFactors:
    """Factor ``matrix`` (n x p, n >= p); raise on numerical rank deficiency.

    Column j is dependent when ``|R[j, j]|`` falls to eps * 8 * max(n, p)
    times the largest column norm.
    """
    a = np.asarray(matrix, dtype=float)
    n, p = a.shape
    if n < p:
        raise ValueError(f"need at least as many rows as columns, got {n} x {p}")
    q, r = np.linalg.qr(a)
    cutoff = np.finfo(float).eps * 8.0 * max(n, p) * np.linalg.norm(a, axis=0).max(initial=0.0)
    dependent = np.flatnonzero(np.abs(np.diag(r)) <= cutoff).tolist()
    if dependent:
        raise RankDeficientError(
            f"rank-deficient design: columns {dependent} are linearly dependent "
            f"on the preceding ones",
            column_indices=dependent,
        )
    return QRFactors(q, r)


def least_squares(matrix: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, QRFactors]:
    """Minimize ||y - A beta||_2 via the QR factorization."""
    qrf = qr_factor(matrix)
    return np.linalg.solve(qrf.r, qrf.q.T @ np.asarray(y, dtype=float)), qrf


def unscaled_covariance(qrf: QRFactors) -> np.ndarray:
    """(A^T A)^{-1} = R^{-1} R^{-T}."""
    r_inv = np.linalg.inv(qrf.r)
    return r_inv @ r_inv.T


def hat_diagonal(qrf: QRFactors) -> np.ndarray:
    """Diagonal of the projection matrix A (A^T A)^{-1} A^T = Q Q^T."""
    return np.einsum("ij,ij->i", qrf.q, qrf.q)
