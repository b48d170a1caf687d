"""Dense linear algebra for the regression engine, on numpy's LAPACK.

Least squares takes one R-only QR of ``[X | y]`` (Björck, 1996, §2.4);
only the leverages need Q (``qr_factor``). A column whose R diagonal is
negligible depends on the columns before it, so a rank deficient design
raises with those columns named.
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


def _check_rank(a: np.ndarray, r: np.ndarray) -> None:
    """Raise unless ``a`` (n x p) is tall and each leading diagonal entry of its R
    exceeds eps * 8 * max(n, p) times the largest column norm of ``a``."""
    n, p = a.shape
    if n < p:
        raise ValueError(f"need at least as many rows as columns, got {n} x {p}")
    cutoff = np.finfo(float).eps * 8.0 * max(n, p) * np.linalg.norm(a, axis=0).max(initial=0.0)
    dependent = np.flatnonzero(np.abs(np.diag(r)[:p]) <= cutoff).tolist()
    if dependent:
        raise RankDeficientError(
            f"rank-deficient design: columns {dependent} are linearly dependent "
            f"on the preceding ones",
            column_indices=dependent,
        )


def qr_factor(matrix: np.ndarray) -> QRFactors:
    """Thin QR of ``matrix`` (n x p, n >= p); raise on numerical rank deficiency."""
    a = np.asarray(matrix, dtype=float)
    q, r = np.linalg.qr(a)
    _check_rank(a, r)
    return QRFactors(q, r)


def least_squares(matrix: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||y - A beta||_2; return beta and A's R factor (p x p).

    The R of ``[A | y]`` holds A's R as its leading block and Q^T y in its
    last column, so beta solves one triangular system.
    """
    a = np.asarray(matrix, dtype=float)
    p = a.shape[1]
    r = np.linalg.qr(np.column_stack([a, y]), mode="r")
    _check_rank(a, r)
    return np.linalg.solve(r[:p, :p], r[:p, p]), r[:p, :p]


def unscaled_covariance(r: np.ndarray) -> np.ndarray:
    """(A^T A)^{-1} = R^{-1} R^{-T} from A's R factor."""
    r_inv = np.linalg.inv(r)
    return r_inv @ r_inv.T


def hat_diagonal(qrf: QRFactors) -> np.ndarray:
    """Diagonal of the projection matrix A (A^T A)^{-1} A^T = Q Q^T."""
    return np.einsum("ij,ij->i", qrf.q, qrf.q)
