"""Dense linear algebra for the regression engine.

Householder QR with column pivoting is the primary least-squares path;
the pivoting makes it rank-revealing so collinear columns can be named.
A cyclic Jacobi sweep provides symmetric eigenvalues for the Gram-matrix
collinearity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RankDeficientError(ValueError):
    """Design matrix is numerically rank deficient.

    ``column_indices`` holds the (original) indices of the dependent
    columns identified by the pivoted factorization.
    """

    def __init__(self, message: str, column_indices: list[int]):
        super().__init__(message)
        self.column_indices = column_indices


@dataclass
class QRFactors:
    """Column-pivoted Householder QR of an n x p matrix (n >= p)."""

    reflectors: list[np.ndarray]  # reflector j acts on rows j..n-1
    r: np.ndarray  # (p, p) upper triangular
    piv: np.ndarray  # column permutation: A[:, piv] = Q R
    n: int
    p: int

    def apply_qt(self, y: np.ndarray) -> np.ndarray:
        """Q^T y, full length n."""
        out = y.astype(float).copy()
        for j, v in enumerate(self.reflectors):
            seg = out[j:]
            seg -= 2.0 * v * (v @ seg)
        return out

    def thin_q(self) -> np.ndarray:
        """First p columns of Q (n x p)."""
        q = np.zeros((self.n, self.p))
        for k in range(self.p):
            e = np.zeros(self.n)
            e[k] = 1.0
            for j in range(len(self.reflectors) - 1, -1, -1):
                v = self.reflectors[j]
                seg = e[j:]
                seg -= 2.0 * v * (v @ seg)
            q[:, k] = e
        return q


def qr_factor(matrix: np.ndarray, rank_tol: float | None = None) -> QRFactors:
    """Factor ``matrix`` (n x p, n >= p); raise on numerical rank deficiency.

    The working copy is C-ordered whatever the input's layout, so a column
    subset and the same columns encoded directly factor bit for bit alike.
    """
    a = np.array(matrix, dtype=float, order="C")
    n, p = a.shape
    if n < p:
        raise ValueError(f"need at least as many rows as columns, got {n} x {p}")
    piv = np.arange(p)
    norms0 = np.linalg.norm(a, axis=0)
    scale = float(norms0.max()) if p else 0.0
    if rank_tol is None:
        rank_tol = np.finfo(float).eps * max(n, p) * 8.0
    cutoff = scale * rank_tol

    reflectors: list[np.ndarray] = []
    for j in range(p):
        rem_norms = np.linalg.norm(a[j:, j:], axis=0)
        best = int(np.argmax(rem_norms)) + j
        if rem_norms[best - j] <= cutoff:
            dependent = sorted(int(piv[k]) for k in range(j, p))
            raise RankDeficientError(
                f"rank-deficient design: columns {dependent} are linearly dependent "
                f"on the preceding ones",
                column_indices=dependent,
            )
        if best != j:
            a[:, [j, best]] = a[:, [best, j]]
            piv[[j, best]] = piv[[best, j]]
        x = a[j:, j]
        alpha = -math.copysign(np.linalg.norm(x), x[0] if x[0] != 0 else 1.0)
        v = x.copy()
        v[0] -= alpha
        v_norm = np.linalg.norm(v)
        if v_norm > 0:
            v /= v_norm
            a[j:, j:] -= 2.0 * np.outer(v, v @ a[j:, j:])
        else:
            v = np.zeros_like(v)
        a[j, j] = alpha if v_norm > 0 else a[j, j]
        reflectors.append(v)
    r = np.triu(a[:p, :p])
    return QRFactors(reflectors=reflectors, r=r, piv=piv, n=n, p=p)


def solve_upper_triangular(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Back substitution for R x = b with R upper triangular."""
    p = r.shape[0]
    x = np.zeros(p)
    for i in range(p - 1, -1, -1):
        x[i] = (b[i] - r[i, i + 1 :] @ x[i + 1 :]) / r[i, i]
    return x


def least_squares(matrix: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, QRFactors]:
    """Minimize ||y - A beta||_2 via the pivoted QR factorization."""
    qrf = qr_factor(matrix)
    qty = qrf.apply_qt(np.asarray(y, dtype=float))
    beta_piv = solve_upper_triangular(qrf.r, qty[: qrf.p])
    beta = np.zeros(qrf.p)
    beta[qrf.piv] = beta_piv
    return beta, qrf


def unscaled_covariance(qrf: QRFactors) -> np.ndarray:
    """(A^T A)^{-1} from the R factor, permuted back to original columns."""
    p = qrf.p
    r_inv = np.zeros((p, p))
    for k in range(p):
        e = np.zeros(p)
        e[k] = 1.0
        r_inv[:, k] = solve_upper_triangular(qrf.r, e)
    cov_piv = r_inv @ r_inv.T
    cov = np.zeros((p, p))
    cov[np.ix_(qrf.piv, qrf.piv)] = cov_piv
    return cov


def hat_diagonal(qrf: QRFactors) -> np.ndarray:
    """Diagonal of the projection matrix A (A^T A)^{-1} A^T."""
    q = qrf.thin_q()
    return np.sum(q * q, axis=1)


def jacobi_eigenvalues(sym: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius mass drops below ``tol``
    relative to the matrix norm. Returns eigenvalues sorted ascending.
    """
    a = np.array(sym, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, rtol=0, atol=1e-10 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    m = a.shape[0]
    if m == 1:
        return a.diagonal().copy()

    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(m)
    for _ in range(max_sweeps):
        off = math.sqrt(max(float(np.sum(a * a) - np.sum(a.diagonal() ** 2)), 0.0))
        if off <= tol * norm:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if abs(apq) <= (tol * norm) / (m * m):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
                a[p, q] = a[q, p] = 0.0
    return np.sort(a.diagonal())
