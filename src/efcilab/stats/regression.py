"""Ordinary least squares with inference, diagnostics, and a Gram check.

A fit holds estimates only; ``diagnostics(fit, design)`` computes the
per-row fitted values, residuals and leverages from the fit's design.
A fit reads ``[X | y]`` only through R columns (any ``Q^T [X | y]`` with Q
orthonormal): a table's column bank supplies them, or a design's own
``[X | y]`` is factored once. One small QR of those columns then gives
the coefficients, R and the residual sum of squares (its last diagonal
entry, squared). The numerics are numpy's LAPACK: the leverages are the
row sums of ``(X R^-1)^2`` and the Gram check is ``eigvalsh(R^T R)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .distributions import f_pvalue, student_t_pvalue
from .linalg import RankDeficientError, hat_diagonal, least_squares, r_factor, unscaled_covariance


@dataclass
class RegressionFit:
    """OLS estimates with Student-t inference and fit statistics."""

    formula: str
    column_labels: list[str]
    term_columns: dict[str, list[int]]  # term -> its indices into beta ("intercept" -> [0])
    beta: np.ndarray
    se: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r: np.ndarray  # R of the design's thin QR (X = QR), so X^T X = R^T R
    cov_unscaled: np.ndarray  # (X^T X)^{-1}; sigma2 times it is the coefficient covariance
    n_obs: int
    n_params: int
    df_resid: int
    ssr: float
    sigma2: float
    r_squared: float
    aic: float
    f_stat: float
    f_pvalue: float

    def coef(self, label: str) -> tuple[float, float, float, float]:
        """(estimate, se, t, p) for one column label."""
        try:
            i = self.column_labels.index(label)
        except ValueError:
            raise KeyError(
                f"no coefficient {label!r}; columns: {self.column_labels}"
            ) from None
        return (
            float(self.beta[i]),
            float(self.se[i]),
            float(self.t_stats[i]),
            float(self.p_values[i]),
        )

    def t_test(self, estimate: float, se: float) -> tuple[float, float]:
        """Two-sided Student-t statistic and p-value of ``estimate`` against zero.

        An exact fit (``se == 0``) degenerates the test to "is the estimate
        zero", judged against 1e-12 times the largest coefficient (at least 1).
        """
        if se > 0:
            t = estimate / se
            return t, student_t_pvalue(t, self.df_resid)
        beta_tol = 1e-12 * max(1.0, float(np.max(np.abs(self.beta))))
        big = abs(estimate) > beta_tol
        return (math.copysign(math.inf, estimate) if big else 0.0), (0.0 if big else 1.0)


def exact_fit_tolerance(y: np.ndarray) -> float:
    """Residual sum of squares at or below which a fit of ``y`` counts as exact."""
    sst = float(np.sum((y - y.mean()) ** 2))
    return 1e-24 * max(sst, float(y @ y), 1e-300)


def ols_fit(design: DesignMatrix, r_xy: np.ndarray | None = None) -> RegressionFit:
    """Fit by QR; raise naming the columns that depend on earlier ones.

    ``r_xy`` holds the R columns of the design's ``[X | y]``, as
    ``ColumnBank.columns`` gives them; without it ``[X | y]`` is factored here.
    Both go through the same small least-squares problem.
    """
    y = design.y
    n, p = design.n, design.p
    if n <= p:
        raise RankDeficientError(
            f"underdetermined design: {n} rows for {p} parameters", list(range(p))
        )
    if r_xy is None:
        r_xy = r_factor(np.column_stack([design.x, y]))
    try:
        beta, r, ssr = least_squares(r_xy[:, :p], r_xy[:, p], rows=n)
    except RankDeficientError as exc:
        names = [design.column_labels[i] for i in exc.column_indices]
        raise RankDeficientError(
            f"collinear design columns: {names}", exc.column_indices
        ) from None

    sst = float(np.sum((y - y.mean()) ** 2))
    if ssr <= exact_fit_tolerance(y):
        ssr = 0.0  # numerically exact fit: keep the degenerate case consistent
    df_resid = n - p
    sigma2 = ssr / df_resid

    cov_unscaled = unscaled_covariance(r)
    se = np.sqrt(np.clip(sigma2 * np.diag(cov_unscaled), 0.0, None))

    if sst > 0:
        r_squared = min(max(1.0 - ssr / sst, 0.0), 1.0)
    else:
        r_squared = 1.0 if ssr <= 1e-300 else 0.0

    aic = -math.inf if ssr <= 0 else 2.0 * (p + 1) + n * (math.log(2.0 * math.pi * ssr / n) + 1.0)

    if p > 1 and sst > 0:
        if ssr == 0.0:
            f_stat, f_p = math.inf, 0.0
        else:
            f_stat = ((sst - ssr) / (p - 1)) / (ssr / df_resid)
            f_stat = max(f_stat, 0.0)
            f_p = f_pvalue(f_stat, p - 1, df_resid)
    else:
        f_stat, f_p = math.nan, math.nan

    fit = RegressionFit(
        formula=str(design.formula),
        column_labels=list(design.column_labels),
        term_columns=dict(design.term_columns),
        beta=beta,
        se=se,
        t_stats=np.empty(p),
        p_values=np.empty(p),
        r=r,
        cov_unscaled=cov_unscaled,
        n_obs=n,
        n_params=p,
        df_resid=df_resid,
        ssr=ssr,
        sigma2=sigma2,
        r_squared=r_squared,
        aic=aic,
        f_stat=f_stat,
        f_pvalue=f_p,
    )
    for i in range(p):
        fit.t_stats[i], fit.p_values[i] = fit.t_test(float(beta[i]), float(se[i]))
    return fit


@dataclass
class DiagnosticsBundle:
    """Per-row residual plot data, in row order; the report derives the Q-Q
    and scale-location ordinates from ``std_residuals``."""

    fitted: np.ndarray
    std_residuals: np.ndarray
    leverage: np.ndarray


def diagnostics(fit: RegressionFit, design: DesignMatrix) -> DiagnosticsBundle:
    """Fitted values, standardized residuals and leverages of ``fit`` on ``design``.

    Residuals are internally studentized (zero when the fit is exact); the
    leverages are the diagonal of X (X^T X)^{-1} X^T, from X and the fit's R.
    """
    fitted = design.x @ fit.beta
    residuals = design.y - fitted
    leverage = hat_diagonal(design.x, fit.r)
    sigma = math.sqrt(fit.sigma2)
    if sigma == 0.0:
        std_resid = np.zeros_like(residuals)
    else:
        std_resid = residuals / (sigma * np.sqrt(np.clip(1.0 - leverage, 1e-12, None)))
    return DiagnosticsBundle(fitted=fitted, std_residuals=std_resid, leverage=leverage)


@dataclass(frozen=True)
class GramDiagnostic:
    """Smallest Gram-matrix eigenvalue with a collinearity verdict."""

    min_eigenvalue: float
    max_eigenvalue: float
    threshold: float
    collinear: bool


_GRAM_REL_THRESHOLD = 1e-8


def gram_min_eigenvalue(r: np.ndarray) -> GramDiagnostic:
    """Smallest eigenvalue of the Gram matrix X^T X = R^T R via ``np.linalg.eigvalsh``,
    from the design's R factor (a fit's ``r``) or from X itself.

    Flags collinearity when the smallest eigenvalue falls below
    ``_GRAM_REL_THRESHOLD`` times the Gram matrix norm (largest eigenvalue).
    """
    eigs = np.linalg.eigvalsh(r.T @ r)
    smallest = float(eigs[0])
    largest = float(eigs[-1])
    threshold = _GRAM_REL_THRESHOLD * abs(largest)
    return GramDiagnostic(
        min_eigenvalue=smallest,
        max_eigenvalue=largest,
        threshold=threshold,
        collinear=smallest < threshold,
    )
