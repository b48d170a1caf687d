"""Distribution functions backing the regression inference.

Student-t and F tail probabilities reduce to the regularized incomplete
beta function, evaluated by a continued fraction (modified Lentz), good
to ~1e-13 absolute: ample for p-values.
"""

from __future__ import annotations

import math

_CF_MAX_ITER = 500
_CF_EPS = 1e-15
_CF_TINY = 1e-300


def _log_gamma_diff(hi: float, lo: float) -> float:
    """ln Gamma(hi + lo) - ln Gamma(hi) for hi >= 1e4, lo >= 0.

    The direct difference cancels catastrophically for large hi; the
    Stirling expansion keeps absolute error near machine precision.
    """
    return (
        lo * math.log(hi)
        + (hi + lo - 0.5) * math.log1p(lo / hi)
        - lo
        + (1.0 / (12.0 * (hi + lo)) - 1.0 / (12.0 * hi))
    )


def _log_beta(a: float, b: float) -> float:
    lo, hi = (a, b) if a <= b else (b, a)
    if hi >= 1e4:
        return math.lgamma(lo) - _log_gamma_diff(hi, lo)
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the fraction's even then odd coefficient: one Lentz half-step each
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x < 0 or x > 1:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_pvalue(t: float, df: int) -> float:
    """Two-sided p-value of a Student t statistic."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    return f_pvalue(t * t, 1, df)  # t with df degrees of freedom squares to F(1, df)


def f_pvalue(f: float, df1: int, df2: int) -> float:
    """Upper-tail p-value of an F statistic."""
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got df1={df1}, df2={df2}")
    if math.isnan(f):
        raise ValueError("F statistic is NaN")
    if f < 0:
        raise ValueError(f"F statistic must be >= 0, got {f}")
    if math.isinf(f):
        return 0.0
    # pick the branch whose incomplete-beta value is not near 1, so that a
    # small p-value is never formed by cancellation against 1
    a, b = df2 / 2.0, df1 / 2.0
    x = df2 / (df2 + df1 * f)
    if x < (a + 1.0) / (a + b + 2.0):
        return regularized_incomplete_beta(a, b, x)
    return 1.0 - regularized_incomplete_beta(b, a, df1 * f / (df2 + df1 * f))

