"""Distribution functions against a high-precision mpmath oracle."""

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efcilab.stats.distributions import (
    f_pvalue,
    regularized_incomplete_beta,
    student_t_pvalue,
)

mp.mp.dps = 40


def oracle_beta(a, b, x):
    return float(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True))


def oracle_t_pvalue(t, df):
    x = mp.mpf(df) / (df + mp.mpf(t) ** 2)
    return float(mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, x, regularized=True))


def test_incomplete_beta_against_oracle():
    import random

    random.seed(7)
    worst = 0.0
    for _ in range(250):
        a = 10 ** random.uniform(-1, 3)
        b = 10 ** random.uniform(-1, 2)
        x = random.random()
        worst = max(worst, abs(regularized_incomplete_beta(a, b, x) - oracle_beta(a, b, x)))
    assert worst <= 1e-10


def test_incomplete_beta_boundaries_and_domain():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 2.0, 1.5)


def test_t_pvalue_symmetry_and_zero():
    assert student_t_pvalue(0.0, 10) == 1.0
    for t in (0.7, 2.1, 9.0):
        assert student_t_pvalue(t, 7) == pytest.approx(student_t_pvalue(-t, 7), abs=1e-15)


def test_t_pvalue_normal_limit():
    # huge df: the t distribution collapses onto the normal
    assert student_t_pvalue(1.959964, 10**6) == pytest.approx(0.05, abs=2e-4)


def test_t_pvalue_against_oracle_grid():
    worst = 0.0
    for t in (1e-4, 0.05, 0.5, 1.0, 1.96, 3.7, 12.0):
        for df in (1, 2, 3, 10, 50, 400, 10**5):
            worst = max(worst, abs(student_t_pvalue(t, df) - oracle_t_pvalue(t, df)))
    assert worst <= 1e-10


def test_t_pvalue_domain_and_extremes():
    with pytest.raises(ValueError):
        student_t_pvalue(1.0, 0)
    with pytest.raises(ValueError):
        student_t_pvalue(float("nan"), 5)
    assert student_t_pvalue(float("inf"), 5) == 0.0


def test_f_pvalue_against_oracle_grid():
    worst = 0.0
    for f in (1e-3, 0.3, 1.0, 2.5, 9.0, 120.0):
        for df1 in (1, 2, 6, 12):
            for df2 in (1, 4, 30, 500):
                x = mp.mpf(df2) / (df2 + mp.mpf(df1) * mp.mpf(f))
                ref = float(mp.betainc(mp.mpf(df2) / 2, mp.mpf(df1) / 2, 0, x, regularized=True))
                worst = max(worst, abs(f_pvalue(f, df1, df2) - ref))
    assert worst <= 1e-10


def test_f_pvalue_domain():
    with pytest.raises(ValueError):
        f_pvalue(-0.5, 2, 5)
    with pytest.raises(ValueError):
        f_pvalue(1.0, 0, 5)
    assert f_pvalue(float("inf"), 2, 5) == 0.0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    t=st.floats(-60, 60, allow_nan=False),
    df=st.integers(1, 100_000),
)
def test_t_and_squared_t_as_f_agree(t, df):
    # identical distribution identity: |T|^2 ~ F(1, df)
    assert abs(student_t_pvalue(t, df) - f_pvalue(t * t, 1, df)) <= 1e-9

