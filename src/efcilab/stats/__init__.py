"""Self-contained OLS/ANOVA engine: encoding, fitting, inference, diagnostics."""

from .analysis import (
    AnovaRow,
    AnovaTable,
    ModelCandidate,
    ModelSelection,
    PairwiseMatrix,
    ScreeningRow,
    anova_partial_eta2,
    pairwise_comparison,
    screen_variables,
    select_model_aic,
)
from .design import (
    CATEGORICAL_VARS,
    DesignError,
    DesignMatrix,
    Formula,
    RecordTable,
    RunRecord,
    column_table,
    encode_design,
    parse_formula,
)
from .distributions import (
    f_pvalue,
    regularized_incomplete_beta,
    student_t_pvalue,
)
from .linalg import RankDeficientError, least_squares
from .regression import (
    DiagnosticsBundle,
    GramDiagnostic,
    RegressionFit,
    diagnostics,
    gram_min_eigenvalue,
    ols_fit,
)

__all__ = [
    "AnovaRow",
    "AnovaTable",
    "CATEGORICAL_VARS",
    "DesignError",
    "DesignMatrix",
    "DiagnosticsBundle",
    "Formula",
    "GramDiagnostic",
    "ModelCandidate",
    "ModelSelection",
    "PairwiseMatrix",
    "RankDeficientError",
    "RecordTable",
    "RegressionFit",
    "RunRecord",
    "ScreeningRow",
    "anova_partial_eta2",
    "column_table",
    "diagnostics",
    "encode_design",
    "f_pvalue",
    "gram_min_eigenvalue",
    "least_squares",
    "ols_fit",
    "pairwise_comparison",
    "parse_formula",
    "regularized_incomplete_beta",
    "screen_variables",
    "select_model_aic",
    "student_t_pvalue",
]
