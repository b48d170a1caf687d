"""efcilab: a desk-scale lab for exemplar-free class-incremental learning.

Synthesizes or ingests fixed feature embeddings, runs incremental
learners over class-partitioned streams, computes accuracy/forgetting
metrics, and analyzes experiment grids with a self-contained OLS/ANOVA
engine including Bonferroni-corrected pairwise comparisons.
"""

__version__ = "0.1.0"

from .datagen import FeatureDataset, SynthSpec, load_features, save_features, synth_features
from .learners import (
    AccuracyMatrix,
    BSILLite,
    FeTrILLite,
    LearnerError,
    NearestClassMean,
    StreamingLDA,
    run_incremental,
)
from .metrics import (
    MetricSet,
    avg_forgetting,
    avg_incremental_accuracy,
    compute_metrics,
    final_accuracy,
    initial_accuracy,
    metric_correlations,
)
from .scenario import Scenario, ScenarioError, build_scenario, partition_dataset

__all__ = [
    "AccuracyMatrix",
    "BSILLite",
    "FeTrILLite",
    "FeatureDataset",
    "LearnerError",
    "MetricSet",
    "NearestClassMean",
    "Scenario",
    "ScenarioError",
    "StreamingLDA",
    "SynthSpec",
    "avg_forgetting",
    "avg_incremental_accuracy",
    "build_scenario",
    "compute_metrics",
    "final_accuracy",
    "initial_accuracy",
    "load_features",
    "metric_correlations",
    "partition_dataset",
    "run_incremental",
    "save_features",
    "synth_features",
]
