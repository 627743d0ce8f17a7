"""Label-free estimation of binary classification metrics.

Confusion-matrix counts of a monitoring window are treated as Poisson
binomial variables driven by calibrated confidence scores; metrics derived
from those counts (accuracy, precision, recall, F1) become finite
distributions with exact rational support, giving point estimates and
highest-density intervals without any ground-truth labels.
"""

from .calibration import (
    CalibrationBin,
    CalibrationReport,
    ace,
    reverse_sample_labels,
    threshold_predictions,
)
from .confusion import (
    ConfusionEstimate,
    PredictionBatch,
    estimate_confusion,
)
from .distribution import (
    PROB_SUM_TOL,
    CountPMF,
    DiscreteDistribution,
    poisson_binomial_tree,
)
from .experiments import (
    ConvergenceRow,
    CoverageRow,
    run_convergence_experiment,
    run_coverage_experiment,
)
from .ingest import parse_input
from .intervals import HdiInterval, hdi
from .metrics import (
    METRICS,
    MetricEstimate,
    accuracy_distribution,
    estimate_all,
    f1_distribution,
    precision_distribution,
    recall_distribution,
)
from .reports import (
    EstimateConfig,
    MonitoringReport,
    ShortcutColumns,
    TrueMetrics,
    render_report,
    true_metrics,
    windowed_estimates,
)
from .synthesis import (
    BetaParams,
    HypersphereConfig,
    SyntheticDataset,
    hypersphere_dataset,
    positive_probability,
    random_beta_params,
    sample_beta_scores,
    shift_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "PROB_SUM_TOL",
    "METRICS",
    "CountPMF",
    "DiscreteDistribution",
    "poisson_binomial_tree",
    "PredictionBatch",
    "ConfusionEstimate",
    "estimate_confusion",
    "MetricEstimate",
    "accuracy_distribution",
    "precision_distribution",
    "recall_distribution",
    "f1_distribution",
    "estimate_all",
    "HdiInterval",
    "hdi",
    "CalibrationBin",
    "CalibrationReport",
    "ace",
    "reverse_sample_labels",
    "threshold_predictions",
    "BetaParams",
    "HypersphereConfig",
    "SyntheticDataset",
    "random_beta_params",
    "sample_beta_scores",
    "positive_probability",
    "hypersphere_dataset",
    "shift_dataset",
    "parse_input",
    "EstimateConfig",
    "MonitoringReport",
    "ShortcutColumns",
    "TrueMetrics",
    "windowed_estimates",
    "true_metrics",
    "render_report",
    "ConvergenceRow",
    "CoverageRow",
    "run_convergence_experiment",
    "run_coverage_experiment",
]
