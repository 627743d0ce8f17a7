"""Desk-scale experiment runners for the shortcut and interval estimators.

Both runners draw confidence scores from a fresh beta distribution per
trial, with shape parameters uniform on [0.1, 10], and threshold them at
one half to get predictions.  The convergence runner compares exact metric
expectations against their shortcut approximations across window sizes.
The coverage runner reverse-samples labels from the scores and measures how
often a window's realized metric lands inside the estimated highest-density
interval.

Every trial derives its random streams from (master seed, window size,
trial index, purpose) so trials are independent, reproducible, and safe to
compute concurrently; results are aggregated in ascending trial order
regardless of execution order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

import numpy as np

from .calibration import reverse_sample_labels, threshold_predictions
from .confusion import PredictionBatch
from .intervals import hdis
from .metrics import METRICS, _require_distinct, estimate_all
from .reports import true_metrics
from .synthesis import random_beta_params, sample_beta_scores

__all__ = [
    "ConvergenceRow",
    "CoverageRow",
    "run_convergence_experiment",
    "run_coverage_experiment",
    "rows_to_csv",
    "DEFAULT_CONVERGENCE_WINDOWS",
    "DEFAULT_COVERAGE_WINDOWS",
    "DEFAULT_ALPHAS",
]

DEFAULT_CONVERGENCE_WINDOWS = (10, 50, 100, 200, 500)
DEFAULT_COVERAGE_WINDOWS = (100, 300, 500)
DEFAULT_ALPHAS = (0.05, 0.1)

_PARAMS_STREAM, _SCORES_STREAM, _LABELS_STREAM = 0, 1, 2


@dataclass(frozen=True)
class ConvergenceRow:
    """Shortcut approximation error for one metric at one window size.

    ``mean_error`` keeps the sign of exact-minus-shortcut; the ``control``
    metric compares the exact expectation against itself and must be zero.
    """

    window: int
    metric: str
    trials: int
    mean_error: float
    mean_abs_error: float
    std_error: float


@dataclass(frozen=True)
class CoverageRow:
    """Fraction of trials whose realized metric fell inside the interval.

    ``trials`` counts only trials where both the realized metric and the
    estimate were defined.
    """

    window: int
    metric: str
    alpha: float
    trials: int
    coverage: float


def _trial_seed(master: int, window: int, trial: int, stream: int) -> list[int]:
    return [master, window, trial, stream]


def _trial_batch(
    master: int, window: int, trial: int, with_labels: bool
) -> PredictionBatch:
    params = random_beta_params(_trial_seed(master, window, trial, _PARAMS_STREAM))
    scores = sample_beta_scores(
        window, params, _trial_seed(master, window, trial, _SCORES_STREAM)
    )
    predictions = threshold_predictions(scores)
    labels = None
    if with_labels:
        labels = reverse_sample_labels(
            scores, _trial_seed(master, window, trial, _LABELS_STREAM)
        )
    return PredictionBatch.from_arrays(predictions, scores, labels)


def _summary(window: int, metric: str, errors: list[float]) -> ConvergenceRow:
    arr = np.asarray(errors, dtype=np.float64)
    return ConvergenceRow(
        window=window,
        metric=metric,
        trials=arr.size,
        mean_error=float(arr.mean()) if arr.size else float("nan"),
        mean_abs_error=float(np.abs(arr).mean()) if arr.size else float("nan"),
        std_error=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    )


def run_convergence_experiment(
    window_sizes: tuple[int, ...] = DEFAULT_CONVERGENCE_WINDOWS,
    trials: int = 1000,
    seed: int = 0,
) -> list[ConvergenceRow]:
    """Approximation error of the shortcut recall and F1 estimators.

    Trials where a metric is undefined on both routes (a window with no
    positive predictions) are skipped for that metric.  Raises ValueError
    for a window size given twice.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials!r}")
    _require_distinct(window_sizes, "window sizes")
    rows = []
    for window in window_sizes:
        errors: dict[str, list[float]] = {"recall": [], "f1": [], "control": []}
        for trial in range(trials):
            batch = _trial_batch(seed, window, trial, with_labels=False)
            exact_recall, exact_f1 = (
                e.point for e in estimate_all(batch, metrics=("recall", "f1"))
            )
            approx_recall, approx_f1 = (
                e.point
                for e in estimate_all(batch, metrics=("recall", "f1"), method="shortcut")
            )
            if approx_recall is not None:
                errors["recall"].append(exact_recall - approx_recall)
                errors["control"].append(exact_recall - exact_recall)
            if exact_f1 is not None and approx_f1 is not None:
                errors["f1"].append(exact_f1 - approx_f1)
        for metric in ("recall", "f1", "control"):
            rows.append(_summary(window, metric, errors[metric]))
    return rows


def run_coverage_experiment(
    window_sizes: tuple[int, ...] = DEFAULT_COVERAGE_WINDOWS,
    trials: int = 2000,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    seed: int = 0,
) -> list[CoverageRow]:
    """Empirical coverage of metric highest-density intervals under
    reverse-sampled labels.

    A trial contributes to a (metric, alpha) cell only when both the
    realized metric and the estimated distribution exist; with no positive
    predictions there is no precision estimate, and with no positive labels
    there is no realized recall.  Raises ValueError for a window size or
    alpha given twice, which would count each trial more than once.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials!r}")
    _require_distinct(window_sizes, "window sizes")
    _require_distinct(alphas, "alphas")
    rows = []
    for window in window_sizes:
        hits = {(m, a): 0 for m in METRICS for a in alphas}
        totals = dict.fromkeys(hits, 0)
        for trial in range(trials):
            batch = _trial_batch(seed, window, trial, with_labels=True)
            realized = true_metrics(batch)
            for estimate in estimate_all(batch, alpha=None):
                actual = getattr(realized, estimate.metric)
                if estimate.distribution is None or actual is None:
                    continue
                for alpha, interval in zip(alphas, hdis(estimate.distribution, alphas)):
                    totals[(estimate.metric, alpha)] += 1
                    if interval.lower - 1e-12 <= actual <= interval.upper + 1e-12:
                        hits[(estimate.metric, alpha)] += 1
        for (metric, alpha), total in totals.items():
            rows.append(
                CoverageRow(
                    window=window,
                    metric=metric,
                    alpha=alpha,
                    trials=total,
                    coverage=hits[(metric, alpha)] / total if total else float("nan"),
                )
            )
    return rows


def rows_to_csv(rows) -> str:
    """Render experiment rows (a list of one dataclass type) as CSV text."""
    if not rows:
        raise ValueError("no rows to write")
    names = [f.name for f in fields(rows[0])]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([getattr(row, name) for name in names])
    return buffer.getvalue()
