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
compute concurrently.  Each window size's trials are drawn lazily into
:func:`~confmetrics.confusion.estimate_confusions`, which builds their
count PMFs in chunks of at least ``confusion._CHUNK_RECORDS`` records (a
trial at least that long is a chunk by itself), one shared Poisson
binomial leaf pass per chunk, so memory is bounded by the chunk, not by
the number of trials.  Each trial in ascending order then takes its
realized metrics, its metric distributions and their intervals.  Each
trial's PMFs are the same, bit for bit, as a trial alone gets, and results
are added in ascending trial order, so the rows do not depend on the
chunk bound.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

import numpy as np

from ._checks import _check_alpha, _require_distinct, _require_integer, _require_sequence
from .calibration import reverse_sample_labels, threshold_predictions
from .confusion import PredictionBatch, estimate_confusions
from .intervals import hdis
from .metrics import METRICS, _exact_estimate, _named_distribution, _shortcut_windows, true_metrics
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


def _check_plan(window_sizes: tuple[int, ...], trials: int, seed: int) -> tuple[list, int, int]:
    """The window sizes, trial count and seed, each numpy integer as its
    Python int.  Raises ValueError, before any trial runs, for window sizes
    that are not a nonempty sequence, a count or seed that is not an integer
    (a bool is not), no trial, a window size below 1 or given twice, or a
    negative seed."""
    trials = _require_integer(trials, "trials", 1)
    _require_sequence(window_sizes, "window_sizes", "integers", nonempty=True)
    window_sizes = [_require_integer(window, "each window size", 1) for window in window_sizes]
    _require_distinct(window_sizes, "window sizes")
    return window_sizes, trials, _require_integer(seed, "seed", 0)


def run_convergence_experiment(
    window_sizes: tuple[int, ...] = DEFAULT_CONVERGENCE_WINDOWS,
    trials: int = 1000,
    seed: int = 0,
) -> list[ConvergenceRow]:
    """Approximation error of the shortcut recall and F1 estimators.

    Trials where a metric is undefined on both routes (a window with no
    positive predictions) are skipped for that metric.  Raises ValueError
    for a malformed or out-of-range plan, as :func:`_check_plan` lists.
    """
    window_sizes, trials, seed = _check_plan(window_sizes, trials, seed)
    rows = []
    for window in window_sizes:
        errors: dict[str, list[float]] = {"recall": [], "f1": [], "control": []}
        batches = (_trial_batch(seed, window, t, with_labels=False) for t in range(trials))
        for batch, est in estimate_confusions(batches):
            exact_recall, exact_f1 = (_exact_estimate(m, est, None).point for m in ("recall", "f1"))
            points = _shortcut_windows(batch, batch.n, ("recall", "f1"))
            [approx_recall], [approx_f1] = points.values()
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
    there is no realized recall.  Raises ValueError, before any trial runs,
    for alphas that are not a sequence, no alpha, a bad alpha, an alpha
    given twice, which would count each trial more than once, and for a
    malformed or out-of-range plan, as :func:`_check_plan` lists.
    """
    window_sizes, trials, seed = _check_plan(window_sizes, trials, seed)
    _require_sequence(alphas, "alphas", "real numbers", nonempty=True)
    for alpha in alphas:
        _check_alpha(alpha)
    _require_distinct(alphas, "alphas")
    rows = []
    for window in window_sizes:
        hits = {(m, a): 0 for m in METRICS for a in alphas}
        totals = dict.fromkeys(hits, 0)
        batches = (_trial_batch(seed, window, t, with_labels=True) for t in range(trials))
        for batch, est in estimate_confusions(batches):
            realized = true_metrics(batch)
            for metric in METRICS:
                dist = _named_distribution(metric, est)
                actual = getattr(realized, metric)
                if dist is None or actual is None:
                    continue
                for alpha, interval in zip(alphas, hdis(dist, alphas)):
                    totals[(metric, alpha)] += 1
                    if interval.lower - 1e-12 <= actual <= interval.upper + 1e-12:
                        hits[(metric, alpha)] += 1
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
