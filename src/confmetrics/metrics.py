"""Metric distributions and point estimates derived from confusion counts.

Each metric (accuracy, precision, recall, F1) becomes a finite distribution
over exact rational values by pushing the confusion-count PMFs through the
metric formula.  Those PMFs are the dense arrays a :class:`ConfusionEstimate`
holds, read here directly.  The true-positive and true-negative counts are
independent, and every metric is a function of the two.  Precision is a
plain rescaling of the true-positive count.  Accuracy rescales the number of
correct predictions, TP + TN, whose PMF is the convolution of the two count
PMFs.  Recall and F1 need the joint of the true positive and false negative
counts, where the false-negative PMF is the reversed true-negative one; by
independence the joint is the product of the marginals, and the derivation
walks all count pairs, accumulating probability on the fraction each pair
maps to.  That walk is O(n^2) pairs, grouped by one sort of their float
values; each group's masses are summed in pair order.

Point estimates are distribution means.  The shortcut estimators compute the
mean without materialising a distribution: exactly for accuracy and
precision, and with an O(1/sqrt(n)) approximation error for recall and F1.
As a rule of thumb, derive full distributions for windows below ~500 records
(they also provide intervals) and use shortcuts above.

Undefined metrics (precision and F1 of a window with no positive
predictions, the recall shortcut when every score is zero) are returned as
None rather than raised, so report assembly never aborts.  Inside a derived
distribution, the event "no true positives and no false negatives" puts its
mass on recall = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confusion import (
    ConfusionEstimate,
    PredictionBatch,
    _require_nonempty,
    estimate_confusion,
)
from .distribution import DiscreteDistribution
from .intervals import HdiInterval, hdi

__all__ = [
    "METRICS",
    "MetricEstimate",
    "accuracy_distribution",
    "precision_distribution",
    "recall_distribution",
    "f1_distribution",
    "shortcut_accuracy",
    "shortcut_precision",
    "shortcut_recall",
    "shortcut_f1",
    "estimate_all",
]

METRICS = ("accuracy", "precision", "recall", "f1")


@dataclass(frozen=True)
class MetricEstimate:
    """Estimate of one metric on one window.

    ``point`` is None when the metric is undefined on the window.  The full
    distribution and interval are attached only by the exact method.
    """

    metric: str
    method: str
    point: float | None
    distribution: DiscreteDistribution | None = None
    hdi: HdiInterval | None = None

    @property
    def undefined(self) -> bool:
        return self.point is None


def _scaled_counts(pmf: np.ndarray, denominator: int) -> DiscreteDistribution:
    """Divide a dense count PMF over 0..len(pmf)-1 by a fixed positive
    denominator."""
    nums = np.arange(pmf.size, dtype=np.int64)
    g = np.gcd(nums, denominator)
    return DiscreteDistribution._from_ratio_arrays(nums // g, denominator // g, pmf)


# Float grouping bound.  Two distinct ratios a/b != c/d in [0, 1] differ by
# |ad - bc| / (bd) >= 1 / (bd), which exceeds 2**-52 when b, d < 2**26.
# Rounding a quotient in [0, 1] to the nearest double moves it by at most
# half an ulp, 2**-54, so distinct ratios stay at least 2**-53 apart and
# round to distinct doubles.  Equal ratios round to the same double, because
# the int64 operands (below 2**53) convert exactly and division is correctly
# rounded.
_RATIO_DEN_BOUND = 2**26


def _aggregate_ratio_masses(
    nums: np.ndarray,
    dens: np.ndarray,
    masses: np.ndarray,
    extras: list[tuple[int, int, float]],
) -> DiscreteDistribution:
    """Sum probability masses that land on the same fraction.

    ``nums``/``dens``/``masses`` are flat arrays of unreduced ratios in
    [0, 1] with their probabilities; ``extras`` are additional exact
    (num, den, mass) entries appended to them.  Ratios are grouped by their
    float value, which identifies the fraction exactly while every
    denominator stays below ``_RATIO_DEN_BOUND``: one sort of the values
    yields the groups in ascending order, ``bincount`` sums each group's
    masses in input order, and only one representative per group is reduced
    to lowest terms.  Raises ValueError for a denominator at or above the
    bound.
    """
    if extras:
        nums = np.concatenate([nums, np.array([e[0] for e in extras], dtype=np.int64)])
        dens = np.concatenate([dens, np.array([e[1] for e in extras], dtype=np.int64)])
        masses = np.concatenate([masses, np.array([e[2] for e in extras])])
    if dens.max() >= _RATIO_DEN_BOUND:
        raise ValueError(
            f"ratio denominator {int(dens.max())} is not below {_RATIO_DEN_BOUND}; "
            "float grouping could merge distinct fractions"
        )
    values = nums / dens
    order = np.argsort(values)
    sorted_values = values[order]
    new_group = np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    del values, sorted_values
    group = np.empty_like(order)
    group[order] = np.cumsum(new_group) - 1
    first = order[new_group]
    del order, new_group
    probs = np.bincount(group, weights=masses)
    u_nums = nums[first]
    u_dens = dens[first]
    g = np.gcd(u_nums, u_dens)
    return DiscreteDistribution._from_ratio_arrays(u_nums // g, u_dens // g, probs)


def accuracy_distribution(est: ConfusionEstimate) -> DiscreteDistribution:
    """Distribution of the fraction of correct predictions in the window.

    The number of correct predictions is TP + TN.  The two counts are
    independent, so its PMF is the convolution of their PMFs; dividing by
    the window size gives accuracy.
    """
    return _scaled_counts(np.convolve(est.pmf_tp, est.pmf_tn), est.n_pos + est.n_neg)


def precision_distribution(est: ConfusionEstimate) -> DiscreteDistribution | None:
    """Distribution of the true-positive count over the number of positive
    predictions; None when the window has no positive predictions."""
    if est.n_pos == 0:
        return None
    return _scaled_counts(est.pmf_tp, est.n_pos)


def recall_distribution(est: ConfusionEstimate) -> DiscreteDistribution:
    """Distribution of TP / (TP + FN) over the joint count distribution.

    All mass with zero true positives lands on recall = 0, including the
    corner where false negatives are also zero.  Zero false negatives with
    at least one true positive lands on recall = 1.  Every remaining count
    pair (i, j) contributes its joint probability to the value i / (i + j).
    """
    p_tp = est.pmf_tp
    p_fn = est.pmf_fn
    mass_at_zero = float(p_tp[0])
    mass_at_one = float(p_fn[0] * (1.0 - p_tp[0]))
    i = np.arange(1, est.n_pos + 1, dtype=np.int64)
    j = np.arange(1, est.n_neg + 1, dtype=np.int64)
    nums = np.broadcast_to(i[:, None], (i.size, j.size)).ravel()
    dens = (i[:, None] + j[None, :]).ravel()
    masses = np.outer(p_tp[1:], p_fn[1:]).ravel()
    return _aggregate_ratio_masses(
        nums, dens, masses, extras=[(0, 1, mass_at_zero), (1, 1, mass_at_one)]
    )


def f1_distribution(est: ConfusionEstimate) -> DiscreteDistribution | None:
    """Distribution of 2*TP / (TP + FN + n_pos); None without positive
    predictions.

    Zero true positives put their whole mass on F1 = 0; every count pair
    (i >= 1, j >= 0) contributes to the value 2i / (i + j + n_pos).
    """
    if est.n_pos == 0:
        return None
    p_tp = est.pmf_tp
    p_fn = est.pmf_fn
    mass_at_zero = float(p_tp[0])
    i = np.arange(1, est.n_pos + 1, dtype=np.int64)
    j = np.arange(0, est.n_neg + 1, dtype=np.int64)
    nums = np.broadcast_to(2 * i[:, None], (i.size, j.size)).ravel()
    dens = (i[:, None] + j[None, :] + est.n_pos).ravel()
    masses = np.outer(p_tp[1:], p_fn).ravel()
    return _aggregate_ratio_masses(nums, dens, masses, extras=[(0, 1, mass_at_zero)])


def shortcut_accuracy(batch: PredictionBatch) -> float:
    """Mean correctness probability; identical to the mean of
    :func:`accuracy_distribution`."""
    _require_nonempty(batch)
    # Each prediction is correct with probability its score if positive,
    # and one minus its score if negative.
    return float(np.where(batch.predictions == 1, batch.scores, 1.0 - batch.scores).mean())


def shortcut_precision(batch: PredictionBatch) -> float | None:
    """Mean positive-prediction score; identical to the mean of
    :func:`precision_distribution`.  None without positive predictions."""
    _require_nonempty(batch)
    pos = batch.positive_scores
    if pos.size == 0:
        return None
    return float(pos.mean())


def shortcut_recall(batch: PredictionBatch) -> float | None:
    """Approximate expected recall: positive-prediction score sum over the
    total score sum.  None when every score is zero.

    The approximation error decays as O(1/sqrt(n)) with the window size.
    """
    _require_nonempty(batch)
    total = float(batch.scores.sum())
    if total <= 0.0:
        return None
    return float(batch.positive_scores.sum()) / total


def shortcut_f1(batch: PredictionBatch) -> float | None:
    """Approximate expected F1: 2 * positive score sum over (total score sum
    + positive prediction count).  None without positive predictions.

    Same O(1/sqrt(n)) error decay as :func:`shortcut_recall`.
    """
    _require_nonempty(batch)
    n_pos = batch.n_pos
    if n_pos == 0:
        return None
    return 2.0 * float(batch.positive_scores.sum()) / (float(batch.scores.sum()) + n_pos)


def _exact_estimate(
    metric: str, est: ConfusionEstimate, alpha: float | None
) -> MetricEstimate:
    # Calls the module-level names at each call, so rebinding one of them
    # (as a profiler does) reaches every caller.
    if metric == "accuracy":
        dist = accuracy_distribution(est)
    elif metric == "precision":
        dist = precision_distribution(est)
    elif metric == "recall":
        dist = recall_distribution(est)
    else:
        dist = f1_distribution(est)
    if dist is None:
        return MetricEstimate(metric=metric, method="exact", point=None)
    return MetricEstimate(
        metric=metric,
        method="exact",
        point=dist.expectation(),
        distribution=dist,
        hdi=None if alpha is None else hdi(dist, alpha),
    )


_SHORTCUTS = {
    "accuracy": shortcut_accuracy,
    "precision": shortcut_precision,
    "recall": shortcut_recall,
    "f1": shortcut_f1,
}


def estimate_all(
    batch: PredictionBatch,
    metrics: tuple[str, ...] = METRICS,
    method: str = "exact",
    alpha: float | None = None,
) -> list[MetricEstimate]:
    """Estimate the requested metrics on one window.

    The exact method attaches full distributions, and highest-density
    intervals when ``alpha`` is given; the shortcut method attaches points
    only and rejects ``alpha``.  Undefined metrics come back as estimates
    with ``point=None`` rather than aborting the window.
    """
    _require_nonempty(batch)
    if method not in ("exact", "shortcut"):
        raise ValueError(f"method must be 'exact' or 'shortcut', got {method!r}")
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        raise ValueError(f"unknown metrics requested: {unknown}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha!r}")
    if method == "shortcut":
        if alpha is not None:
            raise ValueError(
                "alpha applies to the exact method only; shortcuts have no intervals"
            )
        return [
            MetricEstimate(metric=m, method="shortcut", point=_SHORTCUTS[m](batch))
            for m in metrics
        ]
    est = estimate_confusion(batch)
    return [_exact_estimate(m, est, alpha) for m in metrics]
