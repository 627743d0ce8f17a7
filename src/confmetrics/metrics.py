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
accumulates each count pair's probability on the fraction the pair maps to.
The pairs are grouped by one sort of their float values, and each group's
masses are summed in pair order.

Only the pairs of a trimmed grid are formed.  Each of the two paired count
PMFs is cut to the smallest index range outside which each end holds at
most ``TRIM_TOL / 4`` of the mass, with ``TRIM_TOL`` = 1e-15.  A Poisson
binomial count has variance at most n/4, so its mass sits within a few
standard deviations of its mean, and the grid has O(sigma_TP * sigma_FN)
pairs, which is O(n), instead of O(n_pos * n_neg).  The joint mass of the
pairs left out, at most ``TRIM_TOL``, is carried as the distribution's
``trimmed_mass``, and :func:`~confmetrics.intervals.hdi` counts it as
already dropped.  The masses at 0 and 1 are read from the full PMFs.
Against the derivation over all pairs, which the tests keep as the
reference, the total variation distance is about half the trimmed mass,
and on seeded windows of up to 4000 records the means agree within 2e-15
and the interval endpoints are identical.

Point estimates are distribution means.  The shortcut estimators compute the
mean without materialising a distribution: exactly for accuracy and
precision, and with an O(1/sqrt(n)) approximation error for recall and F1.
Measured on one core of a 2-vCPU machine with hypersphere scores, all four
exact distributions with 95% intervals take about 2.6 ms for a window of
300 records, 9.5 ms at 1000, 72 ms at 4000, 0.37 s at 10 000 and 1.5 s at
20 000; from about 10 000 records on, most of it is the O(n^2) Poisson
binomial construction.  Shortcuts are O(n) and give points only.

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
from .distribution import TRIM_TOL, DiscreteDistribution
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
    mass_at_zero: float,
    mass_at_one: float | None = None,
    trimmed_mass: float = 0.0,
) -> DiscreteDistribution:
    """Sum probability masses that land on the same fraction.

    ``nums``/``dens``/``masses`` are flat arrays of unreduced ratios in
    (0, 1] with their probabilities.  Ratios are grouped by their float
    value, which identifies the fraction exactly while every denominator
    stays below ``_RATIO_DEN_BOUND``: one sort of the values yields the
    groups in ascending order, ``bincount`` sums each group's masses in
    input order, and only one representative per group is reduced to lowest
    terms.  ``mass_at_zero`` becomes the point 0 in front of the groups and
    ``mass_at_one``, when given, the point 1 after them; the caller
    guarantees that no ratio equals 1 in that case.  Raises ValueError for a
    denominator at or above the bound.
    """
    if dens.size and dens.max() >= _RATIO_DEN_BOUND:
        raise ValueError(
            f"ratio denominator {int(dens.max())} is not below {_RATIO_DEN_BOUND}; "
            "float grouping could merge distinct fractions"
        )
    values = nums / dens
    order = np.argsort(values)
    sorted_values = values[order]
    new_group = np.diff(sorted_values, prepend=-1.0) != 0.0
    del values, sorted_values
    group = np.empty_like(order)
    group[order] = np.cumsum(new_group) - 1
    first = order[new_group]
    del order, new_group
    probs = np.bincount(group, weights=masses)
    u_nums = nums[first]
    u_dens = dens[first]
    g = np.gcd(u_nums, u_dens)
    one = np.array([] if mass_at_one is None else [1], dtype=np.int64)
    return DiscreteDistribution._from_ratio_arrays(
        np.concatenate(([0], u_nums // g, one)),
        np.concatenate(([1], u_dens // g, one)),
        np.concatenate(([mass_at_zero], probs, [] if mass_at_one is None else [mass_at_one])),
        trimmed_mass,
    )


def _mass_range(pmf: np.ndarray) -> tuple[int, int, float]:
    """Bounds ``lo, hi`` of the smallest index range ``pmf[lo:hi]`` outside
    which each end holds at most ``TRIM_TOL / 4`` of the mass, and the mass
    outside it."""
    quarter = TRIM_TOL / 4
    lo = int(np.searchsorted(np.cumsum(pmf), quarter, side="right"))
    cut_high = int(np.searchsorted(np.cumsum(pmf[::-1]), quarter, side="right"))
    hi = max(lo, pmf.size - cut_high)
    return lo, hi, float(pmf[:lo].sum() + pmf[hi:].sum())


def _count_pair_distribution(
    est: ConfusionEstimate,
    fn_start: int,
    scale: int,
    offset: int,
    mass_at_one: float | None,
) -> DiscreteDistribution:
    """Distribution of ``scale * i / (i + j + offset)`` over the pairs of
    i >= 1 true positives and j >= ``fn_start`` false negatives, with the
    mass of zero true positives on the value 0 and ``mass_at_one``, when
    given, on the value 1.

    Both paired count PMFs are trimmed to their :func:`_mass_range`, and
    pairs are formed only inside those ranges.  The joint mass of the pairs
    left out is carried as the result's ``trimmed_mass``; it is at most
    ``TRIM_TOL``, since each PMF loses at most ``TRIM_TOL / 2``.
    """
    p_tp = est.pmf_tp[1:]
    p_fn = est.pmf_fn[fn_start:]
    tp_lo, tp_hi, tp_cut = _mass_range(p_tp)
    fn_lo, fn_hi, fn_cut = _mass_range(p_fn)
    kept_tp = p_tp[tp_lo:tp_hi]
    kept_fn = p_fn[fn_lo:fn_hi]
    i = np.arange(tp_lo + 1, tp_hi + 1, dtype=np.int64)
    j = np.arange(fn_lo + fn_start, fn_hi + fn_start, dtype=np.int64)
    nums = np.broadcast_to(scale * i[:, None], (i.size, j.size)).ravel()
    dens = (i[:, None] + (j + offset)[None, :]).ravel()
    masses = np.outer(kept_tp, kept_fn).ravel()
    # Full minus kept pair mass, expanded so that no tiny mass is taken as
    # the difference of two large ones.
    trimmed = tp_cut * (float(kept_fn.sum()) + fn_cut) + float(kept_tp.sum()) * fn_cut
    return _aggregate_ratio_masses(
        nums, dens, masses, float(est.pmf_tp[0]), mass_at_one, trimmed
    )


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
    pair (i, j) inside the trimmed ranges contributes its joint probability
    to the value i / (i + j).
    """
    mass_at_one = float(est.pmf_fn[0] * (1.0 - est.pmf_tp[0]))
    return _count_pair_distribution(
        est, fn_start=1, scale=1, offset=0, mass_at_one=mass_at_one
    )


def f1_distribution(est: ConfusionEstimate) -> DiscreteDistribution | None:
    """Distribution of 2*TP / (TP + FN + n_pos); None without positive
    predictions.

    Zero true positives put their whole mass on F1 = 0; every count pair
    (i >= 1, j >= 0) inside the trimmed ranges contributes to the value
    2i / (i + j + n_pos).
    """
    if est.n_pos == 0:
        return None
    return _count_pair_distribution(
        est, fn_start=0, scale=2, offset=est.n_pos, mass_at_one=None
    )


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
