"""Calibration measurement and calibration-faithful label sampling.

The adaptive calibration error sorts a labelled window by score, cuts it
into equal-mass bins, and averages the per-bin gap between mean score and
empirical positive rate.  Reverse sampling draws a label for each score from
Bernoulli(score), which makes the induced synthetic classifier calibrated by
construction up to sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import _require_integer, _require_nonempty, _require_real, _rng, unit_interval_array
from .confusion import PredictionBatch

__all__ = [
    "CalibrationBin",
    "CalibrationReport",
    "ace",
    "reverse_sample_labels",
    "threshold_predictions",
]

DEFAULT_NUM_BINS = 15


@dataclass(frozen=True)
class CalibrationBin:
    mean_score: float
    positive_rate: float
    count: int


@dataclass(frozen=True)
class CalibrationReport:
    """Adaptive calibration error and the equal-mass bins behind it."""

    ace: float
    bins: tuple[CalibrationBin, ...]


def ace(batch: PredictionBatch, num_bins: int = DEFAULT_NUM_BINS) -> CalibrationReport:
    """Adaptive (equal-mass binning) calibration error of a labelled window.

    Records are sorted by score, ties broken by original position, and split
    into ``num_bins`` contiguous bins whose sizes differ by at most one; any
    remainder is spread one record per bin starting from the lowest-score
    bin.  The reported error is the mean absolute per-bin gap between mean
    score and empirical positive rate.  Raises ValueError for an empty or
    unlabelled batch, or a ``num_bins`` that is not an integer (a bool is
    not) in [1, n].
    """
    _require_nonempty(batch, "ace", labelled=True)
    n = batch.n
    num_bins = _require_integer(num_bins, "num_bins", 1, n)
    order = np.argsort(batch.scores, kind="stable")
    scores = batch.scores[order]
    positives = batch.labels[order].astype(np.float64)
    base, remainder = divmod(n, num_bins)
    sizes = np.full(num_bins, base, dtype=np.int64)
    sizes[:remainder] += 1
    bins = []
    gaps = np.empty(num_bins, dtype=np.float64)
    start = 0
    for k, size in enumerate(sizes):
        stop = start + int(size)
        mean_score = float(scores[start:stop].mean())
        positive_rate = float(positives[start:stop].mean())
        gaps[k] = abs(mean_score - positive_rate)
        bins.append(CalibrationBin(mean_score, positive_rate, int(size)))
        start = stop
    return CalibrationReport(ace=float(gaps.mean()), bins=tuple(bins))


def reverse_sample_labels(scores: Sequence[float] | np.ndarray, seed) -> np.ndarray:
    """Draw one label per score from Bernoulli(score), deterministically for
    a given seed.  Raises ValueError for a score that is not a real number
    in [0, 1], and for a seed that numpy does not take."""
    arr = unit_interval_array(scores, "score")
    rng = _rng(seed)
    return (rng.random(arr.size) < arr).astype(np.int64)


def threshold_predictions(
    scores: Sequence[float] | np.ndarray, threshold: float = 0.5
) -> np.ndarray:
    """Predicted labels by score thresholding; a score equal to the
    threshold predicts positive.  Raises ValueError for a threshold that is
    not a real number in [0, 1]."""
    _require_real(threshold, "threshold", 0, 1)
    arr = unit_interval_array(scores, "score")
    return (arr >= threshold).astype(np.int64)
