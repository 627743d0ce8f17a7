"""Confusion-count estimation for a window of scored binary predictions.

Given predicted labels and calibrated confidence scores, the number of true
positives among the positive predictions is a Poisson binomial variable with
the positive-prediction scores as parameters, and the number of true
negatives among the negative predictions is Poisson binomial in the score
complements.  False positives and false negatives are their count
complements.  Each count PMF is a read-only float64 array indexed by count,
and a complement is the reversed view of its array.  All operations are pure
and deterministic.

A batch may contain rows with the same score but different predicted
labels; such batches are accepted as-is, even though the theoretical
guarantees assume the predicted label is a function of the score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distribution import poisson_binomial_dp, unit_interval_array

__all__ = [
    "PredictionBatch",
    "ConfusionEstimate",
    "estimate_confusion",
]


def _binary_array(values, name: str, n: int) -> np.ndarray:
    """``values`` as a read-only int8 array of n zeros and ones."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name}s must form a one-dimensional sequence")
    if arr.size != n:
        raise ValueError(f"{name}s and scores must have equal length")
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} at index {i} must be 0 or 1, got {arr.tolist()[i]!r}")
    arr = arr.astype(np.int8)
    arr.flags.writeable = False
    return arr


class PredictionBatch:
    """An ordered monitoring window of predictions.

    Holds three aligned read-only arrays: predicted labels (int8), scores
    (float64) and, when known, true labels (int8, else None).  Build batches
    with :meth:`from_arrays`, which validates; slicing a batch returns a
    batch of array views.
    """

    __slots__ = ("_predictions", "_scores", "_labels")

    @classmethod
    def from_arrays(
        cls,
        predictions: Sequence[int] | np.ndarray,
        scores: Sequence[float] | np.ndarray,
        labels: Sequence[int] | np.ndarray | None = None,
    ) -> "PredictionBatch":
        """Validated batch of one-dimensional columns of equal length.

        Raises ValueError for a prediction or label that is not exactly 0 or
        1, and for a score outside [0, 1] or NaN.
        """
        scores = unit_interval_array(scores, "score").copy()
        scores.flags.writeable = False
        n = scores.size
        return cls._from_valid_arrays(
            _binary_array(predictions, "prediction", n),
            scores,
            None if labels is None else _binary_array(labels, "label", n),
        )

    @classmethod
    def _from_valid_arrays(
        cls, predictions: np.ndarray, scores: np.ndarray, labels: np.ndarray | None
    ) -> "PredictionBatch":
        """Internal fast path: arrays that passed :meth:`from_arrays`, or
        views of them."""
        self = object.__new__(cls)
        self._predictions = predictions
        self._scores = scores
        self._labels = labels
        return self

    @property
    def predictions(self) -> np.ndarray:
        return self._predictions

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    @property
    def labels(self) -> np.ndarray | None:
        return self._labels

    @property
    def n(self) -> int:
        return self._scores.size

    @property
    def n_pos(self) -> int:
        return int(np.count_nonzero(self._predictions == 1))

    @property
    def n_neg(self) -> int:
        return self.n - self.n_pos

    @property
    def positive_scores(self) -> np.ndarray:
        return self._scores[self._predictions == 1]

    @property
    def negative_scores(self) -> np.ndarray:
        return self._scores[self._predictions == 0]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: slice) -> "PredictionBatch":
        if not isinstance(index, slice):
            raise TypeError("batches slice into batches; index the arrays for items")
        labels = None if self._labels is None else self._labels[index]
        return self._from_valid_arrays(self._predictions[index], self._scores[index], labels)

    def __repr__(self) -> str:
        return (
            f"PredictionBatch(n={self.n}, n_pos={self.n_pos}, "
            f"labelled={self._labels is not None})"
        )


@dataclass(frozen=True, eq=False)
class ConfusionEstimate:
    """Count PMFs and point estimates for the four confusion cells.

    ``pmf_tp[k]`` is the probability of k true positives among the
    ``n_pos`` positive predictions, and ``pmf_tn[k]`` that of k true
    negatives among the ``n_neg`` negative ones.  False positives are
    ``n_pos - TP`` and false negatives ``n_neg - TN``, so ``pmf_fp`` and
    ``pmf_fn`` are reversed views, not copies.  Point estimates are the PMF
    means: sums of scores or score complements over the matching prediction
    side.
    """

    pmf_tp: np.ndarray
    pmf_tn: np.ndarray
    e_tp: float
    e_fp: float
    e_tn: float
    e_fn: float
    n_pos: int
    n_neg: int

    @property
    def pmf_fp(self) -> np.ndarray:
        return self.pmf_tp[::-1]

    @property
    def pmf_fn(self) -> np.ndarray:
        return self.pmf_tn[::-1]


def _require_nonempty(batch: PredictionBatch) -> None:
    if batch.n == 0:
        raise ValueError("estimation needs a nonempty batch")


def estimate_confusion(batch: PredictionBatch) -> ConfusionEstimate:
    """Estimate the confusion-count PMFs for one window.

    A side with no predictions yields ``[1.0]``, a point mass at zero, for
    its counts.
    """
    _require_nonempty(batch)
    pos = batch.positive_scores
    neg = batch.negative_scores
    n_pos = pos.size
    n_neg = neg.size
    e_tp = float(pos.sum())
    e_fn = float(neg.sum())
    return ConfusionEstimate(
        pmf_tp=poisson_binomial_dp(pos),
        pmf_tn=poisson_binomial_dp(1.0 - neg),
        e_tp=e_tp,
        e_fp=n_pos - e_tp,
        e_tn=n_neg - e_fn,
        e_fn=e_fn,
        n_pos=n_pos,
        n_neg=n_neg,
    )
