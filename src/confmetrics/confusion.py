"""Confusion-count estimation for a window of scored binary predictions.

Given predicted labels and calibrated confidence scores, the number of true
positives among the positive predictions is a Poisson binomial variable with
the positive-prediction scores as parameters, and the number of true
negatives among the negative predictions is Poisson binomial in the score
complements.  False positives and false negatives are their count
complements.  Each count PMF is a
:class:`~confmetrics.distribution.CountPMF` built by the Poisson binomial
product tree: a read-only array over the count range that holds the mass,
its offset, and the mass trimmed from its tails.  A complement is the
reversed view of its array.

:func:`estimate_confusions` is the one exact stream: it reads any iterable
of batches lazily, in chunks that grow until they hold at least
``_CHUNK_RECORDS`` records, so a batch at least that long forms a chunk by
itself.  Each chunk's TP and TN PMFs, both sides of every batch, come from
one shared leaf pass of the tree, and each is the same, bit for bit, as its
batch alone gives; so peak memory is bounded by the chunk, not the stream,
and results do not depend on the chunk bound.  The estimates of a chunk
share one :class:`_Chunk`, where :mod:`confmetrics.metrics` keeps the
pair tables their windows read together.  The estimate holds no
expected counts: the shortcut estimators in :mod:`confmetrics.metrics` sum
a window's scores themselves.  All operations are pure and deterministic.

A batch may contain rows with the same score but different predicted
labels; such batches are accepted as-is, even though the theoretical
guarantees assume the predicted label is a function of the score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._checks import _binary_array, _require_nonempty, unit_interval_array
from .distribution import CountPMF, poisson_binomial_trees

__all__ = [
    "PredictionBatch",
    "ConfusionEstimate",
    "estimate_confusion",
    "estimate_confusions",
]


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
        1, and for a score that is not a real number in [0, 1] (NaN and a
        bool are not).
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
    """Count PMFs for the four confusion cells.

    ``tp`` is the PMF of the number of true positives among the ``n_pos``
    positive predictions, and ``tn`` that of the true negatives among the
    ``n_neg`` negative ones.  False negatives are ``n_neg - TN``, so ``fn``
    is a complement whose array is a reversed view, not a copy; false
    positives, ``n_pos - TP``, are ``tp.complement(n_pos)``.
    """

    tp: CountPMF
    tn: CountPMF
    n_pos: int
    n_neg: int
    # The chunk the estimate came from and its window's place in it; an
    # estimate built by hand has none, and its window is derived alone.
    _chunk: "_Chunk | None" = field(default=None, repr=False)
    _index: int = field(default=0, repr=False)

    @property
    def fn(self) -> CountPMF:
        return self.tn.complement(self.n_neg)


class _Chunk:
    """What the estimates of one chunk share.

    ``counts`` holds one row per window: the TP offset and size, the FN
    offset and size, ``n_pos`` and ``n_neg``.  ``tables`` is where the
    metric derivations keep what they build for several of the chunk's
    windows at once (:mod:`confmetrics.metrics` keeps its pair tables
    there).  The chunk holds no estimate, so it, and all it keeps, goes
    with the last of its estimates.
    """

    __slots__ = ("counts", "tables")

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.tables: dict = {}


def estimate_confusion(batch: PredictionBatch) -> ConfusionEstimate:
    """Estimate the confusion-count PMFs for one window: the one-batch call
    of :func:`estimate_confusions`."""
    return next(estimate_confusions([batch]))[1]


# The records a chunk of estimate_confusions gathers before its PMFs are
# built; a longer batch is a chunk by itself.
_CHUNK_RECORDS = 2**15


def estimate_confusions(
    batches: Iterable[PredictionBatch],
) -> Iterator[tuple[PredictionBatch, ConfusionEstimate]]:
    """Each batch with its confusion-count PMFs, in order, read lazily.

    Batches are taken one chunk at a time: a chunk ends at the first batch
    that brings it to ``_CHUNK_RECORDS`` records, or at the end of
    ``batches``.  The TP and TN PMFs of a chunk's batches come from one
    :func:`~confmetrics.distribution.poisson_binomial_trees` call, and each
    is the same, bit for bit, as that batch alone gives.  A side with no
    predictions yields a point mass at zero for its counts.  An empty batch
    raises ValueError when the stream reaches it, before its chunk's PMFs
    are built, so the batches of earlier chunks have been yielded by then.
    """
    chunk, records = [], 0
    for batch in batches:
        _require_nonempty(batch)
        chunk.append(batch)
        records += batch.n
        if records >= _CHUNK_RECORDS:
            yield from zip(chunk, _chunk_estimates(chunk))
            chunk, records = [], 0
    if chunk:
        yield from zip(chunk, _chunk_estimates(chunk))


def _chunk_estimates(chunk: list[PredictionBatch]) -> list[ConfusionEstimate]:
    """The confusion estimates of a chunk's batches, from one
    :func:`~confmetrics.distribution.poisson_binomial_trees` call, sharing
    one :class:`_Chunk`."""
    sides = [(batch.positive_scores, batch.negative_scores) for batch in chunk]
    pmfs = iter(poisson_binomial_trees([s for pos, neg in sides for s in (pos, 1.0 - neg)]))
    windows = [(next(pmfs), next(pmfs), pos.size, neg.size) for pos, neg in sides]
    counts = []
    for tp, tn, n_pos, n_neg in windows:
        fn = tn.complement(n_neg)
        counts.append((tp.offset, tp.pmf.size, fn.offset, fn.pmf.size, n_pos, n_neg))
    shared = _Chunk(np.array(counts, dtype=np.int64))
    return [ConfusionEstimate(*window, shared, index) for index, window in enumerate(windows)]
