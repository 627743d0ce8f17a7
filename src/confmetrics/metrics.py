"""Metric distributions and point estimates derived from confusion counts.

One table, ``_ROWS``, gives every metric as a ratio of two sums over five
window quantities: true positives ``tp``, actual positives ``p`` (TP + FN),
correct predictions ``correct`` (TP + TN), positive predictions ``n_pos``
and records ``n``.  Accuracy is correct / n, precision tp / n_pos, recall
tp / p and F1 2 * tp / (p + n_pos).  Three readers, all here, evaluate the
rows: the exact distributions, the shortcut points and the realized metrics
of :func:`true_metrics`.  A row whose denominator reads ``n_pos`` is
undefined (None, never raised) without positive predictions; a shortcut
point is also None, and a realized value exactly None, where the
denominator is 0.

For a calibrated score s, s = P(label = 1), so a window's expected
quantities are the sums its realized counts come from, with each label
replaced by its score.  One builder, :func:`_window_quantities`, takes
these sums by one rule: a per-record column, masked to 0 where the
quantity does not count (``tp`` at negative predictions), summed over the
full windows as the rows of one reshape and over a trailing partial window
by itself.  The shortcut points are the rows on score sums, the realized
metrics the rows on label sums.

The exact reader pushes the count PMFs of a :class:`ConfusionEstimate`
through a row, giving a finite distribution over exact rational values.
The PMFs are :class:`~confmetrics.distribution.CountPMF` triples: an array
over the count range that holds the mass, the offset of its first count,
and the mass trimmed from its tails.  The TP and TN counts are independent
and ``n_pos`` and ``n`` are fixed, so the derivation follows the quantities
a row reads.  A row that reads ``p`` needs the joint of the TP and FN
counts, where the FN PMF is the reversed TN one; by independence it is the
product of the marginals.  The row is then ``scale * i / (i + j + fixed)``
over every pair of i true positives and j false negatives inside the kept
count ranges, zero counts included, with recall's 0/0 read as 0, and each
pair's probability accumulates on the fraction the pair maps to.  The pairs
are grouped by one sort of int64 keys, each a bucket of the pair's float
value packed above the pair's index, and each group's masses are summed in
pair order.  A row that reads ``correct`` rescales the count TP + TN, whose
PMF is the convolution of the two count arrays; any other row rescales the
TP count.

The count PMFs arrive trimmed.  The Poisson binomial product tree keeps
each of them to a count range outside which at most ``TRIM_TOL / 2`` of its
mass lies, with ``TRIM_TOL`` = 1e-15.  A Poisson binomial count has variance
at most n/4, so its mass sits within a few standard deviations of its mean:
the ranges hold O(sqrt(n)) counts, and the recall and F1 grids have
O(sigma_TP * sigma_FN) pairs, which is O(n), instead of O(n_pos * n_neg).
Each derived distribution carries the mass its PMFs left out, at most
``TRIM_TOL``, as its ``trimmed_mass``, and
:func:`~confmetrics.intervals.hdi` counts it as already dropped.  The tests
keep a reference that builds full-length PMFs by one convolution per score
and pairs every count.  Against it, on seeded windows of up to 4000
records, the total variation distance stays below 1e-15, the means agree
within 2e-15 and the interval endpoints are identical.

Point estimates are distribution means.  The shortcut reader evaluates a
row on the window's expected quantities without a distribution: expected
``tp`` is the positive-prediction score sum, ``p`` the total score sum and
``correct`` the sum of each positive prediction's score and each negative
one's complement.  That is exact for accuracy and precision, whose rows are
linear in the counts.  Recall and F1 are rows g(i, j) = ``scale * i / (i +
j + fixed)`` of the independent TP and FN counts T and F, and there the
shortcut point g(m_T, m_F) on their means is off from the exact mean
E g(T, F) by O(1/n) in the window size n:

- By the second-order delta method (Casella and Berger, *Statistical
  Inference*, 2nd ed., §5.5), E g = g(m_T, m_F) + (g_TT v_T + g_FF v_F) / 2
  + R.  The variances v are at most n/4.  While T + F stays above half its
  mean m, which grows as n when the scores' mean does not vanish, the
  second derivatives are O(1/n**2) and the third O(1/n**3), so the
  correction term is O(1/n) and the remainder R is O(n**-1.5).
- g lies in [0, scale], and its second-order expansion about the means is
  O(1) for all counts from 0 to n.  So the event that T + F, a sum of n
  independent labels, falls below m / 2 adds O(1) times its chance, which
  is at most exp(-m**2 / (2n)) by Hoeffding's inequality (1963).

Measured with ``run_convergence_experiment((100, 1000), trials=100,
seed=s)`` for seeds 0 to 5, the mean absolute error is 6.5 to 13 times
smaller at window 1000 than at window 100, where an O(1/sqrt(n)) error
would give 3.2 times.  Shortcuts are O(n) and give points only.

The shortcuts need only per-window sums, so all windows of a stream get
their shortcut points in one array pass, as one column of points per
metric, each window's bit-identical to what its own slice gives.  Requests
are checked, and methods picked, in :mod:`confmetrics.reports`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import _require_nonempty
from .confusion import ConfusionEstimate, PredictionBatch
from .distribution import CountPMF, DiscreteDistribution
from .intervals import HdiInterval, hdi

__all__ = [
    "METRICS",
    "MetricEstimate",
    "TrueMetrics",
    "accuracy_distribution",
    "precision_distribution",
    "recall_distribution",
    "f1_distribution",
    "true_metrics",
]


class _Row(NamedTuple):
    """A metric as ``scale * num / (sum of den)`` over window quantities."""

    scale: int
    num: str
    den: tuple[str, ...]

    def ratio(self, quantities):
        """The row's numerator and denominator over ``quantities``, which
        maps each quantity the row reads to a number or to an array of
        per-window values."""
        den = quantities[self.den[0]]
        for name in self.den[1:]:
            den = den + quantities[name]
        return self.scale * quantities[self.num], den


# Each metric over the window quantities tp (true positives), p (actual
# positives), correct (TP + TN), n_pos (positive predictions) and n
# (records); the module docstring says how each reader evaluates a row.
_ROWS = {
    "accuracy": _Row(1, "correct", ("n",)),
    "precision": _Row(1, "tp", ("n_pos",)),
    "recall": _Row(1, "tp", ("p",)),
    "f1": _Row(2, "tp", ("p", "n_pos")),
}

METRICS = tuple(_ROWS)


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


def _scaled_counts(counts: CountPMF, scale: int, denominator: int) -> DiscreteDistribution:
    """``scale`` times a count over a fixed positive denominator; the mass
    trimmed from the count stays left out."""
    stop = counts.offset + counts.pmf.size
    nums = np.arange(scale * counts.offset, scale * stop, scale, dtype=np.int64)
    return DiscreteDistribution._from_ratio_arrays(
        nums, np.full(nums.size, denominator, dtype=np.int64), counts.pmf, counts.trimmed
    )


# Denominators below this bound keep the float grouping of
# _aggregate_ratio_masses exact; its docstring gives the argument.
_RATIO_DEN_BOUND = 2**26

# Widest sort key an int64 holds without its sign bit.
_KEY_BITS = 63


def _aggregate_ratio_masses(
    nums: np.ndarray, dens: np.ndarray, masses: np.ndarray, trimmed_mass: float = 0.0
) -> DiscreteDistribution:
    """Sum probability masses that land on the same fraction.

    ``nums``/``dens``/``masses`` are flat arrays of unreduced ratios in
    [0, 1] with their probabilities.  Each ratio's float value v goes to the
    integer bucket floor(v * 2**k), with k = 2 * bit_length(D) + 1 for the
    largest denominator D, and the bucket identifies the fraction exactly:

    - distinct fractions with denominators at most D differ by at least
      1/D**2;
    - each quotient lies within 2**-54 of its fraction, and scaling it by
      2**k is exact;
    - so two distinct fractions' quotients differ by at least
      1/D**2 - 2**-53 >= 2**-k, which holds for every D below
      ``_RATIO_DEN_BOUND`` = 2**26 (where k reaches 53), and they land in
      distinct buckets, in ascending order;
    - equal fractions are already the same double, since int64 operands
      below 2**53 convert exactly and division is correctly rounded.

    The key of a pair is its bucket, k + 1 bits wide, shifted above its
    index, and one ``np.sort`` of these int64 keys yields a stable value
    order in the low bits; a change in the high bits starts each group.  A
    grid whose keys need more than ``_KEY_BITS`` bits (a whole-file window
    of more than about 300 000 records) takes a stable argsort of the
    buckets instead.  Either way each group's masses arrive in input
    order, so ``bincount`` adds them in that sequence, and each group keeps
    its first ratio, unreduced, as its representative.  Raises ValueError
    for a denominator at or above the bound.
    """
    max_den = int(dens.max())
    if max_den >= _RATIO_DEN_BOUND:
        raise ValueError(
            f"ratio denominator {max_den} is not below {_RATIO_DEN_BOUND}; "
            "float grouping could merge distinct fractions"
        )
    k = 2 * max_den.bit_length() + 1
    index_bits = (nums.size - 1).bit_length()
    keys = nums / dens
    keys *= 2.0**k
    keys = keys.astype(np.int64)  # truncation is floor for values >= 0
    if k + 1 + index_bits <= _KEY_BITS:
        keys <<= index_bits
        keys |= np.arange(keys.size)
        keys.sort()
        order = keys & ((1 << index_bits) - 1)
        keys >>= index_bits
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    new_group = np.empty(keys.size, dtype=bool)
    new_group[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
    labels = np.cumsum(new_group, out=keys)
    labels -= 1
    probs = np.bincount(labels, weights=masses[order])
    del keys, labels
    first = order[new_group]
    del order, new_group
    return DiscreteDistribution._from_ratio_arrays(nums[first], dens[first], probs, trimmed_mass)


def _count_pair_distribution(
    est: ConfusionEstimate, scale: int, offset: int
) -> DiscreteDistribution:
    """Distribution of ``scale * i / (i + j + offset)`` over the pairs of i
    true positives and j false negatives, zero counts included, with 0/0
    read as 0.

    Pairs are formed only inside the count ranges the two PMFs hold.  The
    mass their trimming left out of the joint distribution, at most
    ``TRIM_TOL``, is carried as the result's ``trimmed_mass``.
    """
    tp, fn = est.tp, est.fn
    i = np.arange(tp.offset, tp.offset + tp.pmf.size, dtype=np.int64)
    j = np.arange(fn.offset, fn.offset + fn.pmf.size, dtype=np.int64)
    nums = np.broadcast_to(scale * i[:, None], (i.size, j.size)).ravel()
    dens = (i[:, None] + (j + offset)[None, :]).ravel()
    # Only the pair (0, 0) of recall has a zero denominator, and both ranges
    # ascend, so it can only be the first pair.
    dens[0] = max(dens[0], 1)
    masses = np.outer(tp.pmf, fn.pmf).ravel()
    trimmed = tp.trimmed + fn.trimmed - tp.trimmed * fn.trimmed
    return _aggregate_ratio_masses(nums, dens, masses, trimmed)


def _metric_distribution(metric: str, est: ConfusionEstimate) -> DiscreteDistribution | None:
    """Distribution of a metric's row over the window's count PMFs; None
    when the row's denominator reads ``n_pos`` and the window has no
    positive predictions.

    ``n_pos`` and ``n`` are fixed by the window, so the part of the
    denominator they make up is one number.  The derivation follows the
    quantities the row reads, as the module docstring describes.
    """
    scale, num, den = _ROWS[metric]
    if "n_pos" in den and est.n_pos == 0:
        return None
    fixed = est.n_pos * ("n_pos" in den) + (est.n_pos + est.n_neg) * ("n" in den)
    if "p" in den:
        return _count_pair_distribution(est, scale, fixed)
    if num == "correct":
        tp, tn = est.tp, est.tn
        counts = CountPMF(
            tp.offset + tn.offset,
            np.convolve(tp.pmf, tn.pmf),
            tp.trimmed + tn.trimmed - tp.trimmed * tn.trimmed,
        )
    else:
        counts = est.tp
    return _scaled_counts(counts, scale, fixed)


# The named metric distributions, each the module-level name through
# which _named_distribution reaches its row.
def accuracy_distribution(est: ConfusionEstimate) -> DiscreteDistribution:
    """Distribution of the fraction of correct predictions in the window."""
    return _metric_distribution("accuracy", est)


def precision_distribution(est: ConfusionEstimate) -> DiscreteDistribution | None:
    """Distribution of TP / n_pos; None without positive predictions."""
    return _metric_distribution("precision", est)


def recall_distribution(est: ConfusionEstimate) -> DiscreteDistribution:
    """Distribution of TP / (TP + FN), with the 0/0 of no true positives and
    no false negatives read as 0."""
    return _metric_distribution("recall", est)


def f1_distribution(est: ConfusionEstimate) -> DiscreteDistribution | None:
    """Distribution of 2*TP / (TP + FN + n_pos); None without positive
    predictions."""
    return _metric_distribution("f1", est)


def _named_distribution(metric: str, est: ConfusionEstimate) -> DiscreteDistribution | None:
    # Calls the module-level name at each call, so rebinding it (as a
    # profiler does) reaches every caller.
    return globals()[f"{metric}_distribution"](est)


def _window_sizes(n: int, window_size: int) -> np.ndarray:
    """The int64 sizes of the consecutive windows of ``window_size`` over
    ``n`` records, the last one possibly shorter; a window past ``n`` holds
    them all."""
    width = min(window_size, n)
    sizes = np.full(-(-n // width), width, dtype=np.int64)
    sizes[-1] = n - (sizes.size - 1) * width
    return sizes


def _window_quantities(
    predictions: np.ndarray, outcomes: np.ndarray, window_size: int
) -> dict[str, np.ndarray]:
    """Per-window sums of the five window quantities, over the windows
    :func:`_window_sizes` lays out, by the module docstring's one rule.
    ``outcomes`` are the records' chances of a positive label: the scores
    give the expected quantities, the 0/1 labels the realized counts.  numpy
    sums each row of the reshape with the pairwise sum it uses on a slice,
    so each window's sums equal, bit for bit, the ones its own slice gives.
    """
    n = outcomes.size
    records = _window_sizes(n, window_size)
    window_size = int(records[0])
    full = n - n % window_size
    positive = predictions == 1

    def window_sums(values: np.ndarray) -> np.ndarray:
        sums = values[:full].reshape(-1, window_size).sum(axis=1)
        return np.append(sums, values[full:].sum()) if full < n else sums

    n_pos = window_sums(positive)
    return {
        "tp": window_sums(np.where(positive, outcomes, 0)),
        "p": window_sums(outcomes),
        # Each prediction is correct with the chance of a positive label if
        # positive, and its complement if negative.
        "correct": window_sums(np.where(positive, outcomes, 1 - outcomes)),
        "n_pos": n_pos,
        "n": records,
    }


def _shortcut_windows(
    batch: PredictionBatch, window_size: int, metrics: tuple[str, ...] = METRICS
) -> dict[str, list[float | None]]:
    """Shortcut points of every window of the batch, from one pass.

    Returns one column per requested metric, in request order, holding the
    point of each window :func:`_window_sizes` lays out (None where the
    metric is undefined).  The sums come from :func:`_window_quantities`
    over the scores.  The caller checks that the batch is not empty.
    """
    expected = _window_quantities(batch.predictions, batch.scores, window_size)
    columns = {}
    for metric in metrics:
        row = _ROWS[metric]
        num, den = row.ratio(expected)
        defined = den > 0
        if "n_pos" in row.den:
            defined &= expected["n_pos"] > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = num / den
        columns[metric] = [v if ok else None for v, ok in zip(values.tolist(), defined.tolist())]
    return columns


@dataclass(frozen=True)
class TrueMetrics:
    """Realized metrics of a labelled window; None where the defining ratio
    has a zero denominator."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None


def true_metrics(batch: PredictionBatch) -> TrueMetrics:
    """Realized confusion-matrix metrics of a labelled window: each row on
    the window's label sums, which are exact integers.  Raises ValueError
    for an empty or unlabelled batch."""
    _require_nonempty(batch, "true_metrics", labelled=True)
    counts = _window_quantities(batch.predictions, batch.labels, batch.n)
    realized = {}
    for metric, row in _ROWS.items():
        num, den = (int(x[0]) for x in row.ratio(counts))
        realized[metric] = num / den if den else None
    return TrueMetrics(**realized)


def _exact_estimate(
    metric: str, est: ConfusionEstimate, alpha: float | None
) -> MetricEstimate:
    dist = _named_distribution(metric, est)
    if dist is None:
        return MetricEstimate(metric=metric, method="exact", point=None)
    return MetricEstimate(
        metric=metric,
        method="exact",
        point=dist.expectation(),
        distribution=dist,
        hdi=None if alpha is None else hdi(dist, alpha),
    )


# Empty: the shortcut points come from _shortcut_windows.  The benchmark's
# tracer (perfbench/tracing.py) still reads this name.
_SHORTCUTS: dict = {}
