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
pair's probability accumulates on the fraction the pair maps to.  A row
that reads ``correct`` rescales the count TP + TN, whose PMF is the
convolution of the two count arrays; any other row rescales the TP count.

With s = j + fixed the row is ``scale * i / (i + s)``, so the pairs are
read from pair tables: the lattice of i in [i0, i1) and s in [s0, s1),
grouped once by value with one sort of int64 keys, each a bucket of a
pair's float value packed above its index.  Consecutive windows of a chunk
(:func:`~confmetrics.confusion.estimate_confusions`) share a table while
it holds at most ``_TABLE_GROWTH`` times the pairs of its largest window,
and any other window reads a table of its own.  F1's s holds ``n_pos``, so
windows with different ``n_pos`` share one F1 table; recall has tables of
its own.  A window places its TP and FN PMFs, padded with zeros, at their
offsets in the table and sums each group's products in value order.  The
result is bit for bit what the window's own table gives: a fraction's
place in value order depends on (i, s) alone; within a group, the table's
order, i first and then s, is the window's own pair order; a padding pair
adds an exact 0.0; a group without mass is left out either way; and a
group's representative can differ only unreduced, which ``ratios``,
``float_values`` and equality do not see.  A table that several windows
read is kept on the chunk until each of them has read it, a large one in
its narrowest integer types; a table of one window goes once it is read.

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


# Denominators below this bound keep the float grouping of _value_order
# exact; its docstring gives the argument.
_RATIO_DEN_BOUND = 2**26

# Widest sort key an int64 holds without its sign bit.
_KEY_BITS = 63


def _value_order(values: np.ndarray, max_den: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ratios that are the same fraction, by their float values.

    ``values`` holds the quotients, as float64, of fractions in [0, 1]
    whose denominators are positive and at most ``max_den``; they are
    scaled in place to the buckets below.  Returns the
    ratios' indices in value order, stable; the group of each in that
    order, the groups numbered in ascending value from 0; and the index of
    each group's first ratio.  Each quotient v goes to the integer bucket
    floor(v * 2**k), with k = 2 * bit_length(max_den) + 1, and the bucket
    identifies the fraction exactly:

    - distinct fractions with denominators at most D differ by at least
      1/D**2;
    - each quotient lies within 2**-54 of its fraction, and scaling it by
      2**k is exact;
    - so two distinct fractions' quotients differ by at least
      1/D**2 - 2**-53 >= 2**-k, which holds for every D below
      ``_RATIO_DEN_BOUND`` = 2**26 (where k reaches 53), and they land in
      distinct buckets, in ascending order;
    - equal fractions are already the same double, since integers below
      2**53 convert to float64 exactly and division is correctly rounded.

    The key of a ratio is its bucket, k + 1 bits wide, shifted above its
    index, and one ``np.sort`` of these int64 keys yields a stable value
    order in the low bits; a change in the high bits starts each group.
    Ratios whose keys need more than ``_KEY_BITS`` bits (a whole-file
    window of more than about 300 000 records) take a stable argsort of the
    buckets instead.  Raises ValueError for ``max_den`` at or above the
    bound.
    """
    if max_den >= _RATIO_DEN_BOUND:
        raise ValueError(
            f"ratio denominator {max_den} is not below {_RATIO_DEN_BOUND}; "
            "float grouping could merge distinct fractions"
        )
    k = 2 * max_den.bit_length() + 1
    values *= 2.0**k
    keys = values.astype(np.int64)  # truncation is floor for values >= 0
    index_bits = (keys.size - 1).bit_length()
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
    return order, labels, order[new_group]


class _RatioGroups(NamedTuple):
    """Ratios grouped by :func:`_value_order`: its ``order`` and
    ``labels``, and each group's first ratio, unreduced, as ``nums`` over
    ``dens``."""

    order: np.ndarray
    labels: np.ndarray
    nums: np.ndarray
    dens: np.ndarray

    def narrowed(self) -> "_RatioGroups":
        """The same groups, each array in the narrowest unsigned integer
        type that holds its values: the form a kept table is stored in."""
        return _RatioGroups(*(a.astype(np.min_scalar_type(int(a.max()))) for a in self))


def _sum_groups(
    groups: _RatioGroups, masses: np.ndarray, trimmed_mass: float = 0.0
) -> DiscreteDistribution:
    """The distribution of ``masses``, one on each grouped ratio in the
    ratios' shape, with ``trimmed_mass`` left out.

    The masses are taken in value order, and ``bincount`` adds each
    group's masses in that sequence, so within a group in the ratios' own
    order, starting at 0.0.  A group whose masses are all 0.0 is left out.
    """
    # Each large array goes once read, which keeps a window's peak low.
    weights = masses.ravel().take(groups.order.astype(np.intp, copy=False))
    del masses
    labels = groups.labels.astype(np.intp, copy=False)
    probs = np.bincount(labels, weights=weights, minlength=groups.nums.size)
    del labels, weights
    return DiscreteDistribution._from_ratio_arrays(groups.nums, groups.dens, probs, trimmed_mass)


class _PairTable(NamedTuple):
    """The values ``scale * i / (i + s)`` over i in [i0, i1) and s in
    [s0, s1), grouped as the ratios of one (i1 - i0) by (s1 - s0) array."""

    i0: int
    i1: int
    s0: int
    s1: int
    groups: _RatioGroups


def _pair_table(scale: int, i0: int, i1: int, s0: int, s1: int) -> _PairTable:
    """The pair table of i in [i0, i1) and s in [s0, s1), with 0/0 read as
    0/1.  Its numerators and denominators lie below 2**53, so in float64
    they are exact and each quotient is the correctly rounded one."""
    i = np.arange(i0, i1, dtype=np.float64)
    values = np.add.outer(i, np.arange(s0, s1, dtype=np.float64))
    if i0 == s0 == 0:
        # The pair (0, 0), recall's 0/0, is the first pair and the first
        # of the first group; no other pair has a zero denominator.
        values[0, 0] = 1.0
    np.divide((scale * i)[:, None], values, out=values)
    order, labels, first = _value_order(values.ravel(), max(i1 + s1 - 2, 1))
    del values
    # The pair at flat index f = r * width + c is (i0 + r, s0 + c), with
    # denominator f - r * (width - 1) + i0 + s0.
    width = s1 - s0
    rows = first // width
    dens = first - rows * (width - 1)
    dens += i0 + s0
    if i0 == s0 == 0:
        dens[0] = 1
    rows *= scale
    rows += scale * i0
    return _PairTable(i0, i1, s0, s1, _RatioGroups(order, labels, rows, dens))


def _padded(pmf: np.ndarray, start: int, size: int) -> np.ndarray:
    """``pmf`` placed at ``start`` among ``size`` zeros."""
    if pmf.size == size:
        return pmf
    padded = np.zeros(size)
    padded[start : start + pmf.size] = pmf
    return padded


# A window joins the pair table of the windows before it in its chunk
# while the table, grown to hold the window's pairs too, holds at most this
# many times the pairs of its largest window.  README.md gives the
# measurements behind the value.
_TABLE_GROWTH = 1.25

# A kept table of fewer pairs is kept as built: narrowing it would save
# under 100 kB, and its windows' reads would pay more for the conversions
# than its sharing saves.  README.md gives the measurements.
_NARROW_PAIRS = 2**12


class _TablePlan:
    """The pair tables of one metric over the windows of a chunk.

    Consecutive windows share a table by ``_TABLE_GROWTH``.  ``of`` holds
    each window's table index, -1 for a window where the metric is
    undefined, and ``tables`` each table's bounds (i0, i1, s0, s1) and
    window count.  A table of several windows is kept, narrowed from
    ``_NARROW_PAIRS`` pairs on, as ``kept`` with the number of reads it
    has left, until each of its windows has read it or another such table
    is built; so a chunk keeps at most one table per metric, and a table
    of one window is built, read and let go.  A window read again after
    its table went builds it again.
    """

    __slots__ = ("metric", "of", "tables", "kept")

    def __init__(self, metric: str, counts: np.ndarray):
        self.metric = metric
        self.of: list[int] = []
        self.tables: list[list[int]] = []
        self.kept: tuple[int, _PairTable | None, int] = (-1, None, 0)
        undefined = "n_pos" in _ROWS[metric].den
        largest = 0
        for i0, tp_size, fn_offset, fn_size, n_pos, n_neg in counts.tolist():
            if undefined and n_pos == 0:
                self.of.append(-1)
                continue
            s0 = fn_offset + _fixed(metric, n_pos, n_neg)
            i1, s1 = i0 + tp_size, s0 + fn_size
            pairs = tp_size * fn_size
            if self.tables:
                a0, a1, b0, b1, members = self.tables[-1]
                grown = [min(a0, i0), max(a1, i1), min(b0, s0), max(b1, s1)]
                largest = max(largest, pairs)
                if (grown[1] - grown[0]) * (grown[3] - grown[2]) <= _TABLE_GROWTH * largest:
                    self.tables[-1] = [*grown, members + 1]
                    self.of.append(len(self.tables) - 1)
                    continue
            largest = pairs
            self.tables.append([i0, i1, s0, s1, 1])
            self.of.append(len(self.tables) - 1)

    def table(self, index: int, bounds: tuple[int, int, int, int]) -> _PairTable:
        """The table that window ``index``, whose pairs lie in ``bounds``,
        reads."""
        scale = _ROWS[self.metric].scale
        number = self.of[index]
        kept = self.kept  # read once, so that a thread sees one table
        if number != kept[0]:
            *shared, reads = self.tables[number]
            if reads == 1:
                return _pair_table(scale, *bounds)
            self.kept = kept = (-1, None, 0)  # the table before goes first
            table = _pair_table(scale, *shared)
            if table.groups.order.size >= _NARROW_PAIRS:
                table = table._replace(groups=table.groups.narrowed())
            kept = (number, table, reads)
        _, table, reads = kept
        self.kept = (number, table, reads - 1) if reads > 1 else (-1, None, 0)
        return table


def _window_pair_table(metric: str, est: ConfusionEstimate, bounds: tuple[int, ...]) -> _PairTable:
    """The pair table the window's ``metric`` pairs are read from: by its
    chunk's plan, made when the chunk's first window asks, or the window's
    own table for an estimate without a chunk."""
    chunk = est._chunk
    if chunk is None:
        return _pair_table(_ROWS[metric].scale, *bounds)
    plan = chunk.tables.get(metric)
    if plan is None:
        plan = chunk.tables[metric] = _TablePlan(metric, chunk.counts)
    return plan.table(est._index, bounds)


def _fixed(metric: str, n_pos: int, n_neg: int) -> int:
    """The part of the metric's row denominator that ``n_pos`` and ``n``
    make up, fixed by the window."""
    den = _ROWS[metric].den
    return n_pos * ("n_pos" in den) + (n_pos + n_neg) * ("n" in den)


def _count_pair_distribution(metric: str, est: ConfusionEstimate) -> DiscreteDistribution:
    """Distribution of the metric's row ``scale * i / (i + j + fixed)``
    over the pairs of i true positives and j false negatives, zero counts
    included, with 0/0 read as 0.

    Pairs are formed only inside the count ranges the two PMFs hold, and
    their masses are read as a block of a pair table.  The mass their
    trimming left out of the joint distribution, at most ``TRIM_TOL``, is
    carried as the result's ``trimmed_mass``.
    """
    tp, fn = est.tp, est.fn
    s0 = fn.offset + _fixed(metric, est.n_pos, est.n_neg)
    table = _window_pair_table(
        metric, est, (tp.offset, tp.offset + tp.pmf.size, s0, s0 + fn.pmf.size)
    )
    trimmed = tp.trimmed + fn.trimmed - tp.trimmed * fn.trimmed
    # Each PMF is padded with zeros to the table's range: a pair outside
    # the window gets mass 0.0, which adds nothing to any sum.
    return _sum_groups(
        table.groups,
        np.multiply.outer(
            _padded(tp.pmf, tp.offset - table.i0, table.i1 - table.i0),
            _padded(fn.pmf, s0 - table.s0, table.s1 - table.s0),
        ),
        trimmed,
    )


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
    if "p" in den:
        return _count_pair_distribution(metric, est)
    if num == "correct":
        tp, tn = est.tp, est.tn
        counts = CountPMF(
            tp.offset + tn.offset,
            np.convolve(tp.pmf, tn.pmf),
            tp.trimmed + tn.trimmed - tp.trimmed * tn.trimmed,
        )
    else:
        counts = est.tp
    return _scaled_counts(counts, scale, _fixed(metric, est.n_pos, est.n_neg))


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
