"""Highest-density intervals over finite metric distributions.

The interval is narrowed greedily from both ends of the sorted support:
whichever endpoint carries less probability is dropped, as long as the mass
dropped so far plus that endpoint's stays below alpha.  On a probability tie
the upper endpoint is dropped, and the last remaining point is never
dropped.  Mass a derivation trimmed from the distribution
(``trimmed_mass``) counts as dropped before the first endpoint.  Rounded
probabilities can sum to a hair below one, so the walk's last drops are
then restored, latest first, until the surviving points sum to at least
1 - alpha; the interval holds at least (1 - alpha) of the mass whenever
the probabilities alone sum to that.

The greedy walk is a merge of two sequences, the probabilities read upwards
from the lower end and downwards from the upper end, that always takes the
smaller head.  Such a merge of unsorted sequences takes a point from one
side before a point from the other exactly when the running maximum up to
the first is below the running maximum up to the second, so the drop order
is a stable sort of the running maxima; :func:`hdis` computes it that way
instead of stepping the two pointers one point at a time, once for every
alpha it is asked for.

For strongly multimodal distributions a union of disjoint intervals could be
shorter than the single contiguous interval returned here; this module
always returns one interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import _check_alpha, _require_sequence
from .distribution import DiscreteDistribution

__all__ = ["HdiInterval", "hdi", "hdis"]


@dataclass(frozen=True)
class HdiInterval:
    """A (1 - alpha) highest-density interval with its actual coverage."""

    lower: float
    upper: float
    alpha: float
    covered_mass: float


def _reachable(probs: np.ndarray, alpha: float, start: np.ndarray) -> np.ndarray:
    """The leading run of ``probs`` that greedy dropping from that end can
    reach: up to and including the first point at which the run's own
    running sum, begun at the one-element ``start``, reaches alpha.

    Dropping from both ends only adds non-negative terms to the dropped
    mass, and rounded addition is monotone, so the dropped mass on reaching
    that point is at least the run's own sum there and the point stays.
    """
    return probs[: int(np.searchsorted(np.cumsum(np.concatenate([start, probs])), alpha))]


def hdi(d: DiscreteDistribution, alpha: float) -> HdiInterval:
    """Greedy highest-density interval of a finite distribution.

    Endpoints are dropped lighter first, the upper one on a tie, while the
    dropped mass stays strictly below alpha, and never the last point, so
    ``lower <= upper`` and the covered mass is positive.  The dropped mass
    starts at ``d.trimmed_mass``.  Drops are then undone, latest first,
    while the covered mass is below 1 - alpha, so it is at least 1 - alpha
    unless the probabilities themselves sum to less.
    This is the one-alpha case of :func:`hdis`.
    """
    return hdis(d, (alpha,))[0]


def hdis(d: DiscreteDistribution, alphas: Sequence[float]) -> list[HdiInterval]:
    """The :func:`hdi` interval of one distribution at each of ``alphas``.

    The drop order is a stable sort of the running maxima of both ends
    (see the module docstring), upper end first so that it wins ties.  The
    dropped mass is the cumulative sum along that order, added in the same
    sequence as one point at a time, so each interval matches the
    two-pointer walk, and the undoing of its latest drops, bit for bit;
    with no trimmed mass the sum starts at 0.0, which adds exactly.

    One order, taken over the points the largest alpha can reach, serves
    every alpha.  A point beyond a smaller alpha's reachable run comes, in
    that order, after the last point of the run, where the smaller alpha's
    walk has already stopped (see :func:`_reachable`).  So each walk is a
    prefix of the one order, and its dropped mass a prefix of the one sum.
    Raises ValueError for alphas that are not a sequence, or an alpha that
    is not a real number in (0, 1).
    """
    _require_sequence(alphas, "alphas", "real numbers")
    for alpha in alphas:
        _check_alpha(alpha)
    if len(alphas) == 0:
        return []
    probs = d.probabilities
    start = np.array([d.trimmed_mass])
    widest = max(alphas)
    low = _reachable(probs, widest, start)
    high = _reachable(probs[::-1], widest, start)
    order = np.argsort(
        np.concatenate([np.maximum.accumulate(high), np.maximum.accumulate(low)]),
        kind="stable",
    )
    dropped_mass = np.cumsum(np.concatenate([start, np.concatenate([high, low])[order]]))[1:]
    intervals = []
    for alpha in alphas:
        # Within the first len(probs) - 1 merged points the two ends have
        # not met, so no point appears twice among those dropped.
        n_dropped = min(int(np.searchsorted(dropped_mass, alpha)), probs.size - 1)
        while True:
            lo = int(np.count_nonzero(order[:n_dropped] >= high.size))
            hi = probs.size - 1 - (n_dropped - lo)
            covered_mass = float(probs[lo : hi + 1].sum())
            # Rounded probabilities may sum to a hair below one; restore
            # the latest drops until the kept points hold 1 - alpha.
            if covered_mass >= 1.0 - alpha or n_dropped == 0:
                break
            n_dropped -= 1
        intervals.append(
            HdiInterval(
                lower=d._value(lo),
                upper=d._value(hi),
                alpha=alpha,
                covered_mass=covered_mass,
            )
        )
    return intervals
