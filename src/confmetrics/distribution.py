"""Exact finite discrete distributions with rational support.

A :class:`DiscreteDistribution` is an immutable PMF held as three aligned
arrays: int64 numerators and denominators of its support points, sorted
ascending by value, and float64 probabilities.  The fractions are stored as
they were derived, not necessarily in lowest terms; each support point
appears once, as one representative fraction, and ``ratios``, ``repr`` and
equality reduce them when asked.  A support point is read in one of two
forms: exactly, as a (numerator, denominator, probability) triple in lowest
terms from ``ratios``, or as a float from ``float_values``, the correctly
rounded quotient of its fraction, computed when asked.

A count PMF is a :class:`CountPMF`: a read-only float64 array ``pmf`` whose
entry k is the probability of exactly ``offset + k`` successes, and the mass
``trimmed`` that was cut from its tails and lies outside that range.  The
count complement m - X of a PMF over 0..m is its reversal.
:func:`poisson_binomial_trees` builds the Poisson binomial PMFs of many
parameter sets in this form, each by a product tree of trimmed nodes, with
one vectorised leaf pass shared by all the sets; each PMF is the same, bit
for bit, as its set alone gives, and :func:`poisson_binomial_tree` is the
one-set call.

Everything here is pure and deterministic; instances never mutate after
construction and are safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ._checks import unit_interval_array

__all__ = [
    "PROB_SUM_TOL",
    "TRIM_TOL",
    "CountPMF",
    "DiscreteDistribution",
    "poisson_binomial_tree",
    "poisson_binomial_trees",
]

# Single library-wide tolerance for "probabilities sum to one" checks.
PROB_SUM_TOL = 1e-9

# Bound on the total probability a derived distribution may leave out
# because the count PMFs it combines were trimmed; each Poisson binomial PMF
# leaves out at most half of it.
TRIM_TOL = 1e-15

# Parameters per leaf block of the Poisson binomial product tree.  On one
# core, a set built alone beats the per-score convolution from about 100
# parameters on; in a call with 127 other sets, as a chunk of coverage trials
# makes, from 10 parameters on (10 us a set against 21 us).  The block size
# fixes the tree's shape, so changing it changes the PMFs' rounding.
_BLOCK = 16

# Mass a product-tree node below the root may cut from each of its ends.
_NODE_TOL = 1e-24

def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _fraction_text(num: int, den: int) -> str:
    """``num / den`` in lowest terms, for a positive ``den``, written as
    ``str(Fraction(num, den))`` writes it: ``n`` or ``n/d``."""
    g = math.gcd(num, den)
    return f"{num // g}" if den == g else f"{num // g}/{den // g}"


class CountPMF(NamedTuple):
    """Probability mass function of a count, held over the range where its
    mass lies.

    ``pmf[k]`` is the probability that the count equals ``offset + k``.
    The counts outside that range together hold ``trimmed`` of the mass,
    cut from the tails on purpose, so ``pmf`` sums to one minus
    ``trimmed`` up to rounding.
    """

    offset: int
    pmf: np.ndarray
    trimmed: float

    def complement(self, n: int) -> "CountPMF":
        """PMF of n - X for this count X over 0..n: a reversed view."""
        return CountPMF(n - self.offset - self.pmf.size + 1, self.pmf[::-1], self.trimmed)


class DiscreteDistribution:
    """A finite PMF over exact rational support points.

    Probabilities are floats that must be non-negative and, together with
    ``trimmed_mass``, sum to one within :data:`PROB_SUM_TOL`.  Entries with
    zero probability are dropped, so the support carries only points with
    mass.  ``trimmed_mass`` is the probability a derivation left out of the
    support on purpose; it is 0.0 unless a metric derivation trimmed tails.
    """

    __slots__ = ("_nums", "_dens", "_probs", "_trimmed")

    @classmethod
    def _from_ratio_arrays(
        cls,
        nums: np.ndarray,
        dens: np.ndarray,
        probs: np.ndarray,
        trimmed_mass: float = 0.0,
    ) -> "DiscreteDistribution":
        """The one constructor, which the metric derivations call: num/den
        pairs of distinct values with positive denominators, not necessarily
        reduced, already sorted by value, and the probability left out of
        them.  Numerators and denominators may come in any integer type and
        are kept as int64; they must lie within 2**53 in magnitude, as
        ``float_values`` divides them in numpy.  The distribution takes the
        arrays over, reading them through read-only views, so the caller
        must not write to them afterwards."""
        nums = np.asarray(nums)
        dens = np.asarray(dens)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        lowest = probs.min(initial=np.inf)  # no points fail the sum check below
        if lowest < 0.0:
            i = int(np.argmin(probs))
            bad = _fraction_text(int(nums[i]), int(dens[i]))
            raise ValueError(f"negative probability {float(probs[i])!r} at support {bad}")
        if trimmed_mass < 0.0:
            raise ValueError(f"negative trimmed mass {trimmed_mass!r}")
        total = float(probs.sum()) + trimmed_mass
        if not abs(total - 1.0) <= PROB_SUM_TOL:  # a NaN probability fails too
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if lowest == 0.0:
            keep = np.flatnonzero(probs > 0.0)
            nums = nums.take(keep)
            dens = dens.take(keep)
            probs = probs.take(keep)
        self = object.__new__(cls)
        self._nums = _read_only(np.ascontiguousarray(nums, dtype=np.int64).view())
        self._dens = _read_only(np.ascontiguousarray(dens, dtype=np.int64).view())
        self._probs = _read_only(probs.view())
        self._trimmed = trimmed_mass
        return self

    # ---- accessors ----

    @property
    def float_values(self) -> np.ndarray:
        """Support points as correctly rounded floats, aligned with
        probabilities, in a new array on each call.  Numerators and
        denominators lie within 2**53, where int64 converts to float64
        exactly, so numpy's quotient is correctly rounded."""
        return self._nums / self._dens

    def _value(self, index: int) -> float:
        """Support point ``index`` as a correctly rounded float."""
        return int(self._nums[index]) / int(self._dens[index])

    @property
    def probabilities(self) -> np.ndarray:
        """Probabilities (read-only), aligned with the support."""
        return self._probs

    @property
    def trimmed_mass(self) -> float:
        """Probability left out of the support by tail trimming; 0.0 for a
        distribution that holds all of its mass."""
        return self._trimmed

    def _reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """Numerators and denominators in lowest terms."""
        g = np.gcd(self._nums, self._dens)
        return self._nums // g, self._dens // g

    def ratios(self) -> Iterator[tuple[int, int, float]]:
        """Yield (numerator, denominator, probability) triples, each
        fraction in lowest terms."""
        nums, dens = self._reduced()
        return zip(nums.tolist(), dens.tolist(), self._probs.tolist())

    def __len__(self) -> int:
        return len(self._probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return (
            np.array_equal(self._probs, other._probs)
            and self._trimmed == other._trimmed
            and all(map(np.array_equal, self._reduced(), other._reduced()))
        )

    __hash__ = None  # mutable-by-content comparisons; not hashable

    def __repr__(self) -> str:
        first = (a[:4].tolist() for a in (self._nums, self._dens, self._probs))
        head = ", ".join(f"{_fraction_text(n, d)}: {p:.6g}" for n, d, p in zip(*first))
        tail = ", ..." if len(self) > 4 else ""
        return f"DiscreteDistribution({{{head}{tail}}})"

    # ---- moments ----

    def expectation(self) -> float:
        """Mean of the distribution, evaluated in float arithmetic; trimmed
        mass contributes nothing.  The products are added by numpy's
        pairwise sum rather than a BLAS dot product, whose rounding changes
        with the number of threads BLAS splits it across."""
        products = self.float_values
        products *= self._probs
        return float(products.sum())


def _trim(pmf: np.ndarray, tol: float) -> tuple[int, int, float]:
    """Bounds ``lo, hi`` of the shortest ``pmf[lo:hi]`` outside which each
    end holds at most ``tol`` of the mass, and the mass outside it.  Each
    end's mass is summed from its own side, so no tiny tail is taken as the
    difference of two large sums."""
    if pmf[0] > tol and pmf[-1] > tol:
        return 0, pmf.size, 0.0
    low = pmf.cumsum()
    high = pmf[::-1].cumsum()
    lo = int(low.searchsorted(tol, side="right"))
    cut_high = int(high.searchsorted(tol, side="right"))
    cut = (low[lo - 1] if lo else 0.0) + (high[cut_high - 1] if cut_high else 0.0)
    return lo, pmf.size - cut_high, float(cut)


def poisson_binomial_trees(
    param_sets: Sequence[Sequence[float] | np.ndarray],
) -> list[CountPMF]:
    """PMFs of the sums of independent Bernoulli variables, one
    :class:`CountPMF` with a read-only ``pmf`` per parameter set, each
    built by a product tree.

    One vectorised convolution pass builds the PMFs of the blocks of
    ``_BLOCK`` sorted parameters of every set at once.  Each set's last
    block is padded with zero parameters, whose steps multiply every entry
    by exactly 1 and add exactly 0, and a set of fewer than ``_BLOCK``
    parameters keeps the first n + 1 entries of its leaf; so each set's PMF
    is the same, bit for bit, whatever other sets share the call.  Each set's
    leaves are then merged pairwise, level by level, by direct
    ``np.convolve`` (an FFT's roundoff would swamp the small tail masses),
    and each product is cut to its :func:`_trim` range at ``_NODE_TOL`` per
    end, less than n * 1.25e-25 + 2e-24 in all.  The root is then cut so
    that at most ``TRIM_TOL / 2`` is left out (for fewer than 10**9
    parameters).  A count of variance at most n/4 holds its mass within a
    few standard deviations of its mean, so the result has O(sqrt(n))
    entries and the trimmed merges stay short.

    Rounding in the many short block passes drifts the total mass by about
    2e-15 at 2000 parameters, so the root is rescaled to hold exactly one
    minus the trimmed mass; against an extended-precision convolution the
    result is then as close as one convolution per parameter is, about
    2.5e-16 in total variation at 2000 parameters.  Sorting first makes the
    result independent of input order, bit for bit.  An empty parameter
    set yields a point mass at zero.  Raises ValueError for the first set
    with a parameter outside [0, 1] before any PMF is built.
    """
    sets = [np.sort(unit_interval_array(params, "Bernoulli parameter")) for params in param_sets]
    sizes = [params.size for params in sets]
    # Set i's blocks are rows bounds[i] to bounds[i + 1] of the leaf pass.
    bounds = list(itertools.accumulate((-(-n // _BLOCK) for n in sizes), initial=0))
    width = min(max(sizes, default=0), _BLOCK)
    # Padding with zero parameters adds certain failures, which change
    # nothing: (1, 0) is the identity of convolution.
    p = np.zeros(bounds[-1] * _BLOCK)
    for params, start in zip(sets, bounds):
        p[start * _BLOCK : start * _BLOCK + params.size] = params
    p = p.reshape(-1, _BLOCK)
    q = 1.0 - p
    leaves = np.zeros((p.shape[0], width + 1))
    leaves[:, 0] = 1.0
    for k in range(width):
        moved = leaves[:, : k + 1] * p[:, k, None]
        leaves[:, : k + 1] *= q[:, k, None]
        leaves[:, 1 : k + 2] += moved
    return [
        _merge(leaves[start:stop, : min(n, _BLOCK) + 1])
        for n, start, stop in zip(sizes, bounds, bounds[1:])
    ]


def _merge(leaves: np.ndarray) -> CountPMF:
    """The trimmed, rescaled root of the product tree over one set's
    leaves, as :func:`poisson_binomial_trees` describes it."""
    if leaves.shape[0] == 0:
        return CountPMF(0, _read_only(np.ones(1)), 0.0)
    nodes = [(0, leaf) for leaf in leaves]
    cut = 0.0
    while len(nodes) > 1:
        merged = []
        for (offset_a, a), (offset_b, b) in zip(nodes[::2], nodes[1::2]):
            product = np.convolve(a, b)
            start, stop, node_cut = _trim(product, _NODE_TOL)
            cut += node_cut
            merged.append((offset_a + offset_b + start, product[start:stop]))
        nodes = merged + nodes[2 * len(merged) :]
    offset, pmf = nodes[0]
    start, stop, root_cut = _trim(pmf, (TRIM_TOL / 2 - cut) / 2)
    trimmed = cut + root_cut
    pmf = pmf[start:stop] * ((1.0 - trimmed) / pmf[start:stop].sum())
    return CountPMF(offset + start, _read_only(pmf), trimmed)


def poisson_binomial_tree(params: Sequence[float] | np.ndarray) -> CountPMF:
    """PMF of a sum of n independent Bernoulli variables as a
    :class:`CountPMF`: the one-set call of :func:`poisson_binomial_trees`,
    which describes the product tree and its trimming."""
    return poisson_binomial_trees([params])[0]
