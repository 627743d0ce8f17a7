"""Exact finite discrete distributions with rational support.

A :class:`DiscreteDistribution` is an immutable PMF held as three aligned
arrays: int64 numerators and denominators of its support points, sorted
ascending by value, and float64 probabilities.  The fractions are stored as
they were derived, not necessarily in lowest terms; each support point
appears once, as one representative fraction, and ``support``, ``ratios``
and equality reduce them when asked.  `fractions.Fraction` values appear
only at the edges: the mapping constructor takes them, and ``support``,
``items`` and ``as_dict`` return them.

A count PMF is a :class:`CountPMF`: a read-only float64 array ``pmf`` whose
entry k is the probability of exactly ``offset + k`` successes, and the mass
``trimmed`` that was cut from its tails and lies outside that range.  The
count complement m - X of a PMF over 0..m is its reversal.
:func:`poisson_binomial_tree` builds Poisson binomial PMFs in this form by
a product tree of trimmed nodes.

Everything here is pure and deterministic; instances never mutate after
construction and are safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "PROB_SUM_TOL",
    "TRIM_TOL",
    "CountPMF",
    "DiscreteDistribution",
    "poisson_binomial_tree",
]

# Single library-wide tolerance for "probabilities sum to one" checks.
PROB_SUM_TOL = 1e-9

# Bound on the total probability a derived distribution may leave out
# because the count PMFs it combines were trimmed; each Poisson binomial PMF
# leaves out at most half of it.
TRIM_TOL = 1e-15

# Parameters per leaf block of the Poisson binomial product tree.  Blocks of
# 16 beat the per-score convolution from about 250 parameters on; blocks of
# 64 were slower than it there.
_BLOCK = 16

# Mass a product-tree node below the root may cut from each of its ends.
_NODE_TOL = 1e-24

# Support numerators and denominators are stored as int64.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _as_fraction(value: object) -> Fraction:
    """Convert a support key to an exact Fraction.

    Floats are taken at their exact binary value, so 0.5 and Fraction(1, 2)
    denote the same key.  The reduced numerator and denominator must fit in
    int64.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a valid support value")
    if not isinstance(value, (int, float, Fraction)):
        raise TypeError(f"unsupported support value type: {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"support value {value!r} is not finite")
    frac = Fraction(value)
    if abs(frac.numerator) > _INT64_MAX or frac.denominator > _INT64_MAX:
        raise ValueError(
            f"support value {value!r} needs more than 64 bits as a reduced fraction"
        )
    return frac


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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

    __slots__ = ("_nums", "_dens", "_float_vals", "_probs", "_trimmed")

    def __init__(self, pmf: Mapping[object, float]):
        if not pmf:
            raise ValueError("distribution needs at least one support point")
        items = sorted((_as_fraction(v), float(p)) for v, p in pmf.items())
        probs = np.array([p for _, p in items], dtype=np.float64)
        if np.any(probs < 0.0):
            bad = items[int(np.argmin(probs))]
            raise ValueError(f"negative probability {bad[1]!r} at support {bad[0]}")
        self._init_validated(
            nums=np.array([v.numerator for v, _ in items], dtype=np.int64),
            dens=np.array([v.denominator for v, _ in items], dtype=np.int64),
            float_vals=np.array([float(v) for v, _ in items], dtype=np.float64),
            probs=probs,
        )

    def _init_validated(self, nums, dens, float_vals, probs, trimmed_mass=0.0) -> None:
        if trimmed_mass < 0.0:
            raise ValueError(f"negative trimmed mass {trimmed_mass!r}")
        total = float(probs.sum()) + trimmed_mass
        if not abs(total - 1.0) <= PROB_SUM_TOL:  # a NaN probability fails too
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        keep = probs > 0.0
        if not keep.all():
            nums = nums[keep]
            dens = dens[keep]
            float_vals = float_vals[keep]
            probs = probs[keep]
        for arr in (nums, dens, float_vals, probs):
            arr.flags.writeable = False
        self._nums = nums
        self._dens = dens
        self._float_vals = float_vals
        self._probs = probs
        self._trimmed = trimmed_mass

    @classmethod
    def _from_ratio_arrays(
        cls,
        nums: np.ndarray,
        dens: np.ndarray,
        probs: np.ndarray,
        trimmed_mass: float = 0.0,
        float_vals: np.ndarray | None = None,
    ) -> "DiscreteDistribution":
        """Internal fast path: num/den pairs of distinct values, not
        necessarily reduced, already sorted by value, and the probability
        left out of them.

        ``float_vals``, when given, are the support points as floats, each
        the quotient of some num/den pair equal to the stored one; that
        quotient is the same double, since int64 operands below 2**53
        convert exactly and division is correctly rounded.
        """
        self = object.__new__(cls)
        nums = np.ascontiguousarray(nums, dtype=np.int64)
        dens = np.ascontiguousarray(dens, dtype=np.int64)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if np.any(probs < 0.0):
            raise ValueError("negative probability in derived distribution")
        self._init_validated(
            nums=nums,
            dens=dens,
            float_vals=nums / dens if float_vals is None else float_vals,
            probs=probs,
            trimmed_mass=trimmed_mass,
        )
        return self

    # ---- accessors ----

    @property
    def support(self) -> tuple[Fraction, ...]:
        """Support points as Fractions, ascending."""
        return tuple(
            Fraction(n, d) for n, d in zip(self._nums.tolist(), self._dens.tolist())
        )

    @property
    def float_values(self) -> np.ndarray:
        """Support points as floats (read-only), aligned with probabilities."""
        return self._float_vals

    @property
    def probabilities(self) -> np.ndarray:
        """Probabilities (read-only), aligned with the support."""
        return self._probs

    @property
    def trimmed_mass(self) -> float:
        """Probability left out of the support by tail trimming; 0.0 for a
        distribution that holds all of its mass."""
        return self._trimmed

    def items(self) -> Iterator[tuple[Fraction, float]]:
        return zip(self.support, self._probs.tolist())

    def as_dict(self) -> dict[Fraction, float]:
        return dict(self.items())

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
        head = ", ".join(f"{v}: {p:.6g}" for v, p in list(self.items())[:4])
        tail = ", ..." if len(self) > 4 else ""
        return f"DiscreteDistribution({{{head}{tail}}})"

    # ---- moments ----

    def expectation(self) -> float:
        """Mean of the distribution, evaluated in float arithmetic; trimmed
        mass contributes nothing.  The products are added by numpy's
        pairwise sum rather than a BLAS dot product, whose rounding changes
        with the number of threads BLAS splits it across."""
        return float((self._float_vals * self._probs).sum())


def unit_interval_array(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """``values`` as a one-dimensional float64 array; raises ValueError on
    another shape or on the first entry outside [0, 1], NaN included.
    ``name`` is the singular noun the messages use for one entry."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name}s must form a one-dimensional sequence")
    bad = ~((arr >= 0.0) & (arr <= 1.0))  # also catches NaN
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} at index {i} outside [0, 1]: {float(arr[i])!r}")
    return arr


def _check_bernoulli_params(params: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = unit_interval_array(params, "Bernoulli parameter")
    # Sorting the parameters does not change the distribution but makes the
    # result independent of input order, bit for bit.
    return np.sort(arr)


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


def poisson_binomial_tree(params: Sequence[float] | np.ndarray) -> CountPMF:
    """PMF of a sum of n independent Bernoulli variables as a
    :class:`CountPMF` with a read-only ``pmf``, built by a product tree.

    One vectorised convolution pass builds the PMFs of blocks of
    ``_BLOCK`` sorted parameters.  They are merged pairwise, level by level,
    by direct ``np.convolve`` (an FFT's roundoff would swamp the small tail
    masses), and each product is cut to its :func:`_trim` range at
    ``_NODE_TOL`` per end, less than n * 1.25e-25 + 2e-24 in all.  The root
    is then cut so that at most ``TRIM_TOL / 2`` is left out (for fewer than
    10**9 parameters).  A count of variance at most n/4 holds its mass
    within a few standard deviations of its mean, so the result has
    O(sqrt(n)) entries and the trimmed merges stay short.

    Rounding in the many short block passes drifts the total mass by about
    2e-15 at 2000 parameters, so the root is rescaled to hold exactly one
    minus the trimmed mass; against an extended-precision convolution the
    result is then as close as one convolution per parameter is, about
    2.5e-16 in total variation at 2000 parameters.  Sorting first makes the
    result independent of input order, bit for bit.  An empty parameter
    list yields a point mass at zero.
    """
    p = _check_bernoulli_params(params)
    n = p.size
    if n == 0:
        return CountPMF(0, _read_only(np.ones(1)), 0.0)
    blocks = -(-n // _BLOCK)
    width = min(n, _BLOCK)
    # Padding with zero parameters adds certain failures, which change
    # nothing: (1, 0) is the identity of convolution.
    p = np.concatenate([p, np.zeros(blocks * _BLOCK - n)]).reshape(blocks, _BLOCK)
    q = 1.0 - p
    leaves = np.zeros((blocks, width + 1))
    leaves[:, 0] = 1.0
    for k in range(width):
        moved = leaves[:, : k + 1] * p[:, k, None]
        leaves[:, : k + 1] *= q[:, k, None]
        leaves[:, 1 : k + 2] += moved
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

