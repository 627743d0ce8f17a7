"""Exact finite discrete distributions with rational support.

A :class:`DiscreteDistribution` is an immutable PMF held as three aligned
arrays: int64 numerators and denominators of its support points in lowest
terms, sorted ascending by value, and float64 probabilities.  Reduced
fractions make numerically equal keys (1/2 arising as 2/4) merge instead of
colliding, which is what makes probability aggregation over count ratios
correct.  `fractions.Fraction` values appear only at the edges: the mapping
constructor takes them, and ``support``, ``items`` and ``as_dict`` return
them.

Poisson binomial PMFs can be built by two independent routes: iterative
convolution (:func:`poisson_binomial_dp`, the reference method) and the
discrete characteristic function (:func:`poisson_binomial_cf`).  The two are
deliberately separate implementations so each can serve as a cross-check of
the other.

Everything here is pure and deterministic; instances never mutate after
construction and are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "PROB_SUM_TOL",
    "DiscreteDistribution",
    "poisson_binomial_dp",
    "poisson_binomial_cf",
    "complement_count",
]

# Single library-wide tolerance for "probabilities sum to one" checks.
PROB_SUM_TOL = 1e-9

# Renormalising the characteristic-function PMF may move at most this much
# total mass; anything larger indicates a numerically broken transform.
_CF_RENORM_TOL = 1e-8

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
    frac = Fraction(value)
    if abs(frac.numerator) > _INT64_MAX or frac.denominator > _INT64_MAX:
        raise ValueError(
            f"support value {value!r} needs more than 64 bits as a reduced fraction"
        )
    return frac


class DiscreteDistribution:
    """A finite PMF over exact rational support points.

    Probabilities are floats that must be non-negative and sum to one within
    :data:`PROB_SUM_TOL`.  Entries with zero probability are dropped, so the
    support carries only points with mass.
    """

    __slots__ = ("_nums", "_dens", "_float_vals", "_probs")

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

    def _init_validated(self, nums, dens, float_vals, probs) -> None:
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
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

    @classmethod
    def _from_ratio_arrays(
        cls, nums: np.ndarray, dens: np.ndarray, probs: np.ndarray
    ) -> "DiscreteDistribution":
        """Internal fast path: reduced num/den pairs already sorted by value."""
        self = object.__new__(cls)
        nums = np.ascontiguousarray(nums, dtype=np.int64)
        dens = np.ascontiguousarray(dens, dtype=np.int64)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if np.any(probs < 0.0):
            raise ValueError("negative probability in derived distribution")
        self._init_validated(
            nums=nums,
            dens=dens,
            float_vals=nums / dens,
            probs=probs,
        )
        return self

    @classmethod
    def point_mass(cls, value: object) -> "DiscreteDistribution":
        """Distribution putting all mass on a single value."""
        return cls({value: 1.0})

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

    def items(self) -> Iterator[tuple[Fraction, float]]:
        return zip(self.support, self._probs.tolist())

    def as_dict(self) -> dict[Fraction, float]:
        return dict(self.items())

    def ratios(self) -> Iterator[tuple[int, int, float]]:
        """Yield (numerator, denominator, probability) triples."""
        return zip(self._nums.tolist(), self._dens.tolist(), self._probs.tolist())

    def __len__(self) -> int:
        return len(self._probs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return (
            np.array_equal(self._nums, other._nums)
            and np.array_equal(self._dens, other._dens)
            and np.array_equal(self._probs, other._probs)
        )

    __hash__ = None  # mutable-by-content comparisons; not hashable

    def __repr__(self) -> str:
        head = ", ".join(f"{v}: {p:.6g}" for v, p in list(self.items())[:4])
        tail = ", ..." if len(self) > 4 else ""
        return f"DiscreteDistribution({{{head}{tail}}})"

    # ---- moments ----

    def expectation(self) -> float:
        """Mean of the distribution, evaluated in float arithmetic."""
        return float(self._float_vals @ self._probs)

    def variance(self) -> float:
        """Variance, clamped at zero against float cancellation."""
        e = self.expectation()
        raw = float((self._float_vals * self._float_vals) @ self._probs) - e * e
        return max(raw, 0.0)


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


def _counts_distribution(pmf: np.ndarray) -> DiscreteDistribution:
    nums = np.arange(pmf.size, dtype=np.int64)
    dens = np.ones(pmf.size, dtype=np.int64)
    return DiscreteDistribution._from_ratio_arrays(nums, dens, pmf)


def poisson_binomial_dp(params: Sequence[float] | np.ndarray) -> DiscreteDistribution:
    """PMF of a sum of independent Bernoulli variables, by direct convolution.

    This is the reference method: O(n^2) work, no roundoff artifacts beyond
    ordinary float accumulation.  An empty parameter list yields a point mass
    at zero.
    """
    arr = _check_bernoulli_params(params)
    pmf = np.array([1.0])
    for p in arr:
        pmf = np.convolve(pmf, (1.0 - p, p))
    return _counts_distribution(pmf)


def poisson_binomial_cf(params: Sequence[float] | np.ndarray) -> DiscreteDistribution:
    """PMF of a sum of independent Bernoulli variables, via the
    characteristic function evaluated on the discrete Fourier grid.

    Independent of :func:`poisson_binomial_dp`; the two agree within 1e-9 per
    entry.  The transform can leave tiny negative values, which are clamped
    to zero before renormalising; a normalisation shift beyond 1e-8 total
    mass is rejected as a numerical failure.  Evaluating the characteristic
    function costs O(n^2); the final transform is O(n log n).
    """
    arr = _check_bernoulli_params(params)
    n = arr.size
    if n == 0:
        return DiscreteDistribution.point_mass(0)
    m = n + 1
    phase = np.exp(2j * np.pi * np.arange(m) / m)
    phi = np.ones(m, dtype=np.complex128)
    for p in arr:
        phi *= (1.0 - p) + p * phase
    raw = np.fft.fft(phi).real / m
    clamped = np.where(raw < 0.0, 0.0, raw)
    total = float(clamped.sum())
    if abs(total - 1.0) > _CF_RENORM_TOL:
        raise ValueError(
            f"characteristic-function PMF lost {abs(total - 1.0):.3g} mass; "
            "refusing to renormalise"
        )
    return _counts_distribution(clamped / total)


def _integer_support(d: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Return (values, probabilities) for an integer-supported distribution."""
    if np.any(d._dens != 1):
        raise ValueError("distribution support is not integer-valued")
    return d._nums, d._probs


def dense_count_probabilities(d: DiscreteDistribution, max_count: int) -> np.ndarray:
    """Probabilities of an integer count distribution as a dense array
    indexed 0..max_count."""
    values, probs = _integer_support(d)
    if values.size and (values.min() < 0 or values.max() > max_count):
        raise ValueError(f"support exceeds the count range 0..{max_count}")
    dense = np.zeros(max_count + 1, dtype=np.float64)
    dense[values] = probs
    return dense


def complement_count(d: DiscreteDistribution, m: int) -> DiscreteDistribution:
    """Distribution of m - X for a count distribution X over 0..m.

    Probabilities are carried over unchanged, so applying the complement
    twice restores the original distribution exactly.
    """
    values, probs = _integer_support(d)
    if values.size and (values.min() < 0 or values.max() > m):
        raise ValueError(f"support exceeds the count range 0..{m}")
    nums = (m - values)[::-1]
    dens = np.ones(nums.size, dtype=np.int64)
    return DiscreteDistribution._from_ratio_arrays(nums, dens, probs[::-1])
