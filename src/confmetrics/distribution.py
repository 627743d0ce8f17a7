"""Exact finite discrete distributions with rational support.

A :class:`DiscreteDistribution` is an immutable PMF held as three aligned
arrays: int64 numerators and denominators of its support points in lowest
terms, sorted ascending by value, and float64 probabilities.  Reduced
fractions make numerically equal keys (1/2 arising as 2/4) merge instead of
colliding, which is what makes probability aggregation over count ratios
correct.  `fractions.Fraction` values appear only at the edges: the mapping
constructor takes them, and ``support``, ``items`` and ``as_dict`` return
them.

A count PMF has one form: a read-only float64 array indexed by count, zeros
kept, so ``pmf[k]`` is the probability of exactly k successes.  The count
complement m - X of a PMF over 0..m is its reversal ``pmf[::-1]``.  Poisson
binomial PMFs can be built by two independent routes: iterative convolution
(:func:`poisson_binomial_dp`, the reference method) and the discrete
characteristic function (:func:`poisson_binomial_cf`).  The two are
deliberately separate implementations so each can serve as a cross-check of
the other.

Everything here is pure and deterministic; instances never mutate after
construction and are safe to share across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "PROB_SUM_TOL",
    "TRIM_TOL",
    "DiscreteDistribution",
    "poisson_binomial_dp",
    "poisson_binomial_cf",
]

# Single library-wide tolerance for "probabilities sum to one" checks.
PROB_SUM_TOL = 1e-9

# Bound on the total probability a derived distribution may leave out by
# trimming the tails of the count PMFs it pairs over (see ``metrics``).
TRIM_TOL = 1e-15

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
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"support value {value!r} is not finite")
    frac = Fraction(value)
    if abs(frac.numerator) > _INT64_MAX or frac.denominator > _INT64_MAX:
        raise ValueError(
            f"support value {value!r} needs more than 64 bits as a reduced fraction"
        )
    return frac


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
        """Internal fast path: reduced num/den pairs already sorted by value,
        and the probability left out of them.

        ``float_vals``, when given, are the support points as floats, each
        the quotient of some num/den pair equal to the reduced one; that
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

    @property
    def trimmed_mass(self) -> float:
        """Probability left out of the support by tail trimming; 0.0 for a
        distribution that holds all of its mass."""
        return self._trimmed

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
            and self._trimmed == other._trimmed
        )

    __hash__ = None  # mutable-by-content comparisons; not hashable

    def __repr__(self) -> str:
        head = ", ".join(f"{v}: {p:.6g}" for v, p in list(self.items())[:4])
        tail = ", ..." if len(self) > 4 else ""
        return f"DiscreteDistribution({{{head}{tail}}})"

    # ---- moments ----

    def expectation(self) -> float:
        """Mean of the distribution, evaluated in float arithmetic; trimmed
        mass contributes nothing."""
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


def poisson_binomial_dp(params: Sequence[float] | np.ndarray) -> np.ndarray:
    """PMF of a sum of n independent Bernoulli variables, by direct
    convolution, as a read-only count PMF of length n + 1.

    This is the reference method: O(n^2) work, no roundoff artifacts beyond
    ordinary float accumulation.  An empty parameter list yields ``[1.0]``,
    a point mass at zero.
    """
    pmf = np.array([1.0])
    for p in _check_bernoulli_params(params):
        pmf = np.convolve(pmf, (1.0 - p, p))
    pmf.flags.writeable = False
    return pmf


def poisson_binomial_cf(params: Sequence[float] | np.ndarray) -> np.ndarray:
    """PMF of a sum of n independent Bernoulli variables, via the
    characteristic function evaluated on the discrete Fourier grid, as a
    read-only count PMF of length n + 1.

    Independent of :func:`poisson_binomial_dp`; the two agree within 1e-9 per
    entry.  The transform can leave tiny negative values, which are clamped
    to zero before renormalising; a normalisation shift beyond 1e-8 total
    mass is rejected as a numerical failure.  Evaluating the characteristic
    function costs O(n^2); the final transform is O(n log n).
    """
    arr = _check_bernoulli_params(params)
    m = arr.size + 1
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
    pmf = clamped / total
    pmf.flags.writeable = False
    return pmf
