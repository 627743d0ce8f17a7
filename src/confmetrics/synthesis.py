"""Synthetic data generators for estimator experiments.

Two generators live here.  Beta-distributed confidence scores exercise the
estimators across sharply different score profiles.  The hypersphere
generator builds a covariate-shift benchmark: points scattered around a
hypersphere get a positive label with probability exp(-decay * d^2) of
their distance d to the sphere surface, and the generated classifier scores
each point with exactly that probability, so it is calibrated by
construction (the Bayes classifier for its own label law).

Generation is deterministic for a given config and seed.  Independent trials
can run concurrently by deriving one child seed per trial.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._checks import _require, _require_integer, _require_real, _rng
from .calibration import threshold_predictions
from .confusion import PredictionBatch

__all__ = [
    "BetaParams",
    "HypersphereConfig",
    "SyntheticDataset",
    "random_beta_params",
    "sample_beta_scores",
    "positive_probability",
    "hypersphere_dataset",
    "shift_dataset",
]

_SHAPE_RANGE = (0.1, 10.0)
_DEFAULT_DECAY = math.log(math.sqrt(2.0))

# Score bands delimiting the point pools: "easy" points score in
# [_EASY_LOW band] or [_EASY_HIGH band], "hard" points near one half.
_EASY_HIGH = (0.9, 1.0)
_EASY_LOW_CAP = 0.1
_HARD = (0.4, 0.6)


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a beta distribution over confidence scores."""

    alpha_shape: float
    beta_shape: float

    def __post_init__(self):
        for name in ("alpha_shape", "beta_shape"):
            _require_real(getattr(self, name), name, 0, math.inf, strict=True)


def random_beta_params(seed) -> BetaParams:
    """Shape parameters drawn uniformly from [0.1, 10]^2."""
    a, b = _rng(seed).uniform(*_SHAPE_RANGE, size=2)
    return BetaParams(float(a), float(b))


def sample_beta_scores(n: int, params: BetaParams, seed) -> np.ndarray:
    """n independent Beta(alpha_shape, beta_shape) confidence scores, for
    an integer n of at least 1, :class:`BetaParams` and a seed that numpy
    takes."""
    _require_integer(n, "n", 1)
    _require(params, "params", kind=BetaParams, what="a BetaParams")
    return _rng(seed).beta(params.alpha_shape, params.beta_shape, size=n)


def positive_probability(distance, decay: float = _DEFAULT_DECAY):
    """Probability of a positive label at a given distance from the sphere
    surface: exp(-decay * distance^2).

    Both the label sampling and the synthetic classifier's score use this
    one function, for the source and the shifted split alike, so the
    feature-to-label law never changes between splits.
    """
    return np.exp(-decay * np.square(distance))


def _distance_at(probability: float, decay: float) -> float:
    """Distance at which :func:`positive_probability` equals the given value."""
    return math.sqrt(math.log(1.0 / probability) / decay)


@dataclass(frozen=True)
class HypersphereConfig:
    """Configuration of the hypersphere covariate-shift generator."""

    n_dims: int
    n_points: int
    seed: int
    radius: float = 3.0
    decay: float = _DEFAULT_DECAY
    easy_fraction: float = 0.8

    def __post_init__(self):
        for name, low in (("n_dims", 1), ("n_points", 1), ("seed", 0)):
            object.__setattr__(self, name, _require_integer(getattr(self, name), name, low))
        for name in ("radius", "decay"):
            _require_real(getattr(self, name), name, 0, math.inf, strict=True)
        _require_real(self.easy_fraction, "easy_fraction", 0, 1)
        # Far pool points are placed up to one radius away from the surface,
        # so the score at that distance must already be inside the easy band;
        # otherwise the easy pool is not realisable inside the sphere.
        if float(positive_probability(self.radius, self.decay)) > _EASY_LOW_CAP:
            raise ValueError(
                "radius too small for the low-score pool: "
                f"score at distance {self.radius} exceeds {_EASY_LOW_CAP}"
            )


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated points plus the induced monitoring batch."""

    features: np.ndarray
    batch: PredictionBatch
    config: HypersphereConfig


def hypersphere_dataset(
    config: HypersphereConfig, threshold: float = 0.5
) -> SyntheticDataset:
    """Sample a labelled dataset around a hypersphere.

    Each point picks a pool (easy with probability ``easy_fraction``), a
    surface distance uniform in the pool's band, and a uniform direction;
    the offset from the surface points outward with probability 0.55, which
    skews the geometry without touching the label law.  Scores are the
    exact positive-label probabilities at the sampled distance; predictions
    threshold the score.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_points
    decay = config.decay

    take_easy = rng.random(n) < config.easy_fraction
    near_side = rng.random(n) < 0.5

    d_near_hi = _distance_at(_EASY_HIGH[0], decay)
    d_far_lo = _distance_at(_EASY_LOW_CAP, decay)
    d_hard_lo = _distance_at(_HARD[1], decay)
    d_hard_hi = _distance_at(_HARD[0], decay)

    lo = np.where(take_easy, np.where(near_side, 0.0, d_far_lo), d_hard_lo)
    hi = np.where(take_easy, np.where(near_side, d_near_hi, config.radius), d_hard_hi)
    distance = rng.uniform(lo, hi)

    outward = rng.random(n) < 0.55
    magnitude = config.radius + np.where(outward, distance, -distance)

    directions = rng.standard_normal((n, config.n_dims))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    features = directions * magnitude[:, None]

    scores = positive_probability(distance, decay)
    labels = (rng.random(n) < scores).astype(np.int64)
    predictions = threshold_predictions(scores, threshold)
    batch = PredictionBatch.from_arrays(predictions, scores, labels)
    return SyntheticDataset(features=features, batch=batch, config=config)


def shift_dataset(config: HypersphereConfig, threshold: float = 0.5) -> SyntheticDataset:
    """The covariate-shifted counterpart: easy and hard pool proportions
    swapped, feature-to-label law untouched."""
    shifted = dataclasses.replace(config, easy_fraction=1.0 - config.easy_fraction)
    return hypersphere_dataset(shifted, threshold)
