"""Malformed arguments to the public entry points raise ValueError naming
them: never a TypeError, AttributeError or OverflowError, never a NaN
result and never a silent coercion."""

import re

import numpy as np
import pytest

from confmetrics.calibration import ace, reverse_sample_labels
from confmetrics.confusion import PredictionBatch, estimate_confusion
from confmetrics.intervals import hdis
from confmetrics.metrics import accuracy_distribution
from confmetrics.reports import EstimateConfig, windowed_estimates
from confmetrics.synthesis import (
    BetaParams,
    HypersphereConfig,
    random_beta_params,
    sample_beta_scores,
)


def _accuracy():
    batch = PredictionBatch.from_arrays([1, 0], [0.8, 0.3])
    return accuracy_distribution(estimate_confusion(batch))


# (entry point and bad argument, the whole ValueError message).
MALFORMED = {
    "config-radius-string": (
        lambda: HypersphereConfig(2, 10, 1, radius="3"),
        "radius must be a real number, got '3'",
    ),
    "config-easy-fraction-string": (
        lambda: HypersphereConfig(2, 10, 1, easy_fraction="0.8"),
        "easy_fraction must be a real number, got '0.8'",
    ),
    "config-decay-bool": (
        lambda: HypersphereConfig(2, 10, 1, decay=True),
        "decay must be a real number, got True",
    ),
    "beta-shape-string": (
        lambda: BetaParams("1", 1),
        "alpha_shape must be a real number, got '1'",
    ),
    "beta-shape-bool": (
        lambda: BetaParams(True, 1),
        "alpha_shape must be a real number, got True",
    ),
    "beta-shape-inf": (
        lambda: BetaParams(float("inf"), 1),
        "alpha_shape must lie in (0, inf), got inf",
    ),
    "hdis-alphas-none": (
        lambda: hdis(_accuracy(), None),
        "alphas must be a sequence of real numbers, got None",
    ),
    "sample-params-tuple": (
        lambda: sample_beta_scores(3, (2.0, 2.0), 0),
        "params must be a BetaParams, got (2.0, 2.0)",
    ),
    "sample-seed-string": (
        lambda: sample_beta_scores(3, BetaParams(2.0, 2.0), "x"),
        "seed must be a non-negative integer or a sequence of them, got 'x'",
    ),
    "random-params-seed-bool": (
        lambda: random_beta_params(True),
        "seed must be a non-negative integer or a sequence of them, got True",
    ),
    "reverse-sample-seed-string": (
        lambda: reverse_sample_labels([0.5], "x"),
        "seed must be a non-negative integer or a sequence of them, got 'x'",
    ),
    "score-beyond-float-range": (
        lambda: PredictionBatch.from_arrays([1], [10**400]),
        f"score at index 0 must lie in [0, 1], got {10**400}",
    ),
    "score-bool-among-floats": (
        lambda: PredictionBatch.from_arrays([1, 1], [0.5, True]),
        "score at index 1 must be a real number, got True",
    ),
}


@pytest.mark.parametrize("call, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_argument_raises_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _labelled(n):
    rng = np.random.default_rng(11)
    scores = rng.random(n)
    return PredictionBatch.from_arrays((scores >= 0.5).astype(int), scores, rng.integers(0, 2, n))


# No np.uint64 bin count: numpy compared it with the row count, which its
# type holds, and it ran at the parent too.
@pytest.mark.parametrize(
    "use, cast",
    [(use, cast) for use in ("exact", "shortcut") for cast in (np.uint8, np.uint64, np.int8)]
    + [("ace", np.uint8), ("ace", np.int8)],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_numpy_integer_sizes_run_as_the_equal_int(use, cast):
    # numpy refuses to combine a numpy integer with a Python int outside its
    # type, so an unconverted size overflowed on -1000 or on the 1000 rows.
    b = _labelled(1000)
    if use == "ace":
        assert ace(b, cast(15)) == ace(b, 15)
        return
    config = EstimateConfig(method=use)
    reports = list(windowed_estimates(b, cast(99), config))
    assert reports == list(windowed_estimates(b, 99, config))
    assert [type(r.partial) for r in reports] == [bool] * 11 and reports[-1].partial
