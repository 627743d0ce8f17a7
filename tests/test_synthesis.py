"""Tests for the synthetic score and dataset generators."""

import math

import numpy as np
import pytest

from confmetrics.calibration import ace
from confmetrics.synthesis import (
    BetaParams,
    HypersphereConfig,
    hypersphere_dataset,
    positive_probability,
    random_beta_params,
    sample_beta_scores,
    shift_dataset,
)


class TestBetaScores:
    def test_params_stay_in_range_and_never_collide(self):
        seen = set()
        for seed in range(10_000):
            p = random_beta_params(seed)
            assert 0.1 <= p.alpha_shape <= 10.0
            assert 0.1 <= p.beta_shape <= 10.0
            seen.add((p.alpha_shape, p.beta_shape))
        assert len(seen) == 10_000

    def test_params_reproducible(self):
        assert random_beta_params(123) == random_beta_params(123)

    def test_scores_in_unit_interval(self):
        scores = sample_beta_scores(5000, BetaParams(0.2, 7.0), 5)
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_uniform_special_case_mean(self):
        scores = sample_beta_scores(100_000, BetaParams(1.0, 1.0), 6)
        assert 0.497 <= scores.mean() <= 0.503

    def test_skewed_shape_mean(self):
        scores = sample_beta_scores(50_000, BetaParams(10.0, 0.1), 7)
        assert scores.mean() > 0.9

    def test_rejects_nonpositive_shapes(self):
        with pytest.raises(ValueError):
            BetaParams(0.0, 1.0)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            sample_beta_scores(0, BetaParams(1, 1), 0)

    @pytest.mark.parametrize("n", [10.0, True, "10"])
    def test_rejects_sample_size_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            sample_beta_scores(n, BetaParams(1, 1), 0)


class TestScoreFunction:
    def test_on_surface_probability_is_one(self):
        assert positive_probability(0.0) == 1.0

    def test_half_probability_distance(self):
        # exp(-decay * d^2) = 1/2 exactly when decay * d^2 = ln 2.
        d = math.sqrt(math.log(2) / math.log(math.sqrt(2)))
        assert positive_probability(d) == pytest.approx(0.5)
        assert d == pytest.approx(math.sqrt(2))

    def test_vanishes_far_away(self):
        assert positive_probability(50.0) < 1e-100


class TestHypersphere:
    CONFIG = HypersphereConfig(n_dims=4, n_points=20_000, seed=99)

    def test_deterministic(self):
        a = hypersphere_dataset(self.CONFIG)
        b = hypersphere_dataset(self.CONFIG)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.batch.scores, b.batch.scores)
        assert np.array_equal(a.batch.labels, b.batch.labels)

    def test_feature_shape(self):
        data = hypersphere_dataset(HypersphereConfig(n_dims=7, n_points=50, seed=1))
        assert data.features.shape == (50, 7)

    def test_scores_equal_probability_at_realized_distance(self):
        data = hypersphere_dataset(self.CONFIG)
        distances = np.abs(
            np.linalg.norm(data.features, axis=1) - self.CONFIG.radius
        )
        np.testing.assert_allclose(
            data.batch.scores, positive_probability(distances), atol=1e-12
        )

    def test_scores_fall_in_pool_bands(self):
        data = hypersphere_dataset(self.CONFIG)
        s = data.batch.scores
        easy = (s <= 0.1) | (s >= 0.9)
        hard = (s >= 0.4) & (s <= 0.6)
        assert (easy | hard).all()
        assert abs(easy.mean() - self.CONFIG.easy_fraction) < 0.02

    def test_shift_swaps_pool_proportions(self):
        shifted = shift_dataset(self.CONFIG)
        s = shifted.batch.scores
        easy = ((s <= 0.1) | (s >= 0.9)).mean()
        assert abs(easy - (1 - self.CONFIG.easy_fraction)) < 0.02

    def test_generated_classifier_is_calibrated(self):
        config = HypersphereConfig(n_dims=3, n_points=100_000, seed=7)
        for data in (hypersphere_dataset(config), shift_dataset(config)):
            report = ace(data.batch, 15)
            assert report.ace < 0.02
            for bin_ in report.bins:
                assert abs(bin_.mean_score - bin_.positive_rate) < 0.02

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HypersphereConfig(n_dims=0, n_points=10, seed=0)
        with pytest.raises(ValueError):
            HypersphereConfig(n_dims=2, n_points=10, seed=0, easy_fraction=1.5)
        with pytest.raises(ValueError, match="radius"):
            HypersphereConfig(n_dims=2, n_points=10, seed=0, radius=0.5)
        with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
            HypersphereConfig(n_dims=2, n_points=10, seed=-1)

    @pytest.mark.parametrize(
        "counts, match",
        [((2, 10.5, 1), r"^n_points must be an integer, got 10\.5$"),
         ((True, 10, 1), r"^n_dims must be an integer, got True$"),
         ((2, 10, "1"), r"^seed must be an integer, got '1'$"),
         ((2.0, 10, 1), r"^n_dims must be an integer, got 2\.0$")],
        ids=["float-points", "bool-dims", "string-seed", "float-dims"],
    )
    def test_rejects_counts_that_are_not_integers(self, counts, match):
        # A float point count used to construct and fail in the sampler with
        # numpy's TypeError; a string seed raised TypeError.
        with pytest.raises(ValueError, match=match):
            HypersphereConfig(*counts)

    def test_numpy_integer_counts_run_as_ints(self):
        got = hypersphere_dataset(HypersphereConfig(np.int64(3), np.int32(40), np.uint8(2)))
        want = hypersphere_dataset(HypersphereConfig(3, 40, 2))
        assert np.array_equal(got.features, want.features)
        assert got.batch.scores.tolist() == want.batch.scores.tolist()
        config = HypersphereConfig(np.uint8(3), np.uint8(20), np.uint8(1))
        assert [type(v) for v in (config.n_dims, config.n_points, config.seed)] == [int] * 3
        got = hypersphere_dataset(config)
        want = hypersphere_dataset(HypersphereConfig(3, 20, 1))
        assert got.config == want.config
        assert np.array_equal(got.features, want.features)
        assert got.batch.labels.tolist() == want.batch.labels.tolist()

    @pytest.mark.parametrize("field", ["radius", "decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_nonfinite_or_nonpositive_radius_and_decay(self, field, value):
        # NaN and inf used to pass a plain `<= 0` check and fail later in
        # the sampler with an OverflowError or NaN scores.
        with pytest.raises(ValueError, match=rf"^{field} must lie in \(0, inf\), got {value!r}$"):
            HypersphereConfig(n_dims=2, n_points=10, seed=0, **{field: value})
