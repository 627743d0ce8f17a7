"""Tests for calibration error and calibration-faithful label sampling."""

import numpy as np
import pytest

from confmetrics.calibration import ace, reverse_sample_labels, threshold_predictions
from confmetrics.confusion import PredictionBatch


def labelled(scores, labels, predictions=None):
    scores = np.asarray(scores, dtype=float)
    if predictions is None:
        predictions = (scores >= 0.5).astype(int)
    return PredictionBatch.from_arrays(predictions, scores, labels)


class TestAce:
    def test_perfectly_separated_scores(self):
        scores = [0.0] * 5 + [1.0] * 5
        labels = [0] * 5 + [1] * 5
        assert ace(labelled(scores, labels), 2).ace == 0.0

    def test_constant_overconfident_scores(self):
        report = ace(labelled([0.7] * 6, [0] * 6), 1)
        assert report.ace == pytest.approx(0.7)
        assert report.bins[0].count == 6

    def test_bin_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(4)
        scores = rng.random(32)
        labels = rng.integers(0, 2, 32)
        report = ace(labelled(scores, labels), 5)
        sizes = [b.count for b in report.bins]
        assert sum(sizes) == 32
        assert max(sizes) - min(sizes) <= 1
        # remainder lands on the lowest-score bins first
        assert sizes == sorted(sizes, reverse=True)

    def test_ace_matches_mean_bin_gap(self):
        rng = np.random.default_rng(12)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        report = ace(labelled(scores, labels), 7)
        gaps = [abs(b.mean_score - b.positive_rate) for b in report.bins]
        assert report.ace == pytest.approx(np.mean(gaps), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        order = rng.permutation(40)
        a = ace(labelled(scores, labels))
        b = ace(labelled(scores[order], labels[order]))
        assert a.ace == pytest.approx(b.ace, abs=1e-12)

    def test_reverse_sampled_windows_are_nearly_calibrated(self):
        gaps = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            scores = rng.random(10_000)
            labels = reverse_sample_labels(scores, seed + 1000)
            gaps.append(ace(labelled(scores, labels), 15).ace)
        assert np.mean(gaps) < 0.02

    def test_ace_shrinks_with_sample_size(self):
        values = []
        for k, n in enumerate((100, 1000, 10_000, 100_000)):
            rng = np.random.default_rng(50 + k)
            scores = rng.random(n)
            labels = reverse_sample_labels(scores, 60 + k)
            values.append(ace(labelled(scores, labels), 15).ace)
        inversions = sum(values[i + 1] > values[i] for i in range(len(values) - 1))
        assert inversions <= 1

    def test_requires_labels(self):
        b = PredictionBatch.from_arrays([1, 0], [0.6, 0.4])
        with pytest.raises(ValueError, match="label"):
            ace(b, 1)

    def test_rejects_bad_bin_count(self):
        b = labelled([0.1, 0.9], [0, 1])
        with pytest.raises(ValueError, match="num_bins"):
            ace(b, 3)

    @pytest.mark.parametrize("bins", [True, 2.0, np.bool_(True), "2"])
    def test_rejects_bin_count_that_is_not_an_integer(self, bins):
        # True lies in [1, n]; only a type check rejects it.
        b = labelled([0.1, 0.9], [0, 1])
        with pytest.raises(ValueError, match=r"^num_bins must be an integer, got "):
            ace(b, bins)

    def test_numpy_integer_bin_count_runs_as_an_int(self):
        b = labelled([0.1, 0.4, 0.6, 0.9], [0, 1, 0, 1])
        assert ace(b, np.int64(2)) == ace(b, 2)


class TestReverseSampling:
    def test_certain_scores(self):
        assert reverse_sample_labels([1.0] * 20, 1).tolist() == [1] * 20
        assert reverse_sample_labels([0.0] * 20, 1).tolist() == [0] * 20

    def test_deterministic_given_seed(self):
        scores = np.linspace(0, 1, 101)
        assert (
            reverse_sample_labels(scores, 42) == reverse_sample_labels(scores, 42)
        ).all()

    def test_mean_concentrates_on_score(self):
        labels = reverse_sample_labels([0.3] * 100_000, 7)
        assert 0.29 <= labels.mean() <= 0.31

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError, match="index 1"):
            reverse_sample_labels([0.5, 1.4], 0)

    def test_rejects_score_that_is_not_a_real_number(self):
        with pytest.raises(ValueError, match=r"^score at index 1 must be a real number, got '0\.3'$"):
            reverse_sample_labels([0.5, "0.3"], 0)


class TestThresholding:
    def test_threshold_is_inclusive(self):
        assert threshold_predictions([0.5], 0.5).tolist() == [1]

    def test_below_threshold(self):
        assert threshold_predictions([0.49], 0.5).tolist() == [0]

    def test_certain_score(self):
        assert threshold_predictions([1.0], 0.5).tolist() == [1]

    def test_custom_threshold(self):
        assert threshold_predictions([0.3, 0.7], 0.7).tolist() == [0, 1]

    def test_unit_interval_ends_are_valid_thresholds(self):
        assert threshold_predictions([0.0, 1.0], 0.0).tolist() == [1, 1]
        assert threshold_predictions([0.0, 0.99, 1.0], 1.0).tolist() == [0, 0, 1]

    @pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, float("inf")])
    def test_rejects_nan_and_out_of_range_thresholds(self, threshold):
        # A NaN threshold used to predict every record negative.
        with pytest.raises(ValueError, match="threshold must lie in"):
            threshold_predictions([0.2, 0.8], threshold)

    @pytest.mark.parametrize("threshold", ["0.5", None, True, 0.5j])
    def test_rejects_threshold_that_is_not_a_real_number(self, threshold):
        with pytest.raises(ValueError, match=r"^threshold must be a real number, got "):
            threshold_predictions([0.2, 0.8], threshold)

    def test_rejects_score_that_is_not_a_real_number(self):
        with pytest.raises(ValueError, match=r"^score at index 0 must be a real number, got b'1'$"):
            threshold_predictions([b"1"])
