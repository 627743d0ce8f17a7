"""Tests for confusion-count estimation from scored predictions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetrics.confusion import PredictionBatch, estimate_confusion


def batch(predictions, scores, labels=None):
    return PredictionBatch.from_arrays(predictions, scores, labels)


def mean(pmf):
    return np.arange(pmf.size) @ pmf


class TestRecords:
    def test_rejects_bad_prediction(self):
        with pytest.raises(ValueError, match="prediction"):
            batch([2], [0.5])

    def test_rejects_score_out_of_range(self):
        with pytest.raises(ValueError, match="score"):
            batch([1], [1.5])

    def test_boundary_scores_accepted(self):
        assert batch([1, 0], [0.0, 1.0]).scores.tolist() == [0.0, 1.0]

    def test_labels_optional_per_record(self):
        # A batch is labelled throughout or not at all; ingest leaves the
        # labels off when any row lacks one.
        assert batch([1, 0], [0.5, 0.5]).labels is None
        with pytest.raises(ValueError, match="label at index 1"):
            batch([1, 0], [0.5, 0.5], [1, None])

    def test_labels_exposed_when_complete(self):
        b = batch([1, 0], [0.5, 0.5], [1, 0])
        assert b.labels.tolist() == [1, 0]


class TestStrictInput:
    @pytest.mark.parametrize(
        "predictions, scores, labels, message",
        [
            ([0.7, 1.9], [0.5, 0.5], None, "prediction at index 0"),
            ([1, 0], [0.5, 0.5], [0.6, 1], "label at index 0"),
            ([1, -1], [0.5, 0.5], None, "prediction at index 1"),
            ([1, 0], [0.5, 0.5], [1, 2], "label at index 1"),
            ([1, np.nan], [0.5, 0.5], None, "prediction at index 1"),
            ([[1, 0]], [[0.5, 0.5]], None, "one-dimensional"),
            ([[1, 0]], [0.5, 0.5], None, "one-dimensional"),
            ([1, 0], [0.5, 0.5], [[1, 0]], "one-dimensional"),
            ([1], 0.5, None, "one-dimensional"),
            ([1, 0, 1], [0.5, 0.5], None, "equal length"),
            ([1, 0], [0.5, 0.5], [1], "equal length"),
            ([1, 0], [0.5, np.nan], None, "score at index 1"),
            ([1, 0], [0.5, -0.1], None, "score at index 1"),
        ],
    )
    def test_from_arrays_rejects(self, predictions, scores, labels, message):
        with pytest.raises(ValueError, match=message):
            batch(predictions, scores, labels)

    def test_float_and_bool_zeros_and_ones_accepted(self):
        b = batch(np.array([1.0, 0.0]), [0.5, 0.5], np.array([False, True]))
        assert b.predictions.tolist() == [1, 0]
        assert b.labels.tolist() == [0, 1]

    def test_arrays_are_read_only_copies(self):
        scores = np.array([0.2, 0.9])
        b = batch([0, 1], scores, [0, 1])
        scores[0] = 0.7
        assert b.scores.tolist() == [0.2, 0.9]
        for arr in (b.predictions, b.scores, b.labels, b[0:1].scores):
            with pytest.raises(ValueError):
                arr[0] = 1


rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=1),
    ),
    max_size=12,
)


class TestSlicing:
    @settings(deadline=None, max_examples=80)
    @given(rows, st.booleans(), st.integers(-14, 14), st.integers(-14, 14))
    def test_slice_equals_from_arrays_on_sliced_arrays(self, data, labelled, a, b):
        predictions = np.array([p for p, _, _ in data], dtype=np.int64)
        scores = np.array([s for _, s, _ in data], dtype=np.float64)
        labels = np.array([y for _, _, y in data], dtype=np.int64) if labelled else None
        got = batch(predictions, scores, labels)[a:b]
        want = batch(
            predictions[a:b], scores[a:b], None if labels is None else labels[a:b]
        )
        assert got.n == want.n
        assert got.predictions.dtype == want.predictions.dtype
        assert got.predictions.tolist() == want.predictions.tolist()
        assert got.scores.tolist() == want.scores.tolist()
        if labels is None:
            assert got.labels is None and want.labels is None
        else:
            assert got.labels.dtype == want.labels.dtype
            assert got.labels.tolist() == want.labels.tolist()

    def test_rejects_integer_index(self):
        with pytest.raises(TypeError):
            batch([1], [0.5])[0]


class TestEstimateConfusion:
    def test_three_record_example(self):
        est = estimate_confusion(batch([1, 1, 0], [0.8, 0.6, 0.3]))
        assert (est.e_tp, est.e_fp, est.e_fn, est.e_tn) == pytest.approx(
            (1.4, 0.6, 0.3, 0.7)
        )
        assert est.pmf_tp == pytest.approx([0.08, 0.44, 0.48])
        assert est.pmf_fp == pytest.approx([0.48, 0.44, 0.08])
        assert est.pmf_tn == pytest.approx([0.3, 0.7])
        assert est.pmf_fn == pytest.approx([0.7, 0.3])

    def test_all_positive_certain(self):
        est = estimate_confusion(batch([1, 1, 1, 1], [1.0] * 4))
        assert est.e_tp == 4
        assert est.pmf_tp.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert est.pmf_tn.tolist() == [1.0]
        assert est.pmf_fn.tolist() == [1.0]

    def test_single_negative_record(self):
        est = estimate_confusion(batch([0], [0.25]))
        assert est.e_tn == pytest.approx(0.75)
        assert est.e_fn == pytest.approx(0.25)
        assert est.pmf_tn == pytest.approx([0.25, 0.75])
        assert est.pmf_tp.tolist() == [1.0]

    def test_complements_are_read_only_reversed_views(self):
        est = estimate_confusion(batch([1, 1, 0, 0, 0], [0.9, 0.4, 0.3, 0.2, 0.6]))
        assert est.pmf_fp.base is est.pmf_tp
        assert est.pmf_fn.base is est.pmf_tn
        assert est.pmf_fp.tolist() == est.pmf_tp.tolist()[::-1]
        assert est.pmf_fn.tolist() == est.pmf_tn.tolist()[::-1]
        for pmf in (est.pmf_tp, est.pmf_fp, est.pmf_tn, est.pmf_fn):
            with pytest.raises(ValueError):
                pmf[0] = 0.5

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="nonempty"):
            estimate_confusion(PredictionBatch.from_arrays([], []))

    def test_mass_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            est = estimate_confusion(batch(rng.integers(0, 2, n), rng.random(n)))
            assert est.pmf_tp.size == est.n_pos + 1
            assert est.pmf_tn.size == est.n_neg + 1
            assert est.pmf_tp.sum() == pytest.approx(1.0, abs=1e-9)
            assert est.pmf_tn.sum() == pytest.approx(1.0, abs=1e-9)
            assert mean(est.pmf_tp) + mean(est.pmf_fp) == pytest.approx(est.n_pos, abs=1e-9)
            assert mean(est.pmf_tn) + mean(est.pmf_fn) == pytest.approx(est.n_neg, abs=1e-9)
            assert est.e_tp + est.e_fp == pytest.approx(est.n_pos, abs=1e-9)
            assert est.e_tn + est.e_fn == pytest.approx(est.n_neg, abs=1e-9)

    def test_point_estimates_are_distribution_means(self):
        rng = np.random.default_rng(6)
        est = estimate_confusion(batch(rng.integers(0, 2, 30), rng.random(30)))
        assert mean(est.pmf_tp) == pytest.approx(est.e_tp, abs=1e-9)
        assert mean(est.pmf_fp) == pytest.approx(est.e_fp, abs=1e-9)
        assert mean(est.pmf_tn) == pytest.approx(est.e_tn, abs=1e-9)
        assert mean(est.pmf_fn) == pytest.approx(est.e_fn, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        predictions = rng.integers(0, 2, 25)
        scores = rng.random(25)
        order = rng.permutation(25)
        a = estimate_confusion(batch(predictions, scores))
        b = estimate_confusion(batch(predictions[order], scores[order]))
        assert np.array_equal(a.pmf_tp, b.pmf_tp)
        assert np.array_equal(a.pmf_tn, b.pmf_tn)
        assert a.e_tp == pytest.approx(b.e_tp, abs=1e-12)
        assert a.e_tn == pytest.approx(b.e_tn, abs=1e-12)

    def test_variance_bound_on_tp_fraction(self):
        # The variance of TP/n_pos can never exceed 1/(4 n_pos).
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 60))
            est = estimate_confusion(batch(np.ones(n, dtype=int), rng.random(n)))
            k = np.arange(est.n_pos + 1)
            variance = (k * k) @ est.pmf_tp - mean(est.pmf_tp) ** 2
            assert variance / est.n_pos**2 <= 1 / (4 * est.n_pos) + 1e-12


def test_tp_fraction_estimator_is_unbiased_under_faithful_labels():
    # Fixed scores; labels redrawn from Bernoulli(score). The mean realized
    # TP fraction over many redraws converges on the mean positive score.
    rng = np.random.default_rng(2024)
    scores = rng.beta(2, 2, size=200)
    positive = scores >= 0.5
    n_pos = int(positive.sum())
    trials = 4000
    draws = rng.random((trials, n_pos)) < scores[positive]
    observed = draws.mean(axis=1).mean()
    target = scores[positive].mean()
    bound = 4 * np.sqrt(1 / (4 * n_pos * trials))
    assert abs(observed - target) <= bound
