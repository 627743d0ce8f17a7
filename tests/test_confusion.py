"""Tests for confusion-count estimation from scored predictions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetrics import _checks, confusion
from confmetrics.confusion import PredictionBatch, estimate_confusion
from confmetrics.experiments import run_coverage_experiment
from confmetrics.reports import windowed_estimates
from oracles import expand, record_chunks


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

    def test_prediction_counts_length_and_repr(self):
        b = batch([1, 0, 1], [0.9, 0.2, 0.6])
        assert (b.n_pos, b.n_neg, len(b)) == (2, 1, 3)
        assert repr(b) == "PredictionBatch(n=3, n_pos=2, labelled=False)"
        assert repr(batch([0], [0.1], [1])) == "PredictionBatch(n=1, n_pos=0, labelled=True)"


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
            # Scores that are not real numbers: a string or bytes was read as
            # its number, None as NaN, and a complex score raised TypeError.
            ([1], ["0.5"], None, "^score at index 0 must be a real number, got '0.5'$"),
            ([1], [b"0.5"], None, "^score at index 0 must be a real number, got b'0.5'$"),
            ([1, 0], [0.5, None], None, "^score at index 1 must be a real number, got None$"),
            ([1], [0.5j], None, "^score at index 0 must be a real number, got 0.5j$"),
            ([1], [True], None, "^score at index 0 must be a real number, got True$"),
            ([1, 0], np.array([0.5, 0.25j]), None, "^score at index 0 must be a real number"),
            # A bool prediction or label is rejected, as a bool score is,
            # among numbers or in a bool array, where numpy reads 0 or 1.
            ([1, True], [0.5, 0.5], None, "^prediction at index 1 must be 0 or 1, got True$"),
            (np.array([True, False]), [0.5, 0.5], None,
             "^prediction at index 0 must be 0 or 1, got (np\\.)?True_?$"),
            ([1, 1], [0.5, 0.5], [False, 1], "^label at index 0 must be 0 or 1, got False$"),
            ([1], [0.5], np.array([True]), "^label at index 0 must be 0 or 1, got (np\\.)?True_?$"),
        ],
    )
    def test_from_arrays_rejects(self, predictions, scores, labels, message):
        with pytest.raises(ValueError, match=message):
            batch(predictions, scores, labels)

    def test_real_scores_of_any_numeric_type_accepted(self):
        for scores in ([0, 1], np.array([0.5], dtype=np.float32), np.array([1], dtype=np.uint8),
                       [np.float64(0.25)], [Fraction(1, 2)]):
            b = batch([1] * len(scores), scores)
            assert b.scores.dtype == np.float64
            assert b.scores.tolist() == [float(s) for s in scores]

    def test_float_zeros_and_ones_accepted(self):
        b = batch(np.array([1.0, 0.0]), [0.5, 0.5], [0.0, np.float32(1)])
        assert b.predictions.tolist() == [1, 0]
        assert b.labels.tolist() == [0, 1]

    def test_numpy_number_arrays_take_no_per_entry_check(self, monkeypatch):
        def refuse(value, name):
            raise AssertionError(f"{name} was checked on its own")

        monkeypatch.setattr(_checks, "_require_binary", refuse)
        monkeypatch.setattr(_checks, "_require_real", refuse)
        n = 200_000
        b = batch(np.ones(n, dtype=np.uint8), np.full(n, 0.5), np.zeros(n, dtype=np.int64))
        assert (b.n, b.predictions.dtype, b.labels.dtype) == (n, np.int8, np.int8)

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
        fp = est.tp.complement(est.n_pos)
        means = (
            mean(expand(est.tp, 2)),
            mean(expand(fp, 2)),
            mean(expand(est.fn, 1)),
            mean(expand(est.tn, 1)),
        )
        assert means == pytest.approx((1.4, 0.6, 0.3, 0.7))
        assert expand(est.tp, 2) == pytest.approx([0.08, 0.44, 0.48])
        assert expand(fp, 2) == pytest.approx([0.48, 0.44, 0.08])
        assert expand(est.tn, 1) == pytest.approx([0.3, 0.7])
        assert expand(est.fn, 1) == pytest.approx([0.7, 0.3])

    def test_all_positive_certain(self):
        est = estimate_confusion(batch([1, 1, 1, 1], [1.0] * 4))
        assert mean(expand(est.tp, 4)) == 4
        assert (est.tp.offset, est.tp.pmf.tolist(), est.tp.trimmed) == (4, [1.0], 0.0)
        assert expand(est.tp, 4).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert expand(est.tn, 0).tolist() == [1.0]
        assert expand(est.fn, 0).tolist() == [1.0]

    def test_single_negative_record(self):
        est = estimate_confusion(batch([0], [0.25]))
        assert mean(expand(est.tn, 1)) == pytest.approx(0.75)
        assert mean(expand(est.fn, 1)) == pytest.approx(0.25)
        assert expand(est.tn, 1) == pytest.approx([0.25, 0.75])
        assert expand(est.tp, 0).tolist() == [1.0]

    def test_complements_are_read_only_reversed_views(self):
        est = estimate_confusion(batch([1, 1, 0, 0, 0], [0.9, 0.4, 0.3, 0.2, 0.6]))
        for side, flipped, n in ((est.tp, est.tp.complement(2), 2), (est.tn, est.fn, 3)):
            assert np.shares_memory(flipped.pmf, side.pmf)
            assert flipped.pmf.tolist() == side.pmf.tolist()[::-1]
            assert flipped.offset == n - side.offset - side.pmf.size + 1
            assert flipped.trimmed == side.trimmed
            assert expand(flipped, n).tolist() == expand(side, n).tolist()[::-1]
            for pmf in (side.pmf, flipped.pmf):
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
            for side, n in ((est.tp, est.n_pos), (est.tn, est.n_neg)):
                assert 0 <= side.offset and side.offset + side.pmf.size <= n + 1
                assert side.pmf.sum() + side.trimmed == pytest.approx(1.0, abs=1e-9)
            tp, fp = expand(est.tp, est.n_pos), expand(est.tp.complement(est.n_pos), est.n_pos)
            tn, fn = expand(est.tn, est.n_neg), expand(est.fn, est.n_neg)
            assert mean(tp) + mean(fp) == pytest.approx(est.n_pos, abs=1e-9)
            assert mean(tn) + mean(fn) == pytest.approx(est.n_neg, abs=1e-9)

    def test_point_estimates_are_distribution_means(self):
        # The expected counts are the score sums over each prediction side.
        rng = np.random.default_rng(6)
        predictions, scores = rng.integers(0, 2, 30), rng.random(30)
        est = estimate_confusion(batch(predictions, scores))
        pos, neg = scores[predictions == 1], scores[predictions == 0]
        assert mean(expand(est.tp, est.n_pos)) == pytest.approx(pos.sum(), abs=1e-9)
        fp = est.tp.complement(est.n_pos)
        assert mean(expand(fp, est.n_pos)) == pytest.approx((1 - pos).sum(), abs=1e-9)
        assert mean(expand(est.tn, est.n_neg)) == pytest.approx((1 - neg).sum(), abs=1e-9)
        assert mean(expand(est.fn, est.n_neg)) == pytest.approx(neg.sum(), abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        predictions = rng.integers(0, 2, 25)
        scores = rng.random(25)
        order = rng.permutation(25)
        a = estimate_confusion(batch(predictions, scores))
        b = estimate_confusion(batch(predictions[order], scores[order]))
        for x, y in ((a.tp, b.tp), (a.tn, b.tn)):
            assert (x.offset, x.trimmed) == (y.offset, y.trimmed)
            assert np.array_equal(x.pmf, y.pmf)

    def test_variance_bound_on_tp_fraction(self):
        # The variance of TP/n_pos can never exceed 1/(4 n_pos).
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 60))
            est = estimate_confusion(batch(np.ones(n, dtype=int), rng.random(n)))
            tp = expand(est.tp, est.n_pos)
            k = np.arange(est.n_pos + 1)
            variance = (k * k) @ tp - mean(tp) ** 2
            assert variance / est.n_pos**2 <= 1 / (4 * est.n_pos) + 1e-12


class TestStream:
    @pytest.mark.parametrize(
        "run, records",
        [
            (lambda: run_coverage_experiment((5000,), trials=64, alphas=(0.05,)), 64 * 5000),
            (
                lambda: list(windowed_estimates(
                    batch(np.arange(80_000) % 2, np.random.default_rng(3).random(80_000)), 2000
                )),
                80_000,
            ),
        ],
        ids=["coverage-trials", "exact-windows"],
    )
    def test_each_chunk_stops_at_the_batch_that_reaches_the_bound(
        self, monkeypatch, run, records
    ):
        calls = record_chunks(monkeypatch)
        run()
        assert sum(map(sum, calls)) == records
        assert len(calls) > 1
        bound = confusion._CHUNK_RECORDS
        for chunk in calls:
            assert sum(chunk[:-1]) < bound, chunk
        for chunk in calls[:-1]:
            assert sum(chunk) >= bound, chunk

    def test_windows_of_one_chunk_share_one_call(self, monkeypatch):
        calls = record_chunks(monkeypatch)
        rng = np.random.default_rng(4)
        scores = rng.random(10_000)
        b = batch((scores >= 0.5).astype(int), scores)
        assert len(list(windowed_estimates(b, 1000))) == 10
        assert calls == [[1000] * 10]


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
