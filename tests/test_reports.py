"""Tests for window orchestration, true metrics and report serialization."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetrics import reports as reports_module
from confmetrics.confusion import PredictionBatch
from confmetrics.intervals import HdiInterval
from confmetrics.metrics import METRICS, MetricEstimate, estimate_all
from confmetrics.reports import (
    EstimateConfig,
    MonitoringReport,
    render_report,
    run_to_json,
    true_metrics,
    windowed_estimates,
)
from oracles import run_to_json_reference


def batch(predictions, scores, labels=None):
    return PredictionBatch.from_arrays(predictions, scores, labels)


def random_batch(rng, n, labelled=False):
    scores = rng.random(n)
    predictions = (scores >= 0.5).astype(int)
    labels = rng.integers(0, 2, n) if labelled else None
    return batch(predictions, scores, labels)


class TestWindowing:
    def test_exact_split(self):
        reports = list(windowed_estimates(random_batch(np.random.default_rng(0), 1000), 500))
        assert [r.window_size for r in reports] == [500, 500]
        assert not any(r.partial for r in reports)

    def test_trailing_partial_window_flagged(self):
        reports = list(windowed_estimates(random_batch(np.random.default_rng(1), 1001), 500))
        assert [r.window_size for r in reports] == [500, 500, 1]
        assert [r.partial for r in reports] == [False, False, True]
        assert [r.window_index for r in reports] == [0, 1, 2]

    @pytest.mark.parametrize(
        "metrics",
        [METRICS, ("f1", "accuracy", "recall"), ()],
        ids=["all", "f1-accuracy-recall", "none"],
    )
    @pytest.mark.parametrize("window", [1, 30, 37, 90, 91])
    @pytest.mark.parametrize("method", ["exact", "shortcut"])
    def test_windows_match_direct_slices(self, method, window, metrics):
        # Rows 30-59 hold no positive prediction and rows 60-89 score zero
        # throughout, so windows there leave precision, recall and F1
        # undefined; windows of 37 and 91 end in a partial window.
        rng = np.random.default_rng(2)
        scores = rng.random(90)
        scores[30:60] *= 0.5
        scores[60:] = 0.0
        b = batch((scores >= 0.5).astype(int), scores)
        config = EstimateConfig(metrics, method, 0.1 if method == "exact" else None)
        reports = list(windowed_estimates(b, window, config))
        assert len(reports) == -(-90 // window)
        undefined = set()
        for index, report in enumerate(reports):
            window_batch = b[index * window : (index + 1) * window]
            direct = estimate_all(window_batch, config.metrics, config.method, config.alpha)
            assert (report.window_index, report.window_size) == (index, window_batch.n)
            assert report.partial == (window_batch.n < window)
            assert [e.metric for e in report.estimates] == list(metrics)
            for got, expected in zip(report.estimates, direct, strict=True):
                assert (got.metric, got.method) == (expected.metric, expected.method)
                assert got.point == expected.point
                assert got.distribution == expected.distribution
                assert got.hdi == expected.hdi
            undefined.update(e.metric for e in report.estimates if e.undefined)
        if window < 90:
            # The exact recall distribution puts the mass of no true
            # positives on 0, so it stays defined.
            always_defined = {"accuracy"} | ({"recall"} if method == "exact" else set())
            assert undefined == set(metrics) - always_defined

    def test_undefined_metrics_listed(self):
        reports = list(windowed_estimates(batch([0, 0], [0.2, 0.3]), 2))
        assert {e.metric for e in reports[0].estimates if e.undefined} == {"precision", "f1"}

    def test_rejects_bad_window_size(self):
        with pytest.raises(ValueError, match="window_size"):
            windowed_estimates(batch([1], [0.5]), 0)

    def test_rejects_bad_request_when_called(self):
        # Nothing is iterated: the check must not wait for the first window.
        with pytest.raises(ValueError, match="alpha"):
            windowed_estimates(batch([1], [0.5]), 1, EstimateConfig(alpha=1.5))

    def test_windows_estimated_as_they_are_consumed(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0].n)
            return estimate_all(*args)

        monkeypatch.setattr(reports_module, "estimate_all", counted)
        reports = windowed_estimates(random_batch(np.random.default_rng(7), 25), 10)
        assert calls == []
        assert next(reports).window_size == 10
        assert calls == [10]
        assert [r.window_size for r in reports] == [10, 5]
        assert calls == [10, 10, 5]
        assert list(reports) == []


class TestTrueMetrics:
    def test_hand_counts(self):
        # TP=2, FP=0, FN=1, TN=1
        m = true_metrics(batch([1, 1, 0, 0], [0.9, 0.8, 0.4, 0.2], [1, 1, 1, 0]))
        assert m.precision == pytest.approx(1.0)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(0.8)
        assert m.accuracy == pytest.approx(0.75)

    def test_all_correct(self):
        m = true_metrics(batch([1, 0], [0.9, 0.1], [1, 0]))
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_no_positive_predictions_leaves_precision_absent(self):
        m = true_metrics(batch([0, 0], [0.1, 0.2], [0, 1]))
        assert m.precision is None
        assert m.recall == 0.0

    def test_no_positives_at_all_leaves_recall_and_f1_absent(self):
        m = true_metrics(batch([0, 0], [0.1, 0.2], [0, 0]))
        assert m.recall is None
        assert m.f1 is None
        assert m.accuracy == 1.0

    def test_requires_labels(self):
        with pytest.raises(ValueError, match="label"):
            true_metrics(batch([1], [0.5]))


class TestSerialization:
    CONFIG = EstimateConfig(method="exact", alpha=0.05)

    def test_document_shape(self):
        b = batch([1, 1, 0], [0.8, 0.6, 0.3])
        doc = run_to_json(windowed_estimates(b, 3, self.CONFIG), self.CONFIG)
        assert set(doc) == {"windows", "config"}
        window = doc["windows"][0]
        assert window["window_index"] == 0
        assert window["window_size"] == 3
        assert window["partial"] is False
        estimate = window["estimates"][0]
        assert set(estimate) == {
            "metric",
            "method",
            "point",
            "undefined",
            "hdi",
            "distribution",
        }
        assert estimate["hdi"] is not None
        assert estimate["distribution"] is None

    def test_distributions_emitted_on_request(self):
        b = batch([1, 1, 0], [0.8, 0.6, 0.3])
        reports = windowed_estimates(b, 3, self.CONFIG)
        doc = run_to_json(reports, self.CONFIG, emit_distributions=True)
        entry = doc["windows"][0]["estimates"][0]
        assert entry["metric"] == "accuracy"
        # triples of numerator, denominator, probability
        assert [row[:2] for row in entry["distribution"]] == [
            [0, 1],
            [1, 3],
            [2, 3],
            [1, 1],
        ]
        total = sum(row[2] for row in entry["distribution"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_undefined_estimate_serialized_with_null_point(self):
        b = batch([0, 0], [0.2, 0.3])
        doc = run_to_json(windowed_estimates(b, 2, self.CONFIG), self.CONFIG)
        by_name = {e["metric"]: e for e in doc["windows"][0]["estimates"]}
        assert by_name["precision"]["point"] is None
        assert by_name["precision"]["undefined"] is True

    def test_rendering_is_deterministic(self):
        rng = np.random.default_rng(3)
        b = random_batch(rng, 40)
        first = render_report(windowed_estimates(b, 20, self.CONFIG), self.CONFIG)
        second = render_report(windowed_estimates(b, 20, self.CONFIG), self.CONFIG)
        assert first == second
        json.loads(first)  # also valid JSON


def test_peak_memory_holds_one_window_not_the_run():
    # Twenty times the windows may not take three times the memory: each
    # window's distributions are let go once its text is written.
    config = EstimateConfig(alpha=0.05)
    rng = np.random.default_rng(8)
    peaks = []
    for n in (1000, 20_000):
        b = random_batch(rng, n)
        tracemalloc.start()
        try:
            render_report(windowed_estimates(b, 1000, config), config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0], peaks


def _sample_distributions():
    rng = np.random.default_rng(4)
    dists = []
    for n in (1, 3, 8):
        for e in estimate_all(random_batch(rng, n), alpha=0.2):
            if e.distribution is not None:
                dists.append(e.distribution)
    return dists


_FLOATS = st.floats()
_NUMBERS = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_ESTIMATES = st.builds(
    MetricEstimate,
    metric=st.sampled_from(METRICS),
    method=st.sampled_from(("exact", "shortcut")),
    point=st.none() | _NUMBERS,
    distribution=st.none() | st.sampled_from(_sample_distributions()),
    hdi=st.none()
    | st.builds(HdiInterval, lower=_NUMBERS, upper=_NUMBERS, alpha=_NUMBERS, covered_mass=_FLOATS),
)
_REPORTS = st.builds(
    MonitoringReport,
    window_index=st.integers(0, 10**6),
    window_size=st.integers(1, 10**6),
    partial=st.booleans(),
    estimates=st.lists(_ESTIMATES, max_size=5).map(tuple),
)
_CONFIGS = st.builds(
    EstimateConfig,
    metrics=st.permutations(METRICS).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda k: tuple(order[:k]))
    ),
    method=st.sampled_from(("exact", "shortcut")),
    alpha=st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


class TestWriter:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(_REPORTS, max_size=4), _CONFIGS, st.booleans())
    def test_writes_the_text_of_json_dumps(self, reports, config, emit_distributions):
        document = run_to_json_reference(reports, config, emit_distributions)
        expected = json.dumps(document, indent=2, sort_keys=True)
        assert render_report(reports, config, emit_distributions) == expected
        out = io.StringIO()
        assert render_report(iter(reports), config, emit_distributions, out=out) is None
        assert out.getvalue() == expected

    @pytest.mark.parametrize(
        "config, window",
        [
            (EstimateConfig(method="exact", alpha=0.1), 7),
            (EstimateConfig(("recall", "precision"), "exact"), 20),
            (EstimateConfig(method="shortcut"), 6),
            (EstimateConfig((), "shortcut"), 6),
        ],
    )
    def test_estimated_windows_match_the_reference(self, config, window):
        b = random_batch(np.random.default_rng(5), 20)
        reports = list(windowed_estimates(b, window, config))
        for emit in (False, True):
            document = run_to_json_reference(reports, config, emit)
            text = render_report(reports, config, emit)
            assert text == json.dumps(document, indent=2, sort_keys=True)
            assert run_to_json(reports, config, emit) == document
