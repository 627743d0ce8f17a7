"""Tests for window orchestration, true metrics and report serialization."""

import gc
import io
import json
import tracemalloc
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confmetrics import cli, confusion
from confmetrics import metrics as metrics_module
from confmetrics import reports as reports_module
from confmetrics.confusion import PredictionBatch, estimate_confusion
from confmetrics.ingest import parse_input
from confmetrics.intervals import HdiInterval, hdi
from confmetrics.metrics import METRICS, MetricEstimate
from confmetrics.reports import (
    METHODS,
    EstimateConfig,
    MonitoringReport,
    Run,
    TrueMetrics,
    estimate_all,
    render_report,
    true_metrics,
    windowed_estimates,
)
from confmetrics.synthesis import HypersphereConfig, hypersphere_dataset
from oracles import run_to_json, run_to_json_reference, shortcut_points_reference


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
        [METRICS, ("f1", "accuracy", "recall"), ("precision",)],
        ids=["all", "f1-accuracy-recall", "precision"],
    )
    @pytest.mark.parametrize("window", [1, 30, 37, 90, 91])
    @pytest.mark.parametrize("method", ["exact", "shortcut"])
    @pytest.mark.parametrize("chunk_records", [None, 40], ids=["one-chunk", "chunks-of-40"])
    def test_windows_match_direct_slices(
        self, monkeypatch, chunk_records, method, window, metrics
    ):
        # Rows 30-59 hold no positive prediction and rows 60-89 score zero
        # throughout, so windows there leave precision, recall and F1
        # undefined; windows of 37 and 91 end in a partial window.  With
        # chunks of 40 records, an exact run spans several chunks, and a
        # window of 90 or 91 is longer than the bound.
        if chunk_records is not None:
            monkeypatch.setattr(confusion, "_CHUNK_RECORDS", chunk_records)
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
            assert (report.window_index, report.window_size) == (index, window_batch.n)
            assert report.partial == (window_batch.n < window)
            assert [e.metric for e in report.estimates] == list(metrics)
            # References built from the slice alone, outside the windowed run.
            if method == "exact":
                est = estimate_confusion(window_batch)
            else:
                points = shortcut_points_reference(window_batch)
            for got in report.estimates:
                assert got.method == method
                if method == "shortcut":
                    assert (got.point, got.distribution, got.hdi) == (points[got.metric], None, None)
                    continue
                dist = getattr(metrics_module, f"{got.metric}_distribution")(est)
                assert got.distribution == dist
                if dist is None:
                    assert (got.point, got.hdi) == (None, None)
                else:
                    assert got.point == dist.expectation()
                    assert got.hdi == hdi(dist, config.alpha)
            undefined.update(e.metric for e in report.estimates if e.undefined)
        if window < 90:
            # The exact recall distribution puts the mass of no true
            # positives on 0, so it stays defined.
            always_defined = {"accuracy"} | ({"recall"} if method == "exact" else set())
            assert undefined == set(metrics) - always_defined

    @pytest.mark.parametrize("window", [2**62, 10**20])
    @pytest.mark.parametrize("method", ["exact", "shortcut"])
    def test_window_past_any_array_size_holds_the_batch(self, method, window):
        # numpy cannot reshape to rows of these widths nor allocate that many
        # windows, so the shortcut pass caps its window at the records.
        b = random_batch(np.random.default_rng(4), 50)
        config = EstimateConfig(method=method, alpha=0.1 if method == "exact" else None)
        (report,) = windowed_estimates(b, window, config)
        assert (report.window_index, report.window_size, report.partial) == (0, 50, True)
        direct = estimate_all(b, method=method, alpha=config.alpha)
        assert [e.metric for e in direct] == list(METRICS)
        assert all((e.hdi is not None) == (method == "exact") for e in direct)
        for got, expected in zip(report.estimates, direct, strict=True):
            assert (got.metric, got.method, got.point) == (
                expected.metric, expected.method, expected.point
            )
            assert got.distribution == expected.distribution
            assert got.hdi == expected.hdi

    def test_undefined_metrics_listed(self):
        reports = list(windowed_estimates(batch([0, 0], [0.2, 0.3]), 2))
        assert {e.metric for e in reports[0].estimates if e.undefined} == {"precision", "f1"}

    def test_rejects_bad_window_size(self):
        with pytest.raises(ValueError, match="window_size"):
            windowed_estimates(batch([1], [0.5]), 0)

    @pytest.mark.parametrize("window", [True, False, 2.5, 2.0, "2", None])
    def test_rejects_window_size_that_is_not_an_integer(self, window):
        # A bool is an int to Python, so only a type check rejects True.
        with pytest.raises(ValueError, match=r"^window_size must be an integer, got "):
            windowed_estimates(batch([1, 0], [0.5, 0.4]), window)

    def test_numpy_integer_window_size_runs_as_an_int(self):
        b = random_batch(np.random.default_rng(5), 7)
        config = EstimateConfig(method="shortcut")
        assert list(windowed_estimates(b, np.int64(3), config)) == list(
            windowed_estimates(b, 3, config)
        )

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"alpha": "0.05"}, r"^alpha must be a real number, got '0\.05'$"),
         ({"alpha": True}, r"^alpha must be a real number, got True$"),
         ({"metrics": None},
          r"^metrics must be a nonempty sequence of metric names, got None$"),
         ({"metrics": iter(["recall"])},
          r"^metrics must be a nonempty sequence of metric names, got <"),
         ({"metrics": {"recall"}},
          r"^metrics must be a nonempty sequence of metric names, got \{'recall'\}$"),
         ({"metrics": frozenset(["recall"])},
          r"^metrics must be a nonempty sequence of metric names, "
          r"got frozenset\(\{'recall'\}\)$"),
         ({"metrics": ()}, r"^metrics must be a nonempty sequence of metric names, got \(\)$")],
        ids=["string-alpha", "bool-alpha", "no-metrics", "metrics-iterator", "metrics-set",
             "metrics-frozenset", "no-metric-named"],
    )
    def test_rejects_request_of_the_wrong_types(self, kwargs, match):
        # The string alpha and None metrics used to raise TypeError; an
        # iterator of metrics was used up by the checks, leaving no metric;
        # a set of metrics ran in an order that followed the hash seed; no
        # metric at all built every exact window's counts for empty reports.
        with pytest.raises(ValueError, match=match):
            estimate_all(batch([1, 0], [0.5, 0.4]), **kwargs)

    @pytest.mark.parametrize("method", ["exact", "shortcut"])
    def test_rejects_metrics_given_as_one_string(self, method):
        # A string is a sequence of letters, each an unknown metric.
        b = batch([1, 0], [0.5, 0.4])
        match = r"^metrics must be a nonempty sequence of metric names, got the string 'recall'$"
        with pytest.raises(ValueError, match=match):
            estimate_all(b, metrics="recall", method=method)
        with pytest.raises(ValueError, match=match):
            windowed_estimates(b, 1, EstimateConfig(metrics="recall", method=method))

    @pytest.mark.parametrize(
        "config, message",
        [(EstimateConfig(method="bogus"), "method must be 'exact' or 'shortcut', got 'bogus'"),
         (EstimateConfig(("recall", "foo")),
          "unknown metrics requested: ['foo']; choose from accuracy, precision, recall, f1")],
        ids=["method", "metric"],
    )
    def test_rejects_unknown_names_naming_the_valid_ones(self, config, message):
        with pytest.raises(ValueError) as raised:
            windowed_estimates(batch([1, 0], [0.5, 0.4]), 1, config)
        assert str(raised.value) == message

    def test_rejects_bad_request_when_called(self):
        # Nothing is iterated: the check must not wait for the first window.
        with pytest.raises(ValueError, match="alpha"):
            windowed_estimates(batch([1], [0.5]), 1, EstimateConfig(alpha=1.5))

    def test_windows_estimated_as_they_are_consumed(self, monkeypatch):
        calls = []
        exact_estimate = reports_module._exact_estimate

        def counted(metric, est, alpha):
            calls.append(est.n_pos + est.n_neg)
            return exact_estimate(metric, est, alpha)

        monkeypatch.setattr(reports_module, "_exact_estimate", counted)
        reports = iter(windowed_estimates(
            random_batch(np.random.default_rng(7), 25), 10, EstimateConfig(metrics=("f1",))
        ))
        assert calls == []
        assert next(reports).window_size == 10
        assert calls == [10]
        assert [r.window_size for r in reports] == [10, 5]
        assert calls == [10, 10, 5]
        assert list(reports) == []

    def test_a_failing_first_exact_window_fails_the_call(self, monkeypatch):
        # A generator: it raises when the first window is pulled.
        def fails(batches):
            raise RuntimeError("first window")
            yield

        monkeypatch.setattr(reports_module, "estimate_confusions", fails)
        run = windowed_estimates(random_batch(np.random.default_rng(7), 25), 10)
        # The call estimates nothing; each first read of the run raises.
        for read in (list, render_report):
            with pytest.raises(RuntimeError, match="first window"):
                read(run)

    def test_each_exact_window_is_let_go_once_passed(self):
        run = iter(windowed_estimates(
            random_batch(np.random.default_rng(8), 30), 10, EstimateConfig(alpha=0.1)
        ))
        report = next(run)
        estimate = weakref.ref(report.estimates[0])
        del report
        next(run)
        gc.collect()
        assert estimate() is None

    @staticmethod
    def _six_rows(method):
        b = random_batch(np.random.default_rng(12), 6)
        return windowed_estimates(b, 2, EstimateConfig(method=method))

    @staticmethod
    def _document(run, reports):
        """The reports of a run as a document that compares by value."""
        assert [r.window_index for r in reports] == [0, 1, 2]
        return run_to_json_reference(reports, run.config, emit_distributions=True)

    @pytest.mark.parametrize("method", METHODS)
    def test_nothing_is_estimated_until_the_run_is_read(self, method, monkeypatch):
        calls = []

        def recorded(name):
            estimate = getattr(reports_module, name)

            def call(*args):
                calls.append(name)
                return estimate(*args)

            return call

        for name in ("_shortcut_windows", "estimate_confusions"):
            monkeypatch.setattr(reports_module, name, recorded(name))
        b = random_batch(np.random.default_rng(12), 6)
        config = EstimateConfig(method=method)
        run = windowed_estimates(b, 2, config)
        assert vars(run) == {"config": config, "window_size": 2, "sizes": [2, 2, 2], "batch": b}
        iter(run)
        assert calls == []
        pass_name = {"shortcut": "_shortcut_windows", "exact": "estimate_confusions"}[method]
        list(run)
        assert calls == [pass_name]
        render_report(run)
        assert calls == [pass_name, pass_name]

    @pytest.mark.parametrize("second", ["iterate", "write"])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_run_read_whole_reads_the_same_again(self, method, second):
        # A second read of an exact run used to raise "RuntimeError:
        # generator raised StopIteration".
        run = self._six_rows(method)
        fresh = self._six_rows(method)
        assert self._document(run, list(run)) == self._document(fresh, list(fresh))
        if second == "iterate":
            assert self._document(run, list(run)) == self._document(fresh, list(fresh))
        else:
            assert render_report(run, True) == render_report(fresh, True)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_started_run_writes_the_whole_report_for_a_second_reader(self, method):
        # The writer used to write window 1's estimates under window_index
        # 0, and window 2's under 1, before it failed.
        run = self._six_rows(method)
        assert next(iter(run)).window_index == 0
        out = io.StringIO()
        render_report(run, True, out=out)
        fresh = self._six_rows(method)
        assert out.getvalue() == render_report(fresh, True)
        assert json.loads(out.getvalue()) == self._document(fresh, list(fresh))

    @pytest.mark.parametrize("window", [1, 7, 50, 2**62])
    def test_both_methods_lay_out_the_same_windows(self, window):
        b = random_batch(np.random.default_rng(9), 50)
        exact, shortcut = (
            [
                (r.window_index, r.window_size, r.partial)
                for r in windowed_estimates(b, window, EstimateConfig(method=method))
            ]
            for method in ("exact", "shortcut")
        )
        assert exact == shortcut
        assert len(exact) == -(-50 // window)


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

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 1000, 5000])
    @pytest.mark.parametrize("case", ["mixed", "no-positive-predictions", "no-positive-labels"])
    def test_equal_the_ratios_of_integer_counts(self, n, case):
        # The window sizes cross numpy's 8- and 128-element pairwise-sum
        # blocks; sums of 0/1 values stay exact there, and a float64
        # quotient of integers below 2**53 is the correctly rounded one.
        rng = np.random.default_rng(n)
        predictions = (rng.random(n) < rng.random()).astype(int)
        labels = (rng.random(n) < rng.random()).astype(int)
        if case == "no-positive-predictions":
            predictions[:] = 0
        elif case == "no-positive-labels":
            labels[:] = 0
        pred, actual = predictions == 1, labels == 1
        tp = int(np.count_nonzero(pred & actual))
        p = int(np.count_nonzero(actual))
        n_pos = int(np.count_nonzero(pred))
        correct = int(np.count_nonzero(pred == actual))

        def ratio(num, den):
            return num / den if den else None

        got = true_metrics(batch(predictions, rng.random(n), labels))
        assert got == TrueMetrics(
            accuracy=ratio(correct, n),
            precision=ratio(tp, n_pos),
            recall=ratio(tp, p),
            f1=ratio(2 * tp, p + n_pos),
        )
        assert all(v is None or type(v) is float for v in vars(got).values())

    def test_requires_labels(self):
        with pytest.raises(ValueError, match="label"):
            true_metrics(batch([1], [0.5]))


class TestSerialization:
    CONFIG = EstimateConfig(method="exact", alpha=0.05)

    def test_document_shape(self):
        b = batch([1, 1, 0], [0.8, 0.6, 0.3])
        doc = run_to_json(windowed_estimates(b, 3, self.CONFIG))
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
        doc = run_to_json(windowed_estimates(b, 3, self.CONFIG), emit_distributions=True)
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
        doc = run_to_json(windowed_estimates(b, 2, self.CONFIG))
        by_name = {e["metric"]: e for e in doc["windows"][0]["estimates"]}
        assert by_name["precision"]["point"] is None
        assert by_name["precision"]["undefined"] is True

    def test_rendering_is_deterministic(self):
        rng = np.random.default_rng(3)
        b = random_batch(rng, 40)
        first = render_report(windowed_estimates(b, 20, self.CONFIG))
        second = render_report(windowed_estimates(b, 20, self.CONFIG))
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
            render_report(windowed_estimates(b, 1000, config))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0], peaks


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _hypersphere_batch(n):
    return hypersphere_dataset(HypersphereConfig(n_dims=3, n_points=n, seed=5)).batch


class TestPairTableMemory:
    """Windows of a chunk read shared recall and F1 pair tables; the peaks
    below were 1.48 MB and 8.76 MB before they did, under Python 3.11 and
    numpy 2.4, and a chunk may hold its tables but no more."""

    def test_peak_of_a_windowed_exact_report(self):
        run = windowed_estimates(_hypersphere_batch(10_000), 1000, EstimateConfig(alpha=0.05))
        peak = _traced_peak(lambda: render_report(run, out=io.StringIO()))
        assert peak < 1.15 * 1.48 * 2**20, peak

    def test_peak_of_a_one_window_estimate(self):
        b = _hypersphere_batch(10_000)
        peak = _traced_peak(lambda: estimate_all(b, alpha=0.05))
        assert peak < 1.1 * 8.76 * 2**20, peak

    def test_a_one_window_table_is_not_kept(self, monkeypatch):
        tables = []
        build = metrics_module._pair_table

        def recorded(*args):
            table = build(*args)
            tables.append(weakref.ref(table.groups.order))
            return table

        monkeypatch.setattr(metrics_module, "_pair_table", recorded)
        estimates = estimate_all(_hypersphere_batch(2000), alpha=0.05)
        gc.collect()
        assert len(tables) == 2  # recall and F1
        assert all(table() is None for table in tables)
        assert all(e.distribution is not None for e in estimates)

    def test_a_chunks_tables_go_with_the_chunk(self, monkeypatch):
        # At window 1000, windows 0-32 make the first chunk, 33-39 the
        # second.  A kept table is stored narrowed.
        kept = []
        narrowed = metrics_module._RatioGroups.narrowed

        def recorded(groups):
            small = narrowed(groups)
            kept.append(weakref.ref(small.order))
            return small

        monkeypatch.setattr(metrics_module._RatioGroups, "narrowed", recorded)
        run = windowed_estimates(_hypersphere_batch(40_000), 1000, EstimateConfig(alpha=0.05))
        reports = iter(run)
        first_chunk = 0
        for index in range(35):
            next(reports)
            gc.collect()
            # At most one kept table per metric is alive at a time.
            assert sum(table() is not None for table in kept) <= 2
            if index == 32:
                first_chunk = len(kept)
        assert first_chunk >= 2
        assert all(table() is None for table in kept[:first_chunk])


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
# A run's window size and each window's size and estimates; a window's
# index and partial flag follow from the sizes.
_RUNS = st.tuples(
    st.integers(1, 10**6),
    st.lists(st.tuples(st.integers(1, 10**6), st.lists(_ESTIMATES, max_size=5)), max_size=4),
)
# Nonempty subset and permuted metric requests.
_METRIC_REQUESTS = st.permutations(METRICS).flatmap(
    lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))
)
_ALPHAS = st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_CONFIGS = st.builds(
    EstimateConfig, metrics=_METRIC_REQUESTS, method=st.sampled_from(METHODS), alpha=_ALPHAS
)


# An exact run's estimates are what the writer reads of it; a drawn run
# hands over its drawn estimates in their place.
_EXACT_CONFIGS = st.builds(EstimateConfig, metrics=_METRIC_REQUESTS, alpha=_ALPHAS)


@dataclass(frozen=True)
class _DrawnRun(Run):
    drawn: list[list[MetricEstimate]]

    def _estimates(self):
        return iter(self.drawn)


class TestWriter:
    @settings(deadline=None, max_examples=200)
    @given(_RUNS, _EXACT_CONFIGS, st.booleans())
    def test_writes_the_text_of_json_dumps(self, drawn, config, emit_distributions):
        window_size, windows = drawn
        sizes = [size for size, _ in windows]

        def run():
            return _DrawnRun(config, window_size, sizes, None, [e for _, e in windows])

        reports = [
            MonitoringReport(index, size, size < window_size, tuple(estimates))
            for index, (size, estimates) in enumerate(windows)
        ]
        assert list(run()) == reports
        document = run_to_json_reference(reports, config, emit_distributions)
        expected = json.dumps(document, indent=2, sort_keys=True)
        assert render_report(run(), emit_distributions) == expected
        out = io.StringIO()
        assert render_report(run(), emit_distributions, out=out) is None
        assert out.getvalue() == expected

    @settings(deadline=None, max_examples=100)
    @given(_CONFIGS, st.integers(1, 13) | st.just(2**62))
    def test_the_header_is_the_runs_own_config(self, config, window):
        assume(config.method == "exact" or config.alpha is None)
        b = random_batch(np.random.default_rng(10), 12)
        document = json.loads(render_report(windowed_estimates(b, window, config)))
        alpha = None if config.alpha is None else float(config.alpha)
        assert document["config"] == {
            "alpha": alpha, "method": config.method, "metrics": list(config.metrics)
        }
        assert len(document["windows"]) == -(-12 // window)
        for written in document["windows"]:
            estimates = written["estimates"]
            assert [(e["metric"], e["method"]) for e in estimates] == [
                (m, config.method) for m in config.metrics
            ]
            assert all(e["hdi"]["alpha"] == alpha for e in estimates if e["hdi"] is not None)

    @pytest.mark.parametrize(
        "config, window",
        [
            (EstimateConfig(method="exact", alpha=0.1), 7),
            (EstimateConfig(("recall", "precision"), "exact"), 20),
            (EstimateConfig(method="shortcut"), 6),
            (EstimateConfig(("f1",), "shortcut"), 6),
        ],
    )
    def test_estimated_windows_match_the_reference(self, config, window):
        b = random_batch(np.random.default_rng(5), 20)
        reports = list(windowed_estimates(b, window, config))
        for emit in (False, True):
            document = run_to_json_reference(reports, config, emit)
            text = render_report(windowed_estimates(b, window, config), emit)
            assert text == json.dumps(document, indent=2, sort_keys=True)
            assert run_to_json(windowed_estimates(b, window, config), emit) == document

    @pytest.mark.parametrize(
        "alpha", [Fraction(1, 20), np.float32(0.05), np.float16(0.05)],
        ids=["fraction", "float32", "float16"],
    )
    def test_any_real_alpha_is_written_and_held_as_its_float(self, alpha):
        b = random_batch(np.random.default_rng(9), 300)
        config = EstimateConfig(alpha=alpha)
        out = io.StringIO()
        render_report(windowed_estimates(b, 100, config), out=out)
        for text in (render_report(windowed_estimates(b, 100, config)), out.getvalue()):
            document = json.loads(text)
            assert document["config"]["alpha"] == float(alpha)
            written = [e["hdi"] for w in document["windows"] for e in w["estimates"] if e["hdi"]]
            assert written and all(h["alpha"] == float(alpha) for h in written)
        reports = list(windowed_estimates(b, 100, config))
        covered = [e.hdi.covered_mass for r in reports for e in r.estimates if e.hdi]
        assert covered and all(mass >= 1 - float(alpha) for mass in covered)

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.tuples(st.sampled_from(("mixed", "negative", "zero")), st.integers(1, 12)),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**32 - 1),
        st.sampled_from(("one", "n", "huge")) | st.integers(2, 40),
        _METRIC_REQUESTS,
        st.booleans(),
    )
    def test_shortcut_columns_write_the_text_of_the_reports(
        self, blocks, seed, window, metrics, emit_distributions
    ):
        # The batch is a run of blocks: "negative" blocks hold no positive
        # prediction, so windows inside them leave precision and F1
        # undefined, and "zero" blocks score 0, so windows inside them leave
        # recall undefined.  A window that does not divide the records ends
        # in a partial window, and 2**62 is larger than any batch.
        rng = np.random.default_rng(seed)
        predictions, scores = [], []
        for kind, size in blocks:
            negative = kind == "negative"
            predictions.append(np.zeros(size, int) if negative else rng.integers(0, 2, size))
            scores.append(np.zeros(size) if kind == "zero" else rng.random(size))
        b = batch(np.concatenate(predictions), np.concatenate(scores))
        window = {"one": 1, "n": b.n, "huge": 2**62}.get(window, window)
        config = EstimateConfig(metrics, "shortcut")
        run = windowed_estimates(b, window, config)
        assert isinstance(run, Run)
        reports = list(run)
        document = run_to_json_reference(reports, config, emit_distributions)
        expected = json.dumps(document, indent=2, sort_keys=True)
        assert render_report(run, emit_distributions) == expected
        out = io.StringIO()
        assert render_report(run, emit_distributions, out=out) is None
        assert out.getvalue() == expected

    def test_shortcut_columns_build_no_estimate_or_report(self, monkeypatch):
        def fails(*args, **kwargs):
            raise AssertionError("a per-window object was built")

        b = random_batch(np.random.default_rng(6), 50)
        config = EstimateConfig(method="shortcut")
        expected = render_report(windowed_estimates(b, 7, config))
        monkeypatch.setattr(reports_module, "MetricEstimate", fails)
        monkeypatch.setattr(reports_module, "MonitoringReport", fails)
        assert render_report(windowed_estimates(b, 7, config)) == expected

    @staticmethod
    def _cli_run_without(tmp_path, monkeypatch, method, *names):
        """Run ``estimate`` at window 7 with the ``reports`` names given made
        to fail when called, and check it writes what the library does."""

        def fails(*args, **kwargs):
            raise AssertionError("a per-window object was built")

        path = tmp_path / "data.csv"
        b = random_batch(np.random.default_rng(8), 50)
        rows = zip(b.predictions.tolist(), b.scores.tolist())
        path.write_text("prediction,score\n" + "".join(f"{p},{s!r}\n" for p, s in rows))
        expected = render_report(
            windowed_estimates(parse_input(str(path)), 7, EstimateConfig(method=method))
        )
        for name in names:
            monkeypatch.setattr(reports_module, name, fails)
        out = tmp_path / "report.json"
        argv = ["estimate", "--input", str(path), "--method", method, "--window-size", "7"]
        assert cli.main([*argv, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected + "\n"

    def test_shortcut_cli_run_builds_no_estimate_or_report(self, tmp_path, monkeypatch):
        self._cli_run_without(tmp_path, monkeypatch, "shortcut", "MetricEstimate", "MonitoringReport")

    def test_exact_cli_run_builds_no_report(self, tmp_path, monkeypatch):
        # Its estimates come from the metrics module; only reports could be
        # built here.
        self._cli_run_without(tmp_path, monkeypatch, "exact", "MonitoringReport")

    @pytest.mark.parametrize(
        "window, config, match",
        [
            (0, EstimateConfig(method="shortcut"), "window_size must be at least 1"),
            (5, EstimateConfig(("f1", "f1"), "shortcut"), "requested more than once"),
            (5, EstimateConfig(method="shortcut", alpha=0.1), "alpha applies to the exact"),
        ],
        ids=["window", "repeated-metric", "alpha"],
    )
    def test_shortcut_columns_reject_a_bad_request(self, window, config, match):
        with pytest.raises(ValueError, match=match):
            windowed_estimates(random_batch(np.random.default_rng(6), 10), window, config)
