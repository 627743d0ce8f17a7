"""Tests for the experiment runners (small scale; full-scale runs live in
the acceptance suite)."""

import math
import time

import numpy as np
import pytest

from confmetrics import confusion, experiments
from confmetrics.experiments import (
    rows_to_csv,
    run_convergence_experiment,
    run_coverage_experiment,
)
from oracles import convergence_rows_reference, coverage_rows_reference, record_chunks


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial ran")


class TestConvergence:
    def test_rows_cover_every_window_and_metric(self):
        rows = run_convergence_experiment((10, 25), trials=20, seed=1)
        assert {(r.window, r.metric) for r in rows} == {
            (w, m) for w in (10, 25) for m in ("recall", "f1", "control")
        }

    def test_deterministic_given_seed(self):
        a = run_convergence_experiment((15,), trials=25, seed=3)
        b = run_convergence_experiment((15,), trials=25, seed=3)
        assert a == b

    def test_control_rows_have_zero_error(self):
        rows = run_convergence_experiment((10, 30), trials=15, seed=2)
        for row in rows:
            if row.metric == "control":
                assert row.mean_error == 0.0
                assert row.mean_abs_error == 0.0
                assert row.std_error == 0.0

    def test_shortcut_error_falls_as_one_over_n(self):
        """Ten times the window cuts the recall and F1 shortcut error by at
        least 5 times, beyond the 3.2 times an O(1/sqrt(n)) error gives (the
        ``metrics`` docstring argues O(1/n))."""
        rows = run_convergence_experiment((100, 1000), trials=100, seed=0)
        error = {(r.window, r.metric): r.mean_abs_error for r in rows}
        for metric in ("recall", "f1"):
            assert error[100, metric] >= 5 * error[1000, metric], metric

    def test_abs_error_bounded_by_unit_interval(self):
        for row in run_convergence_experiment((20,), trials=25, seed=4):
            if row.trials:
                assert 0.0 <= row.mean_abs_error <= 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_convergence_experiment((10,), trials=0)

    def test_rejects_repeated_window(self):
        with pytest.raises(ValueError, match=r"window sizes .* once: \[10\]"):
            run_convergence_experiment((10, 20, 10), trials=2)

    def test_rejects_negative_seed_or_window_below_one(self):
        with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
            run_convergence_experiment((10,), trials=2, seed=-1)
        with pytest.raises(ValueError, match=r"^each window size must be at least 1, got 0$"):
            run_convergence_experiment((10, 0, -2), trials=2)

    def test_rejects_no_window_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(experiments, "_trial_batch", _no_trial)
        match = r"^window_sizes must be a nonempty sequence of integers, got \(\)$"
        with pytest.raises(ValueError, match=match):
            run_convergence_experiment((), trials=2)

    def test_repeated_window_found_in_linear_time(self, monkeypatch):
        monkeypatch.setattr(experiments, "_trial_batch", _no_trial)
        windows = tuple(range(1, 20001)) + (1,)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^window sizes requested more than once: \[1\]$"):
            run_convergence_experiment(windows, trials=2)
        assert time.perf_counter() - start < 2.0


class TestCoverage:
    def test_rows_cover_the_grid(self):
        rows = run_coverage_experiment((20,), trials=15, alphas=(0.1, 0.3), seed=5)
        assert {(r.metric, r.alpha) for r in rows} == {
            (m, a)
            for m in ("accuracy", "precision", "recall", "f1")
            for a in (0.1, 0.3)
        }

    def test_coverage_is_a_fraction(self):
        for row in run_coverage_experiment((25,), trials=20, alphas=(0.1,), seed=6):
            if row.trials:
                assert 0.0 <= row.coverage <= 1.0
            else:
                assert math.isnan(row.coverage)
            assert row.trials <= 20

    def test_deterministic_given_seed(self):
        a = run_coverage_experiment((15,), trials=10, alphas=(0.2,), seed=7)
        b = run_coverage_experiment((15,), trials=10, alphas=(0.2,), seed=7)
        assert a == b

    @pytest.mark.parametrize(
        "windows,alphas,match",
        [((10, 10), (0.05,), r"window sizes .* once: \[10\]"),
         ((10,), (0.05, 0.1, 0.05), r"alphas .* once: \[0\.05\]")],
        ids=["window", "alpha"],
    )
    def test_rejects_repeated_window_or_alpha(self, windows, alphas, match):
        with pytest.raises(ValueError, match=match):
            run_coverage_experiment(windows, trials=2, alphas=alphas)

    def test_rejects_negative_seed_or_window_below_one(self):
        with pytest.raises(ValueError, match=r"^seed must be at least 0, got -7$"):
            run_coverage_experiment((10,), trials=2, seed=-7)
        with pytest.raises(ValueError, match=r"^each window size must be at least 1, got 0$"):
            run_coverage_experiment((10, 0), trials=2)

    @pytest.mark.parametrize(
        "windows,alphas,match",
        [((), (0.05,), r"^window_sizes must be a nonempty sequence of integers, got \(\)$"),
         ((300,), (), r"^alphas must be a nonempty sequence of real numbers, got \(\)$"),
         (300, (0.05,), r"^window_sizes must be a nonempty sequence of integers, got 300$"),
         (None, (0.05,), r"^window_sizes must be a nonempty sequence of integers, got None$"),
         ((300,), None, r"^alphas must be a nonempty sequence of real numbers, got None$"),
         ((300,), 0.05, r"^alphas must be a nonempty sequence of real numbers, got 0\.05$"),
         ((300,), ("0.05",), r"^alpha must be a real number, got '0\.05'$"),
         ({300}, (0.05,), r"^window_sizes must be a nonempty sequence of integers, got \{300\}$"),
         ((300,), frozenset([0.05]),
          r"^alphas must be a nonempty sequence of real numbers, got frozenset\(\{0\.05\}\)$")],
        ids=["window", "alpha", "int-windows", "none-windows", "none-alphas",
             "float-alphas", "string-alpha", "set-windows", "frozenset-alphas"],
    )
    def test_rejects_no_window_or_alpha_before_any_trial(
        self, monkeypatch, windows, alphas, match
    ):
        # With no alpha, every trial's exact estimates ran and the result
        # was an empty list; the last five raised TypeError.
        monkeypatch.setattr(experiments, "_trial_batch", _no_trial)
        with pytest.raises(ValueError, match=match):
            run_coverage_experiment(windows, trials=50, alphas=alphas)

    def test_tiny_alpha_keeps_nearly_everything(self):
        rows = run_coverage_experiment((60,), trials=60, alphas=(0.001,), seed=8)
        for row in rows:
            if row.trials >= 30:
                assert row.coverage >= 0.95


@pytest.mark.parametrize("chunk_records", [None, 30], ids=["one-chunk", "chunks-of-30"])
@pytest.mark.parametrize("trials", [1, 63, 64, 65, 129])
def test_chunked_runners_write_the_per_trial_rows(monkeypatch, trials, chunk_records):
    # With chunks of 30 records, windows of 1 and 17 span several chunks,
    # and each trial of 40 is longer than the bound, a chunk by itself.
    if chunk_records is not None:
        monkeypatch.setattr(confusion, "_CHUNK_RECORDS", chunk_records)
    windows = (1, 17, 40)
    # The references reach the recorded builder too, so they come first.
    coverage = coverage_rows_reference(windows, trials, alphas=(0.05, 0.3), seed=11)
    convergence = convergence_rows_reference(windows, trials, seed=12)
    calls = record_chunks(monkeypatch)
    got = run_coverage_experiment(windows, trials, alphas=(0.05, 0.3), seed=11)
    assert rows_to_csv(got) == rows_to_csv(coverage)
    per_run = []
    for window in windows:
        size = -(-confusion._CHUNK_RECORDS // window)
        per_run += [min(size, trials - first) for first in range(0, trials, size)]
    assert [len(chunk) for chunk in calls] == per_run
    got = run_convergence_experiment(windows, trials, seed=12)
    assert rows_to_csv(got) == rows_to_csv(convergence)
    assert [len(chunk) for chunk in calls] == per_run * 2


@pytest.mark.parametrize("runner", [run_convergence_experiment, run_coverage_experiment])
@pytest.mark.parametrize(
    "windows, trials, seed, match",
    [((100.0,), 2, 0, r"^each window size must be an integer, got 100\.0$"),
     ((10, True), 2, 0, r"^each window size must be an integer, got True$"),
     ((10,), True, 0, r"^trials must be an integer, got True$"),
     ((10,), 2.5, 0, r"^trials must be an integer, got 2\.5$"),
     ((10,), 2, 1.5, r"^seed must be an integer, got 1\.5$")],
    ids=["float-window", "bool-window", "bool-trials", "float-trials", "float-seed"],
)
def test_rejects_plan_that_is_not_integers_before_any_trial(
    monkeypatch, runner, windows, trials, seed, match
):
    # True lies in range for every count; only a type check rejects it.
    monkeypatch.setattr(experiments, "_trial_batch", _no_trial)
    with pytest.raises(ValueError, match=match):
        runner(windows, trials, seed=seed)


def test_numpy_integer_plan_runs_as_ints():
    assert run_convergence_experiment((np.int32(10),), np.int64(3), seed=np.int64(1)) == (
        run_convergence_experiment((10,), 3, seed=1)
    )
    # The rows carry the window as a Python int, not the numpy scalar.
    rows = [
        *run_convergence_experiment((np.uint8(10),), np.uint8(2), seed=np.uint8(0)),
        *run_coverage_experiment((np.uint8(10),), np.uint8(2), (0.1,), seed=np.uint8(0)),
    ]
    assert {type(row.window) for row in rows} == {int}


@pytest.mark.parametrize("kind", [list, np.array])
def test_plans_given_as_lists_or_arrays_run_as_tuples(kind):
    assert run_convergence_experiment(kind([10]), trials=3, seed=1) == (
        run_convergence_experiment((10,), trials=3, seed=1)
    )
    assert run_coverage_experiment((20,), trials=3, alphas=kind([0.05, 0.1]), seed=2) == (
        run_coverage_experiment((20,), trials=3, alphas=(0.05, 0.1), seed=2)
    )


def test_csv_of_no_rows_is_rejected():
    with pytest.raises(ValueError, match="^no rows to write$"):
        rows_to_csv([])


def test_csv_round_trip():
    rows = run_convergence_experiment((10,), trials=10, seed=9)
    lines = rows_to_csv(rows).strip().splitlines()
    assert lines[0] == "window,metric,trials,mean_error,mean_abs_error,std_error"
    assert len(lines) == len(rows) + 1
    first = lines[1].split(",")
    assert first[0] == "10"
    assert float(first[3]) == rows[0].mean_error
