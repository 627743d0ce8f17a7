"""The seeded inputs, and the tracer around the real CLI."""

import numpy as np
import pytest

import inputs
from confmetrics.cli import main as cli_main
from confmetrics import experiments, metrics, reports
from confmetrics.confusion import PredictionBatch
from tracing import Tracer


def _write(directory, seed):
    directory.mkdir()
    return inputs.write_hypersphere_files(directory, seed, n_files=2, rows_per_file=300)


def test_same_seed_same_files_other_seed_other_files(tmp_path):
    a, b, c = _write(tmp_path / "a", 5), _write(tmp_path / "b", 5), _write(tmp_path / "c", 6)
    assert [f["sha256"] for f in a] == [f["sha256"] for f in b]
    assert a[0]["sha256"] != c[0]["sha256"]
    assert a[0]["sha256"] != a[1]["sha256"]


def test_files_follow_the_shifted_hypersphere_law():
    predictions, scores, labels = inputs.hypersphere_arrays(seed=1, n=200_000)
    assert np.all((scores > 0.0) & (scores <= 1.0))
    assert np.array_equal(predictions, (scores >= 0.5).astype(np.int8))
    easy = (scores >= inputs.EASY_HIGH_FLOOR) | (scores <= inputs.EASY_LOW_CAP)
    hard = (scores >= inputs.HARD_BAND[0]) & (scores <= inputs.HARD_BAND[1])
    assert np.all(easy | hard)
    assert easy.mean() == pytest.approx(inputs.EASY_FRACTION, abs=0.005)
    # Labels are Bernoulli(score): calibrated within sampling noise.
    assert labels.mean() == pytest.approx(scores.mean(), abs=0.005)


def test_csv_round_trips_every_score_exactly(tmp_path):
    [info] = inputs.write_hypersphere_files(tmp_path, 2, 1, 50)
    lines = info["path"].read_text().strip().split("\n")
    assert lines[0] == "prediction,score,label"
    read = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(read, info["scores"])


def _bound_names():
    return (
        metrics.hdi,
        metrics.f1_distribution,
        experiments.hdi,
        reports.estimate_all,
        PredictionBatch.__dict__["from_arrays"],
        PredictionBatch.__dict__["__getitem__"],
        metrics._SHORTCUTS["f1"],
    )


@pytest.mark.parametrize(
    "method, alpha, window", [("exact", 0.05, 70), ("shortcut", None, 40)]
)
def test_tracer_writes_the_cli_bytes_and_restores_every_name(tmp_path, method, alpha, window):
    [info] = inputs.write_hypersphere_files(tmp_path, 4, 1, 200)
    argv = ["estimate", "--input", str(info["path"]), "--method", method,
            "--window-size", str(window)]
    if alpha is not None:
        argv += ["--alpha", str(alpha)]
    assert cli_main(argv + ["--output", str(tmp_path / "cli.json")]) == 0
    before = _bound_names()
    tracer = Tracer()
    code, error, facts = tracer.run(argv + ["--output", str(tmp_path / "traced.json")])
    assert (code, error) == (0, None)
    assert _bound_names() == before
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "cli.json").read_bytes()
    assert tracer.missing == []
    assert facts["ops"] == -(-200 // window) and facts["rows_parsed"] == 200
    names = {span.name for span in tracer.rec.spans}
    assert {"bench.job", "cli.main", "ingest.parse_input", "confusion.slice",
            "metrics.estimate_all", "reports.render_report"} <= names
    if method == "exact":
        assert len(facts["intervals"]) == 4 * facts["ops"]
        assert {"intervals.hdi", "confusion.estimate_confusion",
                "distribution.poisson_binomial_dp"} <= names
        assert {iv["op"] for iv in facts["intervals"]} == set(range(facts["ops"]))
    else:
        assert "metrics.shortcut" in names and not facts["intervals"]


def test_tracer_follows_the_coverage_trials(tmp_path):
    argv = ["--seed", "9", "simulate", "coverage", "--windows", "20,40",
            "--alphas", "0.05,0.1", "--trials", "3"]
    assert cli_main(argv + ["--output", str(tmp_path / "cli.csv")]) == 0
    tracer = Tracer()
    code, _, facts = tracer.run(argv + ["--output", str(tmp_path / "traced.csv")],
                                keep_estimates=True)
    assert code == 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()
    assert facts["ops"] == 6 and len(tracer.estimates) == 6
    assert facts["errors"] and all(0.0 <= e <= 1.0 for e in facts["errors"])
    names = {span.name for span in tracer.rec.spans}
    assert {"experiments.trial_batch", "synthesis.sample", "calibration.sample",
            "confusion.from_arrays", "reports.true_metrics", "intervals.hdi"} <= names


def test_tracer_counts_a_failing_call_as_an_exit_code(tmp_path):
    code, error, facts = Tracer().run(["estimate", "--input", str(tmp_path / "absent.csv")])
    assert code == 1 and facts["ops"] == 0
