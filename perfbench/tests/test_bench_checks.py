"""Output checks: a correct CLI output passes, each injected fault fails
exactly the ops it touches."""

import json

import numpy as np
import pytest

import inputs
import run
from confmetrics.cli import main as cli_main
from spans import OpTally, Span

EXACT = run.WORKLOADS["exact-w1000"] | {"window": 50}
SHORTCUT = run.WORKLOADS["shortcut-w100"] | {"window": 40}
COVERAGE = run.WORKLOADS["coverage-mixed"]


@pytest.fixture
def file_info(tmp_path):
    [info] = inputs.write_hypersphere_files(tmp_path, seed=3, n_files=1, rows_per_file=120)
    return info


def _report(info, spec, tmp_path):
    out = tmp_path / "report.json"
    argv = ["estimate", "--input", str(info["path"]), "--output", str(out),
            "--method", spec["method"], "--window-size", str(spec["window"])]
    if spec["alpha"] is not None:
        argv += ["--alpha", str(spec["alpha"])]
    assert cli_main(argv) == 0
    return out


@pytest.mark.parametrize("spec", [EXACT, SHORTCUT], ids=["exact", "shortcut"])
def test_cli_report_passes_every_window(file_info, spec, tmp_path):
    doc = json.loads(_report(file_info, spec, tmp_path).read_text())
    assert run.check_report(doc, file_info, spec) == [None] * 3


def test_wrong_accuracy_point_fails_only_its_window(file_info, tmp_path):
    doc = json.loads(_report(file_info, EXACT, tmp_path).read_text())
    doc["windows"][1]["estimates"][0]["point"] += 1e-6
    problems = run.check_report(doc, file_info, EXACT)
    assert problems[0] is None and problems[2] is None
    assert "accuracy" in problems[1]


def test_interval_outside_unit_range_fails(file_info, tmp_path):
    doc = json.loads(_report(file_info, EXACT, tmp_path).read_text())
    doc["windows"][0]["estimates"][2]["hdi"]["upper"] = 1.5
    assert "interval" in run.check_report(doc, file_info, EXACT)[0]


def test_missing_window_fails_every_op(file_info, tmp_path):
    doc = json.loads(_report(file_info, EXACT, tmp_path).read_text())
    del doc["windows"][2]
    assert all(p is not None for p in run.check_report(doc, file_info, EXACT))


def _job(file_info, output):
    return {"key": "file-0", "ops": 3, "output": output, "file": file_info}


def test_outputs_count_a_nonzero_exit_against_every_op(file_info, tmp_path):
    tally = OpTally()
    outputs = run.Outputs(EXACT, tally)
    job = _job(file_info, _report(file_info, EXACT, tmp_path))
    outputs.check(job, {"exit_code": 1, "error": "boom"})
    assert (tally.attempted, tally.failed) == (3, 3)


def test_outputs_fail_a_run_whose_bytes_differ(file_info, tmp_path):
    tally = OpTally()
    outputs = run.Outputs(EXACT, tally)
    path = _report(file_info, EXACT, tmp_path)
    job = _job(file_info, path)
    outputs.check(job, {"exit_code": 0, "error": None})
    assert (tally.attempted, tally.failed) == (3, 0)
    path.write_text(path.read_text().replace("\n", "\n "))
    outputs.check(job, {"exit_code": 0, "error": None})
    assert (tally.attempted, tally.failed) == (6, 3)


def _coverage_csv(rows):
    return "window,metric,alpha,trials,coverage\n" + "".join(
        f"{w},{m},{a},{t},{c}\n" for w, m, a, t, c in rows
    )


def _coverage_rows(coverage=0.9, trials=25):
    return [
        (w, m, a, trials, coverage)
        for w in COVERAGE["windows"]
        for m in run.METRICS
        for a in COVERAGE["alphas"]
    ]


def test_coverage_csv_rules():
    assert run.check_coverage_csv(_coverage_csv(_coverage_rows()), COVERAGE) is None
    assert "trials" in run.check_coverage_csv(_coverage_csv(_coverage_rows(trials=0)), COVERAGE)
    assert "coverage" in run.check_coverage_csv(
        _coverage_csv(_coverage_rows(coverage=1.2)), COVERAGE
    )
    assert "rows" in run.check_coverage_csv(_coverage_csv(_coverage_rows()[:-1]), COVERAGE)


def test_coverage_gap_is_the_mean_absolute_miss():
    rows = [(100, "f1", 0.05, 10, 0.9), (100, "f1", 0.1, 10, 1.0)]
    assert run.coverage_gap(_coverage_csv(rows)) == pytest.approx((0.05 + 0.1) / 2)


def test_estimate_errors_use_the_realized_metrics(file_info):
    window = 60
    n = file_info["scores"].size
    doc = {"windows": [{"estimates": [{"metric": m, "point": 0.5} for m in run.METRICS]}
                       for _ in range(n // window)]}
    errors = run.estimate_errors(doc, file_info, window)
    pred, labels = file_info["predictions"][:window], file_info["labels"][:window]
    accuracy = float(np.mean(pred == labels))
    assert errors[0] == pytest.approx(abs(0.5 - accuracy))
    assert len(errors) == 4 * (n // window)


def _traced_run(job, digests, intervals=(), codes=(0, 0)):
    return {"job": job, "digests": list(digests), "intervals": list(intervals),
            "exits": [{"code": c, "error": None} for c in codes]}


def test_traced_runs_fail_on_other_bytes_exit_codes_bad_intervals_and_content():
    jobs = [{"key": "file-0", "ops": 3}]
    written = {"file-0": b"report"}
    good = run.hashlib.sha256(b"report").hexdigest()
    low = {"op": 1, "lower": 0.2, "upper": 0.4, "alpha": 0.05, "covered_mass": 0.9}
    runs = [
        _traced_run(0, [good, good]),
        _traced_run(0, [good, "other"]),
        _traced_run(0, [good, good], codes=(0, 1)),
        _traced_run(0, [good, good], intervals=[low]),
    ]
    tally = OpTally()
    run.check_traced(runs, jobs, written, {"file-0": [None, None, "bad point"]}, tally)
    assert (tally.attempted, tally.failed) == (12, 1 + 3 + 3 + 2)


def test_op_problems_fail_every_op_of_a_missing_or_garbled_report(file_info):
    job = {"key": "file-0", "ops": 3, "file": file_info}
    assert all(run.op_problems(EXACT, job, None))
    assert all(run.op_problems(EXACT, job, b"{not json"))
    cells = len(COVERAGE["windows"]) * len(run.METRICS) * len(COVERAGE["alphas"])
    garbled = _coverage_csv([]) + "1,2\n" * cells
    assert all(run.op_problems(COVERAGE, job, garbled.encode()))


def _span(id, parent, name, start, end, op=None):
    return Span(id, parent, name, start, end, op)


def test_trial_runs_to_the_next_trial_less_the_counting():
    spans = [
        _span(0, None, "bench.job", 0.0, 20.0),
        _span(1, 0, "experiments.run_coverage_experiment", 1.0, 19.0),
        _span(2, 1, "experiments.trial_batch", 2.0, 3.0, op=0),
        _span(3, 1, "bench.counters", 5.0, 6.0, op=0),
        _span(4, 1, "experiments.trial_batch", 8.0, 9.0, op=1),
    ]
    root_of = {span.id: 0 for span in spans}
    counting = {(0, 0): 1.0}
    assert run._trial_durations(spans, root_of, counting) == [8.0 - 2.0 - 1.0, 19.0 - 8.0]
