"""End-to-end tests of the command-line interface."""

import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confmetrics
from confmetrics import confusion, experiments, metrics, reports
from confmetrics.cli import build_parser, main
from confmetrics.reports import EstimateConfig
from confmetrics.synthesis import HypersphereConfig
from oracles import (
    f1_distribution_untrimmed,
    poisson_binomial_dp_counts,
    recall_distribution_untrimmed,
)

LABELLED = "prediction,score,label\n1,0.8,1\n1,0.6,1\n0,0.3,0\n0,0.2,1\n"


@pytest.fixture
def labelled_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(LABELLED, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_whole_file_report(self, labelled_csv, capsys):
        code, out, err = run(
            capsys, "estimate", "--input", labelled_csv, "--alpha", "0.05"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert len(doc["windows"]) == 1
        estimates = {e["metric"]: e for e in doc["windows"][0]["estimates"]}
        assert estimates["precision"]["point"] == pytest.approx(0.7)
        assert estimates["accuracy"]["hdi"]["alpha"] == 0.05

    def test_windowed_output_file(self, labelled_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "estimate",
            "--input", labelled_csv,
            "--window-size", "2",
            "--method", "shortcut",
            "--output", out_path,
        )
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert [w["window_size"] for w in doc["windows"]] == [2, 2]
        assert doc["config"]["method"] == "shortcut"

    def test_metric_subset(self, labelled_csv, capsys):
        code, out, _ = run(
            capsys, "estimate", "--input", labelled_csv, "--metrics", "accuracy,recall"
        )
        doc = json.loads(out)
        assert [e["metric"] for e in doc["windows"][0]["estimates"]] == [
            "accuracy",
            "recall",
        ]

    def test_emit_distributions(self, labelled_csv, capsys):
        code, out, _ = run(
            capsys, "estimate", "--input", labelled_csv, "--emit-distributions"
        )
        doc = json.loads(out)
        entry = doc["windows"][0]["estimates"][0]
        assert entry["distribution"] is not None
        # Fractions are stored unreduced and reduced when emitted.
        for e in doc["windows"][0]["estimates"]:
            assert all(math.gcd(num, den) == 1 for num, den, _ in e["distribution"])

    def test_bad_file_reports_line_and_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("prediction,score\n1,2.5\n", encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--input", path)
        assert code == 1
        assert out == ""
        assert "line 2" in err

    def test_jsonl_string_field_fails(self, tmp_path, capsys):
        path = tmp_path / "typed.jsonl"
        path.write_text('{"prediction": "1", "score": 0.8}\n', encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--input", path, "--format", "jsonl")
        assert code == 1 and out == ""
        assert "error: line 1: prediction" in err

    def test_short_csv_row_fails(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("prediction,score,label\n1,0.5,1\n0,0.25\n", encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--input", path)
        assert code == 1 and out == ""
        assert "error: line 3: fewer fields than header columns" in err.splitlines()

    def test_jsonl_repeated_key_fails(self, tmp_path, capsys):
        path = tmp_path / "repeated.jsonl"
        path.write_text('{"prediction": 1, "prediction": 0, "score": 0.5}\n', encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--input", path, "--format", "jsonl")
        assert code == 1 and out == ""
        assert "error: line 1: duplicate keys: prediction" in err.splitlines()

    def test_unknown_metric_is_rejected_by_the_library_after_the_input(
        self, labelled_csv, tmp_path, capsys
    ):
        code, out, err = run(capsys, "estimate", "--input", labelled_csv, "--metrics", "foo")
        assert (code, out) == (1, "")
        assert err == (
            "error: unknown metrics requested: ['foo']; "
            "choose from accuracy, precision, recall, f1\n"
        )
        code, _, err = run(capsys, "estimate", "--input", tmp_path / "none.csv", "--metrics", "foo")
        assert code == 1 and "none.csv" in err and "unknown metrics" not in err

    def test_alpha_with_shortcut_fails(self, labelled_csv, capsys):
        code, out, err = run(
            capsys, "estimate", "--input", labelled_csv,
            "--method", "shortcut", "--alpha", "0.05",
        )
        assert code == 1 and out == ""
        assert "error:" in err and "alpha" in err

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + LABELLED, encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--input", path, "--method", "shortcut")
        assert code == 0 and err == ""
        estimates = {e["metric"]: e for e in json.loads(out)["windows"][0]["estimates"]}
        assert estimates["precision"]["point"] == pytest.approx(0.7)

    @pytest.mark.parametrize("window", [(), ("--window-size", "3")])
    def test_header_only_file_reports_empty_input(self, tmp_path, capsys, window):
        path = tmp_path / "empty.csv"
        path.write_text("prediction,score\n", encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--input", path, *window)
        assert code == 1 and out == ""
        assert "nonempty batch" in err
        assert "window_size" not in err

    def test_trimmed_report_matches_untrimmed_derivation(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "sphere.csv"
        code, _, _ = run(
            capsys,
            "--seed", "7",
            "generate", "hypersphere",
            "--dims", "5",
            "--points", "1200",
            "--shifted",
            "--output", data,
        )
        assert code == 0
        args = (
            "estimate", "--input", data,
            "--method", "exact", "--alpha", "0.05", "--window-size", "300",
        )
        code, trimmed, _ = run(capsys, *args)
        assert code == 0
        # The reference report pairs every count of full-length count PMFs
        # built by one convolution per score.
        reference_sets = []

        def dp_trees(param_sets):
            reference_sets.extend(param_sets)
            return [poisson_binomial_dp_counts(params) for params in param_sets]

        monkeypatch.setattr(confusion, "poisson_binomial_trees", dp_trees)
        monkeypatch.setattr(metrics, "recall_distribution", recall_distribution_untrimmed)
        monkeypatch.setattr(metrics, "f1_distribution", f1_distribution_untrimmed)
        code, untrimmed, _ = run(capsys, *args)
        assert code == 0
        # Both sides of each of the four windows took the reference PMFs.
        assert len(reference_sets) == 8
        got = json.loads(trimmed)["windows"]
        want = json.loads(untrimmed)["windows"]
        assert len(got) == len(want) == 4
        for window, reference in zip(got, want):
            for e, r in zip(window["estimates"], reference["estimates"]):
                assert e["metric"] == r["metric"]
                assert e["hdi"] == r["hdi"]
                assert abs(e["point"] - r["point"]) <= 2e-15

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "--input", tmp_path / "nope.csv")
        assert code == 1 and "error:" in err

    def test_rejected_request_leaves_output_file_untouched(self, labelled_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        out_path.write_bytes(b"an earlier report\n")
        code, out, err = run(
            capsys, "estimate", "--input", labelled_csv, "--alpha", "1.5", "--output", out_path
        )
        assert code == 1 and out == ""
        assert "alpha must lie in (0, 1), got 1.5" in err
        assert out_path.read_bytes() == b"an earlier report\n"

    def test_failed_first_window_leaves_output_file_untouched(
        self, labelled_csv, tmp_path, capsys, monkeypatch
    ):
        # A generator: it raises when the first window is pulled.
        def fails(batches):
            raise ValueError("window failed")
            yield

        monkeypatch.setattr(reports, "estimate_confusions", fails)
        out_path = tmp_path / "report.json"
        out_path.write_bytes(b"an earlier report\n")
        code, out, err = run(
            capsys, "estimate", "--input", labelled_csv, "--alpha", "0.05",
            "--window-size", "2", "--output", out_path,
        )
        assert code == 1 and out == ""
        assert "error: window failed" in err
        assert out_path.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--window-size", "0"), "window_size must be at least 1, got 0"),
            (("--metrics", "recall,f1,recall"), "metrics requested more than once: ['recall']"),
        ],
        ids=["window-size", "repeated-metric"],
    )
    def test_rejected_shortcut_request_leaves_output_file_untouched(
        self, labelled_csv, tmp_path, capsys, argv, message
    ):
        out_path = tmp_path / "report.json"
        out_path.write_bytes(b"an earlier report\n")
        code, out, err = run(
            capsys, "estimate", "--input", labelled_csv, "--method", "shortcut", *argv,
            "--output", out_path,
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert out_path.read_bytes() == b"an earlier report\n"

    def test_failed_shortcut_points_leave_output_file_untouched(
        self, labelled_csv, tmp_path, capsys, monkeypatch
    ):
        def fails(*args):
            raise ValueError("points failed")

        monkeypatch.setattr(reports, "_shortcut_windows", fails)
        out_path = tmp_path / "report.json"
        out_path.write_bytes(b"an earlier report\n")
        code, out, err = run(
            capsys, "estimate", "--input", labelled_csv, "--method", "shortcut",
            "--window-size", "2", "--output", out_path,
        )
        assert code == 1 and out == ""
        assert "error: points failed" in err
        assert out_path.read_bytes() == b"an earlier report\n"

    def test_a_closed_stdout_pipe_ends_the_run_quietly(self, labelled_csv, capsys, monkeypatch):
        # It used to print "error: [Errno 32] Broken pipe" and exit 1, the
        # status of a rejected request.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        args = ("estimate", "--input", labelled_csv, "--method", "shortcut", "--window-size", "1")
        code, _, err = run(capsys, *args)
        assert code == 141 and err == ""

    @pytest.mark.parametrize(
        "command, lines",
        [(("estimate", "--method", "shortcut", "--window-size", "10"), 1), (("true-metrics",), 0)],
        ids=["writing", "flushing"],
    )
    def test_a_reader_that_stops_early_ends_the_process_quietly(self, tmp_path, command, lines):
        # The shortcut report, about 400 kB, meets the closed pipe while it
        # is written.  The realized metrics, about 100 bytes, wait in
        # stdout's buffer for the last flush, which Python would otherwise
        # make at exit and report as "Exception ignored".
        data = tmp_path / "data.csv"
        assert main(["generate", "hypersphere", "--dims", "3", "--points", "5000",
                     "--output", str(data)]) == 0
        src = str(Path(confmetrics.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "confmetrics.cli", *command, "--input", str(data)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert [child.stdout.readline() for _ in range(lines)] == [b"{\n"] * lines
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=300) == 141

    def test_stdout_and_output_file_hold_the_same_report(self, labelled_csv, tmp_path, capsys):
        args = ("estimate", "--input", labelled_csv, "--window-size", "3", "--emit-distributions")
        code, printed, _ = run(capsys, *args)
        assert code == 0
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, *args, "--output", out_path)
        assert code == 0 and out == ""
        assert out_path.read_text(encoding="utf-8") == printed
        assert len(json.loads(printed)["windows"]) == 2

    @pytest.mark.parametrize(
        "argv,windows",
        [
            (("--window-size", "3", "--emit-distributions"), 2),
            (("--window-size", "1", "--metrics", "f1,precision"), 4),
            (("--window-size", "1000000"), 1),
        ],
        ids=["distributions", "subset", "past-the-file"],
    )
    def test_shortcut_stdout_and_output_file_hold_the_same_report(
        self, labelled_csv, tmp_path, capsys, argv, windows
    ):
        args = ("estimate", "--input", labelled_csv, "--method", "shortcut", *argv)
        code, printed, _ = run(capsys, *args)
        assert code == 0
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, *args, "--output", out_path)
        assert code == 0 and out == ""
        assert out_path.read_text(encoding="utf-8") == printed
        assert len(json.loads(printed)["windows"]) == windows

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product of more than 10 000 elements across
        # its threads, which changes how the sum rounds; the recall and F1
        # distributions of a 1000-row window hold about 25 000 points.  The
        # experiments' CSVs are reports too.
        whole, windowed = tmp_path / "whole.csv", tmp_path / "windowed.csv"
        for seed, points, data in (("1", "1000", whole), ("3", "10000", windowed)):
            assert main(["--seed", seed, "generate", "hypersphere", "--dims", "5",
                         "--points", points, "--shifted", "--output", str(data)]) == 0
        src = str(Path(confmetrics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for command in (
            ("estimate", "--input", whole, "--alpha", "0.05"),
            ("estimate", "--input", windowed, "--method", "exact", "--alpha", "0.05",
             "--window-size", "1000"),
            ("--seed", "3", "simulate", "coverage", "--trials", "20", "--windows", "100,300"),
            ("--seed", "3", "simulate", "convergence", "--trials", "20", "--windows", "10,500"),
        ):
            reports_by_threads = [
                subprocess.run(
                    [sys.executable, "-m", "confmetrics.cli", *map(str, command)],
                    env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                    capture_output=True, check=True, timeout=300,
                ).stdout
                for threads in ("1", "2")
            ]
            assert reports_by_threads[0] == reports_by_threads[1], command

    @pytest.mark.parametrize(
        "argv",
        [
            ("--method", "shortcut", "--window-size", "100"),
            ("--method", "shortcut", "--window-size", "1000000"),
            ("--method", "shortcut", "--window-size", "100", "--metrics", "f1,precision"),
            ("--method", "shortcut", "--window-size", "100", "--emit-distributions"),
            ("--method", "exact", "--alpha", "0.05", "--window-size", "1000"),
            ("--method", "exact", "--window-size", "300", "--emit-distributions"),
        ],
        ids=["shortcut", "shortcut-whole", "shortcut-subset", "shortcut-distributions",
             "exact-alpha", "exact-distributions"],
    )
    def test_report_is_canonical_json_and_a_newline(self, tmp_path, capsys, argv):
        # The exact distributions at window 300 make a report of about 37 MB.
        data = tmp_path / "sphere.csv"
        assert main(["--seed", "2", "generate", "hypersphere", "--dims", "3",
                     "--points", "20000", "--output", str(data)]) == 0
        code, out, err = run(capsys, "estimate", "--input", data, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [("--method", "shortcut", "--window-size", "100"),
         ("--alpha", "0.05", "--window-size", "1000")],
        ids=["shortcut", "exact-alpha"],
    )
    def test_csv_and_jsonl_forms_of_a_file_give_the_same_report(self, tmp_path, capsys, argv):
        # The score text goes over verbatim, so json parses it with float(),
        # the bits the plain CSV route must give it too.
        data, jsonl = tmp_path / "sphere.csv", tmp_path / "sphere.jsonl"
        assert main(["--seed", "4", "generate", "hypersphere", "--dims", "3",
                     "--points", "20000", "--output", str(data)]) == 0
        with data.open(newline="", encoding="utf-8") as rows:
            jsonl.write_text(
                "".join('{"prediction": %(prediction)s, "score": %(score)s, "label": %(label)s}\n'
                        % row for row in csv.DictReader(rows)),
                encoding="utf-8",
            )
        code, from_csv, _ = run(capsys, "estimate", "--input", data, *argv)
        assert code == 0
        code, from_jsonl, _ = run(capsys, "estimate", "--input", jsonl, "--format", "jsonl", *argv)
        assert code == 0 and from_jsonl == from_csv


class TestLabelledCommands:
    def test_true_metrics(self, labelled_csv, capsys):
        code, out, _ = run(capsys, "true-metrics", "--input", labelled_csv)
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc) == ["accuracy", "f1", "precision", "recall"]
        assert doc["precision"] == 1.0
        assert doc["recall"] == pytest.approx(2 / 3)

    def test_ace(self, labelled_csv, tmp_path, capsys):
        code, out, _ = run(capsys, "ace", "--input", labelled_csv, "--bins", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ace"] >= 0.0
        assert len(doc["bins"]) == 2
        data = tmp_path / "sphere.csv"
        assert main(["--seed", "1", "generate", "hypersphere", "--dims", "3",
                     "--points", "20000", "--output", str(data)]) == 0
        code, out, _ = run(capsys, "ace", "--input", data)
        assert code == 0 and len(json.loads(out)["bins"]) == 15

    @pytest.mark.parametrize("command", ["true-metrics", "ace"])
    def test_header_only_labelled_file_reports_empty_input(self, tmp_path, capsys, command):
        path = tmp_path / "empty.csv"
        path.write_text("prediction,score,label\n", encoding="utf-8")
        code, out, err = run(capsys, command, "--input", path)
        assert code == 1 and out == ""
        assert "nonempty batch" in err
        assert "true label" not in err

    def test_unlabelled_input_fails(self, tmp_path, capsys):
        path = tmp_path / "plain.csv"
        path.write_text("prediction,score\n1,0.6\n", encoding="utf-8")
        code, _, err = run(capsys, "true-metrics", "--input", path)
        assert code == 1 and "label" in err


class TestSimulate:
    def test_convergence_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "--seed", "3",
            "simulate", "convergence",
            "--windows", "10,50",
            "--trials", "5",
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["window", "metric", "trials", "mean_error", "mean_abs_error", "std_error"]
        # Two windows by recall, F1 and the exact-minus-exact control.
        assert [row[:2] for row in rows] == [
            [window, metric] for window in ("10", "50") for metric in ("recall", "f1", "control")
        ]
        assert [float(row[3]) for row in rows if row[1] == "control"] == [0.0, 0.0]

    def test_coverage_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "coverage", "--windows", "100", "--trials", "5")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["window", "metric", "alpha", "trials", "coverage"]
        # One window by four metrics and the two default alphas.
        assert len(rows) == 8

    def test_coverage_csv_deterministic_per_seed(self, capsys):
        args = (
            "--seed", "5",
            "simulate", "coverage",
            "--windows", "15",
            "--trials", "5",
            "--alphas", "0.1",
        )
        code, first, _ = run(capsys, *args)
        assert code == 0
        _, second, _ = run(capsys, *args)
        assert first == second


    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--seed", "-1", "simulate", "coverage", "--windows", "10"),
             "seed must be at least 0, got -1"),
            (("--seed", "-1", "simulate", "convergence", "--windows", "10"),
             "seed must be at least 0, got -1"),
            (("simulate", "coverage", "--windows", "10,0"),
             "each window size must be at least 1, got 0"),
            (("simulate", "convergence", "--windows", "10,-3"),
             "each window size must be at least 1, got -3"),
        ],
        ids=["coverage-seed", "convergence-seed", "coverage-window", "convergence-window"],
    )
    def test_negative_seed_or_small_window_fails_before_any_trial(
        self, capsys, monkeypatch, argv, message
    ):
        # numpy used to reject the seed with a bare "expected non-negative
        # integer", and a zero window failed in the score sampler after the
        # trials of the windows before it had run.
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_trial_batch", trial)
        code, out, err = run(capsys, *argv, "--trials", "2")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("alphas", ["1.5", "0.05,0", "0.1,1.0"])
    def test_alpha_outside_unit_interval_fails_before_any_trial(
        self, capsys, monkeypatch, alphas
    ):
        # The intervals rejected the alpha only after the first trial's
        # exact estimates were done.
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "_trial_batch", trial)
        bad = alphas.split(",")[-1]
        code, out, err = run(
            capsys, "simulate", "coverage", "--windows", "10", "--alphas", alphas,
            "--trials", "2",
        )
        assert code == 1 and out == ""
        assert err == f"error: alpha must lie in (0, 1), got {float(bad)!r}\n"


class TestGenerate:
    def test_hypersphere_csv_parses_back(self, tmp_path, capsys):
        out_path = tmp_path / "sphere.csv"
        code, _, _ = run(
            capsys,
            "--seed", "6",
            "generate", "hypersphere",
            "--dims", "3",
            "--points", "40",
            "--output", out_path,
        )
        assert code == 0
        from confmetrics.ingest import parse_input

        batch = parse_input(out_path, "csv")
        assert batch.n == 40
        assert batch.labels is not None

    def test_shifted_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "--seed", "7",
            "generate", "hypersphere",
            "--dims", "2",
            "--points", "500",
            "--shifted",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        scores = [float(line.split(",")[1]) for line in lines]
        hard = sum(0.4 <= s <= 0.6 for s in scores) / len(scores)
        assert hard > 0.6  # shifted split is mostly hard-pool points

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--radius", "nan", "radius must lie in (0, inf), got nan"),
            ("--radius", "inf", "radius must lie in (0, inf), got inf"),
            ("--decay", "nan", "decay must lie in (0, inf), got nan"),
            ("--decay", "inf", "decay must lie in (0, inf), got inf"),
            ("--threshold", "nan", "threshold must lie in [0, 1], got nan"),
            ("--threshold", "1.5", "threshold must lie in [0, 1], got 1.5"),
        ],
        ids=["radius-nan", "radius-inf", "decay-nan", "decay-inf", "threshold-nan",
             "threshold-above-1"],
    )
    def test_malformed_generator_parameters_fail_cleanly(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "generate", "hypersphere", "--dims", "2", "--points", "20", flag, value
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    def test_negative_seed_fails_cleanly(self, capsys):
        code, out, err = run(
            capsys, "--seed", "-1", "generate", "hypersphere", "--dims", "2", "--points", "20"
        )
        assert code == 1 and out == ""
        assert err == "error: seed must be at least 0, got -1\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("simulate", "coverage", "--windows", "10,x"),
         "argument --windows: expected comma-separated integers, got '10,x'"),
        (("simulate", "convergence", "--windows", "10,"),
         "argument --windows: expected comma-separated integers, got '10,'"),
        (("simulate", "coverage", "--alphas", "0.1,y"),
         "argument --alphas: expected comma-separated numbers, got '0.1,y'"),
    ],
    ids=["coverage-windows", "convergence-windows", "coverage-alphas"],
)
def test_malformed_list_text_is_an_argument_error(capsys, argv, message):
    with pytest.raises(SystemExit) as raised:
        main(list(argv))
    assert raised.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_defaults_are_the_librarys():
    parser = build_parser()
    args = parser.parse_args(["estimate", "--input", "f.csv"])
    assert EstimateConfig(args.metrics, args.method, args.alpha) == EstimateConfig()
    args = parser.parse_args(["generate", "hypersphere", "--dims", "2", "--points", "9"])
    config = HypersphereConfig(2, 9, 0)
    assert (args.radius, args.decay, args.easy_fraction) == (
        config.radius, config.decay, config.easy_fraction
    )


@pytest.mark.parametrize(
    "argv,name",
    [
        (("estimate", "--input", "{csv}", "--metrics", "recall,recall"), "metrics"),
        (("simulate", "coverage", "--windows", "10", "--trials", "2",
          "--alphas", "0.05,0.05"), "alphas"),
        (("simulate", "coverage", "--windows", "10,10", "--trials", "2"), "window sizes"),
        (("simulate", "convergence", "--windows", "10,10", "--trials", "2"), "window sizes"),
    ],
    ids=["estimate-metrics", "coverage-alphas", "coverage-windows", "convergence-windows"],
)
def test_repeated_list_entries_fail(labelled_csv, capsys, argv, name):
    # A repeat would be run again: a repeated alpha would count every
    # coverage trial twice.
    argv = [str(labelled_csv) if a == "{csv}" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"error: {name} requested more than once" in err
