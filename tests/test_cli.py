"""End-to-end tests of the command-line interface."""

import json

import pytest

from confmetrics.cli import main

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

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "--input", tmp_path / "nope.csv")
        assert code == 1 and "error:" in err


class TestLabelledCommands:
    def test_true_metrics(self, labelled_csv, capsys):
        code, out, _ = run(capsys, "true-metrics", "--input", labelled_csv)
        assert code == 0
        doc = json.loads(out)
        assert doc["precision"] == 1.0
        assert doc["recall"] == pytest.approx(2 / 3)

    def test_ace(self, labelled_csv, capsys):
        code, out, _ = run(capsys, "ace", "--input", labelled_csv, "--bins", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ace"] >= 0.0
        assert len(doc["bins"]) == 2

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
            "--seed", "4",
            "simulate", "convergence",
            "--windows", "10",
            "--trials", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("window,metric,")
        assert any(line.startswith("10,recall,") for line in lines)

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
