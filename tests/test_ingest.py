"""Tests for CSV and JSONL ingestion."""

import pytest

from confmetrics.ingest import parse_input


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCsv:
    def test_minimal_schema(self, tmp_path):
        path = write(tmp_path, "a.csv", "prediction,score\n1,0.8\n0,0.3\n")
        batch = parse_input(path, "csv")
        assert batch.predictions.tolist() == [1, 0]
        assert batch.scores.tolist() == [0.8, 0.3]
        assert batch.labels is None

    def test_labels_attached_when_present(self, tmp_path):
        path = write(tmp_path, "a.csv", "prediction,score,label\n1,0.8,1\n0,0.3,0\n")
        assert parse_input(path).labels.tolist() == [1, 0]

    def test_partial_labels_leave_batch_unlabelled(self, tmp_path):
        path = write(tmp_path, "a.csv", "prediction,score,label\n1,0.8,1\n0,0.3,\n")
        assert parse_input(path).labels is None

    def test_byte_order_mark_skipped(self, tmp_path):
        path = write(tmp_path, "a.csv", "\ufeffprediction,score,label\n1,0.8,1\n")
        batch = parse_input(path)
        assert batch.predictions.tolist() == [1]
        assert batch.labels.tolist() == [1]

    def test_crlf_accepted(self, tmp_path):
        path = write(tmp_path, "a.csv", "prediction,score\r\n1,0.8\r\n0,0.3\r\n")
        assert parse_input(path).n == 2

    def test_score_out_of_range_names_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "prediction,score\n1,0.8\n1,1.2\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_input(path)

    def test_bad_prediction_names_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "prediction,score\n7,0.8\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_input(path)

    def test_missing_header_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "prediction\n1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_input(path)

    def test_unknown_columns_warn_and_are_ignored(self, tmp_path):
        path = write(
            tmp_path, "a.csv", "prediction,score,model_id\n1,0.8,m1\n0,0.3,m1\n"
        )
        with pytest.warns(UserWarning, match="model_id"):
            batch = parse_input(path)
        assert batch.n == 2


class TestJsonl:
    def test_minimal_schema(self, tmp_path):
        path = write(
            tmp_path,
            "a.jsonl",
            '{"prediction": 1, "score": 0.8}\n{"prediction": 0, "score": 0.3}\n',
        )
        batch = parse_input(path, "jsonl")
        assert batch.predictions.tolist() == [1, 0]
        assert batch.scores.tolist() == [0.8, 0.3]

    def test_matches_csv_parse(self, tmp_path):
        csv_batch = parse_input(
            write(tmp_path, "a.csv", "prediction,score\n1,0.8\n0,0.3\n"), "csv"
        )
        jsonl_batch = parse_input(
            write(
                tmp_path,
                "a.jsonl",
                '{"prediction": 1, "score": 0.8}\n{"prediction": 0, "score": 0.3}\n',
            ),
            "jsonl",
        )
        assert csv_batch.predictions.tolist() == jsonl_batch.predictions.tolist()
        assert csv_batch.scores.tolist() == jsonl_batch.scores.tolist()
        assert csv_batch.labels is None and jsonl_batch.labels is None

    def test_byte_order_mark_skipped(self, tmp_path):
        path = write(tmp_path, "a.jsonl", '\ufeff{"prediction": 1, "score": 0.8}\n')
        assert parse_input(path, "jsonl").scores.tolist() == [0.8]

    def test_partial_labels_leave_batch_unlabelled(self, tmp_path):
        path = write(
            tmp_path,
            "a.jsonl",
            '{"prediction": 1, "score": 0.8, "label": 1}\n{"prediction": 0, "score": 0.3}\n',
        )
        assert parse_input(path, "jsonl").labels is None

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "a.jsonl", '{"prediction": 1, "score": 0.8}\n\n')
        assert parse_input(path, "jsonl").n == 1

    def test_invalid_json_names_line(self, tmp_path):
        path = write(tmp_path, "a.jsonl", '{"prediction": 1, "score": 0.8}\n{oops\n')
        with pytest.raises(ValueError, match="line 2"):
            parse_input(path, "jsonl")

    def test_missing_key_names_line(self, tmp_path):
        path = write(tmp_path, "a.jsonl", '{"score": 0.8}\n')
        with pytest.raises(ValueError, match="line 1"):
            parse_input(path, "jsonl")

    @pytest.mark.parametrize(
        "line",
        [
            '{"prediction": "1", "score": 0.8}',
            '{"prediction": 1, "score": "0.8"}',
            '{"prediction": 1, "score": 0.8, "label": " 0 "}',
            '{"prediction": 1, "score": 0.8, "label": ""}',
            '{"prediction": true, "score": 0.8}',
            '{"prediction": 1, "score": true}',
            '{"prediction": 1, "score": 0.8, "label": false}',
            '{"prediction": 0.5, "score": 0.8}',
        ],
    )
    def test_rejects_strings_and_bools(self, tmp_path, line):
        path = write(tmp_path, "a.jsonl", '{"prediction": 0, "score": 0.1}\n' + line + "\n")
        with pytest.raises(ValueError, match="line 2: (prediction|score|label) must"):
            parse_input(path, "jsonl")

    def test_null_label_means_unlabelled(self, tmp_path):
        path = write(
            tmp_path,
            "a.jsonl",
            '{"prediction": 1, "score": 0.8, "label": null}\n'
            '{"prediction": 0, "score": 0.3, "label": 0}\n',
        )
        batch = parse_input(path, "jsonl")
        assert batch.labels is None
        assert batch.predictions.tolist() == [1, 0]

    def test_unknown_keys_warn(self, tmp_path):
        path = write(
            tmp_path, "a.jsonl", '{"prediction": 1, "score": 0.8, "source": "x"}\n'
        )
        with pytest.warns(UserWarning, match="source"):
            parse_input(path, "jsonl")


def test_rejects_unknown_format(tmp_path):
    path = write(tmp_path, "a.csv", "prediction,score\n1,0.5\n")
    with pytest.raises(ValueError, match="format"):
        parse_input(path, "parquet")
