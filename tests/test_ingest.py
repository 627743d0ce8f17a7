"""Tests for CSV and JSONL ingestion."""

import codecs
import io
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confmetrics
from confmetrics import ingest
from confmetrics.cli import main
from confmetrics.confusion import PredictionBatch
from confmetrics.ingest import parse_input


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def parse_rows(path):
    """The row parser's batch for ``path``, given the bytes that
    ``parse_input`` gives it: the file's, less one leading byte-order mark."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    return PredictionBatch.from_arrays(*ingest._parse_csv_rows(data))


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

    @pytest.mark.parametrize("text", ["", "\ufeff"], ids=["empty", "byte-order-mark"])
    def test_file_without_a_header_line_rejected(self, tmp_path, text):
        path = write(tmp_path, "a.csv", text)
        with pytest.raises(ValueError, match="^line 1: missing CSV header$"):
            parse_input(path)

    def test_missing_header_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "prediction\n1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_input(path)

    @pytest.mark.parametrize(
        "header", ["prediction,score,prediction", '"prediction","score","prediction"']
    )
    def test_duplicate_known_columns_rejected(self, tmp_path, header):
        path = write(tmp_path, "a.csv", f"{header}\n1,0.8,0\n0,0.3,1\n")
        with pytest.raises(ValueError, match="^line 1: duplicate CSV columns: prediction$"):
            parse_input(path)

    @pytest.mark.parametrize(
        "text",
        [
            "prediction,score,label\n1,0.5,1\n0,0.25\n",
            "prediction,score\n1,0.5\n0\n",
            "label,prediction,score\n1,1,0.5\n0,0\n",
        ],
    )
    def test_short_row_rejected(self, tmp_path, text):
        path = write(tmp_path, "a.csv", text)
        with pytest.raises(ValueError, match="^line 3: fewer fields than header columns$"):
            parse_input(path)

    def test_line_end_among_a_rows_separators_rejected(self, tmp_path):
        # Three separators, as one row of three fields has, but the first is
        # a line end: counted alone, they would read as the row 1,0.5,1.
        path = write(tmp_path, "a.csv", "prediction,score,label\n1\n0.5,1\n")
        with pytest.raises(ValueError, match="^line 2: fewer fields than header columns$"):
            parse_input(path)

    def test_unknown_columns_warn_and_are_ignored(self, tmp_path):
        path = write(
            tmp_path, "a.csv", "prediction,score,model_id\n1,0.8,m1\n0,0.3,m1\n"
        )
        with pytest.warns(UserWarning, match="model_id"):
            batch = parse_input(path)
        assert batch.n == 2


@st.composite
def truncated_midpoints(draw):
    """The first 1 to 25 decimals of the value halfway between a float in
    [0, 1) and the next one up, which ``float()`` rounds down."""
    low = draw(st.floats(0.0, 1.0, exclude_max=True))
    middle = (Fraction(low) + Fraction(math.nextafter(low, 2.0))) / 2
    digits = draw(st.integers(1, 25))
    return f"0.{math.floor(middle * 10**digits):0{digits}d}"


@st.composite
def near_midpoints(draw):
    """The value halfway between a float x in [0.0001, 1) and the next one
    up, written to 17 to 19 significant digits and moved by -2 to +2 in the
    last one: fields on either side of a midpoint, close enough to it that
    they read as one of its two floats only by a correctly rounded
    conversion."""
    low = draw(st.floats(0.0001, 1.0, exclude_max=True))
    middle = (Fraction(low) + Fraction(math.nextafter(low, 2.0))) / 2
    zeros = 0
    while middle * 10 ** (zeros + 1) < 1:
        zeros += 1
    digits = zeros + draw(st.integers(17, 19))
    return f"0.{math.floor(middle * 10**digits) + draw(st.integers(-2, 2)):0{digits}d}"


# Tokens a plain file holds, per column; ``model`` stands for any column the
# parser ignores.
PLAIN_TOKENS = {
    "prediction": st.sampled_from(["0", "1"]),
    "label": st.sampled_from(["0", "1"]),
    "score": st.one_of(
        st.floats(0.0, 1.0).map(repr),
        st.text("0123456789", min_size=1, max_size=25).map("0.".__add__),
        st.integers(1, 25).map(lambda k: "1." + "0" * k),
        truncated_midpoints(),
        near_midpoints(),
        st.sampled_from(["1", "0", "01", "1.0", ".5", "5e-1", "1e-3", "1E-3", "+.5", "-0.0"]),
    ),
    "model": st.sampled_from(["m1", "", "a b", "0.9", "#x", "x\ty", "1e"]),
}
# Tokens outside the plain grammar; the row parser accepts some of them.
ODD_TOKENS = {
    "prediction": [" 1", "+1", "01", "1.0", "", "2", "-0", '"1"', "1 ", "\u00e9"],
    "label": [" 0", "+1", "00", "1.0", "", "2", '"0"', "0\t"],
    "score": [
        "0.0_1", "nan", "inf", "-inf", " 0.25", "0.25 ", "1.0000000000000002", "1e",
        "", "x", "1..5", "--1", "0x1", '"0.5"', '"0,5"', "0.5\u00e9", "5.", "1e1", "-1e-3",
    ],
    "model": ['"q,uoted"', '"line\nbreak"', "\u00e9", "\x00", 'say "hi"', "\r"],
}


@st.composite
def csv_texts(draw):
    """CSV text near the plain grammar: a plain file with up to three
    mutations that may or may not take it outside that grammar."""
    names = draw(st.permutations(["prediction", "score", "label", "model"]))
    names = [n for n in names if n in ("prediction", "score") or draw(st.booleans())]
    rows = [
        [draw(PLAIN_TOKENS[n]) for n in names]
        for _ in range(draw(st.integers(0, 5)))
    ]
    header = list(names)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["token", "token", "extra", "short", "blank", "header"]))
        if kind == "header":
            i = draw(st.integers(0, len(header) - 1))
            header[i] = draw(st.sampled_from(["prediction", "score", "label", " score", ""]))
        elif rows and kind == "token":
            row = draw(st.sampled_from(rows))
            i = draw(st.integers(0, len(names) - 1))
            if i < len(row):
                row[i] = draw(st.sampled_from(ODD_TOKENS[names[i]]))
        elif rows and kind == "extra":
            draw(st.sampled_from(rows)).append("1")
        elif rows and kind == "short":
            del draw(st.sampled_from(rows))[-1:]
        elif kind == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(fields) for fields in [header, *rows])
    if draw(st.booleans()):
        text += newline
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


def outcome(parse, path):
    """What parsing ``path`` gives: the batch arrays' dtypes and bytes, or
    the exception's type and message; and the warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            batch = parse(path)
        except Exception as exc:
            result = (type(exc), str(exc))
        else:
            arrays = (batch.predictions, batch.scores, batch.labels)
            result = tuple(None if a is None else (a.dtype, a.tobytes()) for a in arrays)
    return result, [str(w.message) for w in caught]


class TestPlainRoute:
    """``parse_input`` against the row parser it falls back to."""

    @settings(deadline=None, max_examples=400)
    @given(text=csv_texts())
    @example(text="prediction,score,model\n1,0.5,a\x00b\n")
    @example(text="prediction,score,model\n1,0.5,a\rb\n")
    @example(text='prediction,score,model\n1,0.5,"a,b"\n')
    @example(text="score,prediction\n0.5,1,0.5\n1\n")
    @example(text="prediction,score\n1,0.25\n0,\n")
    @example(text="prediction,score,model\n1,0.5,\udcff\n")
    @example(text="prediction,score,m\u00e9\n1,0.5,x\n")
    @example(text="prediction,score,model\n1,0.5," + "x" * 131073 + "\n")
    def test_matches_row_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        rows = outcome(parse_rows, path)
        assert outcome(parse_input, path) == rows

    @pytest.mark.parametrize(
        "variant",
        [
            lambda text: text,
            lambda text: "\ufeff" + text,
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.rstrip("\n"),
            lambda text: text.replace("\n", ",m 1\n").replace("label,m 1", "label,model", 1),
            lambda text: "\n".join(",".join(line.split(",")[::-1]) for line in text.split("\n")),
        ],
        ids=["generated", "bom", "crlf", "no-final-newline", "extra-column", "reordered"],
    )
    def test_plain_file_skips_row_parser(self, tmp_path, monkeypatch, variant):
        generated = tmp_path / "sphere.csv"
        assert main(["--seed", "3", "generate", "hypersphere", "--dims", "4",
                     "--points", "300", "--output", str(generated)]) == 0
        text = generated.read_text(encoding="utf-8")
        assert text.startswith("prediction,score,label\n")
        path = write(tmp_path, "variant.csv", variant(text))

        def refuse(data):
            raise AssertionError("the row parser ran on a plain file")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = parse_rows(path)
            monkeypatch.setattr(ingest, "_parse_csv_rows", refuse)
            got = parse_input(path)
        assert got.predictions.tobytes() == want.predictions.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()


    def test_unknown_column_warning_is_the_same_on_both_routes(self, tmp_path):
        plain = write(tmp_path, "plain.csv", "prediction,score,model\n1,0.8,m1\n")
        quoted = write(tmp_path, "quoted.csv", 'prediction,score,model\n1,0.8,"m1"\n')
        seen = []
        for path in (plain, quoted):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                parse_input(path)
            seen.append([(str(w.message), w.filename, w.lineno) for w in caught])
        assert seen[0] == seen[1] and len(seen[0]) == 1


def score_values(tokens, pad=ingest._WIDTH):
    """The score kernel's values for ``tokens``, one per line after ``pad``
    bytes, which a field must end beyond for the kernel to convert it."""
    body = np.frombuffer(("\n" * pad + "\n".join(tokens) + "\n").encode(), dtype=np.uint8)
    ends = np.flatnonzero(body == ord("\n"))[pad:]
    return ingest._score_values(body, np.concatenate(([pad], ends[:-1] + 1)), ends)


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestScoreKernel:
    """The array conversion of score fields against ``float()``, bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(
        tokens=st.lists(PLAIN_TOKENS["score"], min_size=1, max_size=40),
        pad=st.integers(0, 30),
    )
    def test_matches_float(self, tokens, pad):
        assert float_bits(score_values(tokens, pad)) == float_bits([float(t) for t in tokens])

    # Fields that take each of the kernel's routes: an exact division, the
    # wide route, float() after the wide route, and float() alone.
    OTHERS = ["0.5", "0.1234567890123456789", "0.905009233782354372", "5e-1", "0.25"]

    @pytest.mark.parametrize("among_others", [False, True])
    @pytest.mark.parametrize(
        "token",
        [
            # Truncated midpoints, which lie below a float64 midpoint by less
            # than 3e-20 of their value, so that float() rounds them down.
            "0.05795841307797354111",
            "0.0005305807198454621609",
            "0.0008423618979416756260",
            # Fields whose float64 sum q + f is a tie that rounds to even away
            # from the exact value, so that float() must read them.
            "0.020590591476551642",
            "0.905009233782354372",
            "0.0372116462544135225",
            # A tie below t = 2**7 = q + 1, where t's gap below is half the
            # gap above.
            "0.0000305175781249999983",
            # 20, 21 and 22 characters, and 23 to 25 with leading zeros.
            "0.123456789012345678",
            "0.1234567890123456789",
            "0.12345678901234567890",
            "0.00012345678901234567",
            "0.0001234567890123456789",
            "0.00000000000000000000001",
            # Past the kernel: 19 digits after leading zeros, then 20.
            "0.9999999999999999999",
            "0.99999999999999999999",
            "0.0012345678901234567891",
            "1.0000000000000000000001",
            "1." + "0" * 22,
            "0." + "0" * 22,
        ],
    )
    def test_explicit_fields(self, among_others, token):
        """Each token alone, and in the middle of fields that take every
        route, so that each value must come back to its own row."""
        tokens = [*self.OTHERS, token, *self.OTHERS] if among_others else [token]
        assert float_bits(score_values(tokens)) == float_bits([float(t) for t in tokens])

    @pytest.mark.parametrize("wide", [False, True])
    def test_fallback_in_the_last_partial_chunk(self, wide):
        """A field that goes to float() in the first chunk and in the last
        one: an exponent form, or a wide field whose float64 sum is a tie."""
        tokens = [repr(x) for x in np.random.default_rng(5).random(ingest._CHUNK + 3).tolist()]
        tokens[3] = tokens[ingest._CHUNK + 1] = "0.020590591476551642" if wide else "5e-1"
        assert float_bits(score_values(tokens)) == float_bits([float(t) for t in tokens])
        tokens[ingest._CHUNK + 1] = "1e"
        assert score_values(tokens) is None

    def test_repr_fields_take_no_float_call(self, monkeypatch):
        """``repr`` writes every float in [0.0001, 1] as ``0.`` or ``1.`` and
        at most 22 digits, and the kernel converts such fields without
        ``float()``, except the rare one whose float64 sum is a tie."""
        calls = []

        def counted(raw):
            calls.append(raw)
            return float(raw)

        monkeypatch.setattr(ingest, "float", counted, raising=False)
        values = 10 ** np.random.default_rng(0).uniform(-4, 0, 10_000)
        tokens = [repr(x) for x in values.tolist()]
        assert float_bits(score_values([*tokens, "5e-1"])) == float_bits([*values, 0.5])
        assert calls == [b"5e-1"]  # the stand-in sees the fields that take float()


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

    @pytest.mark.parametrize("line", ["[1, 0.8]", "0.8", "null"])
    def test_line_that_is_not_an_object_names_line(self, tmp_path, line):
        path = write(tmp_path, "a.jsonl", '{"prediction": 1, "score": 0.8}\n' + line + "\n")
        with pytest.raises(ValueError, match="^line 2: expected a JSON object$"):
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

    def test_repeated_key_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "a.jsonl",
            '{"prediction": 0, "score": 0.1}\n{"prediction": 1, "prediction": 0, "score": 0.5}\n',
        )
        with pytest.raises(ValueError, match="^line 2: duplicate keys: prediction$"):
            parse_input(path, "jsonl")

    def test_repeated_key_found_in_linear_time(self, tmp_path):
        keys = ", ".join(f'"k{i}": 0' for i in range(20000))
        path = write(tmp_path, "a.jsonl", "{" + keys + ', "k0": 1}\n')
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^line 1: duplicate keys: k0$"):
            parse_input(path, "jsonl")
        assert time.perf_counter() - start < 2.0

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


@pytest.mark.parametrize(
    "fields, message",
    [
        ((2, 1.5, 7), "line 3: prediction must be 0 or 1, got {}"),
        ((1, 1.5, 7), "line 3: score must lie in [0, 1], got {}"),
    ],
)
def test_both_formats_check_a_rows_fields_in_one_order(tmp_path, fields, message):
    # Prediction, score, label: both files name the same first bad field at
    # the same line, with the raw value's repr, text in CSV and a number in
    # JSONL.
    bad = "%s,%s,%s" % fields
    csv_path = write(tmp_path, "a.csv", f"prediction,score,label\n0,0.1,0\n{bad}\n")
    json_path = write(tmp_path, "a.jsonl", "".join(
        '{"prediction": %s, "score": %s, "label": %s}\n' % tuple(row.split(","))
        for row in ["0,0.1,0", "1,0.9,1", bad]
    ))
    raw = fields[0] if "prediction" in message else fields[1]
    with pytest.raises(ValueError) as from_csv:
        parse_input(csv_path)
    with pytest.raises(ValueError) as from_jsonl:
        parse_input(json_path, "jsonl")
    assert str(from_csv.value) == message.format(repr(str(raw)))
    assert str(from_jsonl.value) == message.format(repr(raw))


@pytest.mark.parametrize(
    "fmt, header, row",
    [("csv", "prediction,score\n", "1,0.5\n"),
     ("csv", "prediction,score\r\n", "1,0.5\r\n"),
     ("jsonl", "", '{"prediction": 1, "score": 0.5}\n')],
    ids=["csv", "csv-crlf", "jsonl"],
)
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, fmt, header, row):
    # The text reader's error gave the byte's position inside its decode
    # chunk, 8 KiB or so, and no line.
    lines = [header.encode()] * bool(header) + [row.encode()] * 5000
    lines[4998] = lines[4998].replace(b"5", b"\xff")
    path = tmp_path / f"a.{fmt}"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError) as raised:
        parse_input(path, fmt)
    assert str(raised.value) == "line 4999: byte 0xff is not UTF-8 (invalid start byte)"


@pytest.mark.parametrize(
    "fmt, text, message",
    [("csv", b"prediction,score\n1,0.5\n1,2.5\n1,0.5\n1,0.\xff\n",
      "line 3: score must lie in [0, 1], got '2.5'"),
     ("csv", b"prediction,score\r\n1,0.5\r\n1,2.5\r\n1,0.\xff\r\n",
      "line 3: score must lie in [0, 1], got '2.5'"),
     ("csv", b'prediction,score\n1,0.5\n1,"2\n5\xff"\n',
      "line 4: byte 0xff is not UTF-8 (invalid start byte)"),
     ("jsonl", b'{"prediction": 1, "score": 0.5}\n{"prediction": 1, "score": 2.5}\n'
               b'{"prediction": 1, "score": 0.\xff}\n',
      "line 2: score must lie in [0, 1], got 2.5"),
     ("jsonl", b'{"prediction": 1, "score": 0.5}\r{"prediction": 1, "score": 2.5}\r'
               b'{"prediction": 1, "score": 0.\xff}\r',
      "line 2: score must lie in [0, 1], got 2.5"),
     ("jsonl", b'{"prediction": 1, "score": 0.5}\n{"prediction": 1, "score": 0.\xff',
      "line 2: byte 0xff is not UTF-8 (invalid start byte)"),
     ("csv", b"prediction,score\n1,0.5\n1,\xc3\xa9\xff\n",
      "line 3: byte 0xff is not UTF-8 (invalid start byte)"),
     ("jsonl", b'{"prediction": 1, "score": 0.5}\n{"note": "\xc3\xa9", "prediction": 1, '
               b'"score": 0.\xff}\n',
      "line 2: byte 0xff is not UTF-8 (invalid start byte)"),
     ("jsonl", b'{"prediction": 1, "score": 0.5}\r\n{"prediction": 1, "score": 0.\xe2\r\n',
      "line 2: byte 0xe2 is not UTF-8 (invalid continuation byte)"),
     ("csv", b"\xef\xbb\xbf\xffprediction,score\n1,0.5\n",
      "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
     ("csv", b"\xef", "line 1: byte 0xef is not UTF-8 (unexpected end of data)"),
     ("csv", b"\xef\xbb", "line 1: byte 0xef is not UTF-8 (unexpected end of data)"),
     ("jsonl", b"\xef", "line 1: byte 0xef is not UTF-8 (unexpected end of data)"),
     ("jsonl", b"\xef\xbb", "line 1: byte 0xef is not UTF-8 (unexpected end of data)")],
    ids=["csv", "csv-crlf", "csv-open-quote", "jsonl", "jsonl-cr", "jsonl-last-line",
         "csv-text-before", "jsonl-text-before", "jsonl-truncated-crlf", "csv-after-bom",
         "csv-truncated-bom-1", "csv-truncated-bom-2", "jsonl-truncated-bom-1",
         "jsonl-truncated-bom-2"],
)
def test_a_row_before_a_byte_that_is_not_utf8_is_checked_first(tmp_path, fmt, text, message):
    # The reader carries each byte that is not UTF-8 to its line as a lone
    # surrogate, and that line is decoded strictly before it is given; the
    # rows in front of it are checked first, in file order.  A row that the
    # byte's line ends or continues is not checked: the quoted score "2\n5…"
    # is not taken as 2.  Valid text before the byte, a line end that the
    # reader translates, and a skipped byte-order mark leave the byte and
    # the reason that a decode of the whole file gives.  A file that ends
    # inside a byte-order mark holds no mark, only bytes that are not UTF-8.
    path = tmp_path / f"a.{fmt}"
    path.write_bytes(text)
    with pytest.raises(ValueError) as raised:
        parse_input(path, fmt)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "fmt, text",
    [("csv", "prediction,score,note\n1,0.5,é\n"),
     ("jsonl", '{"prediction": 1, "score": 0.5, "note": "é"}\n')],
)
def test_text_that_is_not_ascii_is_read(tmp_path, fmt, text):
    path = write(tmp_path, f"a.{fmt}", text)
    with pytest.warns(UserWarning, match="note"):
        parsed = parse_input(path, fmt)
    assert (parsed.predictions.tolist(), parsed.scores.tolist()) == ([1], [0.5])


@pytest.mark.parametrize(
    "fmt, text, message",
    [("csv", b"prediction,score\n1,0.5\n", None),
     ("csv", b'prediction,score\n1,"0.5"\n', None),
     ("csv", "prediction,score,note\n1,0.5,\u00e9\n".encode(), None),
     ("jsonl", b'{"prediction": 1, "score": 0.5}\n', None),
     ("jsonl", b'{"prediction": 1, "score": 0.5}\n{"prediction": 1, "score": 0.\xff}\n',
      "line 2: byte 0xff is not UTF-8 (invalid start byte)")],
    ids=["csv-plain", "csv-quoted", "csv-not-ascii", "jsonl", "jsonl-not-utf8"],
)
def test_each_file_is_opened_once(tmp_path, monkeypatch, fmt, text, message):
    # Every route parses the bytes of one read, and a byte that is not UTF-8
    # is found in that read too.
    path = tmp_path / f"a.{fmt}"
    path.write_bytes(text)
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == os.fspath(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if message is None:
            assert parse_input(path, fmt).scores.tolist() == [0.5]
        else:
            with pytest.raises(ValueError) as raised:
                parse_input(path, fmt)
            assert str(raised.value) == message
    assert len(opened) == 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is not available here")
def test_a_named_pipe_is_read(tmp_path):
    # A pipe's bytes can be read only once, so a route that opens the file a
    # second time waits for a writer that never comes.  The quoted field
    # sends this file through the row parser.
    text = b'prediction,score,label\n1,"0.8",1\n0,0.25,0\n1,0.5,0\n'
    regular, fifo = tmp_path / "a.csv", tmp_path / "pipe.csv"
    regular.write_bytes(text)
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as pipe:
                pipe.write(text)
        except OSError:  # the reader is gone
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    src = str(Path(confmetrics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = ["estimate", "--method", "shortcut", "--input"]
    try:
        child = subprocess.run(
            [sys.executable, "-m", "confmetrics.cli", *command, str(fifo)],
            env=env, capture_output=True, timeout=60,
        )
    finally:
        # Lets the writer's open return, should the child never have opened
        # the pipe.
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=60)
    assert (child.returncode, child.stderr) == (0, b"")
    want = tmp_path / "want.json"
    assert main([*command, str(regular), "--output", str(want)]) == 0
    assert child.stdout == want.read_bytes()


def test_rejects_unknown_format(tmp_path):
    path = write(tmp_path, "a.csv", "prediction,score\n1,0.5\n")
    with pytest.raises(ValueError, match="format"):
        parse_input(path, "parquet")
