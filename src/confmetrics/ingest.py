"""File ingestion for monitoring batches.

Two input formats carry the same three fields: ``prediction`` (0/1),
``score`` (a decimal in [0, 1]) and an optional ``label`` (0/1).  CSV files
need a header row that names each of these columns at most once, every row
holds the header's field count, and fields are parsed from text.  JSONL
files hold one object per line with typed values: no key may appear twice
in an object, each field must be a JSON number, never a string or a
boolean, and an absent or null label means unlabelled.  Unknown columns or
keys are ignored with a warning.  Malformed content is rejected with the
1-based line number of the first offending row, and a byte that is not
UTF-8 with the line that holds it, whichever comes first in the file.
Each file is read once, as bytes, and one leading UTF-8 byte-order mark
is removed from them; every route parses those bytes.  A row parser
decodes them as UTF-8 in one pass, in which a byte that is not UTF-8
fails only its own line (:func:`_lines`).  One function, :func:`_row`,
checks a row of either format, field by field in the order prediction,
score, label; only how a raw field becomes a number depends on the format.

A CSV file takes one of two routes to the same result.  A plain file is
checked and converted by array operations over its bytes.  Plain means:
after the byte-order mark, only printable ASCII other than ``"``, tabs and
LF or CRLF line ends; no blank line; every line holds exactly the header's
field count; every prediction and label field is the single byte ``0`` or
``1``; every score field converts by ``float()`` to a value in [0, 1]; the
label column, when there is one, is filled on every row; and there is at
least one row.  A score field written as ``0.`` or ``1.`` and digits, as
``repr`` writes every float in [0.0001, 1], is converted by an exact array
kernel to the bits ``float()`` gives (:func:`_score_values`), by the same
float64 operations on every platform: one division where the digits are at
most 2**53, and otherwise an exact split into a float64 sum whose rounding
error is found exactly, so that only a sum that is a tie takes ``float()``.
Other score fields take ``float()`` one by one.  Any other file, and any
file on which a check or the conversion fails, is parsed again row by row
with :mod:`csv`.  That row parser is the only route that raises or reports
a line number, so messages, warnings and results are the same whichever
route a file takes.  On files of the benchmark's form, a plain parse takes
about 36 ms for 200 000 rows against 0.66 s row by row, and 1.8 ms against
30 ms for 10 000 rows (median of 7, one core of a 2-vCPU x86-64 machine);
its peak memory is lower too, since it builds no Python object per row.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import warnings
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._checks import _repeated
from .confusion import PredictionBatch

__all__ = ["parse_input", "FORMATS"]

FORMATS = ("csv", "jsonl")

_REQUIRED = ("prediction", "score")
_KNOWN = ("prediction", "score", "label")

# Predictions, scores and labels (None unless every row has one).
Columns = tuple[Sequence[int], Sequence[float], Sequence[int] | None]

# Bytes a plain CSV file may hold once CRLF line ends became LF.
_PLAIN_BYTES = bytes([ord("\t"), ord("\n"), *range(0x20, 0x7F)]).replace(b'"', b"")
_COMMA, _LF, _DOT, _ONE = ord(","), ord("\n"), ord("."), ord("1")

# The score kernel reads each field from the window of _WIDTH bytes that ends
# with it, as three little-endian uint64 words, _CHUNK rows at a time so that
# its temporaries stay a few MB whatever the file's size.
_WIDTH = 24
_CHUNK = 32768
_U64 = np.uint64
# Row k of _KEEP masks the last k bytes of a window, and row k of _ZERO_FILL
# holds ASCII zeros in its other bytes, each as three little-endian words.
_IN_TAIL = np.arange(_WIDTH) >= _WIDTH - np.arange(_WIDTH - 1)[:, None]
_KEEP = np.where(_IN_TAIL, 0xFF, 0).astype(np.uint8).view("<u8")
_ZERO_FILL = np.where(_IN_TAIL, 0, ord("0")).astype(np.uint8).view("<u8")
# Powers of ten and two up to k = 22 in float64, and of five in uint64, each
# exact in float64 too, since 5**22 < 2**53.
_POW10 = np.array([float(10**k) for k in range(_WIDTH - 1)])
_POW5 = np.array([5**k for k in range(_WIDTH - 1)], dtype=_U64)
_POW2 = np.array([2.0**k for k in range(_WIDTH - 1)])
_EXACT_INT = _U64(2**53)


def _row(prediction, score, label, line: int, number) -> tuple[int, float, int | None]:
    """A row's fields, checked in the order prediction, score, label; raises
    ValueError naming ``line`` and the first malformed field.  The format's
    ``number(raw, kind)`` gives a raw field as a number, ``kind`` being int
    or float, or None.  A label of None means unlabelled."""

    def binary(raw, field: str) -> int:
        value = number(raw, int)
        if value not in (0, 1):  # None is not in it either
            raise ValueError(f"line {line}: {field} must be 0 or 1, got {raw!r}")
        return int(value)

    true_prediction = binary(prediction, "prediction")
    value = number(score, float)
    if value is None:
        raise ValueError(f"line {line}: score must be a decimal, got {score!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"line {line}: score must lie in [0, 1], got {score!r}")
    return true_prediction, float(value), None if label is None else binary(label, "label")


def _text_number(raw: str, kind: type) -> int | float | None:
    """A CSV field's stripped text converted by ``kind``, or None."""
    try:
        return kind(raw.strip())
    except ValueError:
        return None


def _json_number(raw, kind: type) -> int | float | None:
    """A JSON value that is a number, whatever ``kind``, or None: json.loads
    yields bool for true and false, and bool is an int subclass."""
    return raw if isinstance(raw, (int, float)) and not isinstance(raw, bool) else None


def _distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; raises ValueError naming the keys it repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"duplicate keys: {', '.join(_repeated(k for k, _ in pairs))}")
    return obj


def _warn_unknown(names, source: str) -> None:
    unknown = sorted(set(names) - set(_KNOWN))
    if unknown:
        warnings.warn(
            f"ignoring unknown {source}: {', '.join(unknown)}",
            stacklevel=3,
        )


def _header_problem(fieldnames: list[str]) -> str | None:
    """The error message for a CSV header, or None when it is usable."""
    missing = [c for c in _REQUIRED if c not in fieldnames]
    if missing:
        return f"line 1: header lacks required columns: {', '.join(missing)}"
    repeated = [c for c in _KNOWN if fieldnames.count(c) > 1]
    if repeated:
        return f"line 1: duplicate CSV columns: {', '.join(repeated)}"
    return None


def _columns(rows: list[tuple[int, float, int | None]]) -> Columns:
    predictions, scores, labels = zip(*rows) if rows else ((), (), ())
    labelled = bool(rows) and None not in labels
    return predictions, scores, labels if labelled else None


def _lines(data: bytes, newline: str | None) -> Iterator[str]:
    """The lines of ``data``, as a UTF-8 text reader with ``newline`` splits
    them.

    The reader carries each byte that is not UTF-8 to its line as a lone
    surrogate, which a strict encode of the line rejects.  Only such a line
    is encoded back to its bytes and decoded strictly, so every earlier
    line has reached the row parser when a ValueError names the 1-based
    line and its first byte that is not UTF-8.  Such a byte is never a line
    end, so the line's decode gives the byte and the reason that a decode
    of the whole file would.
    """
    reader = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape", newline)
    for number, line in enumerate(reader, start=1):
        try:
            line.isascii() or line.encode()
        except UnicodeEncodeError:
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = exc.object[exc.start]
                raise ValueError(
                    f"line {number}: byte {byte:#04x} is not UTF-8 ({exc.reason})"
                ) from None
        yield line


def _parse_csv_rows(data: bytes) -> Columns:
    """Parse a CSV file's bytes row by row; the reference for every CSV file."""
    rows = []
    reader = csv.DictReader(_lines(data, newline=""))
    if reader.fieldnames is None:
        raise ValueError("line 1: missing CSV header")
    problem = _header_problem(reader.fieldnames)
    if problem:
        raise ValueError(problem)
    _warn_unknown(reader.fieldnames, "CSV columns")
    for row in reader:
        line = reader.line_num
        if row.get(None):
            raise ValueError(f"line {line}: more fields than header columns")
        if None in row.values():  # the value DictReader gives missing fields
            raise ValueError(f"line {line}: fewer fields than header columns")
        label = row.get("label")  # blank means unlabelled
        label = label if label and label.strip() else None
        rows.append(_row(row["prediction"], row["score"], label, line, _text_number))
    return _columns(rows)


def _binary_field(body: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The values of a column whose fields are all the byte 0 or 1, else None."""
    digits = body[starts] - np.uint8(ord("0"))  # bytes below "0" wrap to > 1
    if (ends - starts != 1).any() or (digits > 1).any():
        return None
    return digits


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The number that the eight ASCII digits of each little-endian uint64
    word spell, first byte most significant: adjacent digits, then pairs,
    then quads are joined by one masked multiply and shift each."""
    words = (words & _U64(0x0F0F0F0F0F0F0F0F)) * _U64(2561) >> _U64(8)
    words = (words & _U64(0x00FF00FF00FF00FF)) * _U64(6553601) >> _U64(16)
    return (words & _U64(0x0000FFFF0000FFFF)) * _U64(42949672960001) >> _U64(32)


def _score_values(body: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """``float()`` of each field ``body[starts[i]:ends[i]]``, bit for bit, or
    None when ``float()`` rejects one.

    A field ``0.`` or ``1.`` followed by k <= 22 digits whose value m is
    below 10**19 (at most 19 digits after leading zeros), ending at least
    _WIDTH bytes into ``body``, is converted by array operations: m is read
    from the field's window by :func:`_eight_digits`, and the field's value
    is m / 10**k, plus one for ``1.`` followed by zeros only (``1.`` and a
    non-zero digit goes to ``float()``, which may round it to 1.0).  Every
    such field takes the same float64 operations on every platform, and
    each is rounded as ``float()`` rounds the exact decimal value, to
    nearest:

    - m <= 2**53 is exact in float64, and so is 10**k, and IEEE division of
      two exact operands is correctly rounded (Clinger's fast path).
    - Above 2**53, m / 10**k = (q + r / 5**k) * 2**-k with q, r =
      divmod(m, 5**k), taken in uint64.  Since m < 10**k, q < 2**k <=
      2**22, and since 5**k <= 5**22 < 2**53 < m, q >= 3; r < 5**k < 2**52.
      So q, r and 5**k are exact in float64.  f = r / 5**k rounds once, to
      within half its spacing s of r / 5**k, and t = q + f rounds once;
      since q > f, e = f - (t - q) is t's rounding error exactly
      (Fast2Sum): q + f = t + e.  As f < 1 and t >= 3, s <= 2**-53 and
      t's gaps to its neighbours are at least 2**-51, all powers of two, so
      q, f, t and e are multiples of s.  Unless the sum was a tie, which
      makes |e| half the gap from t to its neighbour on e's side, |e| is at
      most that half gap less s.  Then the exact q + r / 5**k lies within
      the half gap less s / 2 of t, so t is its correctly rounded value,
      and t * 2**-k is an exact scaling.  A tie leaves the exact value on
      either side of the midpoint (a value halfway between adjacent
      float64s) that q + f is, so that field goes to ``float()``.

    Every other field is converted by ``float()``: exponent forms, ``.5``,
    ``+.5``, ``01``, ``-0.0`` and longer fields.
    """
    if body.size < _WIDTH:  # pad the end, so there is a window; none is used
        body = np.concatenate((body, np.zeros(_WIDTH - body.size, np.uint8)))
    windows = sliding_window_view(body, _WIDTH)
    scores = np.empty(starts.size)
    for lo in range(0, starts.size, _CHUNK):
        s, e = starts[lo : lo + _CHUNK], ends[lo : lo + _CHUNK]
        k = e - s - 2  # digits after the point
        ok = (k >= 1) & (k <= _WIDTH - 2) & (e >= _WIDTH)
        ok &= (body[np.minimum(s + 1, e)] == _DOT) & ((body[s] | 1) == _ONE)  # 0. or 1.
        k = np.clip(k, 0, _WIDTH - 2)
        words = windows[np.maximum(e - _WIDTH, 0)].view("<u8") & _KEEP.take(k, axis=0)
        words |= _ZERO_FILL.take(k, axis=0)
        # A byte below "0" borrows, one above "9" carries, into its top bit.
        not_digits = (words + _U64(0x4646464646464646)) | (words - _U64(0x3030303030303030))
        not_digits = not_digits[:, 0] | not_digits[:, 1] | not_digits[:, 2]
        ok &= (not_digits & _U64(0x8080808080808080)) == 0
        parts = _eight_digits(words)
        ok &= parts[:, 0] < 1000
        m = parts[:, 0] * _U64(10**16) + parts[:, 1] * _U64(10**8) + parts[:, 2]
        ones = body[s] == _ONE
        ok &= ~ones | (m == 0)
        values = m.astype(np.float64) / _POW10[k]
        values += ones
        wide = np.flatnonzero(ok & (m > _EXACT_INT))
        kw = k[wide]
        q, r = np.divmod(m[wide], _POW5[kw])  # each exact in float64 too
        f = r / _POW5[kw]
        t = q + f
        error = f - (t - q)  # exactly q + f - t, since q >= 3 > f
        gap = np.abs(np.nextafter(t, np.copysign(np.inf, error)) - t)
        values[wide] = t / _POW2[kw]
        ok[wide] = 2.0 * np.abs(error) < gap  # not a tie
        for i in np.flatnonzero(~ok).tolist():
            try:
                values[i] = float(body[s[i] : e[i]].tobytes())
            except ValueError:
                return None
        scores[lo : lo + s.size] = values
    return scores


def _parse_csv_plain(data: bytes) -> Columns | None:
    """Parse a plain CSV file's bytes (see the module docstring) with array
    operations, or return None when ``data`` is not plain or has no rows.

    Never raises on file content, and warns about unknown columns only when
    it returns columns, so that falling back to :func:`_parse_csv_rows`
    reproduces every message and warning.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    if data.translate(None, _PLAIN_BYTES):
        return None
    header_end = data.index(b"\n")
    fieldnames = data[:header_end].decode("ascii").split(",")
    if _header_problem(fieldnames):
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=header_end + 1)
    k = len(fieldnames)
    is_separator = body == _COMMA
    is_separator |= body == _LF
    separators = np.flatnonzero(is_separator)
    del is_separator
    n = separators.size // k
    if n == 0 or separators.size != n * k:
        return None
    # Every line is k - 1 commas and then its line end.
    layout = np.frombuffer(b"," * (k - 1) + b"\n", dtype=np.uint8)
    if (body[separators].reshape(n, k) != layout).any():
        return None
    ends = separators.reshape(n, k)
    line_starts = np.concatenate(([0], ends[:-1, -1] + 1))
    if (ends[:, -1] - line_starts).max() > csv.field_size_limit():
        return None  # the line may hold a field too long for the csv module

    def bounds(name: str) -> tuple[np.ndarray, np.ndarray]:
        # Unique by the header check, so each known column has one index.
        c = fieldnames.index(name)
        return (line_starts if c == 0 else ends[:, c - 1] + 1), ends[:, c]

    predictions = _binary_field(body, *bounds("prediction"))
    labels = _binary_field(body, *bounds("label")) if "label" in fieldnames else None
    if predictions is None or (labels is None and "label" in fieldnames):
        return None
    scores = _score_values(body, *bounds("score"))
    if scores is None or not ((scores >= 0.0) & (scores <= 1.0)).all():
        return None
    _warn_unknown(fieldnames, "CSV columns")
    return predictions, scores, labels


def _parse_jsonl(data: bytes) -> Columns:
    rows = []
    unknown_keys: set[str] = set()
    for line_num, line in enumerate(_lines(data, newline=None), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line, object_pairs_hook=_distinct_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_num}: invalid JSON: {exc.msg}") from None
        except ValueError as exc:  # a repeated key, or an integer too long to convert
            raise ValueError(f"line {line_num}: {exc}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"line {line_num}: expected a JSON object")
        missing = [k for k in _REQUIRED if k not in obj]
        if missing:
            raise ValueError(f"line {line_num}: missing keys: {', '.join(missing)}")
        unknown_keys.update(set(obj) - set(_KNOWN))
        rows.append(
            _row(obj["prediction"], obj["score"], obj.get("label"), line_num, _json_number)
        )
    _warn_unknown(unknown_keys, "JSONL keys")
    return _columns(rows)


def parse_input(path: str | Path, format: str = "csv") -> PredictionBatch:
    """Read a prediction file into an ordered batch.

    The file is read once, so a named pipe works on every route, and one
    leading UTF-8 byte-order mark is removed before any route parses the
    bytes.  Labels are attached when every row has one.  Raises ValueError
    naming the 1-based line of the first malformed row.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    if format == "csv":
        # One line for both routes, so that an unknown-column warning, which
        # names the line it was raised from, is the same for either.
        columns = _parse_csv_plain(data) or _parse_csv_rows(data)
    else:
        columns = _parse_jsonl(data)
    return PredictionBatch.from_arrays(*columns)
