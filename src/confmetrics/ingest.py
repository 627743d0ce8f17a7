"""File ingestion for monitoring batches.

Two input formats carry the same three fields: ``prediction`` (0/1),
``score`` (a decimal in [0, 1]) and an optional ``label`` (0/1).  CSV files
need a header row and their fields are parsed from text.  JSONL files hold
one object per line with typed values: each field must be a JSON number,
never a string or a boolean, and an absent or null label means unlabelled.
Unknown columns or keys are ignored with a warning.  Malformed content is
rejected with the 1-based line number of the offending row.  Files are read
as UTF-8; a leading byte-order mark is skipped.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

from .confusion import PredictionBatch

__all__ = ["parse_input", "FORMATS"]

FORMATS = ("csv", "jsonl")

_REQUIRED = ("prediction", "score")
_KNOWN = ("prediction", "score", "label")


def _parse_binary(raw, field: str, line: int) -> int:
    try:
        value = int(str(raw).strip())
    except (TypeError, ValueError):
        raise ValueError(f"line {line}: {field} must be 0 or 1, got {raw!r}") from None
    if value not in (0, 1):
        raise ValueError(f"line {line}: {field} must be 0 or 1, got {raw!r}")
    return value


def _parse_score(raw, line: int) -> float:
    try:
        value = float(str(raw).strip())
    except (TypeError, ValueError):
        raise ValueError(f"line {line}: score must be a decimal, got {raw!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"line {line}: score must lie in [0, 1], got {raw!r}")
    return value


def _parse_row(prediction, score, label, line: int) -> tuple[int, float, int | None]:
    true_label = None
    if label is not None and str(label).strip() != "":
        true_label = _parse_binary(label, "label", line)
    return _parse_binary(prediction, "prediction", line), _parse_score(score, line), true_label


def _is_json_number(raw) -> bool:
    # json.loads yields bool for true/false, and bool is an int subclass.
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _json_binary(raw, field: str, line: int) -> int:
    if not _is_json_number(raw) or raw not in (0, 1):
        raise ValueError(f"line {line}: {field} must be 0 or 1, got {raw!r}")
    return int(raw)


def _json_row(obj: dict, line: int) -> tuple[int, float, int | None]:
    score = obj["score"]
    if not _is_json_number(score):
        raise ValueError(f"line {line}: score must be a decimal, got {score!r}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"line {line}: score must lie in [0, 1], got {score!r}")
    label = obj.get("label")
    return (
        _json_binary(obj["prediction"], "prediction", line),
        float(score),
        None if label is None else _json_binary(label, "label", line),
    )


def _warn_unknown(names, source: str) -> None:
    unknown = sorted(set(names) - set(_KNOWN))
    if unknown:
        warnings.warn(
            f"ignoring unknown {source}: {', '.join(unknown)}",
            stacklevel=3,
        )


def _parse_csv(path: Path) -> list[tuple[int, float, int | None]]:
    rows = []
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError("line 1: missing CSV header")
        missing = [c for c in _REQUIRED if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"line 1: header lacks required columns: {', '.join(missing)}")
        _warn_unknown(reader.fieldnames, "CSV columns")
        for row in reader:
            line = reader.line_num
            if row.get(None):
                raise ValueError(f"line {line}: more fields than header columns")
            rows.append(
                _parse_row(row.get("prediction"), row.get("score"), row.get("label"), line)
            )
    return rows


def _parse_jsonl(path: Path) -> list[tuple[int, float, int | None]]:
    rows = []
    unknown_keys: set[str] = set()
    with path.open(encoding="utf-8-sig") as handle:
        for line_num, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_num}: invalid JSON: {exc.msg}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"line {line_num}: expected a JSON object")
            missing = [k for k in _REQUIRED if k not in obj]
            if missing:
                raise ValueError(f"line {line_num}: missing keys: {', '.join(missing)}")
            unknown_keys.update(set(obj) - set(_KNOWN))
            rows.append(_json_row(obj, line_num))
    _warn_unknown(unknown_keys, "JSONL keys")
    return rows


def parse_input(path: str | Path, format: str = "csv") -> PredictionBatch:
    """Read a prediction file into an ordered batch.

    Labels are attached when every row has one.  Raises ValueError naming
    the 1-based line of the first malformed row.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    path = Path(path)
    rows = _parse_csv(path) if format == "csv" else _parse_jsonl(path)
    predictions, scores, labels = zip(*rows) if rows else ((), (), ())
    labelled = bool(rows) and None not in labels
    return PredictionBatch.from_arrays(predictions, scores, labels if labelled else None)
