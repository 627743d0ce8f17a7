"""Window orchestration, true-metric computation and report serialization.

A monitoring stream is cut into consecutive windows of a fixed size; each
window gets one report holding the requested metric estimates.  A final
window shorter than the configured size is still processed and flagged as
partial.  The shortcut points of all windows come from one array pass over
the whole batch; exact windows are sliced and estimated one at a time, as
the reports are consumed.

Reports serialize to a single JSON document per run.  The writer fills
templates of the document's fixed layout, and its text is byte for byte
what ``json.dumps(document, indent=2, sort_keys=True)`` writes for the
document :func:`run_to_json` returns: keys sorted, two spaces of
indentation per level, floats through ``float.__repr__`` and the non-finite
ones as ``NaN``/``Infinity``, strings through ``json.dumps``.  With
``indent`` set, ``json`` runs its pure-Python encoder; for the 2000 windows
of a 200 000-row shortcut run at window 100 (8000 points, 1.9 MB of text),
the writer takes 20-35 ms where building the document and dumping it took
80-130 ms (one core of a 2-vCPU machine).  Metric distributions are
included only on request, since the recall and F1 distributions each hold
about 25 support points per window record (about 25 000 at a window of
1000, 100 000 at 4000).

Reports stream: the writer turns each report into text as it arrives and
can pass that text on to a stream before the next window is estimated, so
a run holds about one window's distributions whatever its length.  An
exact ``estimate`` run over 100 000 rows at window 1000 peaks at 40 MB of
resident memory, 29 MB of it the import, where building every report
before writing any took 189 MB; at window 300 with distributions emitted,
30 000 rows peak at 41 MB for a 132 MB report, where they took 468 MB.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .confusion import PredictionBatch, _require_nonempty
from .metrics import (
    METRICS,
    _ROWS,
    MetricEstimate,
    _check_request,
    _shortcut_windows,
    estimate_all,
)

__all__ = [
    "EstimateConfig",
    "MonitoringReport",
    "TrueMetrics",
    "windowed_estimates",
    "true_metrics",
    "run_to_json",
    "render_report",
]


@dataclass(frozen=True)
class EstimateConfig:
    """What to estimate per window, echoed into every report."""

    metrics: tuple[str, ...] = METRICS
    method: str = "exact"
    alpha: float | None = None


@dataclass(frozen=True)
class MonitoringReport:
    """The estimates of one window."""

    window_index: int
    window_size: int
    partial: bool
    estimates: tuple[MetricEstimate, ...]


@dataclass(frozen=True)
class TrueMetrics:
    """Realized metrics of a labelled window; None where the defining ratio
    has a zero denominator."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None


def windowed_estimates(
    batch: PredictionBatch, window_size: int, config: EstimateConfig = EstimateConfig()
) -> Iterator[MonitoringReport]:
    """Split a batch into consecutive windows and estimate each one.

    The request is checked when this is called; the reports come from a
    single-pass iterator.  Shortcut points of all windows come from one pass
    over the batch; exact windows are sliced and estimated one at a time,
    each when the iterator reaches it.
    """
    _require_nonempty(batch)
    if window_size < 1:
        raise ValueError(f"window_size must be at least 1, got {window_size!r}")
    _check_request(config.metrics, config.method, config.alpha)
    starts = range(0, batch.n, window_size)
    if config.method == "shortcut":
        windows = _shortcut_windows(batch, window_size, config.metrics)
    else:
        windows = (
            tuple(
                estimate_all(
                    batch[start : start + window_size],
                    config.metrics,
                    config.method,
                    config.alpha,
                )
            )
            for start in starts
        )
    return (
        MonitoringReport(
            window_index=index,
            window_size=min(window_size, batch.n - start),
            partial=batch.n - start < window_size,
            estimates=estimates,
        )
        for index, (start, estimates) in enumerate(zip(starts, windows))
    )


def true_metrics(batch: PredictionBatch) -> TrueMetrics:
    """Realized confusion-matrix metrics of a labelled window."""
    if batch.n == 0:
        raise ValueError("true metrics need a nonempty batch")
    labels = batch.labels
    if labels is None:
        raise ValueError("true metrics need a true label on every record")
    pred = batch.predictions == 1
    actual = labels == 1
    counts = {
        "tp": int(np.count_nonzero(pred & actual)),
        "p": int(np.count_nonzero(actual)),
        "correct": int(np.count_nonzero(pred == actual)),
        "n_pos": int(np.count_nonzero(pred)),
        "n": batch.n,
    }
    realized = {}
    for metric, row in _ROWS.items():
        num, den = row.ratio(counts)
        realized[metric] = num / den if den else None
    return TrueMetrics(**realized)


# The report's layout, as json.dumps(indent=2, sort_keys=True) writes it:
# keys in sorted order, one member or element per line, two spaces of
# indentation per level.  Each template is written at its depth in the
# document; _array lays out a list of already-written elements.  The
# windows array is written one _WINDOW at a time, each led by the array's
# opening or by the comma after the window before it.
_HEAD = """{
  "config": {
    "alpha": %s,
    "method": %s,
    "metrics": %s
  },
  "windows": """
_WINDOW = """%s{
      "estimates": %s,
      "partial": %s,
      "window_index": %d,
      "window_size": %d
    }"""
_ESTIMATE = """{
          "distribution": %s,
          "hdi": %s,
          "method": %s,
          "metric": %s,
          "point": %s,
          "undefined": %s
        }"""
_HDI = """{
            "alpha": %s,
            "lower": %s,
            "upper": %s
          }"""
_RATIO = """[
              %d,
              %d,
              %s
            ]"""


def _array(elements: list[str], indent: str) -> str:
    """A JSON array of written elements, closed at ``indent``."""
    if not elements:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(elements) + "\n" + indent + "]"


def _number(value: float | None) -> str:
    """A float or None as ``json`` writes it.  ``float.__repr__`` writes an
    ``np.float64`` as the plain number its ``repr`` would wrap."""
    if value is None:
        return "null"
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _estimate_text(estimate: MetricEstimate, emit_distributions: bool, quote) -> str:
    hdi = estimate.hdi
    dist = estimate.distribution
    return _ESTIMATE % (
        "null"
        if dist is None or not emit_distributions
        else _array(
            [_RATIO % (num, den, _number(prob)) for num, den, prob in dist.ratios()],
            "          ",
        ),
        "null" if hdi is None else _HDI % tuple(map(_number, (hdi.alpha, hdi.lower, hdi.upper))),
        quote(estimate.method),
        quote(estimate.metric),
        _number(estimate.point),
        _bool(estimate.undefined),
    )


def _report_chunks(
    reports: Iterable[MonitoringReport], config: EstimateConfig, emit_distributions: bool
) -> Iterator[str]:
    """The report's text in order: the head, one piece per window, the tail."""
    quote = functools.lru_cache(maxsize=None)(json.dumps)
    yield _HEAD % (
        _number(config.alpha),
        quote(config.method),
        _array([quote(m) for m in config.metrics], "    "),
    )
    first = True
    for r in reports:
        yield _WINDOW % (
            "[\n    " if first else ",\n    ",
            _array(
                [_estimate_text(e, emit_distributions, quote) for e in r.estimates],
                "      ",
            ),
            _bool(r.partial),
            r.window_index,
            r.window_size,
        )
        first = False
    yield "[]\n}" if first else "\n  ]\n}"


def render_report(
    reports: Iterable[MonitoringReport],
    config: EstimateConfig,
    emit_distributions: bool = False,
    out: TextIO | None = None,
) -> str | None:
    """Deterministic JSON text for a run; identical inputs give identical
    bytes, the text ``json.dumps(document, indent=2, sort_keys=True)`` gives
    for the document :func:`run_to_json` returns.

    Returns the text, or with ``out`` writes it there piece by piece, each
    window's text as soon as ``reports`` yields the window, and returns
    None.  The text does not end in a newline.
    """
    chunks = _report_chunks(reports, config, emit_distributions)
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None


def run_to_json(
    reports: Iterable[MonitoringReport],
    config: EstimateConfig,
    emit_distributions: bool = False,
) -> dict:
    """One run's reports as a document: the parsed :func:`render_report`
    text."""
    return json.loads(render_report(reports, config, emit_distributions))
