"""Window orchestration and report serialization.

A monitoring stream is cut into consecutive windows of a fixed size; each
window gets one report holding the requested metric estimates.  A final
window shorter than the configured size is still processed and flagged as
partial.  :func:`windowed_estimates` is the one entry for both methods,
and the only code that checks a request and picks its method;
:func:`estimate_all` is its one-window run.  The shortcut points of all
windows come from one array pass over the whole batch, as one column per
metric (:class:`ShortcutColumns`).  An exact run feeds its window slices
to the one exact stream, :func:`~confmetrics.confusion.estimate_confusions`,
which builds their count PMFs a chunk of at least
``confusion._CHUNK_RECORDS`` records at a time (a longer window is a chunk
by itself); each window's estimates are derived from its PMFs when its
report is reached, and the first one when :func:`windowed_estimates` is
called.  One generator, :func:`_reports`, builds the reports of both
methods.  The realized metrics of a labelled window, :func:`true_metrics`,
come from :mod:`confmetrics.metrics` and are exported here as well.

Reports serialize to a single JSON document per run.  The writer fills
templates of the document's fixed layout, and its text is byte for byte
what ``json.dumps(document, indent=2, sort_keys=True)`` writes for the
document it parses to: keys sorted, two spaces of indentation per level,
floats through ``float.__repr__`` and the non-finite ones as
``NaN``/``Infinity``, strings through ``json.dumps``.  With
``indent`` set, ``json`` runs its pure-Python encoder.  The writer takes
a run's reports, or the columns of a shortcut run, and lays out the
windows of both in one code path.  From the columns it fills the estimate
template once per column and each point's number into it, and builds no
estimate or report per window (README.md gives its timings).  Metric
distributions are included only on request, since the recall and F1
distributions each hold about 25 support points per window record (about
25 000 at a window of 1000, 100 000 at 4000).

Reports stream: the writer turns each report into text as it arrives and
can pass that text on to a stream before the next window is estimated,
and lets a window go once the next one arrives, so a run holds the count
PMFs of one chunk and the distributions of the window being estimated and
at most the one before it, whatever its length (README.md gives the peak
memory of exact runs).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from ._checks import (
    _check_alpha,
    _require_distinct,
    _require_integer,
    _require_nonempty,
    _require_sequence,
)
from .confusion import PredictionBatch, estimate_confusions
from .metrics import (
    METRICS,
    MetricEstimate,
    TrueMetrics,
    _exact_estimate,
    _shortcut_windows,
    _window_sizes,
    true_metrics,
)

__all__ = [
    "EstimateConfig",
    "MonitoringReport",
    "ShortcutColumns",
    "TrueMetrics",
    "windowed_estimates",
    "estimate_all",
    "true_metrics",
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
class ShortcutColumns:
    """The shortcut points of every window of a run, by metric.

    ``points`` maps each requested metric, in request order, to its column:
    one point per window, None where the metric is undefined.  ``sizes``
    holds each window's size; a window is partial when its size is below
    ``window_size``.  :func:`render_report` writes the columns without
    building an estimate or a report per window; iterating them yields the
    run's reports from :func:`_reports`, each built when it is reached.
    """

    window_size: int
    points: dict[str, list[float | None]]
    sizes: list[int]

    def __iter__(self) -> Iterator[MonitoringReport]:
        estimates = (
            [MetricEstimate(m, "shortcut", column[index]) for m, column in self.points.items()]
            for index in range(len(self.sizes))
        )
        return _reports(self.window_size, self.sizes, estimates)


def _reports(
    window_size: int, sizes: list[int], estimates: Iterator[Iterable[MetricEstimate]]
) -> Iterator[MonitoringReport]:
    """One report per window size, each holding the next of ``estimates``,
    which is pulled only when its report is reached."""
    for index, size in enumerate(sizes):
        # Not enumerate(zip(sizes, estimates)): enumerate keeps zip's result
        # tuple to reuse, and with it window 0's estimates for the whole run.
        yield MonitoringReport(index, size, size < window_size, tuple(next(estimates)))


def windowed_estimates(
    batch: PredictionBatch, window_size: int, config: EstimateConfig = EstimateConfig()
) -> Iterable[MonitoringReport]:
    """Split a batch into consecutive windows and estimate each one.

    The request is checked when this is called: ValueError for an empty
    batch, a window size that is not an integer (a bool is not) or is below
    1, an unknown method, metrics that are not a sequence (a string is
    not), an unknown or repeated metric, or an alpha that is not a real
    number in (0, 1) or comes with shortcuts.  A shortcut run's points all
    come from one pass over the batch, made here and returned as its
    :class:`ShortcutColumns`.
    An exact run comes back as a single-pass iterator of reports, whose
    count PMFs come from :func:`~confmetrics.confusion.estimate_confusions`;
    its first window, with its chunk's count PMFs, is estimated here, so
    that a failure there raises from this call, and each later one when
    reached.
    """
    _require_nonempty(batch)
    _require_integer(window_size, "window_size", 1)
    if config.method not in ("exact", "shortcut"):
        raise ValueError(f"method must be 'exact' or 'shortcut', got {config.method!r}")
    _require_sequence(config.metrics, "metrics", "metric names")
    unknown = [m for m in config.metrics if m not in METRICS]
    if unknown:
        raise ValueError(f"unknown metrics requested: {unknown}")
    _require_distinct(config.metrics, "metrics")
    if config.alpha is not None:
        _check_alpha(config.alpha)
        if config.method == "shortcut":
            raise ValueError("alpha applies to the exact method only; shortcuts have no intervals")
    if config.method == "shortcut":
        return ShortcutColumns(window_size, *_shortcut_windows(batch, window_size, config.metrics))
    sizes = _window_sizes(batch.n, window_size).tolist()
    starts = itertools.accumulate(sizes, initial=0)
    estimates = (
        [_exact_estimate(m, est, config.alpha) for m in config.metrics]
        for _, est in estimate_confusions(batch[a : a + n] for a, n in zip(starts, sizes))
    )
    run = _reports(window_size, sizes, estimates)
    # An exhausted list iterator lets go of the first report; chain([...],
    # run) would keep it in its argument tuple for the whole run.
    return itertools.chain(iter([next(run)]), run)


def estimate_all(
    batch: PredictionBatch,
    metrics: tuple[str, ...] = METRICS,
    method: str = "exact",
    alpha: float | None = None,
) -> list[MetricEstimate]:
    """Estimate the requested metrics on one window: the one-window run of
    :func:`windowed_estimates`, with its checks.  The exact method attaches
    full distributions, and intervals when ``alpha`` is given; the shortcut
    method attaches points only.  An undefined metric has ``point=None``."""
    (report,) = windowed_estimates(batch, batch.n, EstimateConfig(metrics, method, alpha))
    return list(report.estimates)


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


def _column_texts(metric: str, points: list[float | None], quote) -> list[str]:
    """The text of every estimate in one shortcut column.  The template is
    filled once for an undefined point and once around a marker for a
    defined one, and each defined point's number goes where the marker was;
    ``json.dumps`` escapes a NUL, so no quoted field holds the marker."""
    fields = ("null", "null", quote("shortcut"), quote(metric))
    undefined = _ESTIMATE % (*fields, _number(None), _bool(True))
    head, _, tail = (_ESTIMATE % (*fields, "\0", _bool(False))).partition("\0")
    return [undefined if p is None else head + _number(p) + tail for p in points]


def _report_chunks(windows: Iterable[tuple], config: EstimateConfig, quote) -> Iterator[str]:
    """The report's text in order: the head, one piece per window, the tail.
    ``windows`` yields each window's estimate texts, partial flag, index and
    size."""
    yield _HEAD % (
        _number(config.alpha),
        quote(config.method),
        _array([quote(m) for m in config.metrics], "    "),
    )
    first = True
    for estimates, partial, index, size in windows:
        yield _WINDOW % (
            "[\n    " if first else ",\n    ",
            _array(estimates, "      "),
            _bool(partial),
            index,
            size,
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
    for the document it parses to.

    ``reports`` is what :func:`windowed_estimates` returns, or any run's
    reports.  The :class:`ShortcutColumns` of a shortcut run are written
    from their columns, as the text of the reports they yield.  Returns the
    text, or with ``out`` writes it there piece by piece, each window's
    text as soon as ``reports`` yields the window, and returns None.  The
    text does not end in a newline.
    """
    quote = functools.lru_cache(maxsize=None)(json.dumps)
    if isinstance(reports, ShortcutColumns):
        texts = [_column_texts(m, points, quote) for m, points in reports.points.items()]
        windows = (
            (estimates, size < reports.window_size, index, size)
            for index, (size, *estimates) in enumerate(zip(reports.sizes, *texts))
        )
    else:
        windows = (
            (
                [_estimate_text(e, emit_distributions, quote) for e in r.estimates],
                r.partial,
                r.window_index,
                r.window_size,
            )
            for r in reports
        )
    chunks = _report_chunks(windows, config, quote)
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None
