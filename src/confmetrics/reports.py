"""Window orchestration and report serialization.

A monitoring stream is cut into consecutive windows of a fixed size; each
window gets one report holding the requested metric estimates.  A final
window shorter than the configured size is still processed and flagged as
partial.  :func:`windowed_estimates` is the one entry for both methods,
and the only code that checks a request; it returns the request as one
:class:`Run` over its batch, and :func:`estimate_all` is its one-window
run.  Nothing is estimated until a run is read, and each read, iterating
the run or :func:`render_report`, estimates it again, so every read gives
the same reports.  The shortcut points of all windows come from one array
pass over the whole batch, as one column per metric.  An exact run feeds
its window slices to the one exact stream,
:func:`~confmetrics.confusion.estimate_confusions`, which builds their
count PMFs a chunk of at least ``confusion._CHUNK_RECORDS`` records at a
time (a longer window is a chunk by itself); each window's estimates are
derived from its PMFs when the read reaches it.  Iterating a run yields
its reports.  The realized metrics of a labelled window,
:func:`true_metrics`, come from :mod:`confmetrics.metrics` and are
exported here as well.

Reports serialize to a single JSON document per run.  The writer fills
templates of the document's fixed layout, and its text is byte for byte
what ``json.dumps(document, indent=2, sort_keys=True)`` writes for the
document it parses to: keys sorted, two spaces of indentation per level,
floats through ``float.__repr__`` and the non-finite ones as
``NaN``/``Infinity``, strings through ``json.dumps``.  With
``indent`` set, ``json`` runs its pure-Python encoder.  The writer heads
the document with the run's own config and lays out the windows of both
methods in one loop over the run's window sizes, building no report per
window.  From a shortcut run's columns it fills the estimate template
once per column and each point's number into it, and builds no estimate
either (README.md gives its timings).  Metric distributions are included
only on request, since the recall and F1 distributions each hold about
25 support points per window record (about 25 000 at a window of 1000,
100 000 at 4000).

Reports stream: the writer's first piece is the head with window 0, and
each later piece one window, passed on to a stream before the next
window is estimated; it lets a window go once the next one arrives, so
a run holds the count PMFs of one chunk, at most one recall and one F1
pair table that the chunk's windows share, and the distributions of the
window being estimated and at most the one before it, whatever its
length (README.md gives the peak memory of exact runs).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, TextIO

from ._checks import (
    _check_alpha,
    _require,
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
    "METHODS",
    "EstimateConfig",
    "MonitoringReport",
    "Run",
    "TrueMetrics",
    "windowed_estimates",
    "estimate_all",
    "true_metrics",
    "render_report",
]

METHODS = ("exact", "shortcut")


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
class Run:
    """A request over its batch: the windows of ``batch`` to estimate
    under ``config``.

    ``sizes`` holds each window's size; a window is partial when its size
    is below ``window_size``.  Nothing is estimated until the run is read.
    Each read, an iteration or :func:`render_report`, makes the shortcut
    pass or the exact stream over the batch then, so a run can be read any
    number of times, whole or in part, and every read gives the same
    reports; a caller that reads it twice pays twice.  Iterating a run
    yields its reports, each built when it is reached.
    """

    config: EstimateConfig
    window_size: int
    sizes: list[int]
    batch: PredictionBatch

    def _estimates(self) -> Iterator[list[MetricEstimate]]:
        """Each window's estimates in order, from one pass over the batch."""
        if self.config.method == "shortcut":
            columns = _shortcut_windows(self.batch, self.window_size, self.config.metrics)
            return (
                [MetricEstimate(m, "shortcut", column[index]) for m, column in columns.items()]
                for index in range(len(self.sizes))
            )
        starts = itertools.accumulate(self.sizes, initial=0)
        windows = (self.batch[a : a + n] for a, n in zip(starts, self.sizes))
        return (
            [_exact_estimate(m, est, self.config.alpha) for m in self.config.metrics]
            for _, est in estimate_confusions(windows)
        )

    def __iter__(self) -> Iterator[MonitoringReport]:
        estimates = self._estimates()
        for index, size in enumerate(self.sizes):
            # Not enumerate(zip(sizes, estimates)): enumerate keeps zip's
            # result tuple to reuse, and with it window 0's estimates for
            # the whole run.
            yield MonitoringReport(index, size, size < self.window_size, tuple(next(estimates)))


def windowed_estimates(
    batch: PredictionBatch, window_size: int, config: EstimateConfig = EstimateConfig()
) -> Run:
    """Split a batch into consecutive windows to estimate under ``config``,
    as a :class:`Run`; nothing is estimated until the run is read.

    The request is checked when this is called: ValueError for an empty
    batch, a window size that is not an integer (a bool is not) or is below
    1, a config that is not an :class:`EstimateConfig`, an unknown method,
    metrics that are not a nonempty sequence (neither a string nor a set
    is), an unknown or repeated metric, or an alpha that is not a real
    number in (0, 1) or comes with shortcuts.  A failure of the estimation
    itself is raised by the read that reaches it.
    """
    _require_nonempty(batch)
    window_size = _require_integer(window_size, "window_size", 1)
    _require(config, "config", kind=EstimateConfig, what="an EstimateConfig")
    if config.method not in METHODS:
        raise ValueError(f"method must be {' or '.join(map(repr, METHODS))}, got {config.method!r}")
    _require_sequence(config.metrics, "metrics", "metric names", nonempty=True)
    unknown = [m for m in config.metrics if m not in METRICS]
    if unknown:
        raise ValueError(f"unknown metrics requested: {unknown}; choose from {', '.join(METRICS)}")
    _require_distinct(config.metrics, "metrics")
    if config.alpha is not None:
        _check_alpha(config.alpha)
        if config.method == "shortcut":
            raise ValueError("alpha applies to the exact method only; shortcuts have no intervals")
    return Run(config, window_size, _window_sizes(batch.n, window_size).tolist(), batch)


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
# windows array is written one _WINDOW at a time, the first led by the
# head and the array's opening, each later one by the comma after the
# window before it.
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
    """A real number or None as ``json`` writes the number's float, which
    for an ``np.float64`` is the plain number its ``repr`` would wrap."""
    if value is None:
        return "null"
    if math.isfinite(value):
        return repr(float(value))
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


def _report_chunks(run: Run, texts: Iterator[list[str]], quote) -> Iterator[str]:
    """The report's text in order: the head with window 0, each later
    window, the tail.  ``texts`` yields each window's estimate texts."""
    config = run.config
    head = _HEAD % (
        _number(config.alpha),
        quote(config.method),
        _array([quote(m) for m in config.metrics], "    "),
    )
    for index, size in enumerate(run.sizes):
        yield _WINDOW % (
            ",\n    " if index else head + "[\n    ",
            _array(next(texts), "      "),
            _bool(size < run.window_size),
            index,
            size,
        )
    yield "\n  ]\n}" if run.sizes else head + "[]\n}"


def render_report(
    run: Run, emit_distributions: bool = False, out: TextIO | None = None
) -> str | None:
    """Deterministic JSON text for a run, headed by the run's config;
    identical inputs give identical bytes, the text ``json.dumps(document,
    indent=2, sort_keys=True)`` gives for the document it parses to.

    A shortcut run is written from the columns of its one pass, an exact
    run from its estimates, derived as the writer reaches each window;
    neither builds a report per window.  Returns the text, or with ``out``
    hands its pieces to one ``out.writelines`` call as an iterator, the
    head with window 0 first and each later window's text as soon as its
    estimates arrive, and returns None.  The text does not end in a
    newline.
    """
    quote = functools.lru_cache(maxsize=None)(json.dumps)
    if run.config.method == "shortcut":
        points = _shortcut_windows(run.batch, run.window_size, run.config.metrics)
        columns = [_column_texts(m, column, quote) for m, column in points.items()]
        texts = ([column[index] for column in columns] for index in range(len(run.sizes)))
    else:
        # The loop variable holds each window until the next one arrives:
        # letting it go sooner multiplied the page faults of exact runs.
        texts = (
            [_estimate_text(e, emit_distributions, quote) for e in estimates]
            for estimates in run._estimates()
        )
    chunks = _report_chunks(run, texts, quote)
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None
