"""Window orchestration and report serialization.

A monitoring stream is cut into consecutive windows of a fixed size; each
window gets one report holding the requested metric estimates.  A final
window shorter than the configured size is still processed and flagged as
partial.  :func:`windowed_estimates` is the one entry for both methods,
and the only code that checks a request and picks its method; it returns
the windows' estimates as one :class:`Run`, which carries the request it
answers, and :func:`estimate_all` is its one-window run.  The shortcut
points of all windows come from one array pass over the whole batch, as
one column per metric.  An exact run feeds its window slices to the one
exact stream, :func:`~confmetrics.confusion.estimate_confusions`, which
builds their count PMFs a chunk of at least ``confusion._CHUNK_RECORDS``
records at a time (a longer window is a chunk by itself); each window's
estimates are derived from its PMFs when the run reaches it, and the
first one when :func:`windowed_estimates` is called.  Iterating a run
yields its reports.  The realized metrics of a labelled window,
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

Reports stream: the writer turns each exact window's estimates into text
as they arrive and can pass that text on to a stream before the next
window is estimated, and lets a window go once the next one arrives, so
a run holds the count PMFs of one chunk and the distributions of the
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
    "Run",
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
class Run:
    """The estimates of every window of one run, under the request they
    answer.

    ``sizes`` holds each window's size; a window is partial when its size
    is below ``window_size``.  A shortcut run holds its ``columns``: each
    requested metric, in request order, mapped to one point per window,
    None where the metric is undefined.  An exact run has no columns; its
    ``estimates`` yield each window's estimates in order, from one pass
    over the batch, so it can be read once.  Iterating a run yields its
    reports, each built when it is reached.
    """

    config: EstimateConfig
    window_size: int
    sizes: list[int]
    columns: dict[str, list[float | None]] | None
    estimates: Iterator[list[MetricEstimate]] | None = None

    def __iter__(self) -> Iterator[MonitoringReport]:
        estimates = self.estimates
        if self.columns is not None:
            estimates = (
                [MetricEstimate(m, "shortcut", column[index]) for m, column in self.columns.items()]
                for index in range(len(self.sizes))
            )
        for index, size in enumerate(self.sizes):
            # Not enumerate(zip(sizes, estimates)): enumerate keeps zip's
            # result tuple to reuse, and with it window 0's estimates for
            # the whole run.
            yield MonitoringReport(index, size, size < self.window_size, tuple(next(estimates)))


def windowed_estimates(
    batch: PredictionBatch, window_size: int, config: EstimateConfig = EstimateConfig()
) -> Run:
    """Split a batch into consecutive windows and estimate each one, as the
    :class:`Run` of ``config``.

    The request is checked when this is called: ValueError for an empty
    batch, a window size that is not an integer (a bool is not) or is below
    1, an unknown method, metrics that are not a sequence (a string is
    not), an unknown or repeated metric, or an alpha that is not a real
    number in (0, 1) or comes with shortcuts.  A shortcut run's points all
    come from one pass over the batch, made here.  An exact run's count
    PMFs come from :func:`~confmetrics.confusion.estimate_confusions`; its
    first window, with its chunk's count PMFs, is estimated here, so that a
    failure there raises from this call, and each later one when reached.
    """
    _require_nonempty(batch)
    window_size = _require_integer(window_size, "window_size", 1)
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
        columns, sizes = _shortcut_windows(batch, window_size, config.metrics)
        return Run(config, window_size, sizes, columns)
    sizes = _window_sizes(batch.n, window_size).tolist()
    starts = itertools.accumulate(sizes, initial=0)
    estimates = (
        [_exact_estimate(m, est, config.alpha) for m in config.metrics]
        for _, est in estimate_confusions(batch[a : a + n] for a, n in zip(starts, sizes))
    )
    # An exhausted list iterator lets go of the first window; chain([...],
    # estimates) would keep it in its argument tuple for the whole run.
    first = iter([next(estimates)])
    return Run(config, window_size, sizes, None, itertools.chain(first, estimates))


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
    """The report's text in order: the head, one piece per window, the tail.
    ``texts`` yields each window's estimate texts."""
    config = run.config
    yield _HEAD % (
        _number(config.alpha),
        quote(config.method),
        _array([quote(m) for m in config.metrics], "    "),
    )
    for index, size in enumerate(run.sizes):
        yield _WINDOW % (
            ",\n    " if index else "[\n    ",
            _array(next(texts), "      "),
            _bool(size < run.window_size),
            index,
            size,
        )
    yield "\n  ]\n}" if run.sizes else "[]\n}"


def render_report(
    run: Run, emit_distributions: bool = False, out: TextIO | None = None
) -> str | None:
    """Deterministic JSON text for a run, headed by the run's config;
    identical inputs give identical bytes, the text ``json.dumps(document,
    indent=2, sort_keys=True)`` gives for the document it parses to.

    A shortcut run is written from its columns, an exact run from its
    estimates, read as the writer reaches each window; neither builds a
    report per window.  Returns the text, or with ``out`` writes it there
    piece by piece, each window's text as soon as its estimates arrive, and
    returns None.  The text does not end in a newline.
    """
    quote = functools.lru_cache(maxsize=None)(json.dumps)
    if run.columns is None:
        # The loop variable holds each window until the next one arrives:
        # letting it go sooner multiplied the page faults of exact runs.
        texts = (
            [_estimate_text(e, emit_distributions, quote) for e in estimates]
            for estimates in run.estimates
        )
    else:
        columns = [_column_texts(m, points, quote) for m, points in run.columns.items()]
        texts = ([column[index] for column in columns] for index in range(len(run.sizes)))
    chunks = _report_chunks(run, texts, quote)
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None
