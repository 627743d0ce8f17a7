"""Span recording and the arithmetic the benchmark reports.

A span is one timed call at a layer boundary: its name (``layer.call``),
start and end on the ``perf_counter`` clock, the id of the enclosing span
and the id of the op (a window or a trial) it belongs to.  Spans are kept in
memory and written out once, when the run ends.

This module imports nothing from ``confmetrics``; ``run.py`` uses it to
turn recorded spans into per-layer numbers.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

# Sample count a tail percentile must leave beyond itself.
TAIL_SAMPLES = 10


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[int] = []
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        # Reserve the slot so ids follow start order even for nested spans.
        self.spans.append(None)
        self._stack.append(span_id)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, parent, name, start, end, op)

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def read_spans(path: Path) -> list[Span]:
    with Path(path).open(encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: list[Span], leave_out: str | None = None) -> dict[str, float]:
    """Self time summed per layer.

    Spans named ``leave_out`` still take their time out of their parents'
    self time, but count for no layer.
    """
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        if span.name != leave_out:
            totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


def tail_rank(n: int) -> int | None:
    """Index into the sorted samples of the highest percentile that leaves
    at least ``TAIL_SAMPLES`` samples beyond it; None when ``n`` is too
    small to have one."""
    if n <= TAIL_SAMPLES:
        return None
    return n - TAIL_SAMPLES - 1


def summarize(samples: list[float]) -> dict:
    """Median, tail value and count of a sample.

    The tail is the sorted sample at ``tail_rank``; ``tail_pct`` names the
    percentile it stands for.  Below ``TAIL_SAMPLES + 1`` samples there is no
    tail, so it reports the median and ``tail_pct`` 50.
    """
    n = len(samples)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    rank = tail_rank(n)
    if rank is None:
        return {"p50": p50, "tail": p50, "tail_pct": 50.0, "n": n}
    return {"p50": p50, "tail": ordered[rank], "tail_pct": 100.0 * (rank + 1) / n, "n": n}


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempted op")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed ops {failed} outside [0, {attempted}]")
    return failed / attempted


class OpTally:
    """Counts attempted ops and the ops that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None = None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    @property
    def failed_frac(self) -> float:
        return failed_frac(self.attempted, self.failed)
