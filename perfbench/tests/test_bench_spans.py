"""Span recording and the arithmetic behind the reported numbers."""

import pytest

from spans import (
    OpTally,
    Recorder,
    Span,
    failed_frac,
    layer_self_times,
    self_times,
    summarize,
    tail_rank,
)


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_recorder_links_nested_spans_to_parent_and_op():
    rec = Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    with rec.span("bench.pass"):
        with rec.span("metrics.f1", op=7):
            with rec.span("intervals.hdi", op=7):
                pass
    root, f1, hdi = rec.spans
    assert (root.parent, f1.parent, hdi.parent) == (None, root.id, f1.id)
    assert (root.start, root.end) == (0.0, 5.0)
    assert (hdi.start, hdi.end) == (2.0, 3.0)
    assert f1.op == hdi.op == 7 and root.op is None
    assert hdi.layer == "intervals"


def test_recorder_closes_a_span_when_the_call_raises():
    rec = Recorder(clock=FakeClock([0.0, 1.0]))
    with pytest.raises(ValueError):
        with rec.span("ingest.parse_input"):
            raise ValueError("bad row")
    assert rec.spans[0].duration == 1.0


def test_written_spans_read_back(tmp_path):
    rec = Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))
    with rec.span("bench.pass"):
        with rec.span("cli.emit", op=2):
            pass
    rec.write(tmp_path / "spans.jsonl")
    from spans import read_spans

    assert read_spans(tmp_path / "spans.jsonl") == rec.spans


def _span(id, parent, name, start, end):
    return Span(id, parent, name, start, end, None)


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(0, None, "bench.pass", 0.0, 10.0),
        _span(1, 0, "metrics.recall", 1.0, 4.0),
        _span(2, 0, "metrics.f1", 5.0, 9.0),
        _span(3, 2, "intervals.hdi", 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert layer_self_times(spans) == pytest.approx(
        {"bench": 3.0, "metrics": 6.0, "intervals": 1.0}
    )
    # Self times partition the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_left_out_child_is_charged_to_no_layer():
    spans = [
        _span(0, None, "bench.job", 0.0, 10.0),
        _span(1, 0, "reports.windowed_estimates", 1.0, 9.0),
        _span(2, 1, "metrics.f1", 2.0, 4.0),
        _span(3, 1, "bench.counters", 4.0, 7.0),
    ]
    assert layer_self_times(spans, leave_out="bench.counters") == pytest.approx(
        {"bench": 2.0, "reports": 3.0, "metrics": 2.0}
    )


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, "bench.pass", 0.0, 10.0),
        _span(1, 0, "a.x", 2.0, 6.0),
        _span(2, 0, "b.y", 4.0, 8.0),
        _span(3, 0, "c.z", 9.0, 12.0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.mark.parametrize("n, rank", [(5, None), (10, None), (11, 0), (100, 89), (1000, 989)])
def test_tail_rank_leaves_ten_samples_beyond(n, rank):
    assert tail_rank(n) == rank
    if rank is not None:
        assert n - rank - 1 == 10


def test_summarize_reports_median_tail_and_count():
    samples = [float(v) for v in range(100, 0, -1)]  # 1..100, unsorted
    summary = summarize(samples)
    assert summary["p50"] == 50.5
    assert summary["tail"] == 90.0  # ten samples (91..100) lie beyond it
    assert summary["tail_pct"] == 90.0
    assert summary["n"] == 100


def test_summarize_without_enough_samples_has_no_tail():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"p50": 2.0, "tail": 2.0, "tail_pct": 50.0, "n": 3}
    assert summarize([])["n"] == 0


def test_failed_frac_arithmetic():
    assert failed_frac(80, 0) == 0.0
    assert failed_frac(80, 2) == 0.025
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 4)


def test_tally_counts_an_injected_failing_op():
    tally = OpTally()
    for problem in (None, None, "window 2: accuracy point off", None):
        tally.record(problem)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_frac == 0.25
    assert tally.problems == ["window 2: accuracy point off"]
