"""The library names that ``perfbench/`` reads directly.

The benchmark's tracer wraps most of the functions it times by name and
lists a name it cannot find as missing, so a rename there only zeroes a
per-layer number.  The names below it reads without that guard: the
tracer's target list, its counters, the F1 allocation probe in
``perfbench/child.py`` and the realized-metric check in
``perfbench/run.py``.  Removing or renaming one breaks every benchmark
run, so this test pins them, each used the way the benchmark uses it.
"""

import numpy as np

from confmetrics import cli, confusion, metrics, reports
from confmetrics.intervals import hdi


def test_the_names_the_benchmark_reads_without_a_guard(tmp_path):
    # The tracer wraps each metric's derivation and shortcut under these
    # names, and assigns into the shortcut table.
    assert metrics.METRICS == ("accuracy", "precision", "recall", "f1")
    assert isinstance(metrics._SHORTCUTS, dict)
    for metric in metrics.METRICS:
        assert callable(vars(metrics)[f"{metric}_distribution"])

    scores = np.array([0.9, 0.7, 0.4, 0.2, 0.6])
    predictions = (scores >= 0.5).astype(int)
    batch = confusion.PredictionBatch.from_arrays(predictions, scores, [1, 0, 0, 1, 1])
    realized = reports.true_metrics(batch)
    assert all(getattr(realized, m) is not None for m in metrics.METRICS)

    est = confusion.estimate_confusion(batch)
    assert est.n_pos + est.n_neg == batch.n
    for metric in metrics.METRICS:
        d = vars(metrics)[f"{metric}_distribution"](est)
        assert len(d) == d.probabilities.size == d.float_values.size
        assert 0.0 <= d.expectation() <= 1.0
        interval = hdi(d, 0.1)
        assert interval.alpha == 0.1
        assert interval.lower <= interval.upper
        assert 0.0 < interval.covered_mass <= 1.0 + 1e-12

    out = tmp_path / "rows.csv"
    argv = ["simulate", "convergence", "--trials", "2", "--windows", "5", "--output", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text(encoding="utf-8").startswith("window,metric,")
