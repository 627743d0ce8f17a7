"""Window orchestration, true-metric computation and report serialization.

A monitoring stream is cut into consecutive windows of a fixed size; each
window gets one report holding the requested metric estimates.  A final
window shorter than the configured size is still processed and flagged as
partial.  Reports serialize to a single JSON document per run; metric
distributions are included only on request, since the recall and F1
distributions each hold about 25 support points per window record (about
25 000 at a window of 1000, 100 000 at 4000).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .confusion import PredictionBatch
from .metrics import METRICS, MetricEstimate, estimate_all

__all__ = [
    "EstimateConfig",
    "MonitoringReport",
    "TrueMetrics",
    "windowed_estimates",
    "true_metrics",
    "run_to_json",
    "render_report",
    "write_report",
]


@dataclass(frozen=True)
class EstimateConfig:
    """What to estimate per window, echoed into every report."""

    metrics: tuple[str, ...] = METRICS
    method: str = "exact"
    alpha: float | None = None

    def echo(self) -> dict:
        return {
            "metrics": list(self.metrics),
            "method": self.method,
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class MonitoringReport:
    """Per-window estimates, and the metrics that were undefined on the window."""

    window_index: int
    window_size: int
    partial: bool
    estimates: tuple[MetricEstimate, ...]
    undefined_metrics: tuple[str, ...]


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
) -> list[MonitoringReport]:
    """Split a batch into consecutive windows and estimate each one."""
    if batch.n == 0:
        raise ValueError("estimation needs a nonempty batch")
    if window_size < 1:
        raise ValueError(f"window_size must be at least 1, got {window_size!r}")
    reports = []
    for index, start in enumerate(range(0, batch.n, window_size)):
        window = batch[start : start + window_size]
        estimates = tuple(
            estimate_all(window, config.metrics, config.method, config.alpha)
        )
        reports.append(
            MonitoringReport(
                window_index=index,
                window_size=window.n,
                partial=window.n < window_size,
                estimates=estimates,
                undefined_metrics=tuple(e.metric for e in estimates if e.undefined),
            )
        )
    return reports


def true_metrics(batch: PredictionBatch) -> TrueMetrics:
    """Realized confusion-matrix metrics of a labelled window."""
    if batch.n == 0:
        raise ValueError("true metrics need a nonempty batch")
    labels = batch.labels
    if labels is None:
        raise ValueError("true metrics need a true label on every record")
    pred = batch.predictions
    tp = int(np.count_nonzero((pred == 1) & (labels == 1)))
    fp = int(np.count_nonzero((pred == 1) & (labels == 0)))
    fn = int(np.count_nonzero((pred == 0) & (labels == 1)))
    tn = int(np.count_nonzero((pred == 0) & (labels == 0)))
    return TrueMetrics(
        accuracy=(tp + tn) / batch.n,
        precision=tp / (tp + fp) if tp + fp else None,
        recall=tp / (tp + fn) if tp + fn else None,
        f1=2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None,
    )


def _estimate_to_json(estimate: MetricEstimate, emit_distributions: bool) -> dict:
    hdi = estimate.hdi
    dist = estimate.distribution
    return {
        "metric": estimate.metric,
        "method": estimate.method,
        "point": estimate.point,
        "undefined": estimate.undefined,
        "hdi": None
        if hdi is None
        else {"lower": hdi.lower, "upper": hdi.upper, "alpha": hdi.alpha},
        "distribution": None
        if dist is None or not emit_distributions
        else [[num, den, prob] for num, den, prob in dist.ratios()],
    }


def run_to_json(
    reports: list[MonitoringReport],
    config: EstimateConfig,
    emit_distributions: bool = False,
) -> dict:
    """Assemble one run's reports into a serializable document."""
    return {
        "windows": [
            {
                "window_index": r.window_index,
                "window_size": r.window_size,
                "partial": r.partial,
                "estimates": [
                    _estimate_to_json(e, emit_distributions) for e in r.estimates
                ],
            }
            for r in reports
        ],
        "config": config.echo(),
    }


def render_report(
    reports: list[MonitoringReport],
    config: EstimateConfig,
    emit_distributions: bool = False,
) -> str:
    """Deterministic JSON text for a run; identical inputs give identical
    bytes."""
    document = run_to_json(reports, config, emit_distributions)
    return json.dumps(document, indent=2, sort_keys=True)


def write_report(
    reports: list[MonitoringReport],
    config: EstimateConfig,
    path: str | Path,
    emit_distributions: bool = False,
) -> None:
    Path(path).write_text(
        render_report(reports, config, emit_distributions) + "\n", encoding="utf-8"
    )
