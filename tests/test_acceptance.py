"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

These run the estimators at full desk scale, so the module takes a few
minutes; every tolerance is fixed here, not tuned at runtime.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from confmetrics.calibration import ace, threshold_predictions
from confmetrics.confusion import PredictionBatch, estimate_confusion
from confmetrics.distribution import poisson_binomial_tree
from confmetrics.experiments import (
    run_convergence_experiment,
    run_coverage_experiment,
)
from confmetrics.intervals import hdi
from confmetrics.metrics import (
    METRICS,
    accuracy_distribution,
    f1_distribution,
    precision_distribution,
    recall_distribution,
)
from confmetrics.reports import estimate_all, true_metrics
from confmetrics.synthesis import HypersphereConfig, shift_dataset
from oracles import (
    contiguous_spans,
    distribution,
    enumerate_metric_distributions,
    expand,
    poisson_binomial_cf,
    random_small_batch,
    tv_distance,
)

MASTER_SEED = 20250810


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} [{detail}]")


def test_criterion_1_exact_distributions_match_enumeration():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(200):
        predictions, scores = random_small_batch(rng, max_n=12)
        batch = PredictionBatch.from_arrays(predictions, scores)
        est = estimate_confusion(batch)
        reference = enumerate_metric_distributions(
            [int(p) for p in predictions], [float(s) for s in scores]
        )
        derived = {
            "accuracy": accuracy_distribution(est),
            "precision": precision_distribution(est),
            "recall": recall_distribution(est),
            "f1": f1_distribution(est),
        }
        for metric in METRICS:
            if reference[metric] is None:
                assert derived[metric] is None
                continue
            worst = max(worst, tv_distance(derived[metric], reference[metric]))
    ok = worst <= 1e-9
    report(1, "brute-force oracle equivalence", ok, f"max TV {worst:.2e} over 200 batches")
    assert ok


def test_criterion_2_poisson_binomial_cross_method_agreement():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    for n in (1, 17, 256, 2000):
        for _ in range(50):
            params = rng.random(n)
            tree = expand(poisson_binomial_tree(params), n)
            cf = poisson_binomial_cf(params)
            worst = max(worst, float(np.max(np.abs(tree - cf))))
    ok = worst <= 1e-9
    report(2, "product tree vs characteristic function", ok,
           f"max per-entry gap {worst:.2e} at n up to 2000")
    assert ok


def test_criterion_3_shortcut_convergence():
    windows = (10, 50, 100, 200, 500)
    rows = run_convergence_experiment(windows, trials=1000, seed=MASTER_SEED + 2)
    by_metric = {
        metric: {r.window: r.mean_abs_error for r in rows if r.metric == metric}
        for metric in ("recall", "f1")
    }
    at_100 = {m: by_metric[m][100] for m in by_metric}
    ok = all(v < 0.002 for v in at_100.values())
    for metric, series in by_metric.items():
        values = [series[w] for w in windows]
        inversions = sum(values[i + 1] > values[i] for i in range(len(values) - 1))
        ok = ok and inversions <= 1
    report(3, "shortcut estimator convergence", ok,
           f"mean abs error at window 100: recall {at_100['recall']:.2e}, "
           f"f1 {at_100['f1']:.2e}; monotone within one inversion")
    assert ok


def test_criterion_4_hdi_coverage():
    rows = run_coverage_experiment(
        (500,), trials=2000, alphas=(0.05, 0.1), seed=MASTER_SEED + 3
    )
    brackets = {0.05: (0.93, 0.98), 0.1: (0.88, 0.94)}
    ok = True
    pieces = []
    for row in rows:
        low, high = brackets[row.alpha]
        ok = ok and row.trials >= 1900 and low <= row.coverage <= high
        pieces.append(f"{row.metric}@{1 - row.alpha:.0%}={row.coverage:.3f}")
    report(4, "interval coverage at window 500", ok, ", ".join(pieces))
    assert ok


def test_criterion_5_tp_fraction_unbiasedness():
    rng = np.random.default_rng(MASTER_SEED + 4)
    scores = rng.beta(2, 2, size=400)
    positive = threshold_predictions(scores) == 1
    n_pos = int(positive.sum())
    assert n_pos >= 50
    trials = 10_000
    draws = rng.random((trials, n_pos)) < scores[positive]
    observed = float(draws.mean(axis=1).mean())
    target = float(scores[positive].mean())
    bound = 4 * np.sqrt(1 / (4 * n_pos * trials))
    gap = abs(observed - target)
    ok = gap <= bound
    report(5, "TP-fraction unbiasedness", ok,
           f"|{observed:.6f} - {target:.6f}| = {gap:.2e} <= {bound:.2e}")
    assert ok


def test_criterion_6_derived_mass_conservation():
    rng = np.random.default_rng(MASTER_SEED + 5)
    worst = 0.0
    for _ in range(1000):
        scores = rng.random(200)
        predictions = rng.integers(0, 2, 200)
        est = estimate_confusion(PredictionBatch.from_arrays(predictions, scores))
        for dist in (recall_distribution(est), f1_distribution(est)):
            if dist is not None:
                worst = max(worst, abs(float(dist.probabilities.sum()) - 1.0))
    ok = worst <= 1e-9
    report(6, "derived distribution mass conservation", ok,
           f"max |sum - 1| = {worst:.2e} over 1000 batches of 200")
    assert ok


def test_criterion_7_hdi_greedy_against_brute_force():
    # Unimodal probability profiles: there the lighter endpoint is the
    # global minimum of the remaining run, so greedy endpoint-dropping is
    # optimal and must reproduce the unique smallest qualifying run.
    rng = np.random.default_rng(MASTER_SEED + 6)
    compared = 0
    mismatches = 0
    min_mass_ok = True
    for _ in range(500):
        k = int(rng.integers(3, 31))
        values = np.sort(rng.random(k))
        raw = rng.random(k) + 1e-3
        peak = int(rng.integers(0, k))
        probs = np.concatenate(
            [np.sort(raw[: peak + 1]), np.sort(raw[peak + 1 :])[::-1]]
        )
        probs /= probs.sum()
        dist = distribution(
            {
                Fraction(v).limit_denominator(10**9): p
                for v, p in zip(values, probs)
            }
        )
        alpha = float(rng.choice([0.05, 0.1, 0.2, 0.3]))
        interval = hdi(dist, alpha)
        min_mass_ok = min_mass_ok and interval.covered_mass >= 1 - alpha - 1e-12
        spans = contiguous_spans(dist.float_values, dist.probabilities, alpha)
        smallest = min(hi - lo for lo, hi in spans)
        best = [s for s in spans if s[1] - s[0] == smallest]
        if len(best) != 1:
            continue
        compared += 1
        lo, hi = best[0]
        if not (
            interval.lower == dist.float_values[lo]
            and interval.upper == dist.float_values[hi]
        ):
            mismatches += 1
    ok = min_mass_ok and mismatches == 0 and compared >= 100
    report(7, "greedy interval vs brute force", ok,
           f"coverage >= 1-alpha on all 500; {compared} unique optima, "
           f"{mismatches} mismatches")
    assert ok


def test_criterion_8_derivation_speed_at_window_500():
    rng = np.random.default_rng(MASTER_SEED + 7)
    scores = rng.random(500)
    est = estimate_confusion(
        PredictionBatch.from_arrays(threshold_predictions(scores), scores)
    )
    t0 = time.perf_counter()
    recall_distribution(est)
    t_recall = time.perf_counter() - t0
    t0 = time.perf_counter()
    f1_distribution(est)
    t_f1 = time.perf_counter() - t0
    ok = t_recall < 10.0 and t_f1 < 10.0
    report(8, "window-500 derivation speed", ok,
           f"recall {t_recall * 1000:.0f} ms, f1 {t_f1 * 1000:.0f} ms (limit 10 s each)")
    assert ok


def test_criterion_9_synthetic_covariate_shift_accuracy():
    windows = 200
    window_size = 1000
    config = HypersphereConfig(
        n_dims=10, n_points=windows * window_size, seed=MASTER_SEED + 8
    )
    shifted = shift_dataset(config)
    calibration = ace(shifted.batch, 15)
    errors = {metric: [] for metric in METRICS}
    for w in range(windows):
        window = shifted.batch[w * window_size : (w + 1) * window_size]
        realized = true_metrics(window)
        for estimate in estimate_all(window, method="exact"):
            actual = getattr(realized, estimate.metric)
            if estimate.point is not None and actual is not None:
                errors[estimate.metric].append(abs(estimate.point - actual))
    mae = {metric: float(np.mean(v)) for metric, v in errors.items()}
    ok = calibration.ace < 0.02 and all(v < 0.03 for v in mae.values())
    detail = ", ".join(f"{m} MAE {v:.4f}" for m, v in mae.items())
    report(9, "covariate-shift estimation error", ok,
           f"ACE {calibration.ace:.4f}; {detail} over {windows} windows of {window_size}")
    assert ok
