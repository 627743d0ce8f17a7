"""Tests for derived metric distributions and shortcut estimators."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confmetrics import confusion, metrics
from confmetrics.confusion import (
    ConfusionEstimate,
    PredictionBatch,
    estimate_confusion,
    estimate_confusions,
)
from confmetrics.distribution import PROB_SUM_TOL, TRIM_TOL, CountPMF, DiscreteDistribution
from confmetrics.intervals import hdi, hdis
from confmetrics.metrics import (
    METRICS,
    accuracy_distribution,
    f1_distribution,
    precision_distribution,
    recall_distribution,
)
from confmetrics.reports import estimate_all, true_metrics
from confmetrics.synthesis import HypersphereConfig, hypersphere_dataset, shift_dataset
from oracles import (
    aggregate_ratio_masses,
    aggregate_ratio_masses_reference,
    enumerate_metric_distributions,
    estimate_confusion_dp,
    expand,
    f1_distribution_untrimmed,
    fraction_pmf,
    group_ratios_reference,
    pair_cdf_reference,
    pair_mass_reference,
    poisson_binomial_dp,
    random_small_batch,
    recall_distribution_untrimmed,
    shortcut_points_reference,
    tv_distance,
    tv_distance_between,
)


def batch(predictions, scores):
    return PredictionBatch.from_arrays(predictions, scores)


EXAMPLE = batch([1, 1, 0], [0.8, 0.6, 0.3])


def shortcut(b, metric):
    """The shortcut point of one metric on the window ``b``."""
    (estimate,) = estimate_all(b, metrics=(metric,), method="shortcut")
    return estimate.point


def approx_dict(dist):
    return {k: pytest.approx(v, abs=1e-12) for k, v in dist.items()}


class TestAccuracy:
    def test_example_distribution(self):
        d = accuracy_distribution(estimate_confusion(EXAMPLE))
        assert fraction_pmf(d) == {
            Fraction(0): pytest.approx(0.024),
            Fraction(1, 3): pytest.approx(0.188),
            Fraction(2, 3): pytest.approx(0.452),
            Fraction(1): pytest.approx(0.336),
        }

    def test_certain_single_record(self):
        d = accuracy_distribution(estimate_confusion(batch([1], [1.0])))
        assert fraction_pmf(d) == {Fraction(1): 1.0}

    def test_expectation_matches_shortcut(self):
        d = accuracy_distribution(estimate_confusion(EXAMPLE))
        assert d.expectation() == pytest.approx(0.7)
        assert shortcut(EXAMPLE, "accuracy") == pytest.approx(0.7)


    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_poisson_binomial_of_correctness(self, rows):
        # Reference: the correct count is Poisson binomial in the per-row
        # probabilities of being correct, rescaled by the window size.
        predictions = np.array([p for p, _ in rows])
        scores = np.array([s for _, s in rows])
        n = scores.size
        correct = np.where(predictions == 1, scores, 1.0 - scores)
        reference = poisson_binomial_dp(correct)
        got = np.zeros(n + 1)
        for num, den, p in accuracy_distribution(
            estimate_confusion(batch(predictions, scores))
        ).ratios():
            assert (num * n) % den == 0
            got[num * n // den] = p
        assert np.max(np.abs(got - reference)) <= 1e-12


class TestPrecision:
    def test_key_rescaling(self):
        est = estimate_confusion(EXAMPLE)
        d = precision_distribution(est)
        assert fraction_pmf(d) == {
            Fraction(0): pytest.approx(0.08),
            Fraction(1, 2): pytest.approx(0.44),
            Fraction(1): pytest.approx(0.48),
        }
        assert d.expectation() == pytest.approx(0.7)

    def test_certain_point_mass(self):
        est = estimate_confusion(batch([1, 1], [1.0, 1.0]))
        assert fraction_pmf(precision_distribution(est)) == {Fraction(1): 1.0}

    def test_undefined_without_positive_predictions(self):
        est = estimate_confusion(batch([0, 0], [0.3, 0.4]))
        assert precision_distribution(est) is None


class TestRecall:
    def test_example_distribution(self):
        est = estimate_confusion(EXAMPLE)
        d = recall_distribution(est)
        assert fraction_pmf(d) == {
            Fraction(0): pytest.approx(0.08),
            Fraction(1, 2): pytest.approx(0.132),
            Fraction(2, 3): pytest.approx(0.144),
            Fraction(1): pytest.approx(0.644),
        }
        assert d.expectation() == pytest.approx(0.806)

    def test_no_negative_predictions_collapses_to_zero_one(self):
        est = estimate_confusion(batch([1, 1], [0.8, 0.6]))
        d = recall_distribution(est)
        p_tp_zero = 0.2 * 0.4
        assert fraction_pmf(d) == {
            Fraction(0): pytest.approx(p_tp_zero),
            Fraction(1): pytest.approx(1 - p_tp_zero),
        }

    def test_boundary_masses_follow_count_corners(self):
        # Mass at 0 is exactly P(TP=0); mass at 1 is P(FN=0) * (1 - P(TP=0)).
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 16))
            b = batch(rng.integers(0, 2, n), rng.random(n))
            est = estimate_confusion(b)
            d = fraction_pmf(recall_distribution(est))
            p_tp0 = expand(est.tp, est.n_pos)[0]
            p_fn0 = expand(est.fn, est.n_neg)[0]
            assert d.get(Fraction(0), 0.0) == pytest.approx(p_tp0, abs=1e-12)
            assert d.get(Fraction(1), 0.0) == pytest.approx(
                p_fn0 * (1 - p_tp0), abs=1e-12
            )


class TestF1:
    def test_example_distribution(self):
        est = estimate_confusion(EXAMPLE)
        d = f1_distribution(est)
        assert fraction_pmf(d) == {
            Fraction(0): pytest.approx(0.08),
            Fraction(1, 2): pytest.approx(0.132),
            Fraction(2, 3): pytest.approx(0.308),
            Fraction(4, 5): pytest.approx(0.144),
            Fraction(1): pytest.approx(0.336),
        }

    def test_perfect_predictions(self):
        est = estimate_confusion(batch([1, 1], [1.0, 1.0]))
        assert fraction_pmf(f1_distribution(est)) == {Fraction(1): 1.0}

    def test_undefined_without_positive_predictions(self):
        est = estimate_confusion(batch([0], [0.9]))
        assert f1_distribution(est) is None


class TestShortcuts:
    def test_accuracy_values(self):
        assert shortcut(EXAMPLE, "accuracy") == pytest.approx(0.7)
        assert shortcut(batch([1, 0], [0.5, 0.5]), "accuracy") == pytest.approx(0.5)
        assert shortcut(batch([1, 0], [1.0, 0.0]), "accuracy") == pytest.approx(1.0)

    def test_precision_values(self):
        assert shortcut(EXAMPLE, "precision") == pytest.approx(0.7)
        assert shortcut(batch([1], [1.0]), "precision") == pytest.approx(1.0)
        assert shortcut(batch([0], [0.4]), "precision") is None

    def test_recall_formula(self):
        assert shortcut(EXAMPLE, "recall") == pytest.approx(1.4 / 1.7)
        assert shortcut(batch([1, 1], [0.2, 0.9]), "recall") == pytest.approx(1.0)
        assert shortcut(batch([0, 0], [0.0, 0.0]), "recall") is None

    def test_f1_formula(self):
        assert shortcut(EXAMPLE, "f1") == pytest.approx(2.8 / 3.7)
        assert shortcut(batch([1, 1], [1.0, 1.0]), "f1") == pytest.approx(1.0)
        assert shortcut(batch([0], [0.4]), "f1") is None

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_accuracy_and_precision_shortcuts_are_identities(self, rows):
        b = batch([p for p, _ in rows], [s for _, s in rows])
        assert shortcut(b, "accuracy") == pytest.approx(
            accuracy_distribution(estimate_confusion(b)).expectation(), abs=1e-9
        )
        est = estimate_confusion(b)
        d = precision_distribution(est)
        s = shortcut(b, "precision")
        if d is None:
            assert s is None
        else:
            assert s == pytest.approx(d.expectation(), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 7, 8, 100, 129, 1000, 5000])
    def test_points_equal_per_window_reductions(self, n):
        # Bit identity with one reduction of the window's own arrays per
        # quantity; past 8 and 128 values numpy's pairwise summation changes
        # its order, which a sum in another order would not match.
        rng = np.random.default_rng(n)
        scores = rng.random(n)
        b = batch((scores >= 0.3).astype(int), scores)
        got = {e.metric: e.point for e in estimate_all(b, method="shortcut")}
        assert got == shortcut_points_reference(b)
        # Requested alone, a metric gets the point of the joint request.
        assert {m: shortcut(b, m) for m in METRICS} == got

    def test_recall_f1_shortcut_error_shrinks_with_window(self):
        # Fresh random beta shapes per trial, as in the convergence runner.
        from confmetrics.calibration import threshold_predictions
        from confmetrics.synthesis import random_beta_params, sample_beta_scores

        errors = {}
        for n in (10, 100, 1000):
            gaps = []
            for trial in range(60):
                params = random_beta_params([100, n, trial, 0])
                scores = sample_beta_scores(n, params, [100, n, trial, 1])
                b = batch(threshold_predictions(scores), scores)
                est = estimate_confusion(b)
                approx = shortcut(b, "recall")
                if approx is not None:
                    gaps.append(
                        abs(recall_distribution(est).expectation() - approx)
                    )
            errors[n] = float(np.mean(gaps))
        assert errors[10] >= errors[100] >= errors[1000]
        assert errors[100] < 1e-3


def test_window_sizes_are_the_lengths_of_the_slices():
    for n in range(1, 301):
        b = batch(np.ones(n, dtype=int), np.full(n, 0.5))
        for window in {1, 2, 7, n - 1, n, n + 1, 2**62} - {0}:
            sizes = metrics._window_sizes(n, window)
            assert sizes.dtype == np.int64
            slices = [b[s : s + window].n for s in range(0, n, window)]
            assert sizes.tolist() == slices, (n, window)


@pytest.mark.parametrize("window", [1, 7, 100])
def test_window_sums_equal_per_slice_sums(window):
    # Each window's sums are taken as if its slice stood alone: the reshape's
    # rows must add each window's terms in the order and pairing that the
    # slice's own sum does, and the trailing partial window likewise.
    rng = np.random.default_rng(window)
    n = 40 * window + window // 2 + 1
    scores = rng.random(n)
    predictions = (rng.random(n) < rng.random(n)).astype(np.int8)
    predictions[: 3 * window] = 0  # windows without positive predictions
    labels = (rng.random(n) < scores).astype(np.int8)
    for outcomes in (scores, labels):
        sums = metrics._window_quantities(predictions, outcomes, window)
        tp = np.array(
            [np.where(predictions[s : s + window] == 1, outcomes[s : s + window], 0).sum()
             for s in range(0, n, window)]
        )
        assert sums["tp"].dtype == tp.dtype and sums["tp"].tobytes() == tp.tobytes()
        assert sums["tp"][:3].tolist() == [0, 0, 0]
        for index, start in enumerate(range(0, n, window)):
            alone = metrics._window_quantities(
                predictions[start : start + window], outcomes[start : start + window], window
            )
            for name, column in sums.items():
                assert column[index : index + 1].tobytes() == alone[name].tobytes(), (index, name)


@st.composite
def certain_windows(draw):
    """A labelled window of 1-12 rows whose scores are all 0 or 1, each
    label equal to its score; predictions mixed, all positive or all
    negative."""
    n = draw(st.integers(min_value=1, max_value=12))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    prediction = draw(st.sampled_from([st.integers(0, 1), st.just(0), st.just(1)]))
    predictions = draw(st.lists(prediction, min_size=n, max_size=n))
    return PredictionBatch.from_arrays(predictions, np.array(labels, dtype=float), labels)


class TestReadersAgree:
    @settings(deadline=None, max_examples=300)
    @given(certain_windows())
    def test_exact_shortcut_and_realized_read_the_same_rows(self, b):
        # With every score 0 or 1 the counts are certain, so the three
        # readers evaluate each row on the same counts.
        exact = {e.metric: e.point for e in estimate_all(b)}
        approx = {e.metric: e.point for e in estimate_all(b, method="shortcut")}
        realized = true_metrics(b)
        n_pos = int(b.predictions.sum())
        positives = int(b.labels.sum())
        for m in METRICS:
            got, want = (exact[m], approx[m]), getattr(realized, m)
            if m == "f1" and n_pos == 0:
                # Undefined for both estimates; realized, 0 / FN when FN > 0.
                assert got == (None, None)
                assert want == (0.0 if positives else None)
            elif m == "recall" and positives == 0:
                # The distribution reads 0/0 as 0.
                assert got == (0.0, None) and want is None
            elif want is None:
                assert got == (None, None)
            else:
                assert got == pytest.approx((want, want), rel=1e-12)


class TestOracleEquivalence:
    def test_small_batches_match_label_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            predictions, scores = random_small_batch(rng)
            b = batch(predictions, scores)
            est = estimate_confusion(b)
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
                else:
                    assert tv_distance(derived[metric], reference[metric]) <= 1e-9

    def test_zero_count_row_and_column_holding_most_mass(self):
        # Scores near 0.02 put most of the mass on zero true positives and
        # zero false negatives, which only the pair formula places.
        rng = np.random.default_rng(78)
        untrimmed = 0
        for _ in range(60):
            n = int(rng.integers(1, 13))
            predictions = rng.integers(0, 2, size=n)
            scores = rng.uniform(0.0, 0.04, size=n)
            est = estimate_confusion(batch(predictions, scores))
            reference = enumerate_metric_distributions(predictions.tolist(), scores.tolist())
            assert fraction_pmf(recall_distribution(est))[Fraction(0)] > 0.5
            for metric, derive, grid in (
                ("recall", recall_distribution, recall_distribution_untrimmed),
                ("f1", f1_distribution, f1_distribution_untrimmed),
            ):
                d = derive(est)
                if reference[metric] is None:
                    assert d is None and grid(est) is None
                    continue
                assert tv_distance(d, reference[metric]) <= 1e-9
                if d.trimmed_mass == 0.0:
                    assert d == grid(est)
                    untrimmed += 1
                else:
                    assert tv_distance_between(d, grid(est)) <= 1e-15
        assert untrimmed >= 20

    def test_mass_conservation_on_moderate_windows(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            scores = rng.random(120)
            b = batch((scores >= 0.5).astype(int), scores)
            est = estimate_confusion(b)
            for dist in (recall_distribution(est), f1_distribution(est)):
                assert abs(dist.probabilities.sum() - 1.0) <= 1e-9
                assert dist.float_values.min() >= 0.0
                assert dist.float_values.max() <= 1.0

    def test_float_values_are_quotients_of_reduced_fractions(self):
        rng = np.random.default_rng(16)
        for n in (1, 7, 120, 600):
            scores = rng.random(n)
            est = estimate_confusion(batch((scores >= 0.5).astype(int), scores))
            for derive in (
                accuracy_distribution,
                precision_distribution,
                recall_distribution,
                f1_distribution,
            ):
                dist = derive(est)
                if dist is None:
                    continue
                quotients = np.array([num / den for num, den, _ in dist.ratios()])
                assert dist.float_values.tobytes() == quotients.tobytes()

    def test_recall_and_f1_equal_gcd_keyed_aggregation(self, monkeypatch):
        # Every pair table, shared by a stream's windows or a window's own,
        # is grouped once more by the gcd-keyed reference; each derived
        # distribution must come out the same.
        rng = np.random.default_rng(31)
        windows = []
        for _ in range(40):
            n = int(rng.integers(1, 301))
            scores = rng.random(n)
            if rng.random() < 0.3:
                scores = np.round(scores, 1)  # repeated scores, tied masses
            predictions = (
                rng.integers(0, 2, size=n) if rng.random() < 0.5 else (scores >= 0.5)
            )
            windows.append(batch(predictions.astype(int), scores))
        scores = rng.random(3000)
        stream = batch((scores >= 0.5).astype(int), scores)
        windows += [stream[a : a + 300] for a in range(0, 3000, 300)]

        def derive():
            alone = [estimate_confusion(w) for w in windows]
            together = [est for _, est in estimate_confusions(windows)]
            return [(recall_distribution(e), f1_distribution(e)) for e in alone + together]

        new = derive()
        tables = []

        def reference(scale, i0, i1, s0, s1):
            i = np.arange(i0, i1, dtype=np.int64)[:, None]
            dens = (i + np.arange(s0, s1, dtype=np.int64)).ravel()
            dens[dens == 0] = 1
            nums = np.broadcast_to(scale * i, (i1 - i0, s1 - s0)).ravel()
            tables.append((i1 - i0) * (s1 - s0))
            order, labels, first = group_ratios_reference(nums, dens)
            groups = metrics._RatioGroups(order, labels, nums[first], dens[first])
            return metrics._PairTable(i0, i1, s0, s1, groups)

        monkeypatch.setattr(metrics, "_pair_table", reference)
        old = derive()
        assert new == old
        # The windows alone build two tables each, or one without positive
        # predictions; the stream's windows share some.
        assert len(tables) < 4 * len(windows)


def trimming_window(kind, n):
    """A seeded window for the trimming tests: calibrated hypersphere
    scores, uniform scores, or a certain or one-sided degenerate window."""
    if kind == "hypersphere":
        return shift_dataset(HypersphereConfig(n_dims=5, n_points=n, seed=n)).batch
    scores = np.random.default_rng(n).random(n)
    predictions = (scores >= 0.5).astype(int)
    if kind == "certain":
        scores = np.round(scores)
    elif kind == "all-zero":
        scores = np.zeros(n)
    elif kind == "all-one":
        scores = np.ones(n)
    elif kind == "no-positive":
        predictions = np.zeros(n, dtype=int)
    elif kind == "no-negative":
        predictions = np.ones(n, dtype=int)
    return batch(predictions, scores)


TRIMMING_WINDOWS = [
    (kind, n) for kind in ("hypersphere", "uniform") for n in (50, 300, 1000, 4000)
] + [
    (kind, n)
    for kind in ("certain", "all-zero", "all-one", "no-positive", "no-negative")
    for n in (1, 40)
]


@pytest.fixture(scope="module")
def whole_file():
    """A whole-file window far beyond the untrimmed references' reach, with
    its recall and F1 distributions and the scale and fixed denominator
    part of each."""
    b = hypersphere_dataset(HypersphereConfig(n_dims=3, n_points=100_000, seed=7)).batch
    est = estimate_confusion(b)
    return est, [(recall_distribution(est), 1, 0), (f1_distribution(est), 2, est.n_pos)]


def test_whole_file_recall_and_f1_masses_equal_the_pair_free_reader(whole_file):
    # Half of the points are drawn from those whose value two or more rows
    # can reach, so that sums of several pairs are read as well as single
    # ones.
    est, derived = whole_file
    rng = np.random.default_rng(11)
    for dist, scale, fixed in derived:
        nums, dens = dist._reduced()
        rows_apart = nums // np.gcd(nums, scale)
        positive = np.flatnonzero(nums > 0)
        several = np.flatnonzero((nums > 0) & (2 * rows_apart < est.tp.pmf.size))
        picked = np.concatenate(
            [rng.choice(positive, 1000, replace=False), rng.choice(several, 1000, replace=False)]
        ).tolist()
        got = [pair_mass_reference(est, scale, fixed, int(nums[k]), int(dens[k])) for k in picked]
        assert got == dist.probabilities[picked].tolist()


def test_whole_file_mass_at_or_below_a_point_equals_the_pair_free_reader(whole_file):
    # The grid's masses at or below each point are summed by math.fsum, not
    # by cumsum, whose rounding over these 1.1M points reached 5.5e-13.
    # The grid rounds each pair's product and each addition in a group,
    # the reader each survival and each row's product: both stay within a
    # few units in the last place of the exact sum.
    est, derived = whole_file
    rng = np.random.default_rng(13)
    for dist, scale, fixed in derived:
        nums, dens = dist._reduced()
        picked = np.sort(rng.choice(np.flatnonzero(nums > 0), 200, replace=False)).tolist()
        got = pair_cdf_reference(est, scale, fixed, [(int(nums[k]), int(dens[k])) for k in picked])
        # fsum of each prefix, one segment at a time: the sum so far is
        # carried as its float and the float of what that leaves out.
        carry, start, want = [], 0, []
        for stop in (k + 1 for k in picked):
            terms = carry + dist.probabilities[start:stop].tolist()
            total = math.fsum(terms)
            carry, start = [total, math.fsum(terms + [-total])], stop
            want.append(total)
        assert np.abs(np.array(got) - want).max() <= 2**-50


def test_sort_keys_wider_than_an_int64_take_the_stable_argsort(monkeypatch):
    # Count offsets of 2**24 put recall's denominators near 2**25 and F1's
    # near 3 * 2**24, below the 2**26 bound, so each key holds a 53-bit
    # bucket, and 3600 pairs take 12 index bits: 66 bits in all.
    rng = np.random.default_rng(17)
    tp_pmf, tn_pmf = (p / p.sum() for p in rng.random((2, 60)))
    n_pos, n_neg = 2**24 + 100, 2**24 + 200
    tn = CountPMF(n_neg - 2**24 - 59, tn_pmf, 0.0)
    est = ConfusionEstimate(CountPMF(2**24, tp_pmf, 0.0), tn, n_pos, n_neg)
    assert est.fn.offset == 2**24
    sorts = []
    argsort = np.argsort

    def recorded(keys, kind=None):
        sorts.append(kind)
        return argsort(keys, kind=kind)

    monkeypatch.setattr(np, "argsort", recorded)
    for derive, scale, fixed in ((recall_distribution, 1, 0), (f1_distribution, 2, n_pos)):
        dist = derive(est)
        assert sorts.pop() == "stable" and not sorts
        nums, dens = dist._reduced()
        got = [pair_mass_reference(est, scale, fixed, int(n), int(d)) for n, d in zip(nums, dens)]
        assert got == dist.probabilities.tolist()


class TestTrimming:
    @pytest.mark.parametrize("kind,n", TRIMMING_WINDOWS)
    def test_within_bound_of_untrimmed_derivation(self, kind, n):
        # The reference pairs every count of full-length, untrimmed PMFs
        # built by one convolution per score.
        window = trimming_window(kind, n)
        est = estimate_confusion(window)
        reference = estimate_confusion_dp(window)
        order = np.random.default_rng(n).permutation(n)
        permuted = estimate_confusion(
            batch(window.predictions[order], window.scores[order])
        )
        derivations = (
            (accuracy_distribution, accuracy_distribution),
            (precision_distribution, precision_distribution),
            (recall_distribution, recall_distribution_untrimmed),
            (f1_distribution, f1_distribution_untrimmed),
        )
        for derive, derive_reference in derivations:
            trimmed = derive(est)
            full = derive_reference(reference)
            assert derive(permuted) == trimmed
            if full is None:
                assert trimmed is None
                continue
            assert 0.0 <= trimmed.trimmed_mass <= TRIM_TOL
            assert full.trimmed_mass == 0.0
            assert tv_distance_between(trimmed, full) <= 1e-15
            assert abs(trimmed.expectation() - full.expectation()) <= 2e-15
            if trimmed.trimmed_mass == 0.0:
                assert trimmed == full
            for alpha in (0.05, 0.1, 0.2):
                got = hdi(trimmed, alpha)
                want = hdi(full, alpha)
                assert (got.lower, got.upper) == (want.lower, want.upper)

    def test_support_grows_linearly_not_quadratically(self):
        # At n = 4000 untrimmed recall and F1 have about 1.2M and 1.5M
        # support points; trimmed, about 0.1M each.
        est = estimate_confusion(trimming_window("hypersphere", 4000))
        assert len(recall_distribution(est)) < 150_000
        assert len(f1_distribution(est)) < 150_000


class TestRatioGrouping:
    BOUND = 2**26

    def test_rejects_denominator_at_bound(self):
        for den in (self.BOUND, self.BOUND + 5):
            with pytest.raises(ValueError, match="denominator"):
                aggregate_ratio_masses(
                    np.array([1, 1]), np.array([2, den]), np.array([0.5, 0.5])
                )

    def test_separates_nearest_fractions_below_bound(self):
        # (b-1)/b and (b-2)/(b-1) are adjacent fractions 1/(b(b-1)) apart,
        # the closest two ratios with denominators below the bound can be.
        b = self.BOUND - 1
        k = (self.BOUND - 1) // 2
        d = aggregate_ratio_masses(
            np.array([b - 1, b - 2, k, 1]),
            np.array([b, b - 1, 2 * k, 2]),
            np.array([0.25, 0.25, 0.25, 0.25]),
        )
        assert list(fraction_pmf(d)) == [Fraction(1, 2), Fraction(b - 2, b - 1), Fraction(b - 1, b)]
        assert d.probabilities.tolist() == [0.5, 0.25, 0.25]



@st.composite
def ratio_masses(draw):
    """Flat unreduced ratios in [0, 1] and masses summing to one: repeated
    fractions, in lowest terms and scaled, groups of up to 36 pairs, zero
    masses, and sometimes a few denominators just below 2**26."""
    near_bound = draw(st.booleans())
    if near_bound:
        # Numerators just below the denominator make the closest fractions.
        fraction = st.integers(2**26 - 8, 2**26 - 1).flatmap(
            lambda d: st.tuples(st.integers(0, d) | st.integers(d - 3, d), st.just(d))
        )
        fractions = draw(st.lists(fraction, min_size=1, max_size=4))
    else:
        fraction = st.integers(1, 40).flatmap(
            lambda d: st.tuples(st.integers(0, d), st.just(d))
        )
        fractions = draw(st.lists(fraction, min_size=1, max_size=12))
    nums, dens, weights = [], [], []
    for num, den in fractions:
        for _ in range(draw(st.integers(1, 3 if near_bound else 12))):
            scale = 1 if near_bound else draw(st.integers(1, 3))
            nums.append(num * scale)
            dens.append(den * scale)
            weights.append(draw(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0)))
    order = draw(st.permutations(range(len(nums))))
    w = np.array(weights)[order]
    assume(w.sum() > 0.0)
    return np.array(nums)[order], np.array(dens)[order], w / w.sum()


def aggregate_by_reference(nums, dens, masses):
    return DiscreteDistribution._from_ratio_arrays(
        *aggregate_ratio_masses_reference(nums, dens, masses)
    )


def assert_same_bytes(got, want):
    assert list(got.ratios()) == list(want.ratios())
    assert got.probabilities.tobytes() == want.probabilities.tobytes()
    assert got.float_values.tobytes() == want.float_values.tobytes()


class TestPackedGrouping:
    @settings(deadline=None, max_examples=300)
    @given(ratio_masses())
    def test_matches_gcd_keyed_reference_bit_for_bit(self, case):
        got = aggregate_ratio_masses(*case)
        assert_same_bytes(got, aggregate_by_reference(*case))

    def test_wide_key_fallback_matches_packed_keys(self, monkeypatch):
        rng = np.random.default_rng(5)
        grids = []
        for n in (1, 40, 300, 1000):
            scores = rng.random(n)
            est = estimate_confusion(batch((scores >= 0.5).astype(int), scores))
            grids += [(est, recall_distribution), (est, f1_distribution)]
        packed = [derive(est) for est, derive in grids]
        # No key fits in zero bits, so every grid takes the fallback.
        monkeypatch.setattr(metrics, "_KEY_BITS", 0)
        for (est, derive), want in zip(grids, packed):
            assert_same_bytes(derive(est), want)
        b = 2**26 - 1
        case = (np.array([b - 1, b - 2, 0, 1]), np.array([b, b - 1, b, 2]), np.full(4, 0.25))
        got = aggregate_ratio_masses(*case)
        assert_same_bytes(got, aggregate_by_reference(*case))


def stream(windows):
    """The estimates of ``windows`` from one exact stream, so that the
    windows of a chunk share its pair tables."""
    return [est for _, est in estimate_confusions(windows)]


def count_tables(monkeypatch):
    """Patch the pair-table builder; the returned list gets the scale of
    each table built."""
    built = []
    build = metrics._pair_table

    def recorded(scale, *bounds):
        built.append(scale)
        return build(scale, *bounds)

    monkeypatch.setattr(metrics, "_pair_table", recorded)
    return built


def derive_pairs(est):
    return recall_distribution(est), f1_distribution(est)


def assert_window_as_alone(derived, window_alone):
    """The recall and F1 distributions, and their intervals, derived from
    a stream's window are those of the window estimated alone, bit for
    bit."""
    for got, want in zip(derived, derive_pairs(window_alone)):
        if want is None:
            assert got is None
            continue
        assert_same_bytes(got, want)
        assert got.trimmed_mass == want.trimmed_mass
        assert hdis(got, (0.05, 0.2)) == hdis(want, (0.05, 0.2))


def hypersphere_windows(seed, n, size):
    b = hypersphere_dataset(HypersphereConfig(n_dims=3, n_points=n, seed=seed)).batch
    return [b[a : a + size] for a in range(0, n, size)]


class TestPairTables:
    def test_stationary_windows_of_a_chunk_share_one_table_per_metric(self, monkeypatch):
        window = hypersphere_windows(21, 600, 600)[0]
        built = count_tables(monkeypatch)
        for est in stream([window] * 8):
            derive_pairs(est)
        assert sorted(built) == [1, 2]
        # A stationary stream's windows differ in their count ranges, and
        # still share: at most one of two derivations builds a table.
        built.clear()
        windows = hypersphere_windows(22, 8000, 1000)
        for est in stream(windows):
            derive_pairs(est)
        assert len(built) <= len(windows), built

    def test_each_window_is_bit_identical_to_the_window_alone(self, monkeypatch):
        windows = hypersphere_windows(23, 6000, 1000) + hypersphere_windows(24, 1200, 300)
        built = count_tables(monkeypatch)
        derived = [derive_pairs(est) for est in stream(windows)]
        # The windows of each size read shared tables.
        assert len(built) < len(windows)
        for pair, window in zip(derived, windows):
            assert_window_as_alone(pair, estimate_confusion(window))

    def test_drifting_windows_do_not_share(self, monkeypatch):
        # Each window's scores sit far from the last one's, so their count
        # ranges barely overlap and each window gets a table of its own.
        rng = np.random.default_rng(25)
        windows = []
        for centre in (0.2, 0.45, 0.7, 0.95):
            scores = np.clip(centre + 0.04 * rng.standard_normal(400), 0.0, 1.0)
            windows.append(batch((rng.random(400) < 0.5).astype(int), scores))
        built = count_tables(monkeypatch)
        derived = [derive_pairs(est) for est in stream(windows)]
        assert len(built) == 2 * len(windows)
        for pair, window in zip(derived, windows):
            assert_window_as_alone(pair, estimate_confusion(window))

    def test_edge_windows_in_a_shared_chunk(self):
        rng = np.random.default_rng(26)
        scores = rng.random(300)
        ordinary = batch((scores >= 0.5).astype(int), scores)
        # No positive predictions: F1 is undefined, recall is not.
        no_positive = batch(np.zeros(300, dtype=int), scores)
        # Certain scores: each count PMF is one point.
        certain = batch((scores >= 0.5).astype(int), np.round(scores))
        # Few, uncertain positives and likely negatives: both count ranges
        # start at 0, so recall reads its 0/0 pair.
        low = batch(np.r_[np.ones(4, dtype=int), np.zeros(60, dtype=int)],
                    np.r_[np.full(4, 0.5), np.full(60, 0.02)])
        windows = [ordinary, no_positive, ordinary, certain, certain, low, low, ordinary]
        estimates = stream(windows)
        assert (estimates[5].tp.offset, estimates[5].fn.offset) == (0, 0)
        assert f1_distribution(estimates[1]) is None
        for est, window in zip(estimates, windows):
            assert_window_as_alone(derive_pairs(est), estimate_confusion(window))
        zero = recall_distribution(estimates[5])
        assert list(zero.ratios())[0][:2] == (0, 1)

    def test_a_mass_that_underflows_is_left_out_as_alone(self):
        # Hand-made PMFs whose products underflow to 0.0 at the tails.
        tiny = np.array([1e-200, 0.5 - 1e-200, 0.5 - 1e-200, 1e-200])
        tiny /= tiny.sum()
        wider = np.array([1e-200, 0.25, 0.5, 0.25 - 1e-200, 1e-200])
        windows = [
            (CountPMF(3, tiny, 0.0), CountPMF(2, wider, 0.0), 8, 9),
            (CountPMF(3, tiny, 0.0), CountPMF(3, wider, 0.0), 8, 9),
        ]
        counts = [
            (tp.offset, tp.pmf.size, tn.complement(n_neg).offset, tn.pmf.size, n_pos, n_neg)
            for tp, tn, n_pos, n_neg in windows
        ]
        chunk = confusion._Chunk(np.array(counts, dtype=np.int64))
        for index, window in enumerate(windows):
            shared = ConfusionEstimate(*window, chunk, index)
            alone = ConfusionEstimate(*window)
            assert np.outer(alone.tp.pmf, alone.fn.pmf).min() == 0.0
            assert_window_as_alone(derive_pairs(shared), alone)
            tp, fn = alone.tp, alone.fn
            values = {
                Fraction(i, i + j)
                for i in range(tp.offset, tp.offset + tp.pmf.size)
                for j in range(fn.offset, fn.offset + fn.pmf.size)
            }
            assert len(recall_distribution(alone)) < len(values)  # a group went
        assert len(chunk.tables["recall"].tables) == 1  # the two windows shared


class TestEstimateAll:
    def test_exact_with_intervals(self):
        estimates = estimate_all(EXAMPLE, method="exact", alpha=0.05)
        by_name = {e.metric: e for e in estimates}
        assert set(by_name) == set(METRICS)
        assert by_name["accuracy"].point == pytest.approx(0.7)
        assert by_name["precision"].point == pytest.approx(0.7)
        assert by_name["recall"].point == pytest.approx(0.806)
        for e in estimates:
            assert e.distribution is not None
            assert e.hdi is not None and e.hdi.alpha == 0.05

    def test_shortcut_attaches_points_only(self):
        for e in estimate_all(EXAMPLE, method="shortcut"):
            assert e.distribution is None and e.hdi is None
            assert e.point is not None

    def test_all_negative_batch_flags_precision_and_f1(self):
        estimates = estimate_all(batch([0, 0, 0], [0.2, 0.3, 0.4]), alpha=0.1)
        by_name = {e.metric: e for e in estimates}
        assert by_name["precision"].undefined
        assert by_name["f1"].undefined
        assert not by_name["accuracy"].undefined
        assert not by_name["recall"].undefined

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown"):
            estimate_all(EXAMPLE, metrics=("accuracy", "specificity"))

    @pytest.mark.parametrize("method", ["exact", "shortcut"])
    def test_rejects_repeated_metric(self, method):
        with pytest.raises(ValueError, match=r"more than once: \['recall'\]"):
            estimate_all(EXAMPLE, metrics=("recall", "f1", "recall"), method=method)

    def test_shortcut_rejects_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            estimate_all(EXAMPLE, method="shortcut", alpha=0.05)

    def test_rejects_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            estimate_all(EXAMPLE, method="fast")


@st.composite
def exact_windows(draw):
    """(predictions, scores, row permutation, alpha) for a window of 1-12
    rows; scores all certain (0 or 1) or anywhere in [0, 1], predictions
    mixed, all positive or all negative."""
    n = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        score = st.sampled_from([0.0, 1.0])
    else:
        score = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    scores = draw(st.lists(score, min_size=n, max_size=n))
    prediction = draw(st.sampled_from([st.integers(0, 1), st.just(0), st.just(1)]))
    predictions = draw(st.lists(prediction, min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    alpha = draw(st.floats(min_value=0.001, max_value=0.999))
    return np.array(predictions), np.array(scores), np.array(order), alpha


class TestEstimateAllProperties:
    @settings(deadline=None, max_examples=300)
    @given(exact_windows())
    def test_invariants(self, window):
        predictions, scores, order, alpha = window
        estimates = estimate_all(batch(predictions, scores), alpha=alpha)
        permuted = estimate_all(batch(predictions[order], scores[order]), alpha=alpha)
        n_pos = int(predictions.sum())
        for e, p in zip(estimates, permuted):
            assert e.undefined == (e.metric in ("precision", "f1") and n_pos == 0)
            assert p.point == e.point
            assert p.distribution == e.distribution
            assert p.hdi == e.hdi
            if e.undefined:
                assert e.distribution is None and e.hdi is None
                continue
            d = e.distribution
            assert abs(float(d.probabilities.sum()) - 1.0) <= PROB_SUM_TOL
            assert e.point == d.expectation()
            assert e.hdi.lower <= e.hdi.upper
            assert e.hdi.covered_mass >= 1.0 - alpha


def test_point_is_the_accurately_summed_mean():
    # The recall distribution of 10 000 uniform scores has about 210 000
    # points; a BLAS dot product of values and probabilities was 2.4e-15
    # away from the correctly rounded sum of their products here.
    scores = np.random.default_rng(0).random(10_000)
    d = recall_distribution(estimate_confusion(batch((scores >= 0.5).astype(int), scores)))
    products = (d.float_values * d.probabilities).tolist()
    assert abs(d.expectation() - math.fsum(products)) <= 4.4e-16
