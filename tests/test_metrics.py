"""Tests for derived metric distributions and shortcut estimators."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confmetrics import metrics
from confmetrics.confusion import PredictionBatch, estimate_confusion
from confmetrics.distribution import PROB_SUM_TOL, TRIM_TOL, DiscreteDistribution
from confmetrics.intervals import hdi
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
    aggregate_ratio_masses_reference,
    enumerate_metric_distributions,
    estimate_confusion_dp,
    expand,
    f1_distribution_untrimmed,
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
        assert d.as_dict() == {
            Fraction(0): pytest.approx(0.024),
            Fraction(1, 3): pytest.approx(0.188),
            Fraction(2, 3): pytest.approx(0.452),
            Fraction(1): pytest.approx(0.336),
        }

    def test_certain_single_record(self):
        d = accuracy_distribution(estimate_confusion(batch([1], [1.0])))
        assert d.as_dict() == {Fraction(1): 1.0}

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
        assert d.as_dict() == {
            Fraction(0): pytest.approx(0.08),
            Fraction(1, 2): pytest.approx(0.44),
            Fraction(1): pytest.approx(0.48),
        }
        assert d.expectation() == pytest.approx(0.7)

    def test_certain_point_mass(self):
        est = estimate_confusion(batch([1, 1], [1.0, 1.0]))
        assert precision_distribution(est).as_dict() == {Fraction(1): 1.0}

    def test_undefined_without_positive_predictions(self):
        est = estimate_confusion(batch([0, 0], [0.3, 0.4]))
        assert precision_distribution(est) is None


class TestRecall:
    def test_example_distribution(self):
        est = estimate_confusion(EXAMPLE)
        d = recall_distribution(est)
        assert d.as_dict() == {
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
        assert d.as_dict() == {
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
            d = recall_distribution(est).as_dict()
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
        assert d.as_dict() == {
            Fraction(0): pytest.approx(0.08),
            Fraction(1, 2): pytest.approx(0.132),
            Fraction(2, 3): pytest.approx(0.308),
            Fraction(4, 5): pytest.approx(0.144),
            Fraction(1): pytest.approx(0.336),
        }

    def test_perfect_predictions(self):
        est = estimate_confusion(batch([1, 1], [1.0, 1.0]))
        assert f1_distribution(est).as_dict() == {Fraction(1): 1.0}

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
            assert recall_distribution(est).as_dict()[Fraction(0)] > 0.5
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
            windows.append(estimate_confusion(batch(predictions.astype(int), scores)))
        new = [(recall_distribution(e), f1_distribution(e)) for e in windows]

        def reference(nums, dens, masses, trimmed_mass=0.0):
            return DiscreteDistribution._from_ratio_arrays(
                *aggregate_ratio_masses_reference(nums, dens, masses), trimmed_mass
            )

        monkeypatch.setattr(metrics, "_aggregate_ratio_masses", reference)
        old = [(recall_distribution(e), f1_distribution(e)) for e in windows]
        assert new == old


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


def test_whole_file_recall_and_f1_masses_equal_the_pair_free_reader():
    # A whole-file window far beyond the untrimmed references' reach.  Half
    # of the points are drawn from those whose value two or more rows can
    # reach, so that sums of several pairs are read as well as single ones.
    b = hypersphere_dataset(HypersphereConfig(n_dims=3, n_points=100_000, seed=7)).batch
    est = estimate_confusion(b)
    rng = np.random.default_rng(11)
    for dist, scale, fixed in (
        (recall_distribution(est), 1, 0),
        (f1_distribution(est), 2, est.n_pos),
    ):
        nums, dens = dist._reduced()
        rows_apart = nums // np.gcd(nums, scale)
        positive = np.flatnonzero(nums > 0)
        several = np.flatnonzero((nums > 0) & (2 * rows_apart < est.tp.pmf.size))
        picked = np.concatenate(
            [rng.choice(positive, 1000, replace=False), rng.choice(several, 1000, replace=False)]
        ).tolist()
        got = [pair_mass_reference(est, scale, fixed, int(nums[k]), int(dens[k])) for k in picked]
        assert got == dist.probabilities[picked].tolist()


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
                metrics._aggregate_ratio_masses(
                    np.array([1, 1]), np.array([2, den]), np.array([0.5, 0.5])
                )

    def test_separates_nearest_fractions_below_bound(self):
        # (b-1)/b and (b-2)/(b-1) are adjacent fractions 1/(b(b-1)) apart,
        # the closest two ratios with denominators below the bound can be.
        b = self.BOUND - 1
        k = (self.BOUND - 1) // 2
        d = metrics._aggregate_ratio_masses(
            np.array([b - 1, b - 2, k, 1]),
            np.array([b, b - 1, 2 * k, 2]),
            np.array([0.25, 0.25, 0.25, 0.25]),
        )
        assert d.support == (Fraction(1, 2), Fraction(b - 2, b - 1), Fraction(b - 1, b))
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
        got = metrics._aggregate_ratio_masses(*case)
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
        got = metrics._aggregate_ratio_masses(*case)
        assert_same_bytes(got, aggregate_by_reference(*case))


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
