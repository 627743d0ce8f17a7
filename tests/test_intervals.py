"""Tests for highest-density interval extraction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confmetrics.distribution import DiscreteDistribution
from confmetrics.intervals import hdi, hdis
from oracles import contiguous_spans, distribution, greedy_hdi_reference


def make(values, probs):
    return distribution(dict(zip(values, probs)))


def random_distribution(rng, max_points=30):
    k = int(rng.integers(2, max_points + 1))
    values = np.sort(rng.random(k))
    probs = rng.dirichlet(np.ones(k))
    return make([Fraction(v).limit_denominator(10**9) for v in values], probs)


class TestExamples:
    def test_drops_light_lower_tail(self):
        d = make([0, Fraction(1, 2), 1], [0.02, 0.9, 0.08])
        interval = hdi(d, 0.05)
        assert (interval.lower, interval.upper) == (0.5, 1.0)
        assert interval.covered_mass == pytest.approx(0.98)

    def test_point_mass(self):
        interval = hdi(distribution({0.7: 1.0}), 0.3)
        assert (interval.lower, interval.upper) == (0.7, 0.7)
        assert interval.covered_mass == 1.0

    def test_tie_drops_upper_endpoint_first(self):
        d = make([0, Fraction(1, 3), Fraction(2, 3), 1], [0.25] * 4)
        interval = hdi(d, 0.3)
        assert interval.lower == 0.0
        assert interval.upper == pytest.approx(2 / 3)
        assert interval.covered_mass == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "probs",
        [
            [0.3, 0.4, 0.3 - 5e-10],
            [1.0 - 8e-10],
            [0.5 - 4e-10, 1e-20, 0.5 - 4e-10],
            [0.25] * 3 + [0.25 - 9e-10],
        ],
    )
    def test_alpha_above_total_mass_keeps_one_point(self, probs):
        d = make([Fraction(i, len(probs)) for i in range(len(probs))], probs)
        interval = hdi(d, 0.9999999999)
        assert interval.lower <= interval.upper
        assert interval.covered_mass > 0.0

    def test_trimmed_mass_counts_as_dropped(self):
        # Dropping 0.01 and then 0.03 stays below alpha = 0.045 from zero,
        # but not on top of 0.01 already trimmed, so the lower point stays.
        def ratios(probs, trimmed_mass):
            return DiscreteDistribution._from_ratio_arrays(
                np.array([0, 1, 1]), np.array([1, 2, 1]), np.array(probs), trimmed_mass
            )

        untrimmed = hdi(ratios([0.03, 0.96, 0.01], 0.0), 0.045)
        assert (untrimmed.lower, untrimmed.upper) == (0.5, 0.5)
        d = ratios([0.03, 0.95, 0.01], 0.01)
        interval = hdi(d, 0.045)
        assert (interval.lower, interval.upper) == (0.0, 0.5)
        assert interval.covered_mass >= 1 - 0.045
        lo, hi, covered = greedy_hdi_reference(d.probabilities, 0.045, 0.01)
        assert (lo, hi, covered) == (0, 1, interval.covered_mass)

    def test_restores_a_drop_that_leaves_less_than_nominal_mass(self):
        # The two halves round to one ulp below 0.5: dropping the upper one
        # stays below alpha = 0.5 yet would keep only 0.49999999999999994.
        half = np.nextafter(0.5, 0.0)
        d = make([0, 1], [half, half])
        interval = hdi(d, 0.5)
        assert (interval.lower, interval.upper) == (0.0, 1.0)
        assert interval.covered_mass >= 0.5
        lo, hi, covered = greedy_hdi_reference(d.probabilities, 0.5)
        assert (lo, hi, covered) == (0, 1, interval.covered_mass)

    def test_restores_against_one_minus_alpha_in_float64(self):
        # Dropping the lower point stays below alpha, and keeps 0.9499999991:
        # above float32(1 - alpha) = 0.949999988, but below 1 - float(alpha).
        alpha = np.float32(0.05)
        interval = hdi(make([0, 1], [0.05, 0.9499999991]), alpha)
        assert (interval.lower, interval.upper) == (0.0, 1.0)
        assert interval.covered_mass >= 1 - float(alpha)
        assert type(interval.alpha) is float and interval.alpha == float(alpha)

    def test_zero_trimmed_mass_matches_loop_bit_for_bit(self):
        probs = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        d = DiscreteDistribution._from_ratio_arrays(
            np.arange(5), np.full(5, 4), probs, trimmed_mass=0.0
        )
        for alpha in (0.05, 0.1, 0.25, 0.4):
            lo, hi, covered = greedy_hdi_reference(probs, alpha)
            interval = hdi(d, alpha)
            assert (interval.lower, interval.upper, interval.covered_mass) == (
                lo / 4,
                hi / 4,
                covered,
            )

    def test_rejects_alpha_out_of_range(self):
        d = make([0, 1], [0.5, 0.5])
        # A string alpha used to raise TypeError from the range check.
        for alpha in (0.0, 1.0, -0.2, 1.7, "0.1", None, True, 0.1j):
            with pytest.raises(ValueError, match="alpha"):
                hdi(d, alpha)
            with pytest.raises(ValueError, match="alpha"):
                hdis(d, (0.1, alpha))


class TestCoverage:
    def test_mass_at_least_nominal_on_random_distributions(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = random_distribution(rng)
            alpha = float(rng.uniform(0.01, 0.5))
            interval = hdi(d, alpha)
            assert interval.covered_mass >= 1 - alpha - 1e-12
            assert interval.lower <= interval.upper

    def test_nesting_as_alpha_shrinks(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = random_distribution(rng)
            narrow = hdi(d, 0.3)
            wide = hdi(d, 0.05)
            assert wide.lower <= narrow.lower
            assert narrow.upper <= wide.upper


class TestAgainstBruteForce:
    def test_matches_unique_smallest_run_on_unimodal_profiles(self):
        # With a unimodal probability profile, the lighter endpoint is
        # always the global minimum of the remaining run, so greedy
        # endpoint-dropping is optimal; the interval must then be the
        # unique shortest run whenever one exists.
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(200):
            k = int(rng.integers(3, 31))
            values = np.sort(rng.random(k))
            raw = rng.random(k) + 1e-3
            peak = int(rng.integers(0, k))
            probs = np.concatenate(
                [np.sort(raw[: peak + 1]), np.sort(raw[peak + 1 :])[::-1]]
            )
            probs /= probs.sum()
            d = make([Fraction(v).limit_denominator(10**9) for v in values], probs)
            alpha = float(rng.choice([0.05, 0.1, 0.2, 0.3]))
            interval = hdi(d, alpha)
            spans = contiguous_spans(d.float_values, d.probabilities, alpha)
            smallest = min(hi - lo for lo, hi in spans)
            best = [s for s in spans if s[1] - s[0] == smallest]
            if len(best) != 1:
                continue
            lo, hi = best[0]
            assert interval.lower == d.float_values[lo]
            assert interval.upper == d.float_values[hi]
            checked += 1
        assert checked > 50  # enough unique-optimum cases to be meaningful


# Probability weights before normalising: small integers make exact ties,
# the tiny floats make dust-heavy tails.
weights = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=1e-22, max_value=1e-14),
        st.floats(min_value=1e-3, max_value=1.0),
    ),
    min_size=1,
    max_size=60,
)
alphas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


class TestAgainstLoop:
    @settings(deadline=None, max_examples=300)
    @given(weights, alphas)
    def test_matches_two_pointer_walk_bit_for_bit(self, raw, alpha):
        w = np.array(raw, dtype=np.float64)
        probs = w / w.sum()
        # The walk crosses once alpha exceeds the total mass (covered by
        # test_alpha_above_total_mass_keeps_one_point).
        assume(alpha < float(probs.sum()) - 1e-12)
        d = make([Fraction(i, probs.size) for i in range(probs.size)], probs)
        lo, hi, covered = greedy_hdi_reference(d.probabilities, alpha)
        interval = hdi(d, alpha)
        values = d.float_values
        assert (interval.lower, interval.upper, interval.covered_mass) == (
            float(values[lo]),
            float(values[hi]),
            covered,
        )

    @settings(deadline=None, max_examples=300)
    @given(
        weights,
        alphas,
        st.one_of(st.just(0.0), st.floats(min_value=1e-18, max_value=0.2)),
    )
    def test_trimmed_mass_matches_walk_started_at_it(self, raw, alpha, trimmed):
        w = np.array(raw, dtype=np.float64)
        probs = w / w.sum() * (1.0 - trimmed)
        assume(alpha < 1.0 - 1e-12)
        assume(alpha < float(probs.sum()) + trimmed - 1e-12)
        d = DiscreteDistribution._from_ratio_arrays(
            np.arange(probs.size), np.full(probs.size, probs.size), probs, trimmed
        )
        lo, hi, covered = greedy_hdi_reference(d.probabilities, alpha, trimmed)
        interval = hdi(d, alpha)
        values = d.float_values
        assert (interval.lower, interval.upper, interval.covered_mass) == (
            float(values[lo]),
            float(values[hi]),
            covered,
        )

    @settings(deadline=None, max_examples=300)
    @given(
        weights,
        st.lists(alphas, min_size=1, max_size=6, unique=True),
        st.one_of(st.just(0.0), st.floats(min_value=1e-18, max_value=0.2)),
    )
    def test_one_drop_order_serves_every_alpha(self, raw, alpha_list, trimmed):
        # Integer weights tie masses; the order is taken at the largest
        # alpha and must give each smaller alpha its own interval.
        w = np.array(raw, dtype=np.float64)
        probs = w / w.sum() * (1.0 - trimmed)
        d = DiscreteDistribution._from_ratio_arrays(
            np.arange(probs.size), np.full(probs.size, probs.size), probs, trimmed
        )
        assert hdis(d, alpha_list) == [hdi(d, alpha) for alpha in alpha_list]

    def test_no_alphas_give_no_intervals(self):
        assert hdis(random_distribution(np.random.default_rng(12)), ()) == []

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_alphas_given_as_a_list_or_an_array(self, kind):
        d = random_distribution(np.random.default_rng(11))
        assert hdis(d, kind([0.05, 0.1])) == hdis(d, (0.05, 0.1))
