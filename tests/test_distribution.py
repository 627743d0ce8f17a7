"""Tests for the exact discrete distribution type and Poisson binomial
constructors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confmetrics.distribution import (
    PROB_SUM_TOL,
    TRIM_TOL,
    CountPMF,
    DiscreteDistribution,
    poisson_binomial_tree,
)
from oracles import (
    enumerate_poisson_binomial,
    expand,
    poisson_binomial_cf,
    poisson_binomial_dp,
)

params_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=10
)


def counts(pmf):
    return np.arange(pmf.size)


def poisson_binomial_tree_full(params):
    """The product-tree PMF expanded to the full count range 0..n."""
    return expand(poisson_binomial_tree(params), len(params))


class TestConstruction:
    def test_sorted_support_and_fraction_keys(self):
        d = DiscreteDistribution({1: 0.2, Fraction(1, 2): 0.3, 0: 0.5})
        assert d.support == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert d.probabilities.tolist() == [0.5, 0.3, 0.2]

    def test_float_keys_are_exact(self):
        d = DiscreteDistribution({0.5: 0.6, 0.25: 0.4})
        assert d.support == (Fraction(1, 4), Fraction(1, 2))

    def test_zero_probability_entries_dropped(self):
        d = DiscreteDistribution({0: 0.0, 1: 1.0})
        assert d.as_dict() == {Fraction(1): 1.0}

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDistribution({0: -0.1, 1: 1.1})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution({0: 0.6, 1: 0.6})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteDistribution({})

    def test_rejects_keys_beyond_int64(self):
        with pytest.raises(ValueError, match="64 bits"):
            DiscreteDistribution({1e-300: 0.5, 0.1: 0.5})
        with pytest.raises(ValueError, match="64 bits"):
            DiscreteDistribution({Fraction(2**63, 3): 1.0})

    def test_largest_int64_keys_accepted(self):
        # Fraction(0.1) has a 56-bit denominator.
        d = DiscreteDistribution({0.1: 0.5, Fraction(-(2**63 - 1), 2**63 - 2): 0.5})
        assert d.support == (Fraction(-(2**63 - 1), 2**63 - 2), Fraction(0.1))
        assert d.support[1].denominator == 2**55

    @pytest.mark.parametrize("pmf", [{0: math.nan, 1: 1.0}, {0: math.nan}])
    def test_rejects_nan_probability(self, pmf):
        with pytest.raises(ValueError):
            DiscreteDistribution(pmf)

    def test_derived_distribution_rejects_nan_probability(self):
        one = np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError):
            DiscreteDistribution._from_ratio_arrays(
                np.array([0, 1]), one, np.array([math.nan, 1.0])
            )

    @pytest.mark.parametrize("key", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_key(self, key):
        with pytest.raises(ValueError, match="finite|NaN"):
            DiscreteDistribution({key: 1.0})

    def test_trimmed_mass_defaults_to_zero(self):
        assert DiscreteDistribution({0: 0.5, 1: 0.5}).trimmed_mass == 0.0
        one = np.ones(2, dtype=np.int64)
        d = DiscreteDistribution._from_ratio_arrays(np.array([0, 1]), one, np.array([0.5, 0.5]))
        assert d.trimmed_mass == 0.0

    def test_trimmed_mass_counts_toward_the_sum(self):
        one = np.ones(2, dtype=np.int64)
        probs = np.array([0.5, 0.4])
        d = DiscreteDistribution._from_ratio_arrays(np.array([0, 1]), one, probs, 0.1)
        assert d.trimmed_mass == 0.1
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution._from_ratio_arrays(np.array([0, 1]), one, probs)
        with pytest.raises(ValueError, match="trimmed"):
            DiscreteDistribution._from_ratio_arrays(
                np.array([0, 1]), one, np.array([0.5, 0.6]), -0.1
            )

    def test_equality_compares_trimmed_mass(self):
        one = np.ones(2, dtype=np.int64)
        probs = np.array([0.5, 0.5 - 1e-15])

        def make(trimmed):
            return DiscreteDistribution._from_ratio_arrays(
                np.array([0, 1]), one, probs, trimmed
            )

        assert make(1e-15) == make(1e-15)
        assert make(1e-15) != make(0.0)

    def test_probabilities_are_read_only(self):
        d = DiscreteDistribution({0: 0.5, 1: 0.5})
        with pytest.raises(ValueError):
            d.probabilities[0] = 0.9


class TestPoissonBinomial:
    def test_dp_hand_convolution(self):
        assert poisson_binomial_dp([0.8, 0.6]) == pytest.approx([0.08, 0.44, 0.48])

    def test_dp_empty_is_point_mass_at_zero(self):
        assert poisson_binomial_dp([]).tolist() == [1.0]

    def test_dp_certain_successes(self):
        assert poisson_binomial_dp([1.0, 1.0, 1.0]).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_cf_matches_dp_small(self):
        d = poisson_binomial_dp([0.8, 0.6])
        c = poisson_binomial_cf([0.8, 0.6])
        assert c == pytest.approx(d, abs=1e-9)

    def test_cf_binomial_special_case(self):
        # Equal parameters collapse to a binomial; mass at 8 out of 16 fair
        # trials is exactly 12870/65536.
        d = poisson_binomial_cf([0.5] * 16)
        assert d[8] == pytest.approx(12870 / 65536, abs=1e-9)

    def test_cf_single_impossible_success(self):
        assert poisson_binomial_cf([0.0]).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "builder", [poisson_binomial_dp, poisson_binomial_cf, poisson_binomial_tree]
    )
    def test_rejects_out_of_range_parameter_naming_index(self, builder):
        with pytest.raises(ValueError, match="index 2"):
            builder([0.5, 0.5, 1.5])

    @pytest.mark.parametrize(
        "builder", [poisson_binomial_dp, poisson_binomial_cf, poisson_binomial_tree_full]
    )
    def test_matches_exhaustive_enumeration(self, builder):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n = int(rng.integers(0, 13))
            params = rng.random(n)
            reference = enumerate_poisson_binomial(list(params))
            want = [reference.get(k, 0.0) for k in range(n + 1)]
            assert builder(params) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("builder", [poisson_binomial_dp, poisson_binomial_cf])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_returns_read_only_count_array(self, builder, n):
        pmf = builder(np.full(n, 0.5))
        assert isinstance(pmf, np.ndarray)
        assert pmf.dtype == np.float64 and pmf.shape == (n + 1,)
        with pytest.raises(ValueError):
            pmf[0] = 0.5

    def test_order_of_parameters_is_irrelevant(self):
        rng = np.random.default_rng(7)
        params = rng.random(40)
        shuffled = params.copy()
        rng.shuffle(shuffled)
        a = poisson_binomial_tree(params)
        b = poisson_binomial_tree(shuffled)
        assert (a.offset, a.trimmed) == (b.offset, b.trimmed)
        assert np.array_equal(a.pmf, b.pmf)

    @settings(deadline=None)
    @given(params_lists)
    def test_expectation_is_sum_of_params(self, params):
        d = poisson_binomial_tree_full(params)
        assert counts(d) @ d == pytest.approx(sum(params), abs=1e-9)

    @settings(deadline=None)
    @given(params_lists)
    def test_variance_is_sum_of_bernoulli_variances(self, params):
        d = poisson_binomial_tree_full(params)
        k = counts(d)
        variance = (k * k) @ d - (k @ d) ** 2
        expected = sum(p * (1 - p) for p in params)
        assert variance == pytest.approx(expected, abs=1e-9)

    @settings(deadline=None)
    @given(params_lists)
    def test_mass_sums_to_one(self, params):
        for d in (
            poisson_binomial_dp(params),
            poisson_binomial_cf(params),
            poisson_binomial_tree_full(params),
        ):
            assert abs(d.sum() - 1.0) <= PROB_SUM_TOL
            assert (d >= 0).all()


class TestProductTree:
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17])
    def test_block_edges_match_dp(self, n):
        params = np.random.default_rng(n).random(n)
        got = poisson_binomial_tree(params)
        assert (got.offset, got.pmf.size, got.trimmed) == (0, n + 1, 0.0)
        assert np.max(np.abs(got.pmf - poisson_binomial_dp(params))) <= 1e-15

    def test_empty_is_point_mass_at_zero(self):
        got = poisson_binomial_tree([])
        assert (got.offset, got.pmf.tolist(), got.trimmed) == (0, [1.0], 0.0)

    @pytest.mark.parametrize("n", [1, 16, 17, 40])
    def test_certain_parameters_give_point_masses(self, n):
        for p, offset in ((0.0, 0), (1.0, n)):
            got = poisson_binomial_tree(np.full(n, p))
            assert (got.offset, got.pmf.tolist(), got.trimmed) == (offset, [1.0], 0.0)

    def test_certain_parameters_shift_the_offset(self):
        got = poisson_binomial_tree([0.0, 1.0, 1.0, 0.5, 0.25, 0.0, 1.0])
        assert got.offset == 3
        assert got.pmf.tolist() == [0.375, 0.5, 0.125]
        rng = np.random.default_rng(8)
        params = np.concatenate([np.ones(40), np.zeros(30), rng.random(20)])
        rng.shuffle(params)
        got = poisson_binomial_tree(params)
        assert got.offset >= 40 and got.pmf[0] > 0.0 and got.pmf[-1] > 0.0
        want = poisson_binomial_dp(params)
        assert np.max(np.abs(expand(got, params.size) - want)) <= 1e-15

    @pytest.mark.parametrize("n", [100, 1000, 5000])
    def test_trimmed_tails_stay_within_half_the_bound(self, n):
        params = np.random.default_rng(n).random(n)
        got = poisson_binomial_tree(params)
        assert isinstance(got, CountPMF)
        assert 0.0 < got.trimmed <= TRIM_TOL / 2
        # Sixteen standard deviations at most; the count's variance is below n/4.
        assert got.pmf.size <= 16 * np.sqrt(n / 4)
        # Rounding may move the total by about one ulp per parameter.
        assert abs(got.pmf.sum() + got.trimmed - 1.0) <= n * np.finfo(float).eps
        with pytest.raises(ValueError):
            got.pmf[0] = 0.5
        full = expand(got, n)
        want = poisson_binomial_dp(params)
        assert np.max(np.abs(full - want)) <= TRIM_TOL
        assert abs(counts(full) @ full - counts(want) @ want) <= 1e-9

    def test_complement_is_the_reversed_view(self):
        got = poisson_binomial_tree(np.random.default_rng(4).random(300))
        flipped = got.complement(300)
        assert flipped.pmf.base is got.pmf
        assert np.array_equal(expand(flipped, 300), expand(got, 300)[::-1])
        assert flipped.trimmed == got.trimmed


class TestMoments:
    def test_expectation_example(self):
        d = DiscreteDistribution({0: 0.08, 1: 0.44, 2: 0.48})
        assert d.expectation() == pytest.approx(1.4)

    def test_expectation_point_mass(self):
        assert DiscreteDistribution({0.7: 1.0}).expectation() == 0.7

    def test_expectation_uniform_pair(self):
        assert DiscreteDistribution({0: 0.5, 1: 0.5}).expectation() == pytest.approx(0.5)


def test_cross_method_agreement_medium_sizes():
    rng = np.random.default_rng(99)
    for n in (1, 17, 128):
        params = rng.random(n)
        tree = poisson_binomial_tree_full(params)
        cf = poisson_binomial_cf(params)
        assert np.max(np.abs(tree - cf)) <= 1e-9


def test_expectation_variance_match_math_for_known_binomial():
    n, p = 30, 0.3
    d = poisson_binomial_tree_full([p] * n)
    k = counts(d)
    assert k @ d == pytest.approx(n * p, abs=1e-9)
    assert (k * k) @ d - (k @ d) ** 2 == pytest.approx(n * p * (1 - p), abs=1e-9)
