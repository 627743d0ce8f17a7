"""Tests for the exact discrete distribution type and Poisson binomial
constructors."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confmetrics
from confmetrics.distribution import (
    PROB_SUM_TOL,
    TRIM_TOL,
    CountPMF,
    DiscreteDistribution,
    poisson_binomial_tree,
    poisson_binomial_trees,
)
from oracles import (
    distribution,
    enumerate_poisson_binomial,
    expand,
    fraction_pmf,
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
        d = distribution({1: 0.2, Fraction(1, 2): 0.3, 0: 0.5})
        assert tuple(fraction_pmf(d)) == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert d.probabilities.tolist() == [0.5, 0.3, 0.2]

    def test_float_keys_are_exact(self):
        d = distribution({0.5: 0.6, 0.25: 0.4})
        assert tuple(fraction_pmf(d)) == (Fraction(1, 4), Fraction(1, 2))

    @pytest.mark.parametrize(
        "nums, dens",
        [
            ([1, 2**53 - 1], [2**53 - 1, 3]),
            ([-(2**53), 1, 2**53], [3, 10, 7]),
            ([2, 6, 10], [4, 8, 8]),
        ],
    )
    def test_float_values_are_correctly_rounded_within_2_53(self, nums, dens):
        probs = np.full(len(nums), 1.0 / len(nums))
        d = DiscreteDistribution._from_ratio_arrays(np.array(nums), np.array(dens), probs)
        expected = [float(Fraction(n, m)) for n, m in zip(nums, dens)]
        assert d.float_values.tolist() == expected
        assert [d._value(i) for i in range(len(d))] == expected

    def test_zero_probability_entries_dropped(self):
        d = distribution({0: 0.0, 1: 1.0})
        assert fraction_pmf(d) == {Fraction(1): 1.0}

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            distribution({0: -0.1, 1: 1.1})

    @pytest.mark.parametrize(
        "num, den, shown", [(2, 4, "1/2"), (6, 3, "2"), (0, 5, "0"), (-4, 6, "-2/3")]
    )
    def test_negative_probability_names_its_point_in_lowest_terms(self, num, den, shown):
        # The point is written as str(Fraction(num, den)) writes it.
        with pytest.raises(ValueError) as raised:
            DiscreteDistribution._from_ratio_arrays(
                np.array([-9, num, 9]), np.array([1, den, 1]), np.array([0.6, -0.25, 0.65])
            )
        assert str(raised.value) == f"negative probability -0.25 at support {shown}"

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            distribution({0: 0.6, 1: 0.6})

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="sum"):
            distribution({})

    @pytest.mark.parametrize("pmf", [{0: math.nan, 1: 1.0}, {0: math.nan}])
    def test_rejects_nan_probability(self, pmf):
        with pytest.raises(ValueError):
            distribution(pmf)

    def test_derived_distribution_rejects_nan_probability(self):
        one = np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError):
            DiscreteDistribution._from_ratio_arrays(
                np.array([0, 1]), one, np.array([math.nan, 1.0])
            )

    def test_trimmed_mass_defaults_to_zero(self):
        assert distribution({0: 0.5, 1: 0.5}).trimmed_mass == 0.0
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

    def test_equality_with_another_type_is_left_to_it(self):
        d = distribution({Fraction(1, 2): 1.0})
        assert d.__eq__(0.5) is NotImplemented
        assert d != 0.5 and d != [(1, 2, 1.0)]

    def test_probabilities_are_read_only(self):
        d = distribution({0: 0.5, 1: 0.5})
        with pytest.raises(ValueError):
            d.probabilities[0] = 0.9

    def test_derived_distribution_leaves_the_callers_arrays_writeable(self):
        nums, dens, probs = np.array([0, 1]), np.ones(2, dtype=np.int64), np.array([0.5, 0.5])
        d = DiscreteDistribution._from_ratio_arrays(nums, dens, probs)
        assert nums.flags.writeable and dens.flags.writeable and probs.flags.writeable
        with pytest.raises(ValueError):
            d.probabilities[0] = 0.9

    def test_repr_reduces_only_the_points_it_shows(self, monkeypatch):
        small = distribution({1: 0.2, Fraction(1, 2): 0.3, 0: 0.5})
        unreduced = DiscreteDistribution._from_ratio_arrays(
            np.array([0, 2, 3, 6, 10]), np.array([4, 4, 4, 6, 8]), np.full(5, 0.2)
        )
        # repr used to build a Fraction for every support point, 1.34M of
        # them on a 50 000-row recall distribution, to show four.
        monkeypatch.setattr(DiscreteDistribution, "_reduced", lambda d: pytest.fail("_reduced"))
        assert repr(small) == "DiscreteDistribution({0: 0.5, 1/2: 0.3, 1: 0.2})"
        assert repr(unreduced) == (
            "DiscreteDistribution({0: 0.2, 1/2: 0.2, 3/4: 0.2, 1: 0.2, ...})"
        )

    def test_the_package_imports_no_fractions(self):
        # A support point is read as a reduced integer triple or as a float,
        # so importing the library loads neither fractions nor decimal.
        src = str(Path(confmetrics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", "import confmetrics, sys; assert 'fractions' not in sys.modules"],
            env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60,
        )


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

    def test_rejects_parameter_that_is_not_a_real_number(self):
        match = r"^Bernoulli parameter at index 1 must be a real number, got None$"
        with pytest.raises(ValueError, match=match):
            poisson_binomial_tree([0.5, None])
        with pytest.raises(ValueError, match=match):
            poisson_binomial_trees([[0.5], [0.5, None]])

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


def bernoulli_set(seed, n):
    """n seeded parameters, beta-distributed with a few certain ones, so
    that sets trim, shift their offset or stay whole."""
    rng = np.random.default_rng(seed)
    params = rng.beta(rng.uniform(0.1, 10), rng.uniform(0.1, 10), n)
    params[rng.random(n) < 0.1] = rng.integers(0, 2)
    return params


def same_counts(a, b):
    return (a.offset, a.trimmed, a.pmf.tobytes()) == (b.offset, b.trimmed, b.pmf.tobytes())


class TestSharedLeafPass:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.sampled_from([0, 1, 15, 16, 17, 33, 300]), min_size=1, max_size=7),
        st.integers(0, 2**32 - 1),
    )
    def test_each_set_is_bit_identical_whatever_shares_the_call(self, sizes, seed):
        sets = [bernoulli_set([seed, k], n) for k, n in enumerate(sizes)]
        together = poisson_binomial_trees(sets)
        assert len(together) == len(sets)
        for params, got in zip(sets, together):
            assert same_counts(got, poisson_binomial_tree(params))
        for params, got in zip(sets[::-1], poisson_binomial_trees(sets[::-1])):
            assert same_counts(got, poisson_binomial_tree(params))

    def test_no_sets_and_empty_sets(self):
        assert poisson_binomial_trees([]) == []
        got = poisson_binomial_trees([[], []])
        assert [(c.offset, c.pmf.tolist(), c.trimmed) for c in got] == [(0, [1.0], 0.0)] * 2

    def test_rejects_a_bad_parameter_in_any_set(self):
        match = r"^Bernoulli parameter at index 1 must lie in \[0, 1\], got 1\.5$"
        with pytest.raises(ValueError, match=match):
            poisson_binomial_trees([[0.5] * 20, [0.2, 1.5]])


class TestMoments:
    def test_expectation_example(self):
        d = distribution({0: 0.08, 1: 0.44, 2: 0.48})
        assert d.expectation() == pytest.approx(1.4)

    def test_expectation_point_mass(self):
        assert distribution({0.7: 1.0}).expectation() == 0.7

    def test_expectation_uniform_pair(self):
        assert distribution({0: 0.5, 1: 0.5}).expectation() == pytest.approx(0.5)


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
