"""Tests for client-side sampling and the sum estimator (Eqs. 2-4)."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.core import SimpleRandomSampler, StratifiedSampler, estimate_sum
from repro.core.sampling import sample_variance, t_critical


class TestSampleVariance:
    def test_known_variance(self):
        assert sample_variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == pytest.approx(4.571, rel=1e-3)

    def test_constant_values(self):
        assert sample_variance([3.0, 3.0, 3.0]) == 0.0

    def test_fewer_than_two_values(self):
        assert sample_variance([5.0]) == 0.0
        assert sample_variance([]) == 0.0


class TestTCritical:
    def test_matches_normal_for_large_samples(self):
        assert t_critical(10_000, 0.95) == pytest.approx(1.96, abs=0.01)

    def test_wider_for_small_samples(self):
        assert t_critical(5, 0.95) > t_critical(50, 0.95)

    def test_higher_confidence_wider_interval(self):
        assert t_critical(30, 0.99) > t_critical(30, 0.95)

    def test_undefined_for_single_observation(self):
        assert t_critical(1, 0.95) == float("inf")

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            t_critical(30, 1.5)

    def test_memo_returns_the_routines_float(self):
        """A miss, a hit and the unmemoised routine return the same float, bit
        for bit — error bounds (and every digest over them) depend on it."""
        t_critical.cache_clear()
        for sample_size, confidence in [(2, 0.95), (31, 0.9), (320, 0.95), (320, 0.99)]:
            unmemoised = t_critical.__wrapped__(sample_size, confidence)
            miss = t_critical(sample_size, confidence)
            hit = t_critical(sample_size, confidence)
            assert miss.hex() == hit.hex() == unmemoised.hex()
        assert t_critical.cache_info().hits == 4
        assert t_critical.cache_info().misses == 4

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_matches_scipy_to_1e12(self, confidence):
        """``scipy.stats.t.ppf`` is the reference (tests only; the running
        system imports no scipy)."""
        dfs = list(range(1, 2001)) + [10**4, 10**5, 10**6]
        expected = stats.t.ppf(1.0 - (1.0 - confidence) / 2.0, dfs)
        quantile = t_critical.__wrapped__
        worst = max(
            abs(quantile(df + 1, confidence) - reference) / reference
            for df, reference in zip(dfs, expected)
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("confidence", [1e-9, 0.3, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12])
    def test_closed_forms_at_one_and_two_degrees_of_freedom(self, confidence):
        """Far tails too: one degree of freedom is Cauchy, two has a closed form."""
        alpha = 1.0 - confidence
        if confidence < 0.5:  # alpha has lost digits of a small confidence
            cauchy = math.tan(0.5 * math.pi * confidence)
        else:
            cauchy = 1.0 / math.tan(0.5 * math.pi * alpha)
        two = confidence * math.sqrt(2.0 / (alpha * (1.0 + confidence)))
        assert t_critical.__wrapped__(2, confidence) == pytest.approx(cauchy, rel=1e-12)
        assert t_critical.__wrapped__(3, confidence) == pytest.approx(two, rel=1e-12)

    @given(
        st.integers(min_value=2, max_value=10**7),
        st.floats(min_value=1e-6, max_value=1 - 1e-9),
        st.floats(min_value=1e-6, max_value=1 - 1e-9),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_confidence_and_sample_size(self, sample_size, first, second):
        """Up to the routine's precision: neighbours may swap their last bits."""
        low, high = sorted((first, second))
        quantile = t_critical.__wrapped__
        rounding = 1.0 + 1e-12
        assert 0.0 < quantile(sample_size, low) <= quantile(sample_size, high) * rounding
        assert quantile(sample_size + 1, high) <= quantile(sample_size, high) * rounding

    def test_an_uncached_call_costs_under_a_tenth_of_a_millisecond(self):
        quantile = t_critical.__wrapped__
        calls = [
            (df + 1, confidence)
            for df in list(range(1, 2001, 37)) + [10**4, 10**5, 10**6]
            for confidence in (0.90, 0.95, 0.99)
        ]
        best = math.inf
        for _ in range(5):
            started = time.perf_counter()
            for sample_size, confidence in calls:
                quantile(sample_size, confidence)
            best = min(best, (time.perf_counter() - started) / len(calls))
        assert best < 1e-4

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_invalid_confidence_rejected_on_every_call(self, confidence):
        """Exceptions are not memoised: a repeated bad call raises again."""
        for _ in range(2):
            with pytest.raises(ValueError):
                t_critical(30, confidence)


class TestEstimateSum:
    def test_full_sample_is_exact(self):
        values = [1.0, 2.0, 3.0, 4.0]
        estimate = estimate_sum(values, population_size=4)
        assert estimate.estimate == 10.0
        assert estimate.error_bound == 0.0

    def test_scaling_by_population(self):
        # 50 sampled values of 1.0 from a population of 100 -> estimate 100.
        estimate = estimate_sum([1.0] * 50, population_size=100)
        assert estimate.estimate == pytest.approx(100.0)

    def test_empty_sample(self):
        estimate = estimate_sum([], population_size=100)
        assert estimate.estimate == 0.0
        assert estimate.error_bound == float("inf")

    def test_population_smaller_than_sample_rejected(self):
        with pytest.raises(ValueError):
            estimate_sum([1.0, 2.0], population_size=1)

    def test_confidence_interval_contains_truth_usually(self):
        """Coverage check: the 95% interval should contain the true sum most of the time."""
        rng = random.Random(7)
        population = [rng.uniform(0, 10) for _ in range(2_000)]
        true_sum = sum(population)
        hits = 0
        trials = 100
        for _ in range(trials):
            sample = [v for v in population if rng.random() < 0.3]
            estimate = estimate_sum(sample, population_size=len(population))
            if estimate.contains(true_sum):
                hits += 1
        assert hits >= 85  # 95% nominal coverage, generous slack for randomness

    def test_error_shrinks_with_sample_size(self):
        rng = random.Random(3)
        population = [rng.uniform(0, 10) for _ in range(5_000)]
        small = estimate_sum(population[:100], population_size=5_000)
        large = estimate_sum(population[:2_000], population_size=5_000)
        assert large.error_bound < small.error_bound

    def test_sampling_fraction(self):
        estimate = estimate_sum([1.0] * 25, population_size=100)
        assert estimate.sampling_fraction == 0.25

    @given(
        values=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=50),
        extra=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_estimate_scales_linearly_with_population(self, values, extra):
        population = len(values) + extra
        estimate = estimate_sum(values, population_size=population)
        assert estimate.estimate == pytest.approx(population / len(values) * sum(values))


class TestSimpleRandomSampler:
    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            SimpleRandomSampler(1.5)

    def test_extreme_fractions(self):
        assert SimpleRandomSampler(1.0).should_participate()
        assert not SimpleRandomSampler(0.0).should_participate()

    def test_participation_rate_close_to_fraction(self):
        sampler = SimpleRandomSampler(0.3, rng=random.Random(11))
        hits = sum(sampler.should_participate() for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(0.3, abs=0.02)

    def test_select_subsamples_population(self):
        sampler = SimpleRandomSampler(0.5, rng=random.Random(5))
        population = list(range(10_000))
        sample = sampler.select(population)
        assert 4_000 < len(sample) < 6_000
        assert set(sample) <= set(population)

    def test_expected_sample_size(self):
        assert SimpleRandomSampler(0.25).expected_sample_size(400) == 100.0


class TestStratifiedSampler:
    def test_estimate_close_to_truth_with_skewed_strata(self):
        rng = random.Random(13)
        strata = {
            "heavy": [rng.uniform(50, 100) for _ in range(2_000)],
            "light": [rng.uniform(0, 5) for _ in range(8_000)],
        }
        truth = sum(sum(v) for v in strata.values())
        sampler = StratifiedSampler(0.3, rng=random.Random(17))
        estimate = sampler.estimate(strata)
        assert estimate.estimate == pytest.approx(truth, rel=0.05)
        assert estimate.population_size == 10_000

    def test_stratified_beats_srs_on_skewed_data(self):
        """The technical-report motivation: stratification reduces variance."""
        rng = random.Random(23)
        heavy = [rng.uniform(90, 100) for _ in range(500)]
        light = [rng.uniform(0, 1) for _ in range(9_500)]
        population = heavy + light
        truth = sum(population)

        def srs_error() -> float:
            sampler = SimpleRandomSampler(0.2, rng=rng)
            sample = sampler.select(population)
            return abs(estimate_sum(sample, len(population)).estimate - truth)

        def stratified_error() -> float:
            sampler = StratifiedSampler(0.2, rng=rng)
            return abs(sampler.estimate({"heavy": heavy, "light": light}).estimate - truth)

        srs_mean = sum(srs_error() for _ in range(20)) / 20
        stratified_mean = sum(stratified_error() for _ in range(20)) / 20
        assert stratified_mean < srs_mean

    def test_every_stratum_represented(self):
        sampler = StratifiedSampler(0.05, rng=random.Random(29))
        estimate = sampler.estimate({"tiny": [100.0, 101.0], "big": list(range(1000))})
        # Even the tiny stratum contributes at least one observation.
        assert estimate.sample_size >= 2

    def test_empty_strata_rejected(self):
        with pytest.raises(ValueError):
            StratifiedSampler(0.5).estimate({})

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            StratifiedSampler(0.0)
