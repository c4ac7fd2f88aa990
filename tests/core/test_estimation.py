"""Tests for error-bound estimation (Section 3.2.4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ErrorEstimator, combined_error_bound, sampling_error_bound
from repro.core.estimation import (
    count_answer_bits,
    estimate_histogram,
    estimate_randomization_loss_curve,
    estimated_variance,
)
from repro.core.query import QueryAnswer
from repro.core.randomized_response import estimate_true_yes


class TestSamplingErrorBound:
    def test_zero_for_full_population(self):
        assert sampling_error_bound([1.0, 2.0, 3.0], population_size=3) == 0.0

    def test_infinite_for_empty_sample(self):
        assert sampling_error_bound([], population_size=100) == float("inf")

    def test_zero_population(self):
        assert sampling_error_bound([], population_size=0) == 0.0

    def test_shrinks_with_larger_samples(self):
        rng = random.Random(1)
        values = [rng.uniform(0, 1) for _ in range(1_000)]
        small = sampling_error_bound(values[:50], population_size=10_000)
        large = sampling_error_bound(values, population_size=10_000)
        assert large < small

    def test_grows_with_confidence_level(self):
        values = [random.Random(2).uniform(0, 1) for _ in range(100)]
        assert sampling_error_bound(values, 10_000, 0.99) > sampling_error_bound(values, 10_000, 0.9)

    def test_zero_variance_sample_has_zero_error(self):
        assert sampling_error_bound([1.0] * 50, population_size=1_000) == 0.0

    def test_variance_finite_population_correction(self):
        """Eq. 4 includes the (U - U')/U finite-population correction."""
        values = [0.0, 1.0] * 25
        nearly_full = estimated_variance(values, population_size=55)
        sparse = estimated_variance(values, population_size=10_000)
        assert nearly_full < sparse

    def test_variance_rejects_small_population(self):
        with pytest.raises(ValueError):
            estimated_variance([1.0, 2.0], population_size=1)


class TestCombinedErrorBound:
    def test_sum_of_components(self):
        assert combined_error_bound(2.0, 3.0) == 5.0

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            combined_error_bound(-1.0, 2.0)


class TestErrorEstimator:
    def test_calibration_loss_reasonable(self):
        estimator = ErrorEstimator(p=0.3, q=0.6, rng=random.Random(5))
        loss = estimator.calibrate_randomized_response(0.6)
        # Table 1: accuracy loss for p=0.3, q=0.6 around 2-3%.
        assert 0.0 < loss < 0.15

    def test_calibration_cached(self):
        estimator = ErrorEstimator(p=0.3, q=0.6, rng=random.Random(5))
        first = estimator.calibrate_randomized_response(0.6)
        second = estimator.calibrate_randomized_response(0.6)
        assert first == second

    def test_calibration_invalid_fraction(self):
        with pytest.raises(ValueError):
            ErrorEstimator(p=0.5, q=0.5).calibrate_randomized_response(1.5)

    def test_higher_p_gives_smaller_calibrated_loss(self):
        low = ErrorEstimator(p=0.3, q=0.6, rng=random.Random(7)).calibrate_randomized_response(0.6)
        high = ErrorEstimator(p=0.9, q=0.6, rng=random.Random(7)).calibrate_randomized_response(0.6)
        assert high < low

    def test_bucket_error_bound_positive_and_finite(self):
        estimator = ErrorEstimator(p=0.9, q=0.6, rng=random.Random(9))
        contributions = [1.0] * 300 + [0.0] * 700
        bound = estimator.bucket_error_bound(
            corrected_values=contributions, population_size=2_000, estimated_count=600.0
        )
        assert 0.0 < bound < float("inf")

    def test_bucket_error_bound_empty_sample_is_infinite(self):
        estimator = ErrorEstimator(p=0.9, q=0.6)
        assert (
            estimator.bucket_error_bound([], population_size=100, estimated_count=0.0)
            == float("inf")
        )

    def test_randomization_error_scales_with_estimate(self):
        estimator = ErrorEstimator(p=0.6, q=0.6, rng=random.Random(11))
        small = estimator.randomization_error(100.0, 0.5)
        large = estimator.randomization_error(1_000.0, 0.5)
        assert large == pytest.approx(10 * small)


def _per_bucket_reference(counts, num_answers, population, p, q, estimator):
    """The per-bucket loop :func:`estimate_histogram` replaced: one
    ``bucket_error_bound`` call (and one contributions list) per bucket."""
    pairs = []
    scale = population / num_answers
    for observed_yes in counts:
        estimate = scale * estimate_true_yes(observed_yes, num_answers, p, q)
        corrected_one = (1.0 - (1.0 - p) * q) / p
        corrected_zero = (0.0 - (1.0 - p) * q) / p
        contributions = [corrected_one] * observed_yes + [corrected_zero] * (
            num_answers - observed_yes
        )
        pairs.append(
            (estimate, estimator.bucket_error_bound(contributions, population, estimate))
        )
    return pairs


class TestSharedHistogramRoutine:
    """Draw-compatibility of the count-keyed window routine."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        num_answers=st.integers(min_value=1, max_value=60),
        distinct=st.integers(min_value=1, max_value=6),
        num_buckets=st.integers(min_value=1, max_value=40),
        num_windows=st.integers(min_value=1, max_value=3),
        p=st.sampled_from([0.3, 0.9, 1.0]),
        q=st.sampled_from([0.0, 0.5, 0.6]),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_pairs_and_same_rng_state_as_the_per_bucket_loop(
        self, seed, num_answers, distinct, num_buckets, num_windows, p, q
    ):
        """Count vectors with heavy repeats, several windows on one estimator
        (so its calibration cache carries over): identical estimates, error
        bounds and calibration-RNG state, window after window."""
        rng = random.Random(seed)
        population = num_answers + rng.randrange(0, 3) * 17
        labels = [f"b{i}" for i in range(num_buckets)]
        kwargs = dict(p=p, q=q, calibration_trials=2, calibration_size=150)
        shared = ErrorEstimator(rng=random.Random(seed), **kwargs)
        reference = ErrorEstimator(rng=random.Random(seed), **kwargs)
        for _ in range(num_windows):
            pool = [rng.randint(0, num_answers) for _ in range(distinct)]
            counts = [rng.choice(pool) for _ in range(num_buckets)]
            histogram = estimate_histogram(
                counts, num_answers, population, labels, p, q, shared, 0.9, (0.0, 60.0)
            )
            expected = _per_bucket_reference(
                counts, num_answers, population, p, q, reference
            )
            assert [(b.estimate, b.error_bound) for b in histogram.buckets] == expected
            assert [b.bucket_index for b in histogram.buckets] == list(range(num_buckets))
            assert histogram.labels() == labels
            assert shared.rng.getstate() == reference.rng.getstate()
            assert shared._rr_loss_cache == reference._rr_loss_cache
        assert histogram.window == (0.0, 60.0)
        assert histogram.num_answers == num_answers
        assert {b.confidence_level for b in histogram.buckets} == {0.9}

    def test_repeated_counts_share_one_error_bound_call(self):
        calls = []

        class Counting(ErrorEstimator):
            def bucket_error_bound(self, corrected_values, population_size, estimated_count):
                calls.append(len(corrected_values))
                return super().bucket_error_bound(
                    corrected_values, population_size, estimated_count
                )

        estimator = Counting(p=0.9, q=0.5, rng=random.Random(3))
        counts = [4, 0, 4, 9, 0, 0, 4, 9]
        estimate_histogram(counts, 20, 40, [str(i) for i in range(8)], 0.9, 0.5, estimator)
        assert calls == [20, 20, 20]  # one per distinct count: 4, 0, 9
        # Nothing is remembered across windows: the next one asks again.
        estimate_histogram(counts, 20, 40, [str(i) for i in range(8)], 0.9, 0.5, estimator)
        assert len(calls) == 6

    def test_empty_window(self):
        estimator = ErrorEstimator(p=0.9, q=0.5, rng=random.Random(3))
        state = estimator.rng.getstate()
        histogram = estimate_histogram([0, 0], 0, 10, ["a", "b"], 0.9, 0.5, estimator)
        assert histogram.estimates() == [0.0, 0.0]
        assert histogram.error_bounds() == [float("inf")] * 2
        assert histogram.window is None
        assert estimator.rng.getstate() == state

    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=1), max_size=7), max_size=12
        ),
        num_buckets=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_answer_bits_matches_the_per_bit_loop(self, rows, num_buckets):
        """Column sums equal the per-answer per-bit loop, including answers
        narrower or wider than the query and an empty window."""
        answers = [
            QueryAnswer(query_id="q", bits=tuple(bits), epoch=index % 3)
            for index, bits in enumerate(rows)
        ]
        expected = [0] * num_buckets
        for answer in answers:
            for index, bit in enumerate(answer.bits[:num_buckets]):
                expected[index] += bit
        counts, num_epochs = count_answer_bits(iter(answers), num_buckets)
        assert counts == expected
        assert num_epochs == max(1, len({answer.epoch for answer in answers}))


class TestErrorDecomposition:
    """Figure 4(b): sampling and randomization errors are independent and additive."""

    def test_loss_curve_decreases_with_p(self):
        fractions = [0.2, 0.5, 0.8]
        loose = estimate_randomization_loss_curve(0.3, 0.6, fractions, num_answers=5_000, seed=1)
        tight = estimate_randomization_loss_curve(0.9, 0.6, fractions, num_answers=5_000, seed=1)
        assert sum(tight) < sum(loose)

    def test_combined_loss_close_to_sum_of_components(self):
        """Run sampling-only, RR-only and combined pipelines; the combined
        accuracy loss should be within the same order as the sum of the two,
        confirming the independence assumption used in the paper."""
        rng = random.Random(31)
        total, yes_fraction = 10_000, 0.6
        true_yes = round(total * yes_fraction)
        answers = [1] * true_yes + [0] * (total - true_yes)
        rng.shuffle(answers)
        s, p, q = 0.6, 0.3, 0.6

        def run_trial() -> tuple[float, float, float]:
            # Sampling only (p = 1).
            sampled = [a for a in answers if rng.random() < s]
            sampling_estimate = (total / len(sampled)) * sum(sampled)
            sampling_loss = abs(true_yes - sampling_estimate) / true_yes
            # Randomized response only (s = 1).
            observed = sum(
                (1 if rng.random() < p else (1 if rng.random() < q else 0)) if a == 1
                else (0 if rng.random() < p else (1 if rng.random() < q else 0))
                for a in answers
            )
            rr_estimate = (observed - (1 - p) * q * total) / p
            rr_loss = abs(true_yes - rr_estimate) / true_yes
            # Combined.
            combined_sample = [a for a in answers if rng.random() < s]
            combined_observed = sum(
                (1 if rng.random() < p else (1 if rng.random() < q else 0)) if a == 1
                else (0 if rng.random() < p else (1 if rng.random() < q else 0))
                for a in combined_sample
            )
            combined_rr = (combined_observed - (1 - p) * q * len(combined_sample)) / p
            combined_estimate = (total / len(combined_sample)) * combined_rr
            combined_loss = abs(true_yes - combined_estimate) / true_yes
            return sampling_loss, rr_loss, combined_loss

        trials = [run_trial() for _ in range(15)]
        mean_sampling = sum(t[0] for t in trials) / len(trials)
        mean_rr = sum(t[1] for t in trials) / len(trials)
        mean_combined = sum(t[2] for t in trials) / len(trials)
        # The combined loss is bounded by (roughly) the sum of the two
        # components and is at least as large as the smaller component.
        assert mean_combined <= 1.8 * (mean_sampling + mean_rr)
        assert mean_combined >= 0.3 * max(mean_sampling, mean_rr)
