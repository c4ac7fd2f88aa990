"""Tests for error-bound estimation (Section 3.2.4)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Analyst,
    AnswerSpec,
    ErrorEstimator,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    SystemConfig,
    sampling_error_bound,
)
from repro.core.estimation import (
    bucket_variance,
    count_answer_bits,
    estimate_histogram,
    estimated_variance,
    expected_accuracy_loss,
)
from repro.core.query import QueryAnswer
from repro.core.randomized_response import estimate_true_yes
from repro.core.sampling import t_critical


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


class TestBucketErrorBound:
    """Closed-form pins of the per-bucket bound ``t * sqrt(Var)``."""

    def test_full_census_without_randomization_is_exact(self):
        # s = p = 1: every client answered truthfully.
        estimator = ErrorEstimator()
        for observed_yes in (0, 1, 37, 100):
            assert estimator.bucket_error_bound(observed_yes, 100, 100, 1.0, 0.5) == 0.0

    @pytest.mark.parametrize("observed_yes, num_answers", [(0, 40), (13, 40), (300, 1_000)])
    def test_without_randomization_it_is_the_sampling_bound(self, observed_yes, num_answers):
        bits = [1.0] * observed_yes + [0.0] * (num_answers - observed_yes)
        bound = ErrorEstimator(0.9).bucket_error_bound(observed_yes, num_answers, 2_000, 1.0, 0.6)
        assert bound == pytest.approx(sampling_error_bound(bits, 2_000, 0.9), rel=1e-12)

    def test_full_participation_leaves_the_randomization_margin_only(self):
        # s = 1: the sampling part has no weight; the margin is t * sqrt(U v_rr).
        # 600 Yes bits of 1,000 de-randomize to y = (0.6 - 0.42) / 0.3 = 0.6.
        p, q, population = 0.3, 0.6, 1_000
        pi_1, pi_0 = p + (1 - p) * q, (1 - p) * q
        v_rr = (0.6 * pi_1 * (1 - pi_1) + 0.4 * pi_0 * (1 - pi_0)) / p**2
        expected = t_critical(population, 0.95) * math.sqrt(population * v_rr)
        bound = ErrorEstimator().bucket_error_bound(600, population, population, p, q)
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_fewer_than_two_answers_is_unbounded(self):
        estimator = ErrorEstimator()
        assert estimator.bucket_error_bound(1, 1, 100, 0.9, 0.6) == float("inf")
        assert estimator.bucket_error_bound(0, 0, 100, 0.9, 0.6) == float("inf")
        assert estimator.bucket_error_bound(0, 0, 0, 0.9, 0.6) == 0.0

    def test_positive_and_finite(self):
        bound = ErrorEstimator().bucket_error_bound(300, 1_000, 2_000, 0.9, 0.6)
        assert 0.0 < bound < float("inf")

    def test_randomization_adds_variance(self):
        """RR variance comes on top of the (finite-population corrected) sampling part."""
        n, population, p, q = 400, 1_000, 0.6, 0.5
        sampling_only = bucket_variance(120, n, population, 1.0, q)
        randomized = bucket_variance(120, n, population, p, q)
        assert randomized > sampling_only > 0.0


#: One-hot answers: each client's value falls in one of eight buckets.
COVERAGE_SHARES = (0.3, 0.2, 0.15, 0.1, 0.1, 0.08, 0.05, 0.02)
COVERAGE_CLIENTS = 1_000
COVERAGE_SEEDS = 200
COVERAGE_LEVEL = 0.95


def _coverage_window(seed, s, p, q):
    """One seeded window: exact counts, estimates and bounds of 8 buckets."""
    rng = np.random.default_rng(seed)
    buckets = rng.choice(len(COVERAGE_SHARES), size=COVERAGE_CLIENTS, p=COVERAGE_SHARES)
    truth = np.zeros((COVERAGE_CLIENTS, len(COVERAGE_SHARES)), dtype=np.int8)
    truth[np.arange(COVERAGE_CLIENTS), buckets] = 1
    sampled = truth[rng.random(COVERAGE_CLIENTS) < s]  # each client's coin
    keep = rng.random(sampled.shape) < p
    second_coin = (rng.random(sampled.shape) < q).astype(np.int8)
    bits = np.where(keep, sampled, second_coin)
    histogram = estimate_histogram(
        bits.sum(axis=0).tolist(),
        len(bits),
        COVERAGE_CLIENTS,
        [str(i) for i in range(len(COVERAGE_SHARES))],
        p,
        q,
        COVERAGE_LEVEL,
    )
    return truth.sum(axis=0), np.array(histogram.estimates()), np.array(histogram.error_bounds())


class TestCoverage:
    """``estimate +/- error_bound`` covers the exact count at its level.

    Buckets of one window share one sample, so seeds are the independent
    unit: the tolerance treats each seed's eight buckets as one Bernoulli
    trial (the most conservative design effect) and allows a one-sided
    3.09 standard errors, a 1e-3 false-failure rate.  A bound cannot pass by
    being huge: its mean stays within 1.5x the empirical 95th percentile of
    the absolute error.
    """

    @pytest.mark.parametrize(
        "s, p, q",
        [
            (0.6, 0.6, 0.6),
            (0.3, 0.3, 0.6),
            (0.9, 0.9, 0.5),
            (1.0, 0.3, 0.6),
            (1.0, 0.9, 0.5),
            (0.6, 1.0, 0.5),
            (1.0, 1.0, 0.5),
        ],
    )
    def test_bounds_cover_their_level(self, s, p, q):
        per_seed, bounds, errors = [], [], []
        for seed in range(COVERAGE_SEEDS):
            exact, estimates, bound = _coverage_window(seed, s, p, q)
            error = np.abs(estimates - exact)
            per_seed.append(np.mean(error <= bound))
            bounds.extend(bound)
            errors.extend(error)
        tolerance = 3.09 * math.sqrt(COVERAGE_LEVEL * (1 - COVERAGE_LEVEL) / COVERAGE_SEEDS)
        assert np.mean(per_seed) >= COVERAGE_LEVEL - tolerance
        assert np.mean(bounds) <= 1.5 * np.percentile(errors, 95)


def _per_bucket_reference(counts, num_answers, population, p, q, confidence_level):
    """The per-bucket loop :func:`estimate_histogram` replaced: one
    ``bucket_error_bound`` call per bucket."""
    estimator = ErrorEstimator(confidence_level)
    scale = population / num_answers
    return [
        (
            scale * estimate_true_yes(observed_yes, num_answers, p, q),
            estimator.bucket_error_bound(observed_yes, num_answers, population, p, q),
        )
        for observed_yes in counts
    ]


class TestSharedHistogramRoutine:
    """The count-keyed window routine."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        num_answers=st.integers(min_value=1, max_value=60),
        distinct=st.integers(min_value=1, max_value=6),
        num_buckets=st.integers(min_value=1, max_value=40),
        p=st.sampled_from([0.3, 0.9, 1.0]),
        q=st.sampled_from([0.0, 0.5, 0.6]),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_pairs_as_the_per_bucket_loop(
        self, seed, num_answers, distinct, num_buckets, p, q
    ):
        """Count vectors with heavy repeats: identical estimates and bounds."""
        rng = random.Random(seed)
        population = num_answers + rng.randrange(0, 3) * 17
        labels = [f"b{i}" for i in range(num_buckets)]
        pool = [rng.randint(0, num_answers) for _ in range(distinct)]
        counts = [rng.choice(pool) for _ in range(num_buckets)]
        histogram = estimate_histogram(
            counts, num_answers, population, labels, p, q, 0.9, (0.0, 60.0)
        )
        expected = _per_bucket_reference(counts, num_answers, population, p, q, 0.9)
        assert [(b.estimate, b.error_bound) for b in histogram.buckets] == expected
        assert [b.bucket_index for b in histogram.buckets] == list(range(num_buckets))
        assert histogram.labels() == labels
        assert histogram.window == (0.0, 60.0)
        assert histogram.num_answers == num_answers
        assert {b.confidence_level for b in histogram.buckets} == {0.9}

    def test_repeated_counts_share_one_error_bound_call(self, monkeypatch):
        calls = []
        bound = ErrorEstimator.bucket_error_bound

        def counting(self, observed_yes, num_answers, population, p, q):
            calls.append(observed_yes)
            return bound(self, observed_yes, num_answers, population, p, q)

        monkeypatch.setattr(ErrorEstimator, "bucket_error_bound", counting)
        counts = [4, 0, 4, 9, 0, 0, 4, 9]
        estimate_histogram(counts, 20, 40, [str(i) for i in range(8)], 0.9, 0.5)
        assert calls == [4, 0, 9]  # one per distinct count
        # Nothing is remembered across windows: the next one asks again.
        estimate_histogram(counts, 20, 40, [str(i) for i in range(8)], 0.9, 0.5)
        assert len(calls) == 6

    def test_unseeded_systems_report_identical_bounds_over_the_same_answers(self):
        """The bound is a function of the window's counts: no RNG, no seed."""
        analyst = Analyst("a")
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(buckets=RangeBuckets.uniform(0.0, 4.0, 6), value_column="value"),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        systems = []
        for _ in range(2):
            system = PrivApproxSystem(SystemConfig(num_clients=200))
            system.provision_clients([("value", "REAL")], lambda i: [{"value": i % 5 + 0.5}])
            system.submit_query(
                analyst, query, QueryBudget(), parameters=ExecutionParameters(0.8, 0.6, 0.6)
            )
            systems.append(system)
        systems[0].run_epoch(query.query_id, 0)
        shares = [
            share
            for response in systems[0].responses_log(query.query_id)
            for share in response.encrypted.shares
        ]
        replica = systems[1].aggregator_for(query.query_id)
        replica.ingest_shares(shares, epoch=0)
        ours, theirs = systems[0].flush(query.query_id), replica.flush()
        assert len(ours) == len(theirs) == 1
        assert ours[0].histogram.estimates() == theirs[0].histogram.estimates()
        assert ours[0].histogram.error_bounds() == theirs[0].histogram.error_bounds()

    def test_empty_window(self):
        histogram = estimate_histogram([0, 0], 0, 10, ["a", "b"], 0.9, 0.5)
        assert histogram.estimates() == [0.0, 0.0]
        assert histogram.error_bounds() == [float("inf")] * 2
        assert histogram.window is None

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

    def test_expected_loss_falls_with_p_and_with_s(self):
        loose = expected_accuracy_loss(1.0, 0.3, 0.6, 10_000, 0.6)
        tight = expected_accuracy_loss(1.0, 0.9, 0.6, 10_000, 0.6)
        assert tight < loose
        sparse = expected_accuracy_loss(0.1, 0.3, 0.6, 10_000, 0.6)
        assert sparse > loose

    def test_expected_loss_without_noise_is_zero(self):
        assert expected_accuracy_loss(1.0, 1.0, 0.5, 10_000, 0.6) == 0.0

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
