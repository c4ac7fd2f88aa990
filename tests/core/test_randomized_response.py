"""Tests for the randomized response mechanism and its estimator (Eqs. 5-6)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RandomizedResponder, estimate_true_yes, rr_accuracy_loss
from repro.core.randomized_response import (
    _byte_tables,
    simulate_randomized_survey,
)


class TestRandomizedResponder:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RandomizedResponder(p=0.0, q=0.5)
        with pytest.raises(ValueError):
            RandomizedResponder(p=0.5, q=1.5)

    def test_p_one_is_always_truthful(self):
        responder = RandomizedResponder(p=1.0, q=0.5, rng=random.Random(1))
        assert all(responder.randomize_bit(1) == 1 for _ in range(100))
        assert all(responder.randomize_bit(0) == 0 for _ in range(100))

    def test_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            RandomizedResponder(p=0.5, q=0.5).randomize_bit(2)

    def test_response_probabilities(self):
        responder = RandomizedResponder(p=0.6, q=0.3)
        assert responder.response_probability(1) == pytest.approx(0.6 + 0.4 * 0.3)
        assert responder.response_probability(0) == pytest.approx(0.4 * 0.3)

    def test_empirical_response_rates_match_probabilities(self):
        responder = RandomizedResponder(p=0.7, q=0.4, rng=random.Random(3))
        trials = 50_000
        yes_given_yes = sum(responder.randomize_bit(1) for _ in range(trials)) / trials
        yes_given_no = sum(responder.randomize_bit(0) for _ in range(trials)) / trials
        assert yes_given_yes == pytest.approx(responder.response_probability(1), abs=0.01)
        assert yes_given_no == pytest.approx(responder.response_probability(0), abs=0.01)

    def test_randomize_vector_length_preserved(self):
        responder = RandomizedResponder(p=0.5, q=0.5, rng=random.Random(5))
        vector = [0, 1, 0, 0, 1, 1, 0]
        assert len(responder.randomize_vector(vector)) == len(vector)

    def test_expected_yes(self):
        responder = RandomizedResponder(p=0.6, q=0.3)
        expected = responder.expected_yes(true_yes=600, total=1000)
        assert expected == pytest.approx(600 * 0.72 + 400 * 0.12)

    def test_expected_yes_invalid_input(self):
        with pytest.raises(ValueError):
            RandomizedResponder(p=0.6, q=0.3).expected_yes(true_yes=11, total=10)


class TestEstimator:
    def test_inverts_expected_value_exactly(self):
        """Plugging the expectation into Eq. 5 recovers the true count exactly."""
        p, q = 0.6, 0.3
        true_yes, total = 600, 1000
        responder = RandomizedResponder(p=p, q=q)
        expected_observed = responder.expected_yes(true_yes, total)
        assert estimate_true_yes(expected_observed, total, p, q) == pytest.approx(true_yes)

    def test_estimator_unbiased_empirically(self):
        rng = random.Random(7)
        p, q = 0.3, 0.6
        true_yes, total = 6_000, 10_000
        estimates = [
            simulate_randomized_survey(true_yes, total, p, q, rng)[1] for _ in range(30)
        ]
        mean_estimate = sum(estimates) / len(estimates)
        assert mean_estimate == pytest.approx(true_yes, rel=0.02)

    def test_estimator_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            estimate_true_yes(10, 100, p=0.0, q=0.5)

    def test_estimator_rejects_negative_total(self):
        with pytest.raises(ValueError):
            estimate_true_yes(10, -1, p=0.5, q=0.5)

    def test_accuracy_loss_matches_metric(self):
        assert rr_accuracy_loss(100.0, 97.0) == pytest.approx(0.03)

    @given(
        p=st.floats(min_value=0.2, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        yes_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_estimator_inverts_expectation_property(self, p, q, yes_fraction):
        total = 10_000
        true_yes = round(total * yes_fraction)
        expected_observed = true_yes * (p + (1 - p) * q) + (total - true_yes) * (1 - p) * q
        recovered = estimate_true_yes(expected_observed, total, p, q)
        assert recovered == pytest.approx(true_yes, abs=1e-6)


class TestPaperMicrobenchmarkShape:
    """Shape assertions corresponding to Table 1's utility column."""

    @pytest.mark.parametrize("p_low,p_high", [(0.3, 0.6), (0.6, 0.9)])
    def test_higher_p_gives_lower_accuracy_loss(self, p_low, p_high):
        total, yes_fraction, trials = 10_000, 0.6, 8

        def mean_loss(p: float) -> float:
            rng = random.Random(99)
            losses = []
            for _ in range(trials):
                true_yes = round(total * yes_fraction)
                _, estimate = simulate_randomized_survey(true_yes, total, p, 0.6, rng)
                losses.append(rr_accuracy_loss(true_yes, estimate))
            return sum(losses) / len(losses)

        assert mean_loss(p_high) < mean_loss(p_low)

    def test_q_close_to_yes_fraction_gives_best_utility(self):
        """Table 1 / Section 3.3.2: utility is best when q matches the Yes fraction.

        The effect is driven by the variance of the randomized "Yes" count, so
        the check compares the analytical estimator variance rather than a
        noisy Monte-Carlo mean.
        """
        total, p = 10_000, 0.3
        yes_fraction = 0.9
        true_yes = round(total * yes_fraction)

        def estimator_variance(q: float) -> float:
            prob_yes = p + (1 - p) * q
            prob_no = (1 - p) * q
            variance_observed = true_yes * prob_yes * (1 - prob_yes) + (
                total - true_yes
            ) * prob_no * (1 - prob_no)
            return variance_observed / (p * p)

        best = estimator_variance(0.9)
        assert best < estimator_variance(0.5)
        assert best < estimator_variance(0.1)

    def test_q_matching_effect_visible_in_simulation(self):
        """The same effect shows up empirically for a strongly skewed population."""
        total, p, trials = 10_000, 0.3, 20
        true_yes = 9_000
        rng = random.Random(123)

        def mean_loss(q: float) -> float:
            losses = []
            for _ in range(trials):
                _, estimate = simulate_randomized_survey(true_yes, total, p, q, rng)
                losses.append(rr_accuracy_loss(true_yes, estimate))
            return sum(losses) / len(losses)

        assert mean_loss(0.9) < mean_loss(0.1)


class _Uniforms:
    """Hands ``randomize_vector`` fixed 32-bit uniforms: their high bytes,
    then the low 24 bits of the bits whose high byte is in ``straddling``,
    recording how many it asks for."""

    def __init__(self, uniforms, straddling):
        self.uniforms = uniforms
        self.straddling = straddling
        self.low_reads = []

    def rr_high(self, num_bits):
        return bytes(u >> 24 for u in self.uniforms[:num_bits])

    def rr_low(self, num_bits, count):
        self.low_reads.append(count)
        lows = [u & 0xFFFFFF for u in self.uniforms[:num_bits] if u >> 24 in self.straddling]
        return b"".join(low.to_bytes(3, "big") for low in lows[:count])


class TestRandomizeVector:
    """One 32-bit uniform per bit, decided by its high byte where it can be."""

    @given(
        p=st.floats(min_value=0.01, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        cells=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 2**32 - 1)), max_size=64
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_two_coin_rule_on_the_full_uniform(self, p, q, cells):
        """``u < p`` keeps the bit, else ``u < p + (1-p) q`` answers 1 —
        whatever the high bytes decided alone; only undecided bits read
        their low 24 bits."""
        bits = [bit for bit, _ in cells]
        keep_below, one_below, *_ = _byte_tables(p, q)
        straddling = {
            high
            for high in range(256)
            if any(high << 24 < t < (high + 1) << 24 for t in (keep_below, one_below))
        }
        uniforms = _Uniforms([u for _, u in cells], straddling)
        expected = bytes(
            bit if u < keep_below else int(u < one_below) for bit, u in cells
        )
        assert RandomizedResponder(p=p, q=q, rng=None).randomize_vector(bits, uniforms) == expected
        undecided = sum(1 for _, u in cells if u >> 24 in straddling)
        assert uniforms.low_reads == ([undecided] if undecided else [])

    @given(
        p=st.floats(min_value=0.01, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rates_are_within_two_to_the_minus_32(self, p, q):
        """Counted exactly over all 2**32 uniforms through the byte tables:
        ``|P(truthful) - p| <= 2**-32`` and the same for both answer rates."""
        keep_below, one_below, keep, one, undecided = _byte_tables(p, q)
        kept = ones = 0
        for high in range(256):
            start, end = high << 24, (high + 1) << 24
            if keep[high]:
                kept += 1 << 24
            elif one[high]:
                ones += 1 << 24
            elif undecided[high]:
                kept += max(0, min(end, keep_below) - start)
                ones += max(0, min(end, one_below) - max(start, keep_below))
        scale = 2.0**32
        assert abs(kept / scale - p) <= 2**-32
        assert abs((kept + ones) / scale - (p + (1 - p) * q)) <= 2**-32
        assert abs(ones / scale - (1 - p) * q) <= 2**-32

    def test_without_draws_the_rng_supplies_them(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0] * 8
        a = RandomizedResponder(p=0.7, q=0.4, rng=random.Random(42)).randomize_vector(bits)
        b = RandomizedResponder(p=0.7, q=0.4, rng=random.Random(42)).randomize_vector(bits)
        assert a == b and len(a) == len(bits) and set(a) <= {0, 1}

    def test_rejects_non_binary_bits(self):
        responder = RandomizedResponder(p=0.9, q=0.5, rng=random.Random(1))
        with pytest.raises(ValueError):
            responder.randomize_vector([0, 1, 2])
