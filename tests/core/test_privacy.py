"""Tests for the privacy accounting (Eq. 8, sampling amplification, ZK privacy)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    PrivacyAccountant,
    amplify_epsilon_by_sampling,
    randomized_response_epsilon,
    zero_knowledge_epsilon,
)
from repro.core.privacy import (
    epsilon_from_probabilities,
    privapprox_epsilon_for_rappor_mapping,
)


class TestRandomizedResponseEpsilon:
    def test_equation_8_value(self):
        # p=0.6, q=0.3: eps = ln((0.6 + 0.4*0.3) / (0.4*0.3)) = ln(6)
        assert randomized_response_epsilon(0.6, 0.3) == pytest.approx(math.log(6.0))

    def test_infinite_epsilon_when_no_noise(self):
        assert randomized_response_epsilon(1.0, 0.5) == float("inf")
        assert randomized_response_epsilon(0.5, 0.0) == float("inf")

    def test_monotone_increasing_in_p(self):
        """Table 1 shape: higher p means weaker privacy (larger epsilon)."""
        eps = [randomized_response_epsilon(p, 0.6) for p in (0.3, 0.6, 0.9)]
        assert eps == sorted(eps)
        assert eps[0] < eps[-1]

    def test_monotone_decreasing_in_q(self):
        """Table 1 shape: larger q means slightly stronger privacy."""
        eps = [randomized_response_epsilon(0.6, q) for q in (0.3, 0.6, 0.9)]
        assert eps == sorted(eps, reverse=True)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            randomized_response_epsilon(-0.1, 0.5)
        with pytest.raises(ValueError):
            randomized_response_epsilon(0.5, 1.1)

    def test_matches_probability_form(self):
        p, q = 0.7, 0.4
        from_probabilities = epsilon_from_probabilities(p + (1 - p) * q, (1 - p) * q)
        assert randomized_response_epsilon(p, q) == pytest.approx(from_probabilities)


class TestSamplingAmplification:
    def test_no_sampling_means_no_amplification(self):
        eps = randomized_response_epsilon(0.6, 0.6)
        assert amplify_epsilon_by_sampling(eps, 1.0) == pytest.approx(eps)

    def test_zero_sampling_means_perfect_privacy(self):
        assert amplify_epsilon_by_sampling(2.0, 0.0) == 0.0

    def test_amplified_epsilon_below_base(self):
        eps = randomized_response_epsilon(0.9, 0.6)
        assert amplify_epsilon_by_sampling(eps, 0.5) < eps

    def test_monotone_in_sampling_fraction(self):
        eps = randomized_response_epsilon(0.9, 0.6)
        levels = [amplify_epsilon_by_sampling(eps, s) for s in (0.1, 0.3, 0.6, 0.9, 1.0)]
        assert levels == sorted(levels)

    def test_infinite_base_stays_infinite(self):
        assert amplify_epsilon_by_sampling(float("inf"), 0.5) == float("inf")

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            amplify_epsilon_by_sampling(1.0, 1.5)

    @given(
        eps=st.floats(min_value=0.01, max_value=10.0),
        s=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_amplification_bounds_property(self, eps, s):
        amplified = amplify_epsilon_by_sampling(eps, s)
        assert 0.0 <= amplified <= eps + 1e-12


class TestZeroKnowledgeEpsilon:
    def test_combines_rr_and_sampling(self):
        zk = zero_knowledge_epsilon(0.9, 0.6, 0.6)
        base = randomized_response_epsilon(0.9, 0.6)
        assert zk == pytest.approx(amplify_epsilon_by_sampling(base, 0.6))
        assert zk < base

    def test_figure7_shape_monotone_in_s_and_p(self):
        """Figure 7(b): epsilon_zk grows with both s and p."""
        for q in (0.3, 0.6, 0.9):
            for p in (0.3, 0.6, 0.9):
                levels = [zero_knowledge_epsilon(p, q, s) for s in (0.1, 0.4, 0.8)]
                assert levels == sorted(levels)
            for s in (0.2, 0.6, 0.9):
                levels = [zero_knowledge_epsilon(p, q, s) for p in (0.3, 0.6, 0.9)]
                assert levels == sorted(levels)


class TestRapporComparison:
    def test_privapprox_never_weaker_than_rappor_mapping(self):
        """Figure 5(c): PrivApprox's epsilon <= the shared RR epsilon for all s."""
        f = 0.5
        base = randomized_response_epsilon(1.0 - f, 0.5)
        for s in (0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0):
            assert privapprox_epsilon_for_rappor_mapping(f, s) <= base + 1e-12

    def test_privapprox_equals_rappor_at_full_sampling(self):
        f = 0.5
        base = randomized_response_epsilon(1.0 - f, 0.5)
        assert privapprox_epsilon_for_rappor_mapping(f, 1.0) == pytest.approx(base)

    def test_privapprox_epsilon_grows_with_sampling(self):
        f = 0.5
        levels = [privapprox_epsilon_for_rappor_mapping(f, s) for s in (0.1, 0.5, 0.9)]
        assert levels == sorted(levels)


class TestPrivacyAccountant:
    def test_report_fields(self):
        report = PrivacyAccountant().report(0.6, 0.6, 0.8)
        assert report.epsilon_dp == pytest.approx(randomized_response_epsilon(0.6, 0.6))
        assert report.epsilon_zk == pytest.approx(zero_knowledge_epsilon(0.6, 0.6, 0.8))
        assert report.epsilon_zk <= report.epsilon_dp

    def test_satisfies(self):
        accountant = PrivacyAccountant()
        assert accountant.satisfies(0.3, 0.6, 0.5, epsilon_target=1.0)
        assert not accountant.satisfies(0.99, 0.6, 1.0, epsilon_target=0.5)

    def test_max_p_for_target_meets_target(self):
        accountant = PrivacyAccountant()
        target = 1.0
        p = accountant.max_p_for_target(q=0.6, sampling_fraction=0.8, epsilon_target=target)
        assert 0 < p < 1
        assert zero_knowledge_epsilon(p, 0.6, 0.8) <= target
        # Slightly larger p would violate the target.
        assert zero_knowledge_epsilon(min(1.0, p + 0.01), 0.6, 0.8) > target

    def test_max_p_for_target_invalid_target(self):
        with pytest.raises(ValueError):
            PrivacyAccountant().max_p_for_target(0.5, 0.5, epsilon_target=0.0)

    def test_sampling_fraction_for_target(self):
        accountant = PrivacyAccountant()
        s = accountant.sampling_fraction_for_target(p=0.9, q=0.6, epsilon_target=1.5)
        assert 0 < s < 1
        assert zero_knowledge_epsilon(0.9, 0.6, s) == pytest.approx(1.5, abs=1e-6)

    def test_sampling_fraction_full_when_target_loose(self):
        accountant = PrivacyAccountant()
        assert accountant.sampling_fraction_for_target(p=0.3, q=0.9, epsilon_target=10.0) == 1.0
