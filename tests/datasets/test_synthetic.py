"""Tests for the generic synthetic answer generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import generate_binary_answers


class TestBinaryAnswers:
    def test_exact_yes_count(self):
        answers = generate_binary_answers(10_000, 0.6, seed=1)
        assert answers.total == 10_000
        assert answers.true_yes == 6_000

    def test_shuffling_is_deterministic_with_seed(self):
        a = generate_binary_answers(100, 0.5, seed=7)
        b = generate_binary_answers(100, 0.5, seed=7)
        assert a.answers == b.answers

    def test_no_shuffle_puts_yes_first(self):
        answers = generate_binary_answers(10, 0.3, shuffle=False)
        assert answers.as_list() == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_extreme_fractions(self):
        assert generate_binary_answers(50, 0.0).true_yes == 0
        assert generate_binary_answers(50, 1.0).true_yes == 50

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            generate_binary_answers(-1, 0.5)
        with pytest.raises(ValueError):
            generate_binary_answers(10, 1.5)

    @given(
        total=st.integers(min_value=0, max_value=5_000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_yes_count_matches_rounded_fraction(self, total, fraction):
        answers = generate_binary_answers(total, fraction, seed=3)
        assert answers.true_yes == round(total * fraction)
        assert answers.total == total
