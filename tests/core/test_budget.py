"""Tests for the execution-budget interface and the feedback planner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BudgetPlanner, ExecutionParameters, QueryBudget
from repro.core.privacy import zero_knowledge_epsilon


class TestQueryBudget:
    def test_defaults_are_valid(self):
        budget = QueryBudget()
        assert budget.expected_clients == 10_000

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            QueryBudget(max_latency_seconds=0)
        with pytest.raises(ValueError):
            QueryBudget(target_accuracy_loss=1.5)
        with pytest.raises(ValueError):
            QueryBudget(max_epsilon=0)
        with pytest.raises(ValueError):
            QueryBudget(expected_clients=0)
        with pytest.raises(ValueError):
            QueryBudget(answer_bits=0)


class TestExecutionParameters:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExecutionParameters(sampling_fraction=0.0, p=0.5, q=0.5)
        with pytest.raises(ValueError):
            ExecutionParameters(sampling_fraction=0.5, p=0.0, q=0.5)
        with pytest.raises(ValueError):
            ExecutionParameters(sampling_fraction=0.5, p=0.5, q=1.5)

    def test_epsilon_property(self):
        params = ExecutionParameters(sampling_fraction=0.6, p=0.6, q=0.6)
        assert params.epsilon_zk == pytest.approx(zero_knowledge_epsilon(0.6, 0.6, 0.6))

    def test_with_helpers(self):
        params = ExecutionParameters(sampling_fraction=0.5, p=0.5, q=0.5)
        assert params.with_sampling_fraction(0.9).sampling_fraction == 0.9
        assert params.with_p(0.8).p == 0.8


class TestBudgetPlanner:
    def test_default_plan_without_constraints(self):
        planner = BudgetPlanner()
        params = planner.plan(QueryBudget())
        assert params == planner.default_parameters

    def test_privacy_budget_is_respected(self):
        planner = BudgetPlanner()
        budget = QueryBudget(max_epsilon=1.0)
        params = planner.plan(budget)
        assert params.epsilon_zk <= 1.0 + 1e-6

    def test_tighter_privacy_budget_means_smaller_p(self):
        planner = BudgetPlanner()
        loose = planner.plan(QueryBudget(max_epsilon=3.0))
        tight = planner.plan(QueryBudget(max_epsilon=0.5))
        assert tight.p < loose.p
        assert tight.epsilon_zk <= 0.5 + 1e-6

    def test_extremely_tight_privacy_shrinks_sampling(self):
        planner = BudgetPlanner()
        params = planner.plan(QueryBudget(max_epsilon=0.01))
        assert params.epsilon_zk <= 0.011
        assert params.sampling_fraction < planner.default_parameters.sampling_fraction

    def test_latency_budget_shrinks_sampling_fraction(self):
        planner = BudgetPlanner()
        # A very large population with a tight SLA forces a low sampling fraction.
        relaxed = planner.plan(QueryBudget(expected_clients=50_000_000, max_latency_seconds=3600))
        tight = planner.plan(QueryBudget(expected_clients=50_000_000, max_latency_seconds=5))
        assert tight.sampling_fraction < relaxed.sampling_fraction

    def test_accuracy_target_raises_parameters(self):
        planner = BudgetPlanner()
        params = planner.plan(QueryBudget(target_accuracy_loss=0.005))
        assert params.p >= 0.9
        assert params.sampling_fraction >= 0.9

    def test_privacy_takes_priority_over_accuracy(self):
        planner = BudgetPlanner()
        params = planner.plan(QueryBudget(max_epsilon=0.8, target_accuracy_loss=0.005))
        assert params.epsilon_zk <= 0.8 + 1e-6


class TestFeedbackRetuning:
    def test_error_above_target_grows_sampling(self):
        planner = BudgetPlanner()
        params = ExecutionParameters(sampling_fraction=0.5, p=0.6, q=0.6)
        retuned = planner.retune(params, observed_relative_error=0.2, target_accuracy_loss=0.05)
        assert retuned.sampling_fraction > params.sampling_fraction

    def test_error_above_target_with_full_sampling_grows_p(self):
        planner = BudgetPlanner()
        params = ExecutionParameters(sampling_fraction=1.0, p=0.6, q=0.6)
        retuned = planner.retune(params, observed_relative_error=0.2, target_accuracy_loss=0.05)
        assert retuned.p > params.p

    def test_error_well_below_target_shrinks_sampling(self):
        planner = BudgetPlanner()
        params = ExecutionParameters(sampling_fraction=0.8, p=0.6, q=0.6)
        retuned = planner.retune(params, observed_relative_error=0.001, target_accuracy_loss=0.1)
        assert retuned.sampling_fraction < params.sampling_fraction

    def test_error_within_band_keeps_parameters(self):
        planner = BudgetPlanner()
        params = ExecutionParameters(sampling_fraction=0.8, p=0.6, q=0.6)
        assert planner.retune(params, 0.08, 0.1) == params

    def test_invalid_inputs_rejected(self):
        planner = BudgetPlanner()
        params = ExecutionParameters(sampling_fraction=0.8, p=0.6, q=0.6)
        with pytest.raises(ValueError):
            planner.retune(params, -0.1, 0.1)
        with pytest.raises(ValueError):
            planner.retune(params, 0.1, 0.0)


class TestBatchSamplingFraction:
    def test_no_cost_budget_means_full_scan(self):
        planner = BudgetPlanner()
        assert planner.batch_sampling_fraction(QueryBudget(), stored_answers=1_000) == 1.0

    def test_cost_budget_limits_fraction(self):
        planner = BudgetPlanner()
        budget = QueryBudget(max_cost_units=100)
        assert planner.batch_sampling_fraction(budget, stored_answers=1_000) == pytest.approx(0.1)

    def test_fraction_never_below_minimum(self):
        planner = BudgetPlanner()
        budget = QueryBudget(max_cost_units=1)
        assert planner.batch_sampling_fraction(budget, stored_answers=10_000) == planner.min_sampling_fraction

    def test_invalid_stored_answers(self):
        with pytest.raises(ValueError):
            BudgetPlanner().batch_sampling_fraction(QueryBudget(), stored_answers=0)


class TestPrivacyBudgetHoldsOnEveryEpoch:
    """``max_epsilon`` is a hard guarantee: whatever ``plan`` returns, and
    whatever the feedback loop makes of it, stays within the budget."""

    unit = st.floats(min_value=0.01, max_value=1.0)

    @given(
        max_epsilon=st.floats(min_value=0.001, max_value=5.0),
        target=st.floats(min_value=0.001, max_value=0.9),
        plan_for_target=st.booleans(),
        latency=st.none() | st.floats(min_value=0.01, max_value=100.0),
        explicit=st.none() | st.builds(ExecutionParameters, unit, unit, unit),
        observed=st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=25),
    )
    @settings(max_examples=200, deadline=None)
    def test_planned_and_retuned_parameters_satisfy_max_epsilon(
        self, max_epsilon, target, plan_for_target, latency, explicit, observed
    ):
        planner = BudgetPlanner()
        budget = QueryBudget(
            target_accuracy_loss=target if plan_for_target else None,
            max_epsilon=max_epsilon,
            max_latency_seconds=latency,
        )
        planned = planner.plan(budget)
        assert planned.epsilon_zk <= max_epsilon
        # Explicit parameters bypass the planner at submit time; the first
        # re-tune brings them inside the budget.
        params = explicit or planned
        for error in observed:
            params = planner.retune(params, error, target, max_epsilon)
            assert params.epsilon_zk <= max_epsilon

    def test_no_coin_bias_cannot_meet_a_budget(self):
        # q = 0 makes epsilon infinite for every p < 1 and every s > 0.
        with pytest.raises(ValueError, match="sampling fraction"):
            BudgetPlanner().retune(ExecutionParameters(0.5, 0.5, 0.0), 0.0, 0.1, 1.0)

    def test_retune_from_the_budget_edge_does_not_breach(self):
        """A plan sitting at its epsilon cap: a missed target cannot raise p."""
        planner = BudgetPlanner()
        budget = QueryBudget(target_accuracy_loss=0.05, max_epsilon=1.5)
        params = planner.plan(budget).with_sampling_fraction(1.0)
        params = planner.retune(params, 0.2, 0.05, 1.5)
        assert params.epsilon_zk <= 1.5
        assert planner.retune(params, 0.2, 0.05, 1.5) == params
