"""The adaptive execution budget interface (Sections 2.1, 3.1 and 5).

An analyst submits a query together with a *query execution budget*, which can
be expressed as a latency target (SLA), an output accuracy target, available
computing resources, or a privacy requirement.  The aggregator's initializer
module converts the budget into the three system parameters — the sampling
fraction ``s`` and the randomization probabilities ``p`` and ``q`` — before
distributing the query to clients.  During execution a feedback mechanism
re-tunes the parameters when the observed error exceeds the budget
(Section 5, "Aggregator").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.privacy import PrivacyAccountant, zero_knowledge_epsilon
from repro.netsim.network import NetworkModel


@dataclass(frozen=True)
class QueryBudget:
    """An analyst's execution budget.  All fields are optional constraints.

    Attributes
    ----------
    max_latency_seconds:
        Latency SLA for producing each windowed result.
    target_accuracy_loss:
        Upper bound on the acceptable accuracy loss (e.g. 0.05 for 5%).
    max_epsilon:
        Upper bound on the zero-knowledge privacy level the analyst may use
        (smaller is more private).
    max_cost_units:
        Abstract computing-resource budget (e.g. node-seconds per window);
        used by historical analytics to pick an aggregator-side sampling rate.
    expected_clients:
        Expected number of clients subscribed to the query, needed to convert
        latency budgets into sampling fractions.
    answer_bits:
        Size of the answer bit vector, needed for the latency model.
    """

    max_latency_seconds: float | None = None
    target_accuracy_loss: float | None = None
    max_epsilon: float | None = None
    max_cost_units: float | None = None
    expected_clients: int = 10_000
    answer_bits: int = 16

    def __post_init__(self) -> None:
        if self.max_latency_seconds is not None and self.max_latency_seconds <= 0:
            raise ValueError("latency budget must be positive")
        if self.target_accuracy_loss is not None and not 0 < self.target_accuracy_loss < 1:
            raise ValueError("accuracy-loss target must lie in (0, 1)")
        if self.max_epsilon is not None and self.max_epsilon <= 0:
            raise ValueError("epsilon budget must be positive")
        if self.expected_clients <= 0:
            raise ValueError("expected_clients must be positive")
        if self.answer_bits <= 0:
            raise ValueError("answer_bits must be positive")


@dataclass(frozen=True)
class ExecutionParameters:
    """The system parameters the initializer derives from a budget."""

    sampling_fraction: float
    p: float
    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError("sampling fraction must lie in (0, 1]")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")

    @property
    def epsilon_zk(self) -> float:
        """Zero-knowledge privacy level of this configuration."""
        return zero_knowledge_epsilon(self.p, self.q, self.sampling_fraction)

    def with_sampling_fraction(self, sampling_fraction: float) -> "ExecutionParameters":
        return ExecutionParameters(sampling_fraction=sampling_fraction, p=self.p, q=self.q)

    def with_p(self, p: float) -> "ExecutionParameters":
        return ExecutionParameters(sampling_fraction=self.sampling_fraction, p=p, q=self.q)


@dataclass
class BudgetPlanner:
    """Converts a :class:`QueryBudget` into :class:`ExecutionParameters`.

    The planner applies the budget's constraints in a fixed priority order —
    privacy first (it is a hard guarantee), then latency (an SLA), then
    accuracy (a soft target) — and exposes :meth:`retune` for the aggregator's
    feedback loop.
    """

    network: NetworkModel = field(default_factory=NetworkModel)
    accountant: PrivacyAccountant = field(default_factory=PrivacyAccountant)
    default_parameters: ExecutionParameters = field(
        default_factory=lambda: ExecutionParameters(sampling_fraction=0.8, p=0.6, q=0.6)
    )
    min_sampling_fraction: float = 0.05

    # -- initial conversion ---------------------------------------------------

    def plan(self, budget: QueryBudget) -> ExecutionParameters:
        """Derive (s, p, q) from the analyst's budget.

        Constraints are applied in increasing priority: the soft accuracy
        target first, then the privacy budget (a hard guarantee, so it may cap
        what accuracy asked for), then the latency SLA (which only ever
        shrinks the sampling fraction and therefore can never weaken the
        privacy guarantee already established).
        """
        params = self.default_parameters

        if budget.target_accuracy_loss is not None:
            params = self._apply_accuracy_target(params, budget.target_accuracy_loss)
        if budget.max_epsilon is not None:
            params = self._apply_privacy_budget(params, budget.max_epsilon)
        if budget.max_latency_seconds is not None:
            params = self._apply_latency_budget(params, budget)
        return params

    def _apply_privacy_budget(
        self, params: ExecutionParameters, max_epsilon: float
    ) -> ExecutionParameters:
        """Cap p (and if necessary s) so the zero-knowledge level meets the budget."""
        min_p = 0.05
        p = self.accountant.max_p_for_target(
            q=params.q, sampling_fraction=params.sampling_fraction, epsilon_target=max_epsilon
        )
        p = max(min(p, params.p), min_p)
        if self.accountant.satisfies(p, params.q, params.sampling_fraction, max_epsilon):
            return params.with_p(p)
        # Even the smallest usable p cannot meet the budget at this sampling
        # fraction: shrink the sampling fraction instead (privacy improves as
        # fewer clients participate).
        s = self.accountant.sampling_fraction_for_target(
            p=min_p, q=params.q, epsilon_target=max_epsilon
        )
        return ExecutionParameters(sampling_fraction=s, p=min_p, q=params.q)

    def _apply_latency_budget(
        self, params: ExecutionParameters, budget: QueryBudget
    ) -> ExecutionParameters:
        """Shrink the sampling fraction until the modelled latency fits the SLA."""
        assert budget.max_latency_seconds is not None
        fraction = params.sampling_fraction
        while fraction > self.min_sampling_fraction:
            latency = self.network.latency(
                num_answers_total=budget.expected_clients,
                sampling_fraction=fraction,
                answer_bits=budget.answer_bits,
            )
            if latency.total_seconds <= budget.max_latency_seconds:
                return params.with_sampling_fraction(fraction)
            fraction = max(self.min_sampling_fraction, fraction * 0.8)
        # Never above the fraction it was given: privacy may have capped it
        # below the floor.
        return params.with_sampling_fraction(fraction)

    def _apply_accuracy_target(
        self, params: ExecutionParameters, target_loss: float
    ) -> ExecutionParameters:
        """Grow p / s (within the other constraints already applied) for accuracy.

        The randomization-induced relative error shrinks roughly like
        ``(1 - p) / p`` and the sampling error like ``1 / sqrt(s)``; the
        planner uses those monotone relationships to nudge the parameters.
        Privacy capping has priority, so p is only raised when no privacy
        budget constrained it (the caller applies constraints in order).
        """
        p = params.p
        fraction = params.sampling_fraction
        # Heuristic: very tight accuracy targets need a large truthful fraction.
        if target_loss < 0.01:
            p = max(p, 0.9)
            fraction = max(fraction, 0.9)
        elif target_loss < 0.05:
            p = max(p, 0.75)
            fraction = max(fraction, 0.8)
        return ExecutionParameters(sampling_fraction=fraction, p=p, q=params.q)

    # -- feedback loop -----------------------------------------------------------

    def retune(
        self,
        params: ExecutionParameters,
        observed_relative_error: float,
        target_accuracy_loss: float,
        max_epsilon: float | None = None,
    ) -> ExecutionParameters:
        """Adjust parameters after a window whose error exceeded the target.

        The feedback mechanism raises the sampling fraction (more participants
        next epoch) and, if sampling is already saturated, raises ``p``.  When
        the observed error is comfortably inside the target the planner lowers
        the sampling fraction again to save resources.  Whatever it proposes
        is then capped by ``max_epsilon`` exactly as :meth:`plan` caps it:
        when the accuracy target and the privacy budget conflict, privacy wins.
        """
        if observed_relative_error < 0:
            raise ValueError("observed error must be non-negative")
        if not 0 < target_accuracy_loss < 1:
            raise ValueError("target accuracy loss must lie in (0, 1)")

        if observed_relative_error > target_accuracy_loss:
            if params.sampling_fraction < 1.0:
                grown = min(1.0, params.sampling_fraction * 1.25)
                params = params.with_sampling_fraction(grown)
            else:
                params = params.with_p(min(1.0, params.p + 0.1))
        elif observed_relative_error < 0.5 * target_accuracy_loss:
            shrunk = max(self.min_sampling_fraction, params.sampling_fraction * 0.9)
            params = params.with_sampling_fraction(shrunk)
        if max_epsilon is not None:
            params = self._apply_privacy_budget(params, max_epsilon)
        return params

    # -- historical analytics ------------------------------------------------------

    def batch_sampling_fraction(self, budget: QueryBudget, stored_answers: int) -> float:
        """Aggregator-side re-sampling rate for historical analytics.

        The cost of a batch job is proportional to the number of stored
        answers scanned; given a cost budget in "answer scan" units the
        planner returns the fraction to re-sample (Section 3.3.1).
        """
        if stored_answers <= 0:
            raise ValueError("stored_answers must be positive")
        if budget.max_cost_units is None:
            return 1.0
        fraction = budget.max_cost_units / stored_answers
        return max(self.min_sampling_fraction, min(1.0, fraction))
