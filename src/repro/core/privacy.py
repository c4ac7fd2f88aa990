"""Privacy accounting: differential privacy and zero-knowledge privacy.

Randomized response alone gives epsilon-differential privacy with

    epsilon_dp = ln( (p + (1-p) q) / ((1-p) q) )                      (Eq. 8)

Combining it with source-side sampling tightens the bound.  Following the
technical report's analysis (sampling and randomized response commute, and
sampling amplifies privacy), a mechanism that is ``epsilon``-DP applied to a
client included with probability ``s`` satisfies

    epsilon_s = ln( 1 + s * (e^epsilon - 1) )

which is the standard privacy-amplification-by-sampling bound.  The same
quantity is what we report as the *zero-knowledge* privacy level
``epsilon_zk``: the tech report's Theorem shows the sampled randomized
response is zero-knowledge private with respect to aggregate information, with
the parameter controlled by the sampled (amplified) bound.  Absolute values in
the paper's Table 1 come from the tech report's Equation 19, which we do not
have; the *shape* — epsilon increasing in both ``p`` and ``s``, decreasing in
``q`` — is preserved, and that is what the benchmarks assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def epsilon_from_probabilities(prob_yes_given_yes: float, prob_yes_given_no: float) -> float:
    """Differential-privacy level from the two response probabilities (Eq. 7)."""
    if prob_yes_given_no <= 0:
        return float("inf")
    if prob_yes_given_yes <= 0:
        raise ValueError("P[Yes|Yes] must be positive")
    return math.log(prob_yes_given_yes / prob_yes_given_no)


def randomized_response_epsilon(p: float, q: float) -> float:
    """Epsilon of the two-coin randomized response mechanism (Eq. 8)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    numerator = p + (1.0 - p) * q
    denominator = (1.0 - p) * q
    if denominator == 0:
        return float("inf")
    return math.log(numerator / denominator)


def amplify_epsilon_by_sampling(epsilon: float, sampling_fraction: float) -> float:
    """Privacy amplification by sampling: epsilon_s = ln(1 + s (e^eps - 1))."""
    if not 0.0 <= sampling_fraction <= 1.0:
        raise ValueError("sampling fraction must lie in [0, 1]")
    if sampling_fraction == 0.0:
        return 0.0
    if math.isinf(epsilon):
        return float("inf")
    return math.log(1.0 + sampling_fraction * (math.exp(epsilon) - 1.0))


def zero_knowledge_epsilon(p: float, q: float, sampling_fraction: float) -> float:
    """Zero-knowledge privacy level of the combined sampling + RR mechanism.

    The combination of an epsilon-DP mechanism (randomized response) with a
    sampling-based aggregation yields zero-knowledge privacy (Section 4); the
    resulting level is the sampling-amplified epsilon.
    """
    return amplify_epsilon_by_sampling(randomized_response_epsilon(p, q), sampling_fraction)


def privapprox_epsilon_for_rappor_mapping(f: float, sampling_fraction: float) -> float:
    """PrivApprox's DP level under the Figure 5(c) parameter mapping.

    With ``p = 1 - f`` and ``q = 0.5`` the randomized response process equals
    RAPPOR's report randomization; client-side sampling then amplifies the
    bound, so PrivApprox's level is at most RAPPOR's and strictly below it for
    any ``s < 1``.
    """
    if not 0.0 < f < 1.0:
        raise ValueError("the mapping requires f in (0, 1)")
    base = randomized_response_epsilon(p=1.0 - f, q=0.5)
    return amplify_epsilon_by_sampling(base, sampling_fraction)


@dataclass(frozen=True)
class PrivacyReport:
    """Privacy levels of one parameter configuration."""

    p: float
    q: float
    sampling_fraction: float
    epsilon_dp: float
    epsilon_zk: float


class PrivacyAccountant:
    """Tracks the privacy guarantees offered by a parameter configuration.

    The accountant is what the analyst-facing budget interface consults: given
    ``(s, p, q)`` it reports both the differential-privacy level of the
    randomized response and the tighter zero-knowledge level of the combined
    mechanism, and it can search for parameters meeting an epsilon target.
    """

    def report(self, p: float, q: float, sampling_fraction: float) -> PrivacyReport:
        """Privacy levels for one configuration."""
        return PrivacyReport(
            p=p,
            q=q,
            sampling_fraction=sampling_fraction,
            epsilon_dp=randomized_response_epsilon(p, q),
            epsilon_zk=zero_knowledge_epsilon(p, q, sampling_fraction),
        )

    def satisfies(self, p: float, q: float, sampling_fraction: float, epsilon_target: float) -> bool:
        """Whether a configuration meets a zero-knowledge epsilon target."""
        return zero_knowledge_epsilon(p, q, sampling_fraction) <= epsilon_target

    def max_p_for_target(
        self,
        q: float,
        sampling_fraction: float,
        epsilon_target: float,
        precision: float = 1e-4,
    ) -> float:
        """Largest truthful-answer probability ``p`` meeting an epsilon target.

        Larger ``p`` means better utility but weaker privacy, so the analyst
        wants the largest ``p`` still within the privacy budget.  Binary search
        over ``p`` is valid because epsilon is monotone increasing in ``p``.
        """
        if epsilon_target <= 0:
            raise ValueError("epsilon target must be positive")
        low, high = 0.0, 1.0
        if not self.satisfies(precision, q, sampling_fraction, epsilon_target):
            return 0.0
        while high - low > precision:
            mid = (low + high) / 2.0
            if self.satisfies(mid, q, sampling_fraction, epsilon_target):
                low = mid
            else:
                high = mid
        return low

    def sampling_fraction_for_target(
        self,
        p: float,
        q: float,
        epsilon_target: float,
        precision: float = 1e-4,
    ) -> float:
        """Largest sampling fraction meeting a zero-knowledge epsilon target.

        Used by the case-study sweep (Figure 7), where the paper derives the
        sampling parameter from the target privacy level.
        """
        if epsilon_target <= 0:
            raise ValueError("epsilon target must be positive")
        base = randomized_response_epsilon(p, q)
        if base <= epsilon_target:
            return 1.0
        # Invert epsilon_s = ln(1 + s (e^base - 1)) for s.  Rounding can land
        # a few ulps above the target; step down until the target is met.
        s = max(0.0, min(1.0, math.expm1(epsilon_target) / math.expm1(base)))
        while s > 0.0 and not self.satisfies(p, q, s, epsilon_target):
            s = math.nextafter(s, 0.0)
        return s
