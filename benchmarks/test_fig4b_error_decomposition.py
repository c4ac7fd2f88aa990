"""Figure 4(b): error decomposition — sampling vs randomized response vs combined.

Paper setup: 10,000 answers, 60% Yes.  The sampling-only curve sets p = 1
(no randomization); the randomized-response-only curve randomizes the
sampled answers with p = 0.3, q = 0.6 and measures the error against the
sample's own true count (no sampling error); the combined curve runs both.
The paper's claim: the two error sources are statistically independent, so
the combined accuracy loss is approximately the sum of the individual losses.

Independent errors add as *variances* at the same number of answers ``n``,
not as losses, and randomized-response error grows as ``1 / sqrt(n)``, so
the RR-only term is measured at each fraction's own ``n`` rather than once at
``s = 1``.  The decomposition is asserted on the closed-form expected loss
(:func:`~repro.core.estimation.expected_accuracy_loss`), and every measured
point is asserted to lie within ``K`` standard errors of it.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.estimation import expected_accuracy_loss
from repro.core.randomized_response import rr_accuracy_loss, simulate_randomized_survey
from repro.core.sampling import SimpleRandomSampler
from repro.datasets import generate_binary_answers

TOTAL_ANSWERS = 10_000
YES_FRACTION = 0.6
P, Q = 0.3, 0.6
SAMPLING_FRACTIONS = [0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
TRIALS = 40
#: Half-width of each point's acceptance band, in standard errors of a
#: TRIALS-trial mean.  Two-sided normal tail x 21 points = 1.4e-4 (union bound).
K = 4.5


def _mean(values):
    return sum(values) / len(values)


def standard_error(expected_loss: float) -> float:
    """Standard error of a TRIALS-trial mean loss (``|X| / mu``, X normal)."""
    return expected_loss * math.sqrt((math.pi / 2 - 1) / TRIALS)


def sampling_only_loss(sampling_fraction: float, rng: random.Random) -> float:
    population = generate_binary_answers(TOTAL_ANSWERS, YES_FRACTION, seed=1).as_list()
    true_yes = sum(population)
    losses = []
    for _ in range(TRIALS):
        sampled = SimpleRandomSampler(sampling_fraction, rng=rng).select(population)
        if not sampled:
            losses.append(1.0)
            continue
        estimate = (TOTAL_ANSWERS / len(sampled)) * sum(sampled)
        losses.append(rr_accuracy_loss(true_yes, estimate))
    return _mean(losses)


def rr_only_loss(sampling_fraction: float, rng: random.Random) -> float:
    """RR loss on the sampled answers, against their own true count."""
    population = generate_binary_answers(TOTAL_ANSWERS, YES_FRACTION, seed=1).as_list()
    losses = []
    for _ in range(TRIALS):
        sampled = SimpleRandomSampler(sampling_fraction, rng=rng).select(population)
        sampled_yes = sum(sampled)
        _, estimate = simulate_randomized_survey(sampled_yes, len(sampled), P, Q, rng)
        losses.append(rr_accuracy_loss(sampled_yes, estimate))
    return _mean(losses)


def combined_loss(sampling_fraction: float, rng: random.Random) -> float:
    population = generate_binary_answers(TOTAL_ANSWERS, YES_FRACTION, seed=1).as_list()
    true_yes = sum(population)
    losses = []
    for _ in range(TRIALS):
        sampled = SimpleRandomSampler(sampling_fraction, rng=rng).select(population)
        if not sampled:
            losses.append(1.0)
            continue
        _, rr_estimate = simulate_randomized_survey(sum(sampled), len(sampled), P, Q, rng)
        estimate = (TOTAL_ANSWERS / len(sampled)) * rr_estimate
        losses.append(rr_accuracy_loss(true_yes, estimate))
    return _mean(losses)


def model_losses(fraction: float) -> tuple[float, float, float]:
    """Closed-form (sampling only, RR only at n = sU, combined) losses."""
    sampled = round(fraction * TOTAL_ANSWERS)
    return (
        expected_accuracy_loss(fraction, 1.0, Q, TOTAL_ANSWERS, YES_FRACTION),
        expected_accuracy_loss(1.0, P, Q, sampled, YES_FRACTION),
        expected_accuracy_loss(fraction, P, Q, TOTAL_ANSWERS, YES_FRACTION),
    )


@pytest.mark.benchmark(group="fig4b")
def test_fig4b_error_decomposition(benchmark, report):
    rng = random.Random(17)
    benchmark(combined_loss, 0.6, rng)

    assert 3 * len(SAMPLING_FRACTIONS) * math.erfc(K / math.sqrt(2)) <= 1e-3

    rng = random.Random(23)
    rows = []
    measured = []
    models = []
    for fraction in SAMPLING_FRACTIONS:
        point = (
            sampling_only_loss(fraction, rng),
            rr_only_loss(fraction, rng),
            combined_loss(fraction, rng),
        )
        model = model_losses(fraction)
        measured.append(point)
        models.append(model)
        rows.append(
            [f"{fraction:.0%}"]
            + [round(100 * loss, 3) for loss in point]
            + [round(100 * math.hypot(point[0], point[1]), 3)]
            + [round(100 * loss, 3) for loss in model]
        )

    report.title("Figure 4(b): error decomposition (accuracy loss %, p=0.3, q=0.6)")
    report.table(
        [
            "sampling fraction",
            "sampling only",
            "RR only (same n)",
            "combined",
            "hypot of parts",
            "model sampling",
            "model RR",
            "model combined",
        ],
        rows,
    )
    report.note(
        "Paper: the two error sources are independent; the combined loss is "
        "approximately the sum of the sampling loss and the RR loss.  Here: "
        "variances add at the same n, so the combined loss is the hypot of the "
        f"parts; every measured point lies within {K} standard errors of the "
        f"closed-form model ({TRIALS} trials per point)."
    )

    for fraction, point, model in zip(SAMPLING_FRACTIONS, measured, models):
        sampling, rr, combined = model
        # Independence on the model: variances add at the same n (up to the
        # n / (n - 1) terms of the sample variance).
        assert combined == pytest.approx(math.hypot(sampling, rr), rel=1e-2), fraction
        for observed, expected in zip(point, model):
            assert abs(observed - expected) <= K * standard_error(expected), (fraction, point)
    # Sampling-only error decreases with the fraction and is exactly zero at s = 1.
    sampling_losses = [point[0] for point in measured]
    assert sampling_losses[-1] == pytest.approx(0.0, abs=1e-9)
    assert sampling_losses[0] > sampling_losses[-2] >= 0.0
