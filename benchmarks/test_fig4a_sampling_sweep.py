"""Figure 4(a): accuracy loss vs sampling fraction for nine (p, q) settings.

Paper setup: 10,000 original answers, 60% Yes; sampling fraction swept over
10..100%; p, q each in {0.3, 0.6, 0.9}.

Expected shape (asserted): the accuracy loss decreases as the sampling
fraction grows, for every (p, q) setting, with diminishing returns past ~80%;
losses stay within a few percent.

The shape is asserted on the closed-form expected loss
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
SAMPLING_FRACTIONS = [0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0]
PQ_SETTINGS = [(p, q) for p in (0.3, 0.6, 0.9) for q in (0.3, 0.6, 0.9)]
TRIALS = 40
#: Half-width of each point's acceptance band, in standard errors of a
#: TRIALS-trial mean.  Two-sided normal tail x 63 points = 4.3e-4 (union bound).
K = 4.5


def accuracy_loss_at(sampling_fraction: float, p: float, q: float, seed: int) -> float:
    """Mean accuracy loss of the sampled + randomized estimate."""
    rng = random.Random(seed)
    population = generate_binary_answers(TOTAL_ANSWERS, YES_FRACTION, seed=seed).as_list()
    true_yes = sum(population)
    losses = []
    for _ in range(TRIALS):
        sampler = SimpleRandomSampler(sampling_fraction, rng=rng)
        sampled = sampler.select(population)
        if not sampled:
            losses.append(1.0)
            continue
        _, rr_estimate = simulate_randomized_survey(sum(sampled), len(sampled), p, q, rng)
        estimate = (TOTAL_ANSWERS / len(sampled)) * rr_estimate
        losses.append(rr_accuracy_loss(true_yes, estimate))
    return sum(losses) / len(losses)


def standard_error(expected_loss: float) -> float:
    """Standard error of a TRIALS-trial mean loss.

    A loss is ``|X| / mu`` with ``X`` normal, so its standard deviation is
    ``sqrt(pi / 2 - 1)`` times its mean.
    """
    return expected_loss * math.sqrt((math.pi / 2 - 1) / TRIALS)


@pytest.mark.benchmark(group="fig4a")
def test_fig4a_accuracy_loss_vs_sampling_fraction(benchmark, report):
    benchmark(accuracy_loss_at, 0.6, 0.6, 0.6, 7)

    points = len(PQ_SETTINGS) * len(SAMPLING_FRACTIONS)
    assert points * math.erfc(K / math.sqrt(2)) <= 1e-3  # false-failure rate

    series: dict[tuple, list[float]] = {}
    closed: dict[tuple, list[float]] = {}
    for p, q in PQ_SETTINGS:
        series[(p, q)] = [
            accuracy_loss_at(s, p, q, seed=int(s * 100) + int(p * 10) + int(q * 100))
            for s in SAMPLING_FRACTIONS
        ]
        closed[(p, q)] = [
            expected_accuracy_loss(s, p, q, TOTAL_ANSWERS, YES_FRACTION)
            for s in SAMPLING_FRACTIONS
        ]

    rows = []
    for key, losses in series.items():
        rows.append(list(key) + [round(100 * loss, 3) for loss in losses])
        rows.append(["", "model"] + [round(100 * loss, 3) for loss in closed[key]])
    report.title("Figure 4(a): accuracy loss (%) vs sampling fraction")
    report.table(
        ["p", "q"] + [f"s={s:.0%}" for s in SAMPLING_FRACTIONS],
        rows,
    )
    report.note(
        "Paper: loss falls with the sampling fraction for every (p, q), with "
        "diminishing returns beyond s = 80%; all losses below ~8%.  'model' rows: "
        f"closed-form expected loss; every measured point lies within {K} standard "
        f"errors of it ({TRIALS} trials per point)."
    )

    for key, model in closed.items():
        # The paper's shape, on the expected loss: sampling improves utility...
        assert all(a > b for a, b in zip(model, model[1:])), key
        # ... with diminishing returns: 10% -> 40% gains more than 80% -> 100%.
        assert model[0] - model[2] > model[4] - model[6], key
        # Losses stay within a few percent at full sampling.
        assert model[-1] < 0.05, key
        # The measurements agree with the model, point by point.
        for measured, expected in zip(series[key], model):
            assert abs(measured - expected) <= K * standard_error(expected), (key, measured)
