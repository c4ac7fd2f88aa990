"""Step IV support: error-bound estimation for approximate query results.

Section 3.2.4 decomposes the accuracy loss into the part caused by sampling and
the part caused by randomized response, shows the two are statistically
independent, and sums the independently estimated errors to form the total
error bound reported with each query result (``queryResult +/- errorBound``).

* The sampling error is analytical: the t-distribution confidence interval of
  Equations 2-4 (:func:`sampling_error_bound`).
* The randomized-response error is estimated empirically, by running a short
  calibration ("several micro-benchmarks at the beginning of the query
  answering process") without sampling and measuring Eq. 6
  (:meth:`ErrorEstimator.calibrate_randomized_response`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Sequence

from repro.analytics.histogram import BucketEstimate, HistogramResult
from repro.core.query import QueryAnswer
from repro.core.randomized_response import (
    estimate_true_yes,
    rr_accuracy_loss,
    simulate_randomized_survey,
)
from repro.core.sampling import sample_variance, t_critical


def estimated_variance(
    sampled_values: Sequence[float], population_size: int
) -> float:
    """Estimated variance of the scaled sum estimator (Eq. 4)."""
    sample_size = len(sampled_values)
    if sample_size == 0 or population_size == 0:
        return 0.0
    if population_size < sample_size:
        raise ValueError("population cannot be smaller than the sample")
    sigma_squared = sample_variance(sampled_values)
    return (
        (population_size ** 2 / sample_size)
        * sigma_squared
        * ((population_size - sample_size) / population_size)
    )


def sampling_error_bound(
    sampled_values: Sequence[float],
    population_size: int,
    confidence_level: float = 0.95,
) -> float:
    """Margin of error of the sampled sum (Eq. 3) at a confidence level."""
    sample_size = len(sampled_values)
    if sample_size == 0:
        return float("inf") if population_size > 0 else 0.0
    if sample_size >= population_size:
        return 0.0
    variance = estimated_variance(sampled_values, population_size)
    t_value = t_critical(sample_size, confidence_level)
    if not math.isfinite(t_value):
        return float("inf")
    return t_value * math.sqrt(variance)


def combined_error_bound(sampling_error: float, randomization_error: float) -> float:
    """Total error bound: the two independent error components added (Section 3.2.4)."""
    if sampling_error < 0 or randomization_error < 0:
        raise ValueError("error components must be non-negative")
    return sampling_error + randomization_error


@dataclass
class ErrorEstimator:
    """Produces the per-bucket error bound attached to every query result.

    Parameters
    ----------
    p, q:
        Randomization parameters in force for the query.
    confidence_level:
        Confidence level of the sampling error bound (default 95%).
    calibration_trials / calibration_size:
        Number and size of the synthetic randomized-response calibration runs
        used to estimate the randomization error empirically.
    rng:
        Randomness source for the calibration runs.
    """

    p: float
    q: float
    confidence_level: float = 0.95
    calibration_trials: int = 10
    calibration_size: int = 2_000
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        self._rr_loss_cache: dict[float, float] = {}

    # -- randomized response error (empirical) -----------------------------

    def calibrate_randomized_response(self, yes_fraction: float) -> float:
        """Mean accuracy loss of randomized response at a given Yes fraction.

        Runs ``calibration_trials`` synthetic surveys of ``calibration_size``
        answers with the current ``(p, q)`` and no sampling, and returns the
        mean Eq. 6 loss.  Results are cached per Yes fraction (rounded) since
        the estimate is reused for every window.
        """
        if not 0.0 <= yes_fraction <= 1.0:
            raise ValueError("yes_fraction must lie in [0, 1]")
        key = round(yes_fraction, 3)
        if key in self._rr_loss_cache:
            return self._rr_loss_cache[key]
        losses = []
        true_yes = round(self.calibration_size * yes_fraction)
        for _ in range(self.calibration_trials):
            _, estimate = simulate_randomized_survey(
                true_yes=true_yes,
                total=self.calibration_size,
                p=self.p,
                q=self.q,
                rng=self.rng,
            )
            if true_yes > 0:
                losses.append(rr_accuracy_loss(true_yes, estimate))
            else:
                losses.append(abs(estimate) / self.calibration_size)
        loss = sum(losses) / len(losses)
        self._rr_loss_cache[key] = loss
        return loss

    def randomization_error(self, estimated_count: float, yes_fraction: float) -> float:
        """Absolute randomization error bound for one bucket estimate."""
        relative_loss = self.calibrate_randomized_response(yes_fraction)
        return abs(estimated_count) * relative_loss

    # -- combined error --------------------------------------------------------

    def bucket_error_bound(
        self,
        corrected_values: Sequence[float],
        population_size: int,
        estimated_count: float,
    ) -> float:
        """Total error bound for one bucket of one window.

        ``corrected_values`` are the per-answer contributions after inverting
        the randomization (the ``a_i`` of Eq. 2, which already contain the
        randomization noise); ``population_size`` is the total client count
        ``U``; ``estimated_count`` is the scaled bucket estimate.
        """
        sample_size = len(corrected_values)
        sampling_error = sampling_error_bound(
            corrected_values, population_size, self.confidence_level
        )
        yes_fraction = 0.0
        if sample_size > 0:
            yes_fraction = min(1.0, max(0.0, estimated_count / max(population_size, 1)))
        randomization_error = self.randomization_error(estimated_count, yes_fraction)
        if not math.isfinite(sampling_error):
            return float("inf")
        return combined_error_bound(sampling_error, randomization_error)


def count_answer_bits(
    answers: Iterable[QueryAnswer], num_buckets: int
) -> tuple[list[int], int]:
    """Per-bucket "Yes" counts of a window's answers and its epoch count.

    Returns the column sums of the first ``num_buckets`` answer bits and the
    number of distinct epochs the answers came from (at least 1, so an empty
    window still scales by one epoch's population).
    """
    rows = []
    epochs = set()
    for answer in answers:
        rows.append(answer.bits)
        epochs.add(answer.epoch)
    counts = [sum(column) for column in islice(zip(*rows), num_buckets)]
    if len(counts) < num_buckets:
        # ``zip`` stops at the shortest row: no answers at all, or one
        # narrower than the query.  Count what each answer does carry.
        counts = [0] * num_buckets
        for bits in rows:
            for index, bit in enumerate(bits[:num_buckets]):
                counts[index] += bit
    return counts, max(1, len(epochs))


def estimate_histogram(
    counts: Sequence[int],
    num_answers: int,
    population: int,
    labels: Sequence[str],
    p: float,
    q: float,
    estimator: ErrorEstimator,
    confidence_level: float = 0.95,
    window: tuple[float, float] | None = None,
) -> HistogramResult:
    """Turn one window's observed bucket counts into ``estimate +/- bound``.

    Every bucket's count is de-randomized (Eq. 5), scaled by
    ``population / num_answers`` (Eq. 2) and given the estimator's error
    bound.  The streaming aggregator and the historical batch job share this
    routine, so a window and a batch over the same answers agree.

    Within one window ``num_answers``, ``population``, ``p`` and ``q`` are
    fixed, so the estimate depends on the bucket's observed count alone, and
    buckets that share a count share one ``(estimate, error_bound)`` pair
    (a dict local to this call; nothing is remembered across windows).  That
    skips calls to :meth:`ErrorEstimator.bucket_error_bound` without
    changing what any call returns or draws: a repeated count has the same
    Yes fraction, hence the same ``round(yes_fraction, 3)`` key, which the
    first bucket with that count already put in the estimator's calibration
    cache.  The skipped call would have been a cache hit that returns the
    same float and leaves ``estimator.rng`` alone, so calibration misses
    still happen in the same order and consume the same draws.
    """
    histogram = HistogramResult(window=window, num_answers=num_answers)
    if num_answers == 0:
        unbounded = float("inf") if population > 0 else 0.0
        for index, label in enumerate(labels):
            histogram.add_bucket(
                BucketEstimate(index, label, 0.0, unbounded, confidence_level)
            )
        return histogram

    scale = population / num_answers
    # Per-answer corrected contributions: the a_i of Eq. 2, carrying the
    # randomization noise.  Bits are 0/1, so there are exactly two values.
    corrected_one = (1.0 - (1.0 - p) * q) / p
    corrected_zero = (0.0 - (1.0 - p) * q) / p
    by_count: dict[int, tuple[float, float]] = {}
    for index, label in enumerate(labels):
        observed_yes = counts[index]
        pair = by_count.get(observed_yes)
        if pair is None:
            estimate = scale * estimate_true_yes(observed_yes, num_answers, p, q)
            contributions = [corrected_one] * observed_yes + [corrected_zero] * (
                num_answers - observed_yes
            )
            error = estimator.bucket_error_bound(
                corrected_values=contributions,
                population_size=population,
                estimated_count=estimate,
            )
            pair = by_count[observed_yes] = (estimate, error)
        histogram.add_bucket(BucketEstimate(index, label, *pair, confidence_level))
    return histogram


def estimate_randomization_loss_curve(
    p: float,
    q: float,
    yes_fractions: Sequence[float],
    num_answers: int = 10_000,
    trials: int = 5,
    seed: int | None = None,
) -> list[float]:
    """Empirical accuracy-loss curve of randomized response across Yes fractions.

    This is the measurement behind Figure 5(a)'s native-query curve and the
    randomized-response component of Figure 4(b).
    """
    rng = random.Random(seed)
    losses = []
    for fraction in yes_fractions:
        true_yes = round(num_answers * fraction)
        trial_losses = []
        for _ in range(trials):
            _, estimate = simulate_randomized_survey(true_yes, num_answers, p, q, rng)
            if true_yes > 0:
                trial_losses.append(rr_accuracy_loss(true_yes, estimate))
            else:
                trial_losses.append(abs(estimate) / num_answers)
        losses.append(sum(trial_losses) / len(trial_losses))
    return losses
