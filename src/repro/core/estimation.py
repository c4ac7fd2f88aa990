"""Step IV support: error-bound estimation for approximate query results.

Section 3.2.4 decomposes the accuracy loss into the part caused by sampling and
the part caused by randomized response, shows the two are statistically
independent, and reports ``queryResult +/- errorBound`` with each result.

* The sampling error alone is the t-distribution confidence interval of
  Equations 2-4 (:func:`sampling_error_bound`).
* A bucket estimate carries both sources.  :func:`bucket_variance` gives
  its variance in closed form -- sampling part under the finite-population
  factor, randomized-response part without it -- and the two add as
  variances, not as margins (the paper sums the errors; see
  ``docs/PRIVACY.md``).  :meth:`ErrorEstimator.bucket_error_bound` turns it
  into a margin at the confidence level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from repro.analytics.histogram import BucketEstimate, HistogramResult
from repro.core.query import QueryAnswer
from repro.core.randomized_response import estimate_true_yes
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


def bucket_variance(
    observed_yes: float, num_answers: float, population: float, p: float, q: float
) -> float:
    """Variance of one bucket's scaled estimate (sampling + randomized response).

    ``observed_yes`` of the ``num_answers`` randomized bits are Yes; the
    estimate scales their de-randomized sum to ``population`` clients (Eqs.
    2 and 5).  With ``f = n / U``:

    * ``s_a^2 = k (n - k) / (p^2 n (n - 1))`` is the sample variance of the
      corrected contributions (the ``a_i`` of Eq. 2), which take two values;
    * ``v_rr = (y pi_1 (1 - pi_1) + (1 - y) pi_0 (1 - pi_0)) / p^2`` is the
      per-answer randomized-response variance at the de-randomized Yes
      fraction ``y`` (clamped to [0, 1]), with ``pi_1 = p + (1 - p) q`` and
      ``pi_0 = (1 - p) q`` the Yes probabilities of a true Yes / No;
    * ``Var = (U^2 / n) ((1 - f) s_a^2 + f v_rr)``: the finite-population
      factor applies to the sampling part only, and the two independent
      sources add as variances.

    Counts may be fractional (expected values), which is how
    :func:`expected_accuracy_loss` reuses it.  Needs ``num_answers >= 2``.
    """
    n, k = num_answers, observed_yes
    fraction = min(1.0, n / population) if population > 0 else 1.0
    pi_0 = (1.0 - p) * q
    pi_1 = p + pi_0
    yes_fraction = min(1.0, max(0.0, (k / n - pi_0) / p))
    contribution_variance = k * (n - k) / (p * p * n * (n - 1))
    rr_variance = (
        yes_fraction * pi_1 * (1.0 - pi_1) + (1.0 - yes_fraction) * pi_0 * (1.0 - pi_0)
    ) / (p * p)
    return (population * population / n) * (
        (1.0 - fraction) * contribution_variance + fraction * rr_variance
    )


def expected_accuracy_loss(
    sampling_fraction: float, p: float, q: float, population: int, yes_fraction: float
) -> float:
    """Expected Eq. 6 loss of a scaled count: ``sqrt(2 / pi) * sigma / mu``.

    ``mu = U y`` is the true count and ``sigma`` the square root of
    :func:`bucket_variance` at ``n = s U`` answers with the expected number
    of observed Yes bits; an unbiased, normal estimate's mean absolute error
    is ``sqrt(2 / pi) sigma``.
    """
    num_answers = sampling_fraction * population
    pi_0 = (1.0 - p) * q
    observed_yes = num_answers * (pi_0 + p * yes_fraction)
    variance = bucket_variance(observed_yes, num_answers, population, p, q)
    return math.sqrt(2.0 / math.pi) * math.sqrt(variance) / (population * yes_fraction)


@dataclass(frozen=True)
class ErrorEstimator:
    """Produces the per-bucket error bound attached to every query result."""

    confidence_level: float = 0.95

    def bucket_error_bound(
        self, observed_yes: int, num_answers: int, population: int, p: float, q: float
    ) -> float:
        """``t_{n-1}(level) * sqrt(Var)`` for one bucket of one window.

        ``p`` and ``q`` are the randomization parameters the estimate was
        inverted with; ``Var`` is :func:`bucket_variance`.  An empty window
        is unbounded (zero when there is no population), and so is a window
        of one answer, whose sample variance is undefined.
        """
        if num_answers == 0:
            return float("inf") if population > 0 else 0.0
        t_value = t_critical(num_answers, self.confidence_level)
        if not math.isfinite(t_value):
            return float("inf")
        return t_value * math.sqrt(
            bucket_variance(observed_yes, num_answers, population, p, q)
        )


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
    confidence_level: float = 0.95,
    window: tuple[float, float] | None = None,
) -> HistogramResult:
    """Turn one window's observed bucket counts into ``estimate +/- bound``.

    Every bucket's count is de-randomized (Eq. 5), scaled by
    ``population / num_answers`` (Eq. 2) and given its error bound at the
    same ``p`` and ``q``.  The streaming aggregator and the historical batch
    job share this routine, so a window and a batch over the same answers
    agree.

    Within one window ``num_answers``, ``population``, ``p`` and ``q`` are
    fixed, so ``(estimate, error_bound)`` depends on the bucket's observed
    count alone: buckets that share a count share one pair (a dict local to
    this call; nothing is remembered across windows).
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
    estimator = ErrorEstimator(confidence_level)
    by_count: dict[int, tuple[float, float]] = {}
    for index, label in enumerate(labels):
        observed_yes = counts[index]
        pair = by_count.get(observed_yes)
        if pair is None:
            estimate = scale * estimate_true_yes(observed_yes, num_answers, p, q)
            error = estimator.bucket_error_bound(
                observed_yes, num_answers, population, p, q
            )
            pair = by_count[observed_yes] = (estimate, error)
        histogram.add_bucket(BucketEstimate(index, label, *pair, confidence_level))
    return histogram
