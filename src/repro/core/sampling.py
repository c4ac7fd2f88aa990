"""Step I: sampling at clients (Section 3.2.1).

PrivApprox applies Simple Random Sampling (SRS) *at the data source*: the
aggregator converts the analyst's budget into a sampling parameter ``s`` and
each client flips a coin with success probability ``s`` to decide whether it
participates in the current epoch.  The aggregate over the ``U'`` participants
is scaled back to the population of ``U`` clients:

    tau_hat = (U / U') * sum_{i=1..U'} a_i  +/-  error            (Eq. 2)
    error   = t * sqrt(Var_hat(tau_hat))                          (Eq. 3)
    Var_hat(tau_hat) = (U^2 / U') * sigma^2 * (U - U') / U        (Eq. 4)

where ``sigma^2`` is the sample variance of the answers and ``t`` the
t-distribution quantile at the requested confidence level.

The module also implements the stratified-sampling extension sketched in the
technical report: clients are grouped into strata with potentially different
answer distributions, each stratum is sampled independently, and the stratum
estimates are summed (with their variances added) to form the population
estimate.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from scipy import special


@dataclass(frozen=True)
class SamplingEstimate:
    """An estimated population sum with its sampling error bound."""

    estimate: float
    error_bound: float
    population_size: int
    sample_size: int
    confidence_level: float = 0.95

    @property
    def lower(self) -> float:
        return self.estimate - self.error_bound

    @property
    def upper(self) -> float:
        return self.estimate + self.error_bound

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    @property
    def sampling_fraction(self) -> float:
        if self.population_size == 0:
            return 0.0
        return self.sample_size / self.population_size


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (n-1 denominator); zero for fewer than 2 values."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    return sum((v - mean) ** 2 for v in values) / (n - 1)


@functools.lru_cache(maxsize=1024)
def t_critical(sample_size: int, confidence_level: float = 0.95) -> float:
    """t-distribution critical value with ``sample_size - 1`` degrees of freedom.

    Memoised on its arguments: every bucket of a window (and every window
    with the same answer count) asks for the same quantile.  It calls
    ``scipy.special.stdtrit`` directly -- the function ``scipy.stats.t.ppf``
    evaluates, so the same float, without the ~100 us of distribution
    argument handling around it.  A bad ``confidence_level`` raises on every
    call, because exceptions are never cached.
    """
    if not 0 < confidence_level < 1:
        raise ValueError("confidence level must be in (0, 1)")
    if sample_size < 2:
        # With fewer than two observations the t quantile is undefined; the
        # error bound is effectively unbounded, which we cap for usability.
        return float("inf")
    alpha = 1.0 - confidence_level
    return float(special.stdtrit(sample_size - 1, 1.0 - alpha / 2.0))


def estimate_sum(
    sampled_values: Sequence[float],
    population_size: int,
    confidence_level: float = 0.95,
) -> SamplingEstimate:
    """Estimate a population sum from a simple random sample (Eqs. 2-4)."""
    sample_size = len(sampled_values)
    if population_size < sample_size:
        raise ValueError(
            f"population ({population_size}) cannot be smaller than the sample ({sample_size})"
        )
    if sample_size == 0:
        return SamplingEstimate(
            estimate=0.0,
            error_bound=float("inf") if population_size > 0 else 0.0,
            population_size=population_size,
            sample_size=0,
            confidence_level=confidence_level,
        )
    scale = population_size / sample_size
    estimate = scale * sum(sampled_values)
    sigma_squared = sample_variance(sampled_values)
    variance = (
        (population_size ** 2 / sample_size)
        * sigma_squared
        * ((population_size - sample_size) / population_size)
    )
    t_value = t_critical(sample_size, confidence_level)
    error = t_value * math.sqrt(variance) if math.isfinite(t_value) else float("inf")
    if sample_size == population_size:
        error = 0.0
    return SamplingEstimate(
        estimate=estimate,
        error_bound=error,
        population_size=population_size,
        sample_size=sample_size,
        confidence_level=confidence_level,
    )


@dataclass
class SimpleRandomSampler:
    """Client-side participation coin flip with probability ``s``.

    :meth:`should_participate` is the coin flip from Section 3.2.1 and
    :meth:`select` draws a whole sample from an indexed population at once,
    which the analytical benchmarks use.  A client's sampler has no ``rng``:
    it passes each epoch's coin uniform in
    (:meth:`repro.core.seeding.EpochDraws.coin`).
    """

    sampling_fraction: float
    rng: random.Random | None = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if not 0.0 <= self.sampling_fraction <= 1.0:
            raise ValueError("sampling fraction must lie in [0, 1]")

    def should_participate(self, uniform: float | None = None) -> bool:
        """One coin flip: True with probability ``s``.

        ``uniform`` is the coin's draw in ``[0, 1)``; without it ``rng``
        draws one.
        """
        if self.sampling_fraction >= 1.0:
            return True
        if self.sampling_fraction <= 0.0:
            return False
        if uniform is None:
            uniform = self.rng.random()
        return uniform < self.sampling_fraction

    def select(self, population: Sequence) -> list:
        """Independently include each member of ``population`` with probability ``s``."""
        return [item for item in population if self.should_participate()]

    def expected_sample_size(self, population_size: int) -> float:
        return population_size * self.sampling_fraction


@dataclass(frozen=True)
class StratumEstimate:
    """Per-stratum estimate used by the stratified sampler."""

    name: str
    estimate: float
    variance: float
    population_size: int
    sample_size: int


@dataclass
class StratifiedSampler:
    """Stratified sampling over clients with differing answer distributions.

    The technical-report extension splits the client population into strata
    (e.g. by region or device class), samples each stratum independently —
    either with a shared fraction or proportional allocation — and combines
    the per-stratum sum estimates.  Variances add across strata, so the
    combined error bound is ``t * sqrt(sum of variances)``.
    """

    sampling_fraction: float
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ValueError("sampling fraction must lie in (0, 1]")

    def sample_stratum(self, name: str, values: Sequence[float]) -> StratumEstimate:
        """Sample one stratum and return its estimate and variance."""
        population_size = len(values)
        sampler = SimpleRandomSampler(self.sampling_fraction, rng=self.rng)
        sampled = sampler.select(values)
        if not sampled and population_size > 0:
            # Guarantee at least one observation so the stratum is represented.
            sampled = [values[self.rng.randrange(population_size)]]
        sample_size = len(sampled)
        if sample_size == 0:
            return StratumEstimate(name, 0.0, 0.0, 0, 0)
        scale = population_size / sample_size
        estimate = scale * sum(sampled)
        sigma_squared = sample_variance(sampled)
        variance = (
            (population_size ** 2 / sample_size)
            * sigma_squared
            * ((population_size - sample_size) / population_size)
        )
        return StratumEstimate(name, estimate, variance, population_size, sample_size)

    def estimate(
        self,
        strata: dict[str, Sequence[float]],
        confidence_level: float = 0.95,
    ) -> SamplingEstimate:
        """Combined population-sum estimate across all strata."""
        if not strata:
            raise ValueError("at least one stratum is required")
        stratum_estimates = [
            self.sample_stratum(name, values) for name, values in strata.items()
        ]
        total_estimate = sum(se.estimate for se in stratum_estimates)
        total_variance = sum(se.variance for se in stratum_estimates)
        total_sample = sum(se.sample_size for se in stratum_estimates)
        total_population = sum(se.population_size for se in stratum_estimates)
        t_value = t_critical(max(total_sample, 2), confidence_level)
        error = t_value * math.sqrt(total_variance)
        return SamplingEstimate(
            estimate=total_estimate,
            error_bound=error,
            population_size=total_population,
            sample_size=total_sample,
            confidence_level=confidence_level,
        )
