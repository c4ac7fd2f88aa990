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
from statistics import NormalDist
from typing import Sequence


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

    The two-sided quantile: ``P(|T| <= t) = confidence_level``.  Memoised on
    its arguments: every bucket of a window (and every window with the same
    answer count) asks for the same quantile.  A bad ``confidence_level``
    raises on every call, because exceptions are never cached.
    """
    if not 0 < confidence_level < 1:
        raise ValueError("confidence level must be in (0, 1)")
    if sample_size < 2:
        # With fewer than two observations the t quantile is undefined; the
        # error bound is effectively unbounded, which we cap for usability.
        return float("inf")
    return _t_quantile(sample_size - 1, confidence_level)


def _t_quantile(df: int, confidence: float) -> float:
    """The ``t > 0`` with ``P(|T| <= t) = confidence`` for ``df`` degrees of freedom.

    Starts from the Cornish-Fisher expansion in ``1/df`` (Abramowitz &
    Stegun 26.7.5, five terms), which is the answer outright once its last
    term is below double precision (``df`` above ~1,300 at 95 %, ~30,000 at
    the far tail).  Otherwise a safeguarded Newton solve runs on whichever
    mass is computed directly: the central mass ``I_y(1/2, df/2)`` by its
    power series, or, when ``df * (1 - confidence) < 5``, the tail
    ``I_x(df/2, 1/2)`` by its continued fraction once ``t`` is past the
    fraction's switch point (in log-log form, where the tail is nearly a
    power of ``t``).  The series misses a tail by about ``eps / tail``
    relative and the fraction by about ``df * eps / 5``, so the rule bounds
    the error by ~1e-12 wherever the expansion has not converged; measured
    against a 40-digit reference it is within 4e-15 at confidences from
    1e-9 to ``1 - 2**-52``.  One to four steps of ~5-25 us each.
    """
    alpha = 1.0 - confidence
    z = -NormalDist().inv_cdf(0.5 * alpha)  # the far tail keeps its digits
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    g5 = (
        ((((27.0 * z2 + 339.0) * z2 + 930.0) * z2 - 1782.0) * z2 - 765.0) * z2 + 17955.0
    ) * z / 368640.0
    v = 1.0 / df
    last = g5 * v**5
    t = z + v * (g1 + v * (g2 + v * (g3 + v * g4))) + last
    if last <= 1e-16 * t and confidence >= 0.5:
        # The expansion is exact to double precision here (what it leaves out
        # is ~1/df of its last term), and no mass is computed that closely.
        # Below 0.5, ``alpha`` has lost digits of ``confidence``: Newton's
        # central mass takes the confidence itself.
        return t
    half = 0.5 * df
    density_scale = 2.0 * _half_gamma_ratio(half) / math.sqrt(df * math.pi)
    tail_from = 3.0 * df / (df + 2.0) if df * alpha < 5.0 else math.inf
    low, high = 0.0, math.inf
    for _ in range(100):
        t2 = t * t
        # d/dt P(|T| <= t), twice the density; the masses share its factors.
        slope = density_scale * math.exp(-(half + 0.5) * math.log1p(t2 / df))
        if slope == 0.0:  # far past any quantile a float confidence names
            high = t
            t = 0.5 * (low + high)
            continue
        if t2 > tail_from:
            tail = t * slope / df * _tail_fraction(half, df / (df + t2))
            if tail > alpha:
                low = t
            else:
                high = t
            t_next = t * math.exp(math.log(tail / alpha) * tail / (t * slope)) if tail else 0.0
        else:
            miss = t * slope * _central_series(half, t2 / (df + t2)) - confidence
            if miss < 0.0:
                low = t
            else:
                high = t
            t_next = t - miss / slope
        if abs(t_next - t) <= 1e-9 * t:
            # Quadratic convergence: this step leaves ~1e-18 of error.
            return t_next
        if not low < t_next < high:
            t_next = 2.0 * t if high == math.inf else 0.5 * (low + high)
        t = t_next
    return t


def _half_gamma_ratio(z: float) -> float:
    """``Gamma(z + 1/2) / Gamma(z)`` for ``z`` a multiple of 1/2."""
    if z >= 32.0:
        # log of the ratio: (1/2) log z - 1/(8z) + 1/(192z^3) - ..., the
        # Bernoulli-polynomial series, truncated below 1e-17 at z >= 32.
        w = 1.0 / (z * z)
        log_ratio = (
            -1.0 / 8.0
            + w * (1.0 / 192.0 + w * (-1.0 / 640.0 + w * (17.0 / 14336.0 - w * 31.0 / 18432.0)))
        ) / z
        return math.sqrt(z) * math.exp(log_ratio)
    if z % 1.0:
        ratio, k = 1.0 / math.sqrt(math.pi), 0.5
    else:
        ratio, k = math.sqrt(math.pi) / 2.0, 1.0
    while k < z:
        ratio *= (k + 0.5) / k
        k += 1.0
    return ratio


def _central_series(half: float, y: float) -> float:
    """``sum_n ((df+1)/2)_n / (3/2)_n y^n``: ``I_y(1/2, df/2)`` without its
    prefactor (``half = df / 2``)."""
    rising = half + 0.5
    total = term = 1.0
    n = 0.0
    while term > 1e-17 * total:
        term *= (rising + n) / (1.5 + n) * y
        total += term
        n += 1.0
    return total


def _tail_fraction(a: float, x: float) -> float:
    """Lentz's evaluation of the continued fraction of ``I_x(a, 1/2)``
    without its prefactor (Numerical Recipes' ``betacf`` with ``b = 1/2``)."""
    c = 1.0
    d = 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
    fraction = d
    m = 1.0
    while m <= 300.0:
        m2 = m + m
        numerator = m * (0.5 - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 / (1.0 + numerator * d)
        c = 1.0 + numerator / c
        fraction *= d * c
        numerator = -(a + m) * (a + 0.5 + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 / (1.0 + numerator * d)
        c = 1.0 + numerator / c
        fraction *= d * c
        if abs(d * c - 1.0) <= 1e-16:
            break
        m += 1.0
    return fraction


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
