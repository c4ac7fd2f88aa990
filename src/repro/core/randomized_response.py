"""Step II: randomized response at clients (Section 3.2.2).

A participating client does not always answer truthfully.  For every answer
bit it flips a first coin with heads probability ``p``:

* heads  — respond with the truthful bit;
* tails  — flip a second coin with heads probability ``q`` and respond "Yes"
  (1) on heads, "No" (0) on tails.

The analyst receiving ``N`` randomized answers, ``R_y`` of which are "Yes",
estimates the number of original truthful "Yes" answers as

    E_y = (R_y - (1 - p) * q * N) / p                         (Eq. 5)

and the utility is measured by the accuracy loss

    eta = | (A_y - E_y) / A_y |                               (Eq. 6)

This mechanism is epsilon-differentially private with
``epsilon = ln((p + (1-p) q) / ((1-p) q))`` (Eq. 8); the privacy accounting
lives in :mod:`repro.core.privacy`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

try:  # numpy accelerates the synthetic surveys; the scalar loop remains the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - the environment ships numpy
    _np = None

from repro.analytics.metrics import accuracy_loss

# Below this many answers the per-bit loop is cheap enough that spinning up a
# numpy generator is not worth it (and the loop doubles as the reference).
_BINOMIAL_FAST_PATH_MIN_TOTAL = 128


@dataclass
class RandomizedResponder:
    """The two-coin randomized response mechanism.

    Parameters
    ----------
    p:
        Probability the first coin comes up heads (answer truthfully).
    q:
        Probability the second coin comes up heads (forced "Yes").
    rng:
        Source of randomness; seed it for reproducible tests.
    """

    p: float
    q: float
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")

    def randomize_bit(self, truthful_bit: int) -> int:
        """Randomize a single answer bit."""
        if truthful_bit not in (0, 1):
            raise ValueError(f"truthful bit must be 0 or 1, got {truthful_bit}")
        if self.rng.random() < self.p:
            return truthful_bit
        return 1 if self.rng.random() < self.q else 0

    def randomize_vector(self, truthful_bits: Sequence[int]) -> list[int]:
        """Randomize every bit of an answer vector independently (batched).

        Independent per-bucket randomization is what lets the aggregator apply
        the Eq. 5 estimator bucket by bucket.

        This is the batched fast path of the per-bit loop: the RNG method and
        the ``(p, q)`` constants are bound once for the whole vector instead
        of being re-resolved per bit.  It is *draw-compatible* with
        :meth:`randomize_bit` — it consumes exactly the same ``rng.random()``
        sequence in the same order (one draw per bit, plus a second draw only
        when the first coin lands tails) — so a seeded client produces
        byte-identical answers whichever path runs;
        :meth:`randomize_vector_scalar` keeps the per-bit reference and the
        regression test in ``tests/core/test_randomized_response.py`` pins the
        two together.
        """
        rand = self.rng.random
        p = self.p
        q = self.q
        out = []
        append = out.append
        for bit in truthful_bits:
            if bit != 0 and bit != 1:
                raise ValueError(f"truthful bit must be 0 or 1, got {bit}")
            if rand() < p:
                append(bit)
            else:
                append(1 if rand() < q else 0)
        return out

    def advance(self, num_bits: int) -> None:
        """Make :meth:`randomize_vector`'s draws for ``num_bits`` bits, no answer.

        The draw sequence does not depend on the truthful bits (one
        ``rng.random()`` per bit, a second only when the first is ``>= p``),
        so this leaves ``rng`` exactly where randomizing any ``num_bits``-long
        vector would.
        """
        rand = self.rng.random
        p = self.p
        for _ in range(num_bits):
            if rand() >= p:
                rand()

    def randomize_vector_scalar(self, truthful_bits: Sequence[int]) -> list[int]:
        """Per-bit reference implementation of :meth:`randomize_vector`."""
        return [self.randomize_bit(bit) for bit in truthful_bits]

    def response_probability(self, truthful_bit: int) -> float:
        """Probability that the randomized response is 1 given the truthful bit."""
        if truthful_bit == 1:
            return self.p + (1.0 - self.p) * self.q
        if truthful_bit == 0:
            return (1.0 - self.p) * self.q
        raise ValueError(f"truthful bit must be 0 or 1, got {truthful_bit}")

    def expected_yes(self, true_yes: int, total: int) -> float:
        """Expected number of randomized "Yes" responses."""
        if not 0 <= true_yes <= total:
            raise ValueError("true_yes must lie in [0, total]")
        return true_yes * self.response_probability(1) + (total - true_yes) * self.response_probability(0)


def estimate_true_yes(observed_yes: float, total: int, p: float, q: float) -> float:
    """Invert the randomization: estimate the truthful "Yes" count (Eq. 5)."""
    if p <= 0:
        raise ValueError("p must be positive to invert the randomization")
    if total < 0:
        raise ValueError("total must be non-negative")
    return (observed_yes - (1.0 - p) * q * total) / p


def estimate_true_counts(
    observed_counts: Sequence[float], total: int, p: float, q: float
) -> list[float]:
    """Apply the Eq. 5 estimator to every bucket of a histogram."""
    return [estimate_true_yes(count, total, p, q) for count in observed_counts]


def rr_accuracy_loss(actual_yes: float, estimated_yes: float) -> float:
    """Accuracy loss eta of the randomized-response estimate (Eq. 6)."""
    return accuracy_loss(actual_yes, estimated_yes)


def simulate_randomized_survey(
    true_yes: int,
    total: int,
    p: float,
    q: float,
    rng: random.Random | None = None,
) -> tuple[int, float]:
    """Run one synthetic randomized-response survey.

    Returns the observed "Yes" count and the Eq. 5 estimate of the truthful
    count.  Used by the microbenchmarks (Table 1, Figures 4 and 5) and by the
    empirical error-estimation procedure of Section 3.2.4.

    Large surveys use two binomial draws instead of ``total`` per-bit coin
    flips: the bits are independent, so the observed "Yes" count is exactly
    ``Binomial(A_y, P(1|1)) + Binomial(N - A_y, P(1|0))`` — the same
    distribution as the bit loop at a tiny fraction of the cost.  The draw is
    seeded from ``rng`` so a seeded caller stays reproducible.
    """
    if not 0 <= true_yes <= total:
        raise ValueError("true_yes must lie in [0, total]")
    rng = rng or random.Random()
    responder = RandomizedResponder(p=p, q=q, rng=rng)  # validates p, q
    if _np is not None and total >= _BINOMIAL_FAST_PATH_MIN_TOTAL:
        generator = _np.random.default_rng(rng.getrandbits(64))
        observed = int(
            generator.binomial(true_yes, responder.response_probability(1))
            + generator.binomial(total - true_yes, responder.response_probability(0))
        )
    else:
        observed = 0
        for i in range(total):
            truthful = 1 if i < true_yes else 0
            observed += responder.randomize_bit(truthful)
    estimate = estimate_true_yes(observed, total, p, q)
    return observed, estimate
