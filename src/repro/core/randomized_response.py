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

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.analytics.metrics import accuracy_loss
from repro.core.seeding import rr_high_column

# Below this many answers the per-bit loop is cheap enough that spinning up a
# numpy generator is not worth it (and the loop doubles as the reference).
_BINOMIAL_FAST_PATH_MIN_TOTAL = 128


@functools.lru_cache(maxsize=64)
def _byte_tables(p: float, q: float) -> tuple[int, int, bytes, bytes, bytes]:
    """The thresholds for ``(p, q)`` and what each high byte of ``u`` decides.

    ``keep_below = ceil(p * 2**32)`` and ``one_below = ceil((p + (1-p) q) *
    2**32)``, so ``P(keep) = keep_below / 2**32`` is within ``2**-32`` of
    ``p`` and likewise for the answer rates.  A high byte ``h`` covers
    ``u in [h * 2**24, (h + 1) * 2**24)``; unless a threshold falls strictly
    inside that range, the byte alone decides the bit, and the three tables
    (for ``bytes.translate``) mark the bytes that decide "keep", "answer 1",
    or nothing yet.
    """
    scale = 1 << 32
    keep_below = math.ceil(p * scale)
    one_below = min(scale, math.ceil((p + (1.0 - p) * q) * scale))
    keep, one, undecided = bytearray(256), bytearray(256), bytearray(256)
    for high in range(256):
        low_end, high_end = high << 24, (high + 1) << 24
        if low_end < keep_below < high_end or low_end < one_below < high_end:
            undecided[high] = 1
        elif low_end < keep_below:
            keep[high] = 1
        elif low_end < one_below:
            one[high] = 1
    return keep_below, one_below, bytes(keep), bytes(one), bytes(undecided)


class _RngDraws:
    """The two reads :meth:`RandomizedResponder.randomize_vector` makes, off
    a ``random.Random`` — for a responder used outside a client."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def rr_high(self, num_bits: int) -> bytes:
        return self._rng.randbytes(num_bits)

    def rr_low(self, num_bits: int, count: int) -> bytes:
        return self._rng.randbytes(3 * count)


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
        Source of randomness for :meth:`randomize_bit` and for
        :meth:`randomize_vector` without draws; a client's responder has
        none (every draw arrives with the answer).
    """

    p: float
    q: float
    rng: random.Random | None = field(default_factory=random.Random)
    _tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        self._tables = _byte_tables(self.p, self.q)

    def randomize_bit(self, truthful_bit: int) -> int:
        """Randomize a single answer bit."""
        if truthful_bit not in (0, 1):
            raise ValueError(f"truthful bit must be 0 or 1, got {truthful_bit}")
        if self.rng.random() < self.p:
            return truthful_bit
        return 1 if self.rng.random() < self.q else 0

    def randomize_vector(self, truthful_bits: Sequence[int], draws=None) -> bytes:
        """Randomize every bit of one or more answer vectors independently.

        Independent per-bucket randomization is what lets the aggregator apply
        the Eq. 5 estimator bucket by bucket.  Returns one 0/1 byte per bit.

        ``draws`` is a list of :class:`~repro.core.seeding.EpochDraws`, one
        per answer: ``truthful_bits`` is then that many equally long rows laid
        end to end, and row ``i`` reads only ``draws[i]`` — a shard's column
        of answers to one query in one call.  A single draws object is the
        one-row case; without draws ``rng`` supplies the one row's bytes.

        Each bit ``i`` has one 32-bit uniform ``u``: ``u < p`` (scaled to
        ``2**32``) keeps the truthful bit, else ``u < p + (1 - p) q`` answers
        1, else 0 — the two coins of Section 3.2.2 read off one draw.  The
        high bytes of every row's ``u`` come in one column read
        (:func:`~repro.core.seeding.rr_high_column`); laid end to end, they
        decide almost every bit at C speed through one ``bytes.translate``
        and one big-integer AND/OR.
        Only the bits whose high byte straddles a threshold (at most 2 of
        256 values) need their low 24 bits, read for all of one row's at
        once (``draws.rr_low``), and only rows holding such a bit read them.
        """
        truthful = bytes(truthful_bits)
        if truthful.translate(None, b"\x00\x01"):
            raise ValueError("truthful bits must be 0 or 1")
        if draws is None:
            draws = _RngDraws(self.rng)
        rows = draws if isinstance(draws, list) else [draws]
        if not rows:
            if truthful:
                raise ValueError("truthful bits for no rows")
            return b""
        num_bits, extra = divmod(len(truthful), len(rows))
        if extra:
            raise ValueError(f"{len(truthful)} truthful bits are not {len(rows)} equal rows")
        keep_below, one_below, keep, one, undecided = self._tables
        high = rr_high_column(rows, num_bits)
        decided = (
            int.from_bytes(truthful, "little") & int.from_bytes(high.translate(keep), "little")
            | int.from_bytes(high.translate(one), "little")
        ).to_bytes(len(truthful), "little")
        pending = high.translate(undecided)
        index = pending.find(1)
        if index < 0:
            return decided
        out = bytearray(decided)
        while index >= 0:
            row = index // num_bits
            count = pending.count(1, index, (row + 1) * num_bits)
            lows = rows[row].rr_low(num_bits, count)
            for offset in range(0, 3 * count, 3):
                uniform = high[index] << 24 | int.from_bytes(lows[offset : offset + 3], "big")
                out[index] = truthful[index] if uniform < keep_below else uniform < one_below
                index = pending.find(1, index + 1)
        return bytes(out)

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
    if total >= _BINOMIAL_FAST_PATH_MIN_TOTAL:
        # Imported here: the simulator is numpy's only user, and the running
        # system (clients, proxies, aggregator, workers) never loads it.
        import numpy

        generator = numpy.random.default_rng(rng.getrandbits(64))
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
