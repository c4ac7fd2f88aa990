"""Generic synthetic yes/no answer populations for the microbenchmarks."""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class SyntheticAnswers:
    """A population of binary answers with a known truthful-Yes count."""

    answers: tuple
    yes_fraction: float

    @property
    def total(self) -> int:
        return len(self.answers)

    @property
    def true_yes(self) -> int:
        return sum(self.answers)

    def as_list(self) -> list[int]:
        return list(self.answers)


def generate_binary_answers(
    total: int, yes_fraction: float, seed: int | None = None, shuffle: bool = True
) -> SyntheticAnswers:
    """Generate ``total`` binary answers with an exact Yes fraction.

    The microbenchmarks require an exact count ("10,000 original answers, 60%
    of which are Yes"), so the Yes answers are materialized deterministically
    and only their order is randomized.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not 0.0 <= yes_fraction <= 1.0:
        raise ValueError("yes_fraction must lie in [0, 1]")
    num_yes = round(total * yes_fraction)
    answers = [1] * num_yes + [0] * (total - num_yes)
    if shuffle:
        random.Random(seed).shuffle(answers)
    return SyntheticAnswers(answers=tuple(answers), yes_fraction=yes_fraction)
