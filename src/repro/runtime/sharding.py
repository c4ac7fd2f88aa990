"""Deterministic partitioning of the client population into shards.

Shards are *contiguous* slices of the client list so that concatenating the
per-shard response logs in shard order reproduces the serial client order
exactly — that is what makes the engine's merged log byte-for-byte
comparable with the serial reference.  Balanced sizing (the first
``num_items % num_shards`` shards get one extra client) keeps worker load even
without any coordination.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Shard:
    """One contiguous shard: clients ``[start, stop)`` of the population."""

    index: int
    start: int
    stop: int

    @property
    def num_items(self) -> int:
        return self.stop - self.start

    def as_slice(self) -> slice:
        return slice(self.start, self.stop)


def shard_span(shard: Shard) -> tuple[int, int]:
    """The ``(start, stop)`` range of a shard — its boundary identity.

    Both planners emit *stable* shard ids ``0..num_shards-1`` every epoch;
    only the spans move when :func:`plan_weighted_shards` rebalances.  The
    sticky shard→worker affinity of :mod:`repro.runtime.affinity` keys
    residency on the shard id and compares spans to decide whether a resident
    copy still covers the same clients — a moved span invalidates the copy,
    a stable one keeps the pinned worker's state live.
    """
    return (shard.start, shard.stop)


def plan_shards(num_items: int, num_shards: int) -> list[Shard]:
    """Split ``num_items`` into ``num_shards`` balanced contiguous shards.

    More shards than items yields trailing empty shards (a legal edge case:
    the executor simply gets nothing to do for them); ``num_shards`` must be
    at least one.
    """
    if num_items < 0:
        raise ValueError(f"num_items must be non-negative, got {num_items}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    base, extra = divmod(num_items, num_shards)
    shards = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(index=index, start=start, stop=start + size))
        start += size
    return shards


def plan_weighted_shards(weights: Sequence[float], num_shards: int) -> list[Shard]:
    """Split items into contiguous shards of approximately equal total *weight*.

    ``weights[i]`` is the predicted cost of item ``i`` (the adaptive shard
    sizer feeds per-client answering seconds).  Shard ``k`` ends at the first
    prefix sum reaching ``(k + 1)/num_shards`` of the total weight, so a
    slow stretch of clients gets fewer clients per shard and a fast stretch
    more — while shards stay contiguous, which is what keeps the shard-order
    merge equal to serial client order (the equivalence contract does not
    care where the boundaries fall).

    Falls back to :func:`plan_shards` when the weights are empty, all zero,
    or contain negatives/non-finite values (a timing glitch must never break
    an epoch).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    num_items = len(weights)
    total = 0.0
    for weight in weights:
        if not (weight >= 0.0) or weight == float("inf"):  # rejects NaN too
            return plan_shards(num_items, num_shards)
        total += weight
    if num_items == 0 or total <= 0.0:
        return plan_shards(num_items, num_shards)
    prefix = []
    running = 0.0
    for weight in weights:
        running += weight
        prefix.append(running)
    shards = []
    start = 0
    for index in range(num_shards):
        if index == num_shards - 1 or start >= num_items:
            stop = num_items if index == num_shards - 1 else start
        else:
            target = total * (index + 1) / num_shards
            # First item whose prefix sum reaches the target (lo=start keeps
            # shards contiguous and monotone), then cut on whichever side of
            # that item lands closer to the target.  Always absorbing the
            # boundary item leftward would let one heavy item near the tail
            # drag the whole boundary past it and collapse every later shard
            # to empty.
            reach = bisect_left(prefix, target, lo=start)
            if reach >= num_items:
                stop = num_items
            elif reach <= start:
                stop = start + 1
            elif (prefix[reach] - target) <= (target - prefix[reach - 1]):
                stop = reach + 1
            else:
                stop = reach
        shards.append(Shard(index=index, start=start, stop=stop))
        start = stop
    return shards
