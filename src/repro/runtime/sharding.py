"""Deterministic partitioning of the client population into shards.

Shards are *contiguous* slices of the client list so that concatenating the
per-shard response logs in shard order reproduces the serial client order
exactly — that is what makes the engine's merged log byte-for-byte
comparable with the serial reference.  Balanced sizing (the first
``num_items % num_shards`` shards get one extra client) keeps worker load even
without any coordination, and because the boundaries depend only on the
population size, two runs with the same seed shard identically — no
measured timing ever moves a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    :func:`plan_shards` depends only on the population size, so a
    deployment's spans never move.  The sticky shard→worker affinity of
    :mod:`repro.runtime.affinity` keys residency on the shard id and checks
    the span before sending a delta: a resident copy only ever takes deltas
    for the clients it was bootstrapped with.
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
