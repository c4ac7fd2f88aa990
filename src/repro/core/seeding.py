"""Deterministic per-query seed derivation, shared across components.

A client needs an independent random stream *per query* that is still
reproducible from one deployment seed: its per-query sampling/randomization
RNG and its encryption keystream.  Both use the same mixing formula, so the
derivation is defined in exactly one place.
"""

from __future__ import annotations

import zlib

# A prime multiplier spreads consecutive base seeds apart before the query
# hash is mixed in (the same constant the system uses to derive per-client
# seeds from the deployment seed).
_SEED_STRIDE = 1_000_003


def derive_query_seed(seed: int, query_id: str) -> int:
    """An integer seed unique to (base seed, query id), deterministically.

    Mixes the base seed with a CRC of the query id, so two queries on the
    same client (or two clients on the same query) get unrelated streams
    while a fixed deployment seed reproduces every stream exactly.
    """
    return seed * _SEED_STRIDE + zlib.crc32(query_id.encode("utf-8"))


def derive_query_seed_bytes(seed: int, query_id: str) -> bytes:
    """The :func:`derive_query_seed` value as bytes (keystream seeding).

    16 bytes: the derived value can exceed 64 bits for large base seeds
    (the system multiplies twice by ``_SEED_STRIDE`` on the way to a
    client's query seed).
    """
    return derive_query_seed(seed, query_id).to_bytes(16, "big", signed=True)
