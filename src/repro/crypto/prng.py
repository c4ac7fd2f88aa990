"""Pseudo-random keystream generation for the XOR-based encryption scheme.

The paper requires each client to generate ``n - 1`` random bit strings using a
"cryptographic pseudo-random number generator (PRNG) seeded with a
cryptographically strong random number" (Section 3.2.3).  We provide a
:class:`KeystreamGenerator` built on BLAKE2b in counter mode, which is a
standard construction for deriving an arbitrary-length keystream from a
seed, plus a small helper for obtaining strong random seeds from the operating
system.
"""

from __future__ import annotations

import hashlib
import os
import struct

_DIGEST_SIZE = hashlib.blake2b().digest_size
_COUNTER = struct.Struct(">Q")


def secure_random_bytes(length: int) -> bytes:
    """Return ``length`` bytes of operating-system entropy.

    This is the "cryptographically strong random number" used to seed the
    keystream generator.  It simply wraps :func:`os.urandom` so that tests can
    monkeypatch a single location.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return os.urandom(length)


def _blocks(seed: bytes, first: int, count: int) -> bytes:
    """Counter-mode blocks ``first .. first + count - 1`` of ``seed``'s stream."""
    return b"".join(
        [hashlib.blake2b(seed + _COUNTER.pack(first + i)).digest() for i in range(count)]
    )


def keystream(seed: bytes, length: int) -> bytes:
    """The first ``length`` bytes of ``seed``'s keystream, in one call.

    Exactly what ``KeystreamGenerator(seed).next_bytes(length)`` returns,
    without building a generator; the one-seed reference for
    :func:`keystreams`.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return _blocks(seed, 0, -(-length // _DIGEST_SIZE))[:length]


def keystreams(seeds, length: int) -> list[bytes]:
    """``[keystream(seed, length) for seed in seeds]``, one hash call per block.

    The counter blocks are packed once for every seed, and each seed's
    blocks are hashed directly: the form a shard reads its rows' pads in
    (:meth:`repro.core.encryption.AnswerCodec.pad_columns`), where a
    per-seed :func:`keystream` call would cost more than its hashing.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    counters = [_COUNTER.pack(i) for i in range(-(-length // _DIGEST_SIZE))]
    blake2b = hashlib.blake2b
    if len(counters) == 1:
        # The usual pad (a narrow message, two proxies): no per-seed join.
        (counter,) = counters
        return [blake2b(seed + counter).digest()[:length] for seed in seeds]
    return [
        b"".join([blake2b(seed + counter).digest() for counter in counters])[:length]
        for seed in seeds
    ]


class KeystreamGenerator:
    """BLAKE2b counter-mode keystream generator: block ``i`` is
    ``BLAKE2b(seed || i)``, 64 bytes.

    The generator produces a deterministic byte stream from a seed.  Two
    generators created with the same seed yield identical streams, which is
    what makes the XOR one-time-pad shares reproducible in tests while still
    being unpredictable to an attacker who does not know the seed.  A client
    seeds a fresh one for every message it encrypts, with its PRF key, the
    answer's coordinates and the message itself
    (:meth:`repro.core.seeding.EpochDraws.pad_seed`).

    Parameters
    ----------
    seed:
        Seed bytes.  If ``None`` a fresh 32-byte seed is drawn from
        :func:`secure_random_bytes`.
    """

    def __init__(self, seed: bytes | None = None):
        if seed is None:
            seed = secure_random_bytes(32)
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = bytearray()

    @property
    def seed(self) -> bytes:
        """The seed this generator was created with."""
        return self._seed

    def _refill(self, min_bytes: int = 1) -> None:
        """Extend the buffer with however many counter-mode blocks are needed.

        Generating all the blocks for a bulk request in one pass (and joining
        them once) keeps large ``next_bytes`` calls cheap; the byte stream is
        identical to refilling one block at a time.
        """
        num_blocks = max(1, -(-min_bytes // _DIGEST_SIZE))
        self._buffer.extend(_blocks(self._seed, self._counter, num_blocks))
        self._counter += num_blocks

    def next_bytes(self, length: int) -> bytes:
        """Return the next ``length`` bytes of the keystream."""
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        missing = length - len(self._buffer)
        if missing > 0:
            self._refill(missing)
        out = bytes(self._buffer[:length])
        del self._buffer[:length]
        return out
