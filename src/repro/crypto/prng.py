"""Pseudo-random keystream generation for the XOR-based encryption scheme.

The paper requires each client to generate ``n - 1`` random bit strings using a
"cryptographic pseudo-random number generator (PRNG) seeded with a
cryptographically strong random number" (Section 3.2.3).  We provide a
:class:`KeystreamGenerator` built on SHA-256 in counter mode, which is a
standard construction for deriving an arbitrary-length keystream from a short
seed, plus a small helper for obtaining strong random seeds from the operating
system.
"""

from __future__ import annotations

import hashlib
import os
import struct

_DIGEST_SIZE = hashlib.sha256().digest_size


def secure_random_bytes(length: int) -> bytes:
    """Return ``length`` bytes of operating-system entropy.

    This is the "cryptographically strong random number" used to seed the
    keystream generator.  It simply wraps :func:`os.urandom` so that tests can
    monkeypatch a single location.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return os.urandom(length)


class KeystreamGenerator:
    """SHA-256 counter-mode keystream generator.

    The generator produces a deterministic byte stream from a seed.  Two
    generators created with the same seed yield identical streams, which is
    what makes the XOR one-time-pad shares reproducible in tests while still
    being unpredictable to an attacker who does not know the seed.

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

    def getstate(self) -> tuple[bytes, int, bytes]:
        """Snapshot the full generator state as ``(seed, counter, buffer)``.

        Together with :meth:`setstate` this lets a client's keystream travel
        to another process (the pinned-worker epoch runtime serializes it
        into a shard bootstrap) and resume mid-stream: a restored generator
        produces exactly the bytes the original would have produced next.
        """
        return (self._seed, self._counter, bytes(self._buffer))

    def setstate(self, state: tuple[bytes, int, bytes]) -> None:
        """Restore a state captured by :meth:`getstate`."""
        seed, counter, buffer = state
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("state seed must be bytes")
        if not isinstance(counter, int) or counter < 0:
            raise ValueError(f"state counter must be a non-negative int, got {counter!r}")
        if not isinstance(buffer, (bytes, bytearray)):
            raise TypeError("state buffer must be bytes")
        self._seed = bytes(seed)
        self._counter = counter
        self._buffer = bytearray(buffer)

    def _refill(self, min_bytes: int = 1) -> None:
        """Extend the buffer with however many counter-mode blocks are needed.

        Generating all the blocks for a bulk request in one pass (and joining
        them once) keeps large ``next_bytes`` calls cheap; the byte stream is
        identical to refilling one block at a time.
        """
        num_blocks = max(1, -(-min_bytes // _DIGEST_SIZE))
        seed = self._seed
        counter = self._counter
        self._buffer.extend(
            b"".join(
                hashlib.sha256(seed + struct.pack(">Q", counter + i)).digest()
                for i in range(num_blocks)
            )
        )
        self._counter = counter + num_blocks

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

    def skip(self, length: int) -> None:
        """Advance past the next ``length`` bytes without producing them.

        Leaves :meth:`getstate` exactly where ``next_bytes(length)`` would,
        but hashes only the one counter block the new buffer tail comes from
        (none at all when the skip ends on a block boundary or inside the
        buffer) — for callers that must keep a stream in step with a peer
        that *used* the bytes (:meth:`repro.core.client.Client.advance`).
        """
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        missing = length - len(self._buffer)
        if missing <= 0:
            del self._buffer[:length]
            return
        num_blocks = -(-missing // _DIGEST_SIZE)
        self._counter += num_blocks
        tail = num_blocks * _DIGEST_SIZE - missing
        self._buffer.clear()
        if tail:
            last_block = hashlib.sha256(
                self._seed + struct.pack(">Q", self._counter - 1)
            ).digest()
            self._buffer += last_block[-tail:]

    def next_bits(self, nbits: int) -> int:
        """Return an integer holding the next ``nbits`` bits of the keystream."""
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        if nbits == 0:
            return 0
        nbytes = (nbits + 7) // 8
        value = int.from_bytes(self.next_bytes(nbytes), "big")
        return value >> (nbytes * 8 - nbits)

    def randint_below(self, upper: int) -> int:
        """Return a uniformly distributed integer in ``[0, upper)``.

        Uses rejection sampling over the keystream so the result is unbiased.
        """
        if upper <= 0:
            raise ValueError(f"upper must be positive, got {upper}")
        nbits = upper.bit_length()
        while True:
            candidate = self.next_bits(nbits)
            if candidate < upper:
                return candidate

    def random_fraction(self) -> float:
        """Return a float uniformly distributed in ``[0, 1)``.

        53 bits of keystream are used, matching the precision of a Python
        float mantissa.
        """
        return self.next_bits(53) / (1 << 53)
