"""Epoch-addressed client randomness: every client draw is a keyed PRF.

In every answering epoch a client flips fresh coins (Section 3.2, Steps
I-III): the sampling coin, the randomized-response coins of every answer
bit and a one-time pad.  Each of those draws is read from one PRF — BLAKE2b
over the client's 32-byte key followed by the draw's coordinates ``(query
id, epoch, stream, block)`` — so a draw depends only on the answer it
belongs to, never on what the client answered before: there is no stream
position to keep, ship or replay, and a client rebuilt from its key, tables
and subscriptions draws exactly what the original would.  (BLAKE2b has no
length extension, so key-prefixed hashing is a PRF.)

The two streams at one ``(query, epoch)``, each a sequence of 64-byte
blocks:

* :data:`MAIN` — bytes 0-3 are the sampling coin's 32-bit uniform; for an
  ``n``-bit answer, byte ``4 + i`` is the high byte of bit ``i``'s 32-bit
  randomized-response uniform, and the 3 bytes from ``4 + n + 3k`` are the
  low 24 bits of the ``k``-th bit whose high byte did not decide it (the
  bytes are independent of the high bytes, so every bit's uniform is
  still uniform);
* :data:`PAD` — the XOR pad: the client's
  :class:`~repro.crypto.prng.KeystreamGenerator` seeded with the
  coordinates *and the encoded message* (SIV-style: re-answering with the
  same message gives the same shares, and two different messages never
  share a pad).

A seeded client's key is a hash of its seed; an unseeded client gets 32
bytes of OS entropy.  Token secrets are derived from the key, so the key is
all of a client's randomness that ever needs to travel.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections.abc import Sequence

from repro.crypto.prng import secure_random_bytes

KEY_BYTES = 32
BLOCK_BYTES = hashlib.blake2b().digest_size

MAIN = 0
PAD = 1

# stream, epoch, block index
_COORDINATES = struct.Struct(">BQI")
# The sampling coin: the first four bytes of MAIN block 0, big-endian.
_COIN = struct.Struct(">I")
_UNIFORM_SCALE = 1.0 / (1 << 32)


def client_key(seed: int | None) -> bytes:
    """A client's PRF key: a hash of ``seed``, or OS entropy when unseeded."""
    if seed is None:
        return secure_random_bytes(KEY_BYTES)
    return hashlib.blake2b(
        str(seed).encode("ascii"), digest_size=KEY_BYTES, person=b"privapprox-key"
    ).digest()


def token_secret(key: bytes) -> bytes:
    """The secret behind a client's participation tokens, derived from its key.

    A separate BLAKE2b personalization keeps it independent of every draw.
    """
    return hashlib.blake2b(
        key=key, digest_size=KEY_BYTES, person=b"privapprox-token"
    ).digest()


def query_prefix(key: bytes, query_id: str) -> bytes:
    """The client query key: the PRF input every draw of one query starts with.

    The key, then the length-prefixed query id, so ``(query id,
    coordinates)`` stays unambiguous.
    """
    encoded = query_id.encode("utf-8")
    return key + len(encoded).to_bytes(4, "big") + encoded


def first_block_coordinates(epoch: int) -> bytes:
    """The packed coordinates of :data:`MAIN` block 0 at ``epoch``.

    A query prefix's block 0, the block the coin is read from, is
    ``blake2b(prefix + first_block_coordinates(epoch)).digest()``, what
    :class:`EpochDraws` computes as its block 0: flipping many coins at one
    epoch packs the coordinates once and hashes once per coin.
    """
    return _COORDINATES.pack(MAIN, epoch, 0)


@functools.lru_cache(maxsize=32)
def _coordinates(stream: int, epoch: int, blocks: int) -> tuple[bytes, ...]:
    """The packed coordinates of ``stream``'s blocks ``0 .. blocks - 1`` at
    ``epoch``: packed once per block index per epoch, however many rows
    read them."""
    return tuple(_COORDINATES.pack(stream, epoch, index) for index in range(blocks))


def coin_uniform(first_block: bytes) -> float:
    """The sampling coin's uniform in ``[0, 1)`` read off :data:`MAIN` block
    0, on a grid of ``2**-32``."""
    return _COIN.unpack_from(first_block)[0] * _UNIFORM_SCALE


class EpochDraws:
    """Every draw of one answer: a query's PRF read at one epoch.

    The :data:`MAIN` stream is computed a block at a time and kept: its
    first block (the coin, the high bytes of the first 60 answer bits)
    on construction — or handed in as ``first_block`` by a client that
    already hashed it to flip the coin (:func:`first_block_coordinates`), so a
    participant hashes it once — and later blocks when a read reaches
    them.
    """

    __slots__ = ("_prefix", "_epoch", "_main")

    def __init__(self, prefix: bytes, epoch: int, first_block: bytes | None = None):
        self._prefix = prefix
        self._epoch = epoch
        if first_block is None:
            first_block = hashlib.blake2b(prefix + first_block_coordinates(epoch)).digest()
        self._main = first_block

    def read(self, length: int, start: int = 0) -> bytes:
        """``length`` bytes of the :data:`MAIN` stream from byte ``start`` on.

        The blocks it lacks are hashed from the prefix, their coordinates
        packed once per block index per epoch, and kept.
        """
        end = start + length
        main = self._main
        if end > len(main):
            prefix, blake2b = self._prefix, hashlib.blake2b
            main += b"".join(
                [
                    blake2b(prefix + coordinates).digest()
                    for coordinates in _coordinates(MAIN, self._epoch, -(-end // BLOCK_BYTES))[
                        len(main) // BLOCK_BYTES :
                    ]
                ]
            )
            self._main = main
        return main[start:end]

    def coin(self) -> float:
        """The sampling coin's uniform in ``[0, 1)``, on a grid of ``2**-32``."""
        return coin_uniform(self._main)

    def rr_high(self, num_bits: int) -> bytes:
        """The high byte of each answer bit's randomized-response uniform:
        the one-row case of :func:`rr_high_column`."""
        return rr_high_column([self], num_bits)

    def rr_low(self, num_bits: int, count: int) -> bytes:
        """The low 24 bits of the ``count`` undecided bits' uniforms, 3 bytes
        each, in bit order."""
        return self.read(3 * count, 4 + num_bits)

    def pad_seed(self, message: bytes) -> bytes:
        """The keystream seed of the XOR pad for ``message``: the PRF input
        of the :data:`PAD` stream, message included (the keystream hashes
        it with a block counter).  The one-row case of :func:`pad_seeds`."""
        return pad_seeds([self], [message])[0]


def rr_high_column(draws: Sequence, num_bits: int) -> bytes:
    """Every row's :meth:`EpochDraws.rr_high`, laid end to end, in one read.

    An :class:`EpochDraws` row's high bytes are bytes ``4 .. 4 + num_bits``
    of its :data:`MAIN` stream: up to 60 bits they are a slice of block 0,
    held since the coin; a wider answer reads on (:meth:`EpochDraws.read`),
    and the blocks it hashes stay on the row for its low-byte reads.  Any
    other draws object (a responder's own ``rng``, a test's chosen
    uniforms) reads its own ``rr_high``.
    """
    end = 4 + num_bits
    if end <= BLOCK_BYTES:
        return b"".join(
            [
                row._main[4:end] if type(row) is EpochDraws else row.rr_high(num_bits)
                for row in draws
            ]
        )
    return b"".join(
        [
            row.read(num_bits, 4) if type(row) is EpochDraws else row.rr_high(num_bits)
            for row in draws
        ]
    )


def pad_seeds(draws: Sequence, messages: Sequence[bytes]) -> list[bytes]:
    """Every row's :meth:`EpochDraws.pad_seed` for its message, in one pass.

    Row ``i`` is ``draws[i]``'s prefix, the :data:`PAD` coordinates and
    ``messages[i]``, joined in one call; the coordinates are packed once,
    at the first row's epoch (a block's rows share it).  A row of another
    epoch, or any other draws object, reads its own ``pad_seed``.
    """
    epoch = draws[0]._epoch if draws and type(draws[0]) is EpochDraws else None
    pad = b"" if epoch is None else _COORDINATES.pack(PAD, epoch, 0)
    return [
        b"".join((row._prefix, pad, message))
        if type(row) is EpochDraws and row._epoch == epoch
        else row.pad_seed(message)
        for row, message in zip(draws, messages)
    ]
