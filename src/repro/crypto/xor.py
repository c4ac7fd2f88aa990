"""XOR-based encryption used for the synchronization-free proxy pipeline.

Section 3.2.3 of the paper describes the scheme: to send a message ``M`` of
length ``l`` through ``n`` proxies, the client generates ``n - 1`` random key
strings ``MK_2 ... MK_n`` of the same length; their XOR is the secret ``MK``;
the encrypted payload is ``ME = M xor MK``.  The encrypted message goes to one
proxy and each key string to another proxy, all tagged with the same message
identifier ``MID`` so the aggregator can re-join and decrypt them.  Because the
n shares are individually indistinguishable from random bit strings, no proxy
learns anything about the answer, and no proxy coordination is needed.

This module implements the byte-level primitives:

* :func:`xor_bytes` — constant-helper bitwise XOR of equal-length byte strings.
* :class:`XorCipher` — a stateful cipher bound to a set of key shares.
* :func:`split_columns` — the one XOR split routine, over a column of
  equal-width messages; :func:`split_message` is its one-row case;
* :func:`join_shares` — the aggregator's join of one message's shares;
* :class:`ShareColumn` — one proxy's shares of a block of messages as two
  columns (16-byte MIDs, payloads): what a proxy relays for a shard.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.crypto import prng
from repro.crypto.prng import KeystreamGenerator

#: Bytes in a message identifier ``MID`` drawn by a client.
MID_BYTES = 16


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Return the bitwise XOR of two equal-length byte strings.

    The XOR is computed word-at-a-time by treating each operand as one large
    integer, which is an order of magnitude faster than a per-byte Python loop
    for the keystream lengths the clients use.  ``xor_bytes_scalar`` keeps the
    byte-level reference implementation.
    """
    length = len(a)
    if length != len(b):
        raise ValueError(
            f"xor_bytes requires equal lengths, got {len(a)} and {len(b)}"
        )
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(length, "little")


def xor_bytes_scalar(a: bytes, b: bytes) -> bytes:
    """Byte-at-a-time reference implementation of :func:`xor_bytes`.

    Kept (and exercised by the regression tests) as the executable
    specification the vectorized path must match bit-for-bit.
    """
    if len(a) != len(b):
        raise ValueError(
            f"xor_bytes requires equal lengths, got {len(a)} and {len(b)}"
        )
    return bytes(x ^ y for x, y in zip(a, b))


def xor_many(parts: list[bytes]) -> bytes:
    """XOR together an arbitrary number of equal-length byte strings."""
    if not parts:
        raise ValueError("xor_many requires at least one part")
    length = len(parts[0])
    if any(len(part) != length for part in parts):
        raise ValueError("xor_many requires equal-length parts")
    accumulator = 0
    for part in parts:
        accumulator ^= int.from_bytes(part, "little")
    return accumulator.to_bytes(length, "little")


@dataclass(frozen=True)
class MessageShare:
    """A single share of a split message.

    Attributes
    ----------
    message_id:
        The ``MID`` joining all shares of one message.
    payload:
        Either the encrypted message ``ME`` or one key string ``MK_i``; the
        two are computationally indistinguishable by design.
    index:
        Position of the share (0 for ``ME``, 1..n-1 for key shares).  The
        aggregator does not need it for decryption — XOR of all shares
        recovers ``M`` regardless — but it is useful for routing and tests.
    """

    message_id: str
    payload: bytes
    index: int

    def size_bytes(self) -> int:
        """Wire size of this share (payload plus a 16-byte MID)."""
        return len(self.payload) + MID_BYTES


@dataclass(frozen=True)
class ShareColumn:
    """One proxy's shares of ``rows`` equal-width messages, as two columns.

    ``message_ids`` holds each row's ``MID`` as 16 raw bytes and ``payload``
    each row's share, ``width`` bytes apiece, in the same row order;
    ``index`` is the share position every row holds (0 for ``ME``).  The
    wire size is exactly that of the ``rows`` :class:`MessageShare` objects
    it stands for, and :meth:`shares` rebuilds them (the ``MID`` as 32 hex
    characters).
    """

    message_ids: bytes
    payload: bytes
    index: int

    def __post_init__(self) -> None:
        rows, extra = divmod(len(self.message_ids), MID_BYTES)
        if extra or (rows and len(self.payload) % rows) or (not rows and self.payload):
            raise ValueError(
                f"a share column needs {MID_BYTES} MID bytes and one equal-width "
                f"payload per row, got {len(self.message_ids)} MID and "
                f"{len(self.payload)} payload bytes"
            )

    @property
    def rows(self) -> int:
        return len(self.message_ids) // MID_BYTES

    def __len__(self) -> int:
        """Shares in the column, as for a tuple of loose shares."""
        return self.rows

    @property
    def width(self) -> int:
        rows = self.rows
        return len(self.payload) // rows if rows else 0

    def size_bytes(self) -> int:
        """Wire size: every row's payload plus its 16-byte MID."""
        return len(self.payload) + len(self.message_ids)

    def message_id(self, row: int) -> str:
        """Row ``row``'s MID in the hex form loose shares carry."""
        return self.message_ids[row * MID_BYTES : (row + 1) * MID_BYTES].hex()

    def shares(self, rows: Sequence[int] | None = None) -> list[MessageShare]:
        """The column's rows (all, or those listed) as :class:`MessageShare` s."""
        width = self.width
        payload = self.payload
        return [
            MessageShare(self.message_id(row), payload[row * width : (row + 1) * width], self.index)
            for row in (range(self.rows) if rows is None else rows)
        ]


@dataclass
class XorCipher:
    """One-time-pad cipher over a fixed number of key shares.

    Parameters
    ----------
    num_shares:
        Total number of shares ``n`` (encrypted message plus ``n - 1`` keys).
        The paper requires at least two proxies, hence ``n >= 2``.
    keystream:
        Optional deterministic keystream generator (used by tests); a fresh
        randomly seeded generator is created when omitted.
    """

    num_shares: int = 2
    keystream: KeystreamGenerator = field(default_factory=KeystreamGenerator)

    def __post_init__(self) -> None:
        if self.num_shares < 2:
            raise ValueError(
                f"XOR encryption needs at least 2 shares, got {self.num_shares}"
            )

    def encrypt(self, message: bytes, message_id: str | None = None) -> list[MessageShare]:
        """Split ``message`` into ``num_shares`` shares.

        The first returned share carries the encrypted payload ``ME``; the
        remaining shares carry the key strings ``MK_i``.  All shares have the
        same length as the message.
        """
        return split_message(message, self.num_shares, self.keystream, message_id)

    @staticmethod
    def decrypt(shares: list[MessageShare]) -> bytes:
        """Recover the original message from all shares of one ``MID``.

        The aggregator "just XORs all the n received messages" (Section 3.2.4):
        it cannot and need not distinguish ``ME`` from the key shares.
        """
        return join_shares(shares)


def split_columns(messages: bytes, keys: Sequence[bytes]) -> list[bytes]:
    """XOR-split a column of messages into one payload column per proxy.

    The one split routine.  ``messages`` is any number of messages laid end
    to end and ``keys`` holds ``n - 1`` key columns of the same length (row
    ``i`` of each key column is message ``i``'s key string).  Column 0 is
    ``ME`` (the messages XOR every key, one big-integer XOR per key
    column), columns ``1..n-1`` are the keys themselves.
    """
    if not keys:
        raise ValueError("XOR encryption needs at least 2 shares, got 1")
    if any(len(key) != len(messages) for key in keys):
        raise ValueError("every key column must be as long as the message column")
    return [xor_many([messages, *keys]), *keys]


def split_message(
    message: bytes,
    num_proxies: int,
    keystream: KeystreamGenerator | None = None,
    message_id: str | None = None,
) -> list[MessageShare]:
    """Split ``message`` into one share per proxy.

    The one-row case of :func:`split_columns` (:meth:`XorCipher.encrypt`
    calls it too): share 0 is ``ME``, shares ``1..n-1`` the key strings in
    the order they were drawn off ``keystream`` (a fresh randomly seeded
    generator when omitted).  A missing ``message_id`` is 16 bytes of OS
    entropy as 32 hex characters.
    """
    if num_proxies < 2:
        raise ValueError(f"XOR encryption needs at least 2 shares, got {num_proxies}")
    if keystream is None:
        keystream = KeystreamGenerator()
    if message_id is None:
        message_id = prng.secure_random_bytes(MID_BYTES).hex()
    keys = [keystream.next_bytes(len(message)) for _ in range(num_proxies - 1)]
    return [
        MessageShare(message_id, payload, index)
        for index, payload in enumerate(split_columns(message, keys))
    ]


def join_shares(shares: list[MessageShare]) -> bytes:
    """Join all shares of one message id and recover the plaintext."""
    if len(shares) < 2:
        raise ValueError("joining requires at least two shares")
    message_ids = {share.message_id for share in shares}
    if len(message_ids) != 1:
        raise ValueError(f"shares belong to different messages: {sorted(message_ids)}")
    lengths = {len(share.payload) for share in shares}
    if len(lengths) != 1:
        raise ValueError("shares of one message must have equal length")
    return xor_many([share.payload for share in shares])


def _group_is_joinable(shares: list[MessageShare]) -> bool:
    """The :func:`join_shares` preconditions as a predicate (no raising)."""
    if len(shares) < 2:
        return False
    if len({share.message_id for share in shares}) != 1:
        return False
    return len({len(share.payload) for share in shares}) == 1


def join_shares_batch(groups: list[list[MessageShare]]) -> list[bytes | None]:
    """Join many complete share groups in one vectorized XOR pass.

    The batched counterpart of calling :func:`join_shares` per group — how
    the aggregator's one ingest path decrypts its loose share groups (the
    ``MID`` groups a block cannot vouch for).  Groups with
    the same share count and payload length (within one epoch's shard that is
    *all* of them: every answer to one query has the same encoded length) are
    concatenated per share position and XOR-ed as single big integers, so a
    shard of ``m`` answers costs ``n`` int conversions of ``m * l`` bytes
    instead of ``m * n`` conversions of ``l`` bytes.

    Returns one plaintext per group, in input order — or ``None`` where
    :func:`join_shares` would have raised (too few shares, mixed message ids,
    unequal lengths), so a malformed group degrades to a per-group skip
    instead of poisoning the batch.  The scalar reference stays the
    executable specification; the regression tests pin the two together.
    """
    plaintexts: list[bytes | None] = [None] * len(groups)
    buckets: dict[tuple[int, int], list[int]] = {}
    for index, shares in enumerate(groups):
        if _group_is_joinable(shares):
            key = (len(shares), len(shares[0].payload))
            buckets.setdefault(key, []).append(index)
    for (num_shares, length), indices in buckets.items():
        if len(indices) == 1 or length == 0:
            for index in indices:
                plaintexts[index] = xor_many([s.payload for s in groups[index]])
            continue
        accumulator = 0
        for position in range(num_shares):
            concatenated = b"".join(groups[index][position].payload for index in indices)
            accumulator ^= int.from_bytes(concatenated, "little")
        joined = accumulator.to_bytes(len(indices) * length, "little")
        for offset, index in enumerate(indices):
            plaintexts[index] = joined[offset * length : (offset + 1) * length]
    return plaintexts
