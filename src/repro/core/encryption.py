"""Step III: encoding and XOR-encrypting randomized answers (Section 3.2.3).

A client's randomized answer is concatenated with its query identifier to form
the message ``M = <QID, RandomizedAnswer>``, which is then split into ``n``
shares with the XOR one-time pad: one encrypted share plus ``n - 1`` key
shares, each sent to a different proxy under the same message identifier
``MID``.  The aggregator joins all shares with the same ``MID`` and XORs them
to recover ``M``.

The :class:`AnswerCodec` owns the byte-level message layout; it is the single
place that knows how to serialize and parse ``M``, so the client and the
aggregator cannot drift apart.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.query import QueryAnswer
from repro.crypto.prng import KeystreamGenerator
from repro.crypto.xor import MessageShare, join_shares, split_message

_MAGIC = b"PA"
# magic, qid length, epoch, number of answer bits, participation-token length
_HEADER_FORMAT = ">2sHIHB"
_HEADER_SIZE = struct.calcsize(_HEADER_FORMAT)
# Bit values <-> the ASCII digits int(..., 2) / format(..., "b") speak.
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class EncryptedAnswer:
    """All shares of one encrypted answer, ready for transmission.

    ``shares[0]`` is the encrypted payload ``ME`` and ``shares[1:]`` are the
    key shares; each goes to a distinct proxy.  The shares are
    indistinguishable from random bytes in isolation.
    """

    message_id: str
    shares: tuple

    @property
    def num_shares(self) -> int:
        return len(self.shares)

    def share_for_proxy(self, proxy_index: int) -> MessageShare:
        if not 0 <= proxy_index < len(self.shares):
            raise IndexError(f"no share for proxy {proxy_index}")
        return self.shares[proxy_index]

    def total_bytes(self) -> int:
        return sum(share.size_bytes() for share in self.shares)


class AnswerCodec:
    """Serialize, encrypt, decrypt and parse randomized answers."""

    def encode(self, answer: QueryAnswer) -> bytes:
        """Serialize ``<QID, RandomizedAnswer>`` into the message ``M``."""
        qid_bytes = answer.query_id.encode("utf-8")
        if len(qid_bytes) > 0xFFFF:
            raise ValueError("query id too long")
        token_bytes = answer.token.encode("utf-8")
        if len(token_bytes) > 0xFF:
            raise ValueError("participation token too long")
        num_bits = len(answer.bits)
        if num_bits > 0xFFFF:
            raise ValueError("too many answer bits")
        if not 0 <= answer.epoch <= 0xFFFFFFFF:
            raise ValueError("epoch out of range")
        header = struct.pack(
            _HEADER_FORMAT, _MAGIC, len(qid_bytes), answer.epoch, num_bits, len(token_bytes)
        )
        packed_bits = self._pack_bits(answer.bits)
        return header + qid_bytes + token_bytes + packed_bits

    def decode(self, message: bytes) -> QueryAnswer:
        """Parse a decrypted message ``M`` back into a :class:`QueryAnswer`."""
        if len(message) < _HEADER_SIZE:
            raise ValueError("message too short to contain a header")
        magic, qid_length, epoch, num_bits, token_length = struct.unpack(
            _HEADER_FORMAT, message[:_HEADER_SIZE]
        )
        if magic != _MAGIC:
            raise ValueError("bad magic: not a PrivApprox answer message")
        qid_end = _HEADER_SIZE + qid_length
        token_end = qid_end + token_length
        if len(message) < token_end:
            raise ValueError("message truncated inside the header fields")
        query_id = message[_HEADER_SIZE:qid_end].decode("utf-8")
        token = message[qid_end:token_end].decode("utf-8")
        packed = message[token_end:]
        bits = self._unpack_bits(packed, num_bits)
        return QueryAnswer(query_id=query_id, bits=tuple(bits), epoch=epoch, token=token)

    def encrypt(
        self,
        answer: QueryAnswer,
        num_proxies: int,
        keystream: KeystreamGenerator | None = None,
        message_id: str | None = None,
        *,
        draws=None,
    ) -> EncryptedAnswer:
        """Encode and split an answer into one share per proxy.

        With ``draws`` (the answer's :class:`~repro.core.seeding.EpochDraws`)
        the pad's keystream is seeded from the client's PRF over the encoded
        message itself: the same message always gets the same pad, two
        different messages never share one.
        """
        if num_proxies < 2:
            raise ValueError("PrivApprox requires at least two proxies")
        message = self.encode(answer)
        if draws is not None:
            keystream = KeystreamGenerator(seed=draws.pad_seed(message))
        shares = split_message(message, num_proxies, keystream, message_id)
        return EncryptedAnswer(message_id=shares[0].message_id, shares=tuple(shares))

    def decrypt(self, shares: list[MessageShare]) -> QueryAnswer:
        """Join all shares of one message id and decode the answer."""
        return self.decode(join_shares(shares))

    # -- bit packing ---------------------------------------------------------

    @staticmethod
    def _pack_bits(bits) -> bytes:
        """Pack 0/1 values eight to a byte, first bit in the high position.

        The whole vector goes through one big-integer conversion instead of
        one shift per bit; :meth:`_pack_bits_scalar` is the per-bit reference
        and takes over for anything ``bytes()`` cannot represent one byte per
        bit (``None``, ``-1``, ``256``, floats, a string, a wide buffer), so
        both accept and reject exactly the same inputs.
        """
        num_bits = len(bits)
        try:
            raw = bytes(bits)
        except (TypeError, ValueError):
            return AnswerCodec._pack_bits_scalar(bits)
        if len(raw) != num_bits:
            return AnswerCodec._pack_bits_scalar(bits)
        if raw.translate(None, b"\x00\x01"):
            raise ValueError("answer bits must be 0 or 1")
        if not raw:
            return b""
        digits = raw.translate(_BITS_TO_DIGITS) + b"0" * (-num_bits % 8)
        return int(digits, 2).to_bytes(len(digits) // 8, "big")

    @staticmethod
    def _unpack_bits(packed: bytes, num_bits: int) -> list[int]:
        """Inverse of :meth:`_pack_bits`; trailing pad bits are ignored."""
        num_bytes = (num_bits + 7) // 8
        if len(packed) < num_bytes:
            raise ValueError("packed bit payload shorter than declared bit count")
        if num_bits <= 0:
            return []
        digits = format(int.from_bytes(packed[:num_bytes], "big"), f"0{num_bytes * 8}b")
        return list(digits[:num_bits].encode("ascii").translate(_DIGITS_TO_BITS))

    # Per-bit reference implementations: the tests pin the two above to these.

    @staticmethod
    def _pack_bits_scalar(bits) -> bytes:
        out = bytearray((len(bits) + 7) // 8)
        for index, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError("answer bits must be 0 or 1")
            if bit:
                out[index // 8] |= 1 << (7 - index % 8)
        return bytes(out)

    @staticmethod
    def _unpack_bits_scalar(packed: bytes, num_bits: int) -> list[int]:
        if len(packed) < (num_bits + 7) // 8:
            raise ValueError("packed bit payload shorter than declared bit count")
        bits = []
        for index in range(num_bits):
            byte = packed[index // 8]
            bits.append((byte >> (7 - index % 8)) & 1)
        return bits
