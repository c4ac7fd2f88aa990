"""Step III: encoding and XOR-encrypting randomized answers (Section 3.2.3).

A client's randomized answer is concatenated with its query identifier to form
the message ``M = <QID, RandomizedAnswer>``, which is then split into ``n``
shares with the XOR one-time pad: one encrypted share plus ``n - 1`` key
shares, each sent to a different proxy under the same message identifier
``MID``.  The aggregator joins all shares with the same ``MID`` and XORs them
to recover ``M``.

The :class:`AnswerCodec` owns the byte-level message layout; it is the single
place that knows how to serialize and parse ``M``, so the client and the
aggregator cannot drift apart.  Besides the per-answer :meth:`~AnswerCodec.encrypt`
/ :meth:`~AnswerCodec.decode` pair it speaks the column form a shard's block
uses: a shard's messages to one query are encoded under one header prefix
from the block's packed bit column and their pad keys read as columns
(:meth:`~AnswerCodec.encode_rows`, whose one-row case
:meth:`~AnswerCodec.encode` uses, and :meth:`~AnswerCodec.pad_columns`), and
the aggregator splits a decrypted column of messages in one pass and checks
it against the header prefix every well-formed answer of one query and
epoch starts with (:meth:`~AnswerCodec.parse_column`,
:meth:`~AnswerCodec.count_packed_bits`).
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.query import QueryAnswer
from repro.core.seeding import pad_seeds
from repro.crypto.prng import KeystreamGenerator, keystreams
from repro.crypto.xor import MessageShare, join_shares, split_message

_MAGIC = b"PA"
# magic, qid length, epoch, number of answer bits, participation-token length
_HEADER_FORMAT = ">2sHIHB"
_HEADER_SIZE = struct.calcsize(_HEADER_FORMAT)
# Bit values <-> the ASCII digits int(..., 2) / format(..., "b") speak.  Any
# byte but 0 and 1 becomes "2", a digit base 2 refuses: the packer's check.
_BITS_TO_DIGITS = bytes(b"01"[byte] if byte < 2 else ord("2") for byte in range(256))
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


@functools.lru_cache(maxsize=64)
def _message_splitter(prefix_length: int, token_length: int, stride: int) -> struct.Struct:
    """A message's head (header and query id), token and packed bits, as
    one layout per message shape, whatever the row count."""
    return struct.Struct(f"{prefix_length}s{token_length}s{stride}s")


@functools.lru_cache(maxsize=256)
def _row_padder(num_bits: int, rows: int) -> tuple:
    """``(split, pad)``: ``rows`` rows of ``num_bits`` bytes apart, and
    packed back together with zero bytes up to a whole number of bytes per
    row (``struct``'s ``x`` pad), each in one C call."""
    return (
        struct.Struct(f"{num_bits}s" * rows).unpack,
        struct.Struct(f"{num_bits}s{-num_bits % 8}x" * rows).pack,
    )


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
    """Serialize, encrypt, decrypt and parse randomized answers.

    A message ``M`` is the ``>2sHIHB`` header (magic ``PA``, query id
    length, epoch, bit count, token length), the UTF-8 query id, the raw
    participation token (16 bytes from
    :func:`~repro.core.admission.participation_token`, never text) and the
    answer bits packed eight to a byte, first bit high.
    """

    def encode(self, answer: QueryAnswer) -> bytes:
        """Serialize ``<QID, RandomizedAnswer>`` into the message ``M``."""
        return self.encode_message(answer.query_id, answer.epoch, answer.token, answer.bits)

    def encode_message(self, query_id: str, epoch: int, token: bytes, bits) -> bytes:
        """:meth:`encode` from the answer's fields: the one-row case of
        :meth:`encode_rows`, its 0/1 ``bits`` packed first."""
        return self.encode_rows(query_id, epoch, [token], self._pack_bits(bits), len(bits))[0]

    def encode_rows(
        self, query_id: str, epoch: int, tokens, packed: bytes, num_bits: int
    ) -> list[bytes]:
        """Every row's message ``M``, from its token and its row of packed bits.

        ``packed`` holds ``len(tokens)`` rows of ``num_bits`` bits in
        :meth:`_pack_bits` layout, ``⌈num_bits / 8⌉`` bytes each, laid end to
        end: a :class:`~repro.core.client.ResponseBlock` bit column.  Message
        ``i`` is :meth:`prefix` (the header, then the query id), the raw
        bytes ``tokens[i]``, then packed row ``i``; the prefix is built once
        and nothing is packed here.  The tokens must be equally long, so
        every message has one width.
        """
        if not tokens:
            return []
        stride = (num_bits + 7) // 8
        if len(packed) != stride * len(tokens):
            raise ValueError(
                f"{len(packed)} packed bytes are not {len(tokens)} rows of {num_bits} bits"
            )
        if len(set(map(len, tokens))) != 1:
            raise ValueError("one column holds messages of one width")
        prefix = self.prefix(query_id, epoch, num_bits, len(tokens[0]))
        return [
            prefix + token + packed[row * stride : (row + 1) * stride]
            for row, token in enumerate(tokens)
        ]

    @staticmethod
    def prefix(query_id: str, epoch: int, num_bits: int, token_length: int) -> bytes:
        """The bytes every message with these header fields starts with."""
        qid_bytes = query_id.encode("utf-8")
        if len(qid_bytes) > 0xFFFF:
            raise ValueError("query id too long")
        if token_length > 0xFF:
            raise ValueError("participation token too long")
        if num_bits > 0xFFFF:
            raise ValueError("too many answer bits")
        if not 0 <= epoch <= 0xFFFFFFFF:
            raise ValueError("epoch out of range")
        header = struct.pack(
            _HEADER_FORMAT, _MAGIC, len(qid_bytes), epoch, num_bits, token_length
        )
        return header + qid_bytes

    @staticmethod
    def pad_columns(messages, num_proxies: int, draws) -> list[bytes]:
        """The ``n - 1`` key columns of the messages' pads, in share order.

        ``messages`` are equally wide and ``draws[i]`` is message ``i``'s
        :class:`~repro.core.seeding.EpochDraws`.  Row ``i`` of every column
        is read off the keystream :meth:`encrypt` seeds from ``draws[i]``
        and message ``i``: the seeds come from one
        :func:`~repro.core.seeding.pad_seeds` pass (the :data:`PAD
        <repro.core.seeding.PAD>` coordinates packed once per epoch) and
        every row's stream from one :func:`~repro.crypto.prng.keystreams`
        call.  With two proxies the streams are the one key column as they
        are; more proxies cut each stream into its columns.  Splitting the
        message column with these keys (:func:`~repro.crypto.xor.split_columns`)
        gives exactly the payloads :meth:`encrypt` gives each message.
        """
        if not messages:
            return [b""] * (num_proxies - 1)
        width = len(messages[0])
        streams = keystreams(pad_seeds(draws, messages), width * (num_proxies - 1))
        if num_proxies == 2:
            return [b"".join(streams)]
        return [
            b"".join([stream[start : start + width] for stream in streams])
            for start in range(0, width * (num_proxies - 1), width)
        ]

    def parse_column(
        self,
        column: bytes,
        width: int,
        query_id: str,
        epoch: int,
        num_bits: int,
        token_length: int,
    ) -> tuple[Sequence[bytes], Sequence[bytes], list[int]]:
        """Split a column of ``width``-byte decrypted messages into
        ``(tokens, packed, odd_rows)``.

        A row that is a well-formed answer to ``query_id`` at ``epoch`` with
        ``num_bits`` bits and a ``token_length``-byte token — it starts with
        :meth:`prefix` and is exactly as long as such a message — gives its
        raw token to ``tokens`` and its packed bits to ``packed``, in row
        order; every other row is listed in ``odd_rows``, for the caller to
        :meth:`decode` (which parses it, or says why it cannot).  One cached
        ``struct`` layout splits every row into head, token and bits in one
        ``iter_unpack``, and one ``count`` of the prefix among the heads
        vouches for a whole well-formed column.
        """
        rows = len(column) // width if width else 0
        try:
            prefix = self.prefix(query_id, epoch, num_bits, token_length)
        except ValueError:
            return [], [], list(range(rows))
        stride = (num_bits + 7) // 8
        if not rows or width != len(prefix) + token_length + stride:
            return [], [], list(range(rows))
        heads, tokens, packed = zip(
            *_message_splitter(len(prefix), token_length, stride).iter_unpack(
                column[: rows * width]
            )
        )
        if heads.count(prefix) == rows:
            return tokens, packed, []
        well = [row for row, head in enumerate(heads) if head == prefix]
        odd_rows = [row for row, head in enumerate(heads) if head != prefix]
        return [tokens[row] for row in well], [packed[row] for row in well], odd_rows

    @staticmethod
    def count_packed_bits(packed: bytes, num_bits: int) -> list[int]:
        """Per-bit Yes counts over rows of packed bits laid end to end.

        Each row is ``num_bits`` bits in :meth:`_pack_bits` layout (first bit
        high, pad bits ignored); the counts are what summing the unpacked
        rows bit by bit gives, from one big-integer conversion.
        """
        if num_bits <= 0:
            return []
        stride = 8 * ((num_bits + 7) // 8)
        counts = [0] * stride
        if packed:
            digits = format(int.from_bytes(packed, "big"), f"0{len(packed) * 8}b")
            bits = digits.encode("ascii").translate(_DIGITS_TO_BITS)
            # Each row's bits as one integer with a byte per bit: adding up
            # to 255 rows carries nothing across bytes, so each byte of the
            # sum is that bit's count.  A chunk of rows is summed by folding
            # its integer in halves, one big-integer add per halving.
            for chunk in range(0, len(bits), 255 * stride):
                part = bits[chunk : chunk + 255 * stride]
                total, rows = int.from_bytes(part, "little"), len(part) // stride
                while rows > 1:
                    rows = (rows + 1) // 2
                    shift = 8 * stride * rows
                    total = (total & ((1 << shift) - 1)) + (total >> shift)
                counts = [a + b for a, b in zip(counts, total.to_bytes(stride, "little"))]
        return counts[:num_bits]

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
        token = message[qid_end:token_end]
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
    def _pack_bits(bits, num_bits: int | None = None) -> bytes:
        """Pack rows of ``num_bits`` 0/1 values eight to a byte, first bit in
        the high position, each row padded to a whole byte.

        ``num_bits`` defaults to all of ``bits`` as one row; ``bits`` must
        hold whole rows.  The whole column is three C calls instead of one
        shift per bit: one ``struct`` round trip pads every row with zero
        bytes, one ``translate`` maps the bytes to ASCII digits (any byte
        but 0 and 1 to a digit base 2 refuses, which is the 0/1 check) and
        one big-integer conversion packs them.  :meth:`_pack_bits_scalar`
        is the per-bit reference and takes over for a row ``bytes()`` cannot represent one byte per bit (``None``,
        ``-1``, ``256``, floats, a string, a wide buffer), so both accept and
        reject exactly the same inputs.
        """
        if num_bits is None:
            num_bits = len(bits)
        try:
            raw = bytes(bits)
        except (TypeError, ValueError):
            raw = None
        if raw is None or len(raw) != len(bits):
            if num_bits != len(bits):
                raise ValueError("rows of answer bits must be bytes-like")
            return AnswerCodec._pack_bits_scalar(bits)
        if not raw:
            return b""
        if num_bits <= 0 or len(raw) % num_bits:
            raise ValueError("rows of answer bits must be whole")
        if num_bits % 8:
            split, pad = _row_padder(num_bits, len(raw) // num_bits)
            raw = pad(*split(raw))
        digits = raw.translate(_BITS_TO_DIGITS)
        try:
            value = int(digits, 2)
        except ValueError:
            raise ValueError("answer bits must be 0 or 1") from None
        return value.to_bytes(len(digits) // 8, "big")

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
