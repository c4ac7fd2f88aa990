"""Tests for answer encoding and XOR share splitting (Step III)."""

import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnswerCodec, participation_token
from repro.core.query import QueryAnswer
from repro.crypto.prng import KeystreamGenerator


@pytest.fixture
def codec() -> AnswerCodec:
    return AnswerCodec()


class TestAnswerCodec:
    def test_encode_decode_roundtrip(self, codec):
        answer = QueryAnswer(query_id="analyst-00000001", bits=(0, 1, 0, 0, 1), epoch=3)
        decoded = codec.decode(codec.encode(answer))
        assert decoded.query_id == answer.query_id
        assert decoded.bits == answer.bits
        assert decoded.epoch == 3

    def test_encode_packs_bits_compactly(self, codec):
        answer = QueryAnswer(query_id="q", bits=tuple([0, 1] * 6))
        message = codec.encode(answer)
        # header (11 bytes) + qid (1) + empty token (0) + ceil(12 / 8) = 2 bytes of bits
        assert len(message) == 11 + 1 + 2

    @pytest.mark.parametrize("num_bits", [1, 8, 9, 64, 300])
    @pytest.mark.parametrize("query_id", ["q", "analyst-00000001", "é" * 33])
    def test_message_carries_the_raw_token(self, codec, query_id, num_bits):
        """Header, query id, the token's 16 raw bytes, then the packed bits."""
        token = participation_token(b"secret", query_id, 3)
        bits = tuple(i % 2 for i in range(num_bits))
        message = codec.encode_message(query_id, 3, token, bits)
        qid_bytes = query_id.encode()
        assert len(message) == 11 + len(qid_bytes) + 16 + math.ceil(len(bits) / 8)
        assert message[11 + len(qid_bytes) : 11 + len(qid_bytes) + 16] == token

    def test_token_roundtrip(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0), epoch=2, token=b"abc123" * 4)
        decoded = codec.decode(codec.encode(answer))
        assert decoded.token == b"abc123" * 4

    def test_overlong_token_rejected(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1,), token=b"x" * 300)
        with pytest.raises(ValueError):
            codec.encode(answer)

    def test_decode_rejects_truncated_message(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0, 1))
        message = codec.encode(answer)
        with pytest.raises(ValueError):
            codec.decode(message[:5])

    def test_decode_rejects_bad_magic(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1,))
        message = bytearray(codec.encode(answer))
        message[0] = 0xFF
        with pytest.raises(ValueError):
            codec.decode(bytes(message))

    def test_encrypt_produces_one_share_per_proxy(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0, 1, 1))
        encrypted = codec.encrypt(answer, num_proxies=3, keystream=KeystreamGenerator(seed=b"k"))
        assert encrypted.num_shares == 3
        assert len({s.message_id for s in encrypted.shares}) == 1

    def test_encrypt_requires_two_proxies(self, codec):
        with pytest.raises(ValueError):
            codec.encrypt(QueryAnswer(query_id="q", bits=(1,)), num_proxies=1)

    def test_decrypt_roundtrip(self, codec):
        answer = QueryAnswer(query_id="analyst-00000042", bits=(1, 1, 0, 0, 0, 1), epoch=9)
        encrypted = codec.encrypt(answer, num_proxies=2, keystream=KeystreamGenerator(seed=b"k"))
        decrypted = codec.decrypt(list(encrypted.shares))
        assert decrypted == QueryAnswer(query_id=answer.query_id, bits=answer.bits, epoch=9)

    def test_shares_are_not_the_plaintext(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0) * 20)
        message = codec.encode(answer)
        encrypted = codec.encrypt(answer, num_proxies=2, keystream=KeystreamGenerator(seed=b"z"))
        for share in encrypted.shares:
            assert share.payload != message

    def test_share_for_proxy(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1,))
        encrypted = codec.encrypt(answer, num_proxies=2)
        assert encrypted.share_for_proxy(0).index == 0
        assert encrypted.share_for_proxy(1).index == 1
        with pytest.raises(IndexError):
            encrypted.share_for_proxy(2)

    def test_total_bytes(self, codec):
        answer = QueryAnswer(query_id="q", bits=(1, 0, 1))
        encrypted = codec.encrypt(answer, num_proxies=2)
        assert encrypted.total_bytes() == sum(s.size_bytes() for s in encrypted.shares)

    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=128),
        epoch=st.integers(min_value=0, max_value=2**31 - 1),
        num_proxies=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_encrypt_decrypt_roundtrip_property(self, bits, epoch, num_proxies):
        """Invariant: encrypt followed by decrypt recovers the exact answer."""
        codec = AnswerCodec()
        answer = QueryAnswer(query_id="analyst-x-00001234", bits=tuple(bits), epoch=epoch)
        encrypted = codec.encrypt(
            answer, num_proxies=num_proxies, keystream=KeystreamGenerator(seed=b"prop")
        )
        decrypted = codec.decrypt(list(encrypted.shares))
        assert decrypted.bits == answer.bits
        assert decrypted.query_id == answer.query_id
        assert decrypted.epoch == epoch

    def test_encode_rejects_fields_the_header_cannot_hold(self, codec):
        """Out-of-range header fields are a ValueError like the qid / token
        length checks beside them, never a struct.error callers do not catch."""
        for bad in (
            QueryAnswer(query_id="q", bits=(0,) * 65_536),
            QueryAnswer(query_id="q", bits=(1,), epoch=-1),
            QueryAnswer(query_id="q", bits=(1,), epoch=2**32),
        ):
            with pytest.raises(ValueError):
                codec.encode(bad)
            with pytest.raises(ValueError):
                codec.encrypt(bad, num_proxies=2)
        widest = QueryAnswer(query_id="q", bits=(1, 0) * 32_767 + (1,), epoch=2**32 - 1)
        assert codec.decode(codec.encode(widest)) == widest


def _outcome(function, *args):
    """What a call returned, or the type of what it raised."""
    try:
        return function(*args)
    except Exception as error:
        return type(error)


class TestBitPackingMatchesScalarReference:
    """The bit-parallel codec is pinned to the per-bit loops it replaced."""

    @given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_pack_and_unpack_agree_with_the_scalar_loops(self, bits):
        packed = AnswerCodec._pack_bits(bits)
        assert packed == AnswerCodec._pack_bits_scalar(bits)
        assert packed == AnswerCodec._pack_bits(tuple(bits))
        assert AnswerCodec._unpack_bits(packed, len(bits)) == bits
        assert AnswerCodec._unpack_bits_scalar(packed, len(bits)) == bits
        # Trailing bytes beyond the declared width are ignored by both.
        assert AnswerCodec._unpack_bits(packed + b"\xff", len(bits)) == bits

    @given(
        packed=st.binary(max_size=40),
        num_bits=st.integers(min_value=0, max_value=330),
    )
    @settings(max_examples=100, deadline=None)
    def test_unpack_agrees_on_arbitrary_payloads(self, packed, num_bits):
        """Pad bits set, payloads too long, payloads too short: same outcome."""
        assert _outcome(AnswerCodec._unpack_bits, packed, num_bits) == _outcome(
            AnswerCodec._unpack_bits_scalar, packed, num_bits
        )

    @pytest.mark.parametrize("bad", [2, -1, 256, None, "1", 0.5])
    @pytest.mark.parametrize("position", [0, 9, 16])
    def test_non_binary_values_rejected_alike(self, bad, position):
        bits = [1, 0] * 8 + [1]
        bits[position] = bad
        for pack in (AnswerCodec._pack_bits, AnswerCodec._pack_bits_scalar):
            with pytest.raises(ValueError):
                pack(bits)
            with pytest.raises(ValueError):
                pack(tuple(bits))

    @pytest.mark.parametrize(
        "bits",
        [
            "1",
            "01",
            b"\x01\x00\x01",
            [True, False, 1.0, 0.0],
            # a buffer wider than one byte per bit: bytes() would misread it
            array("i", [1, 0, 1, 1, 0, 0, 0, 0, 1]),
            7,
            None,
        ],
    )
    def test_unusual_containers_handled_alike(self, bits):
        assert _outcome(AnswerCodec._pack_bits, bits) == _outcome(
            AnswerCodec._pack_bits_scalar, bits
        )

    @pytest.mark.parametrize("num_bits", [1, 7, 8, 9, 16, 129])
    def test_rows_pack_as_the_scalar_loop_row_by_row(self, num_bits):
        """A column of rows packs as each row alone, padded to whole bytes;
        a partial row and a byte other than 0 or 1 are refused."""
        rng = random.Random(num_bits)
        rows = [[rng.randint(0, 1) for _ in range(num_bits)] for _ in range(30)]
        flat = bytes(bit for row in rows for bit in row)
        assert AnswerCodec._pack_bits(flat, num_bits) == b"".join(
            AnswerCodec._pack_bits_scalar(row) for row in rows
        )
        if num_bits > 1:
            with pytest.raises(ValueError, match="whole"):
                AnswerCodec._pack_bits(flat[:-1], num_bits)
        with pytest.raises(ValueError, match="0 or 1"):
            AnswerCodec._pack_bits(flat[:-1] + b"\x02", num_bits)

    @pytest.mark.parametrize("num_bits", [1, 8, 9, 192, 193])
    def test_short_payload_rejected_alike(self, num_bits):
        packed = bytes((num_bits + 7) // 8 - 1)
        for unpack in (AnswerCodec._unpack_bits, AnswerCodec._unpack_bits_scalar):
            with pytest.raises(ValueError):
                unpack(packed, num_bits)


class TestColumnForm:
    """The column-form helpers agree with the per-answer codec."""

    @given(
        rows=st.lists(st.lists(st.integers(0, 1), min_size=13, max_size=13), max_size=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_count_packed_bits_sums_the_unpacked_rows(self, rows):
        codec = AnswerCodec()
        packed = b"".join(codec._pack_bits(row) for row in rows)
        expected = [sum(column) for column in zip(*rows)] if rows else [0] * 13
        assert codec.count_packed_bits(packed, 13) == expected

    def test_pad_bits_are_not_counted(self):
        assert AnswerCodec.count_packed_bits(b"\xff\xff", 3) == [2, 2, 2]

    def test_parse_column_reads_well_formed_rows_and_flags_the_rest(self):
        codec = AnswerCodec()
        good = codec.encode(QueryAnswer("q-1", (1, 0, 1), epoch=4, token=b"t" * 16))
        other_epoch = codec.encode(QueryAnswer("q-1", (1, 0, 1), epoch=5, token=b"u" * 16))
        other_query = codec.encode(QueryAnswer("q-2", (1, 0, 1), epoch=4, token=b"v" * 16))
        column = good + other_epoch + other_query + good
        tokens, packed, odd_rows = codec.parse_column(column, len(good), "q-1", 4, 3, 16)
        assert list(tokens) == [b"t" * 16] * 2
        assert list(packed) == [codec._pack_bits((1, 0, 1))] * 2
        assert odd_rows == [1, 2]
        # A whole well-formed column reads in one split.
        assert codec.parse_column(good * 3, len(good), "q-1", 4, 3, 16) == (
            (b"t" * 16,) * 3, (codec._pack_bits((1, 0, 1)),) * 3, []
        )
        # A width that cannot be this query's answer: every row is decoded.
        assert codec.parse_column(column, len(good), "q-1", 4, 9, 16) == ([], [], [0, 1, 2, 3])
        assert codec.parse_column(b"", len(good), "q-1", 4, 3, 16) == ([], [], [])

    def test_encode_message_is_encode(self):
        codec = AnswerCodec()
        answer = QueryAnswer("q-1", (0, 1, 1, 0), epoch=2, token=b"tok")
        assert codec.encode_message("q-1", 2, b"tok", (0, 1, 1, 0)) == codec.encode(answer)


class TestPadColumns:
    """``pad_columns`` reads each row's pad off its own keystream: row ``i``
    of key column ``k`` is bytes ``k * width`` to ``(k + 1) * width`` of
    ``keystream(draws[i].pad_seed(messages[i]))``."""

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("num_proxies", [2, 3, 4, 5])
    def test_rows_equal_the_reference_keystream(self, width, num_proxies):
        from repro.core.seeding import EpochDraws, client_key, query_prefix
        from repro.crypto.prng import keystream

        draws = [EpochDraws(query_prefix(client_key(row), "q-1"), 9) for row in range(5)]
        messages = [bytes([row]) * width for row in range(5)]
        columns = AnswerCodec.pad_columns(messages, num_proxies, draws)
        assert len(columns) == num_proxies - 1
        for row, (message, row_draws) in enumerate(zip(messages, draws)):
            stream = keystream(row_draws.pad_seed(message), width * (num_proxies - 1))
            for index, column in enumerate(columns):
                assert column[row * width : (row + 1) * width] == stream[
                    index * width : (index + 1) * width
                ], (row, index)
