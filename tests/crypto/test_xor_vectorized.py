"""Regression tests: the vectorized XOR path against the scalar reference.

``xor_bytes`` / ``xor_many`` now operate on whole words via ``int.from_bytes``;
``xor_bytes_scalar`` keeps the original byte-at-a-time loop as the executable
specification.  These tests pin the two together bit-for-bit, and pin the
bulk keystream refill to the one-block-at-a-time stream it replaced.
"""

import hashlib
import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.crypto.prng import KeystreamGenerator
from repro.crypto.xor import xor_bytes, xor_bytes_scalar, xor_many


def reference_keystream(seed: bytes, length: int) -> bytes:
    """BLAKE2b counter-mode stream, one block at a time (the old _refill)."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hashlib.blake2b(seed + struct.pack(">Q", counter)).digest())
        counter += 1
    return bytes(out[:length])


class TestXorBytesRegression:
    @pytest.mark.parametrize("length", [0, 1, 2, 7, 8, 9, 31, 32, 33, 255, 4096])
    def test_matches_scalar_on_random_payloads(self, length):
        rng = random.Random(length)
        a = rng.randbytes(length)
        b = rng.randbytes(length)
        assert xor_bytes(a, b) == xor_bytes_scalar(a, b)

    def test_empty_messages(self):
        assert xor_bytes(b"", b"") == b""
        assert xor_bytes_scalar(b"", b"") == b""
        assert xor_many([b"", b"", b""]) == b""

    def test_single_byte_messages(self):
        assert xor_bytes(b"\xa5", b"\x5a") == b"\xff"
        assert xor_bytes(b"\x00", b"\x00") == b"\x00"
        assert xor_bytes(b"\xff", b"\xff") == b"\x00"

    def test_both_reject_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")
        with pytest.raises(ValueError):
            xor_bytes_scalar(b"ab", b"abc")

    def test_xor_many_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            xor_many([b"ab", b"abc"])

    @given(data=st.lists(st.binary(min_size=0, max_size=128), min_size=2, max_size=6))
    def test_xor_many_matches_scalar_fold(self, data):
        length = len(data[0])
        parts = [part[:length].ljust(length, b"\x00") for part in data]
        expected = parts[0]
        for part in parts[1:]:
            expected = xor_bytes_scalar(expected, part)
        assert xor_many(parts) == expected

    @given(a=st.binary(min_size=0, max_size=512))
    def test_matches_scalar_property(self, a):
        b = bytes(reversed(a))
        assert xor_bytes(a, b) == xor_bytes_scalar(a, b)


class TestKeystreamBulkRefill:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 100, 1000, 10_000])
    def test_bulk_request_matches_reference_stream(self, length):
        generator = KeystreamGenerator(seed=b"bulk-seed")
        assert generator.next_bytes(length) == reference_keystream(b"bulk-seed", length)

    def test_chunked_reads_equal_one_bulk_read(self):
        bulk = KeystreamGenerator(seed=b"chunks").next_bytes(1024)
        chunked = KeystreamGenerator(seed=b"chunks")
        pieces = []
        rng = random.Random(0)
        remaining = 1024
        while remaining:
            take = min(remaining, rng.randint(1, 97))
            pieces.append(chunked.next_bytes(take))
            remaining -= take
        assert b"".join(pieces) == bulk
