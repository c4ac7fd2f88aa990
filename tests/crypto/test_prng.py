"""Tests for the SHA-256 counter-mode keystream generator."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.prng import KeystreamGenerator, secure_random_bytes


class TestSecureRandomBytes:
    def test_returns_requested_length(self):
        assert len(secure_random_bytes(16)) == 16

    def test_zero_length(self):
        assert secure_random_bytes(0) == b""

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            secure_random_bytes(-1)

    def test_successive_calls_differ(self):
        assert secure_random_bytes(32) != secure_random_bytes(32)


class TestKeystreamGenerator:
    def test_same_seed_same_stream(self):
        a = KeystreamGenerator(seed=b"seed")
        b = KeystreamGenerator(seed=b"seed")
        assert a.next_bytes(100) == b.next_bytes(100)

    def test_different_seed_different_stream(self):
        a = KeystreamGenerator(seed=b"seed-a")
        b = KeystreamGenerator(seed=b"seed-b")
        assert a.next_bytes(64) != b.next_bytes(64)

    def test_stream_is_stateful(self):
        gen = KeystreamGenerator(seed=b"seed")
        first = gen.next_bytes(32)
        second = gen.next_bytes(32)
        assert first != second

    def test_chunked_reads_match_single_read(self):
        a = KeystreamGenerator(seed=b"seed")
        b = KeystreamGenerator(seed=b"seed")
        chunked = a.next_bytes(10) + a.next_bytes(7) + a.next_bytes(23)
        assert chunked == b.next_bytes(40)

    def test_default_seed_is_random(self):
        assert KeystreamGenerator().seed != KeystreamGenerator().seed

    def test_non_bytes_seed_rejected(self):
        with pytest.raises(TypeError):
            KeystreamGenerator(seed="not-bytes")  # type: ignore[arg-type]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            KeystreamGenerator(seed=b"s").next_bytes(-5)

    def test_skip_rejects_negative_length(self):
        with pytest.raises(ValueError):
            KeystreamGenerator(seed=b"s").skip(-1)

    @pytest.mark.parametrize("buffered", [0, 5])
    @pytest.mark.parametrize("length", [0, 5, 27, 32, 33, 64, 200])
    def test_skip_leaves_the_state_next_bytes_leaves(self, buffered, length):
        """Inside the buffer, across it, and ending on a block boundary."""
        reading = KeystreamGenerator(seed=b"skip")
        skipping = KeystreamGenerator(seed=b"skip")
        for generator in (reading, skipping):
            generator.next_bytes(32 - buffered)  # leaves `buffered` bytes behind
        reading.next_bytes(length)
        skipping.skip(length)
        assert skipping.getstate() == reading.getstate()
        assert skipping.next_bytes(40) == reading.next_bytes(40)

    def test_skip_hashes_at_most_the_block_the_tail_comes_from(self, monkeypatch):
        from types import SimpleNamespace

        from repro.crypto import prng

        hashed = []

        def counting_sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        generator = KeystreamGenerator(seed=b"skip")
        monkeypatch.setattr(prng, "hashlib", SimpleNamespace(sha256=counting_sha256))
        generator.skip(1000)  # 32 blocks, 24 bytes of the last one left over
        assert len(hashed) == 1
        generator.skip(24)  # served from the buffer
        generator.skip(64)  # ends on a block boundary: nothing to keep
        assert len(hashed) == 1

    def test_next_bits_range(self):
        gen = KeystreamGenerator(seed=b"bits")
        for nbits in (1, 5, 8, 13, 64):
            value = gen.next_bits(nbits)
            assert 0 <= value < (1 << nbits)

    def test_next_bits_zero(self):
        assert KeystreamGenerator(seed=b"s").next_bits(0) == 0

    def test_randint_below_range(self):
        gen = KeystreamGenerator(seed=b"randint")
        values = [gen.randint_below(10) for _ in range(200)]
        assert all(0 <= v < 10 for v in values)
        assert len(set(values)) > 5  # should hit most residues

    def test_randint_below_one_is_zero(self):
        assert KeystreamGenerator(seed=b"s").randint_below(1) == 0

    def test_randint_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            KeystreamGenerator(seed=b"s").randint_below(0)

    def test_random_fraction_in_unit_interval(self):
        gen = KeystreamGenerator(seed=b"frac")
        values = [gen.random_fraction() for _ in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=512))
    def test_determinism_property(self, seed, length):
        assert (
            KeystreamGenerator(seed=seed).next_bytes(length)
            == KeystreamGenerator(seed=seed).next_bytes(length)
        )

    def test_keystream_looks_balanced(self):
        """A crude sanity check: roughly half the bits of a long stream are set."""
        gen = KeystreamGenerator(seed=b"balance")
        data = gen.next_bytes(4096)
        ones = sum(bin(byte).count("1") for byte in data)
        total_bits = len(data) * 8
        assert 0.45 < ones / total_bits < 0.55
