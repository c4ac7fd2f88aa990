"""Tests for the BLAKE2b counter-mode keystream generator."""


import pytest
from hypothesis import given, strategies as st

from repro.crypto.prng import KeystreamGenerator, keystream, keystreams, secure_random_bytes


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


class TestOneShotKeystream:
    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 200])
    def test_matches_a_fresh_generator(self, length):
        assert keystream(b"seed", length) == KeystreamGenerator(seed=b"seed").next_bytes(length)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            keystream(b"seed", -1)


class TestManySeeds:
    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 128, 200])
    def test_each_stream_is_its_seeds_keystream(self, length):
        seeds = [b"", b"seed", bytes(range(150))]
        assert keystreams(seeds, length) == [keystream(seed, length) for seed in seeds]

    def test_no_seeds_no_streams(self):
        assert keystreams([], 64) == []

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            keystreams([b"seed"], -1)
