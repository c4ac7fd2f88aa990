"""Tests for the XOR one-time-pad share-splitting scheme."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.prng import KeystreamGenerator
from repro.crypto.xor import (
    MessageShare,
    XorCipher,
    join_shares,
    join_shares_batch,
    split_message,
    xor_bytes,
    xor_many,
)


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_self_inverse(self):
        a, b = b"hello world", b"key key key"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")

    def test_xor_many_single(self):
        assert xor_many([b"abc"]) == b"abc"

    def test_xor_many_empty_rejected(self):
        with pytest.raises(ValueError):
            xor_many([])


class TestXorCipher:
    def test_roundtrip_two_shares(self):
        cipher = XorCipher(num_shares=2, keystream=KeystreamGenerator(seed=b"k"))
        shares = cipher.encrypt(b"private answer")
        assert len(shares) == 2
        assert XorCipher.decrypt(shares) == b"private answer"

    @pytest.mark.parametrize("num_shares", [2, 3, 4, 5])
    def test_roundtrip_many_shares(self, num_shares):
        cipher = XorCipher(num_shares=num_shares, keystream=KeystreamGenerator(seed=b"k"))
        message = b"M" * 37
        shares = cipher.encrypt(message)
        assert len(shares) == num_shares
        assert XorCipher.decrypt(shares) == message

    def test_rejects_fewer_than_two_shares(self):
        with pytest.raises(ValueError):
            XorCipher(num_shares=1)

    def test_shares_share_message_id(self):
        shares = XorCipher(num_shares=3).encrypt(b"payload", message_id="mid-1")
        assert {s.message_id for s in shares} == {"mid-1"}

    def test_share_indices_are_sequential(self):
        shares = XorCipher(num_shares=4).encrypt(b"payload")
        assert [s.index for s in shares] == [0, 1, 2, 3]

    def test_no_single_share_reveals_message(self):
        """Every individual share must differ from the plaintext (overwhelmingly likely)."""
        message = b"the secret answer vector!"
        shares = XorCipher(num_shares=3, keystream=KeystreamGenerator(seed=b"x")).encrypt(message)
        for share in shares:
            assert share.payload != message

    def test_missing_share_does_not_decrypt(self):
        message = b"confidential"
        shares = XorCipher(num_shares=3, keystream=KeystreamGenerator(seed=b"y")).encrypt(message)
        assert join_shares(shares[:2]) != message

    def test_shares_have_message_length(self):
        message = b"0123456789"
        shares = XorCipher(num_shares=2).encrypt(message)
        assert all(len(s.payload) == len(message) for s in shares)

    def test_empty_message_roundtrip(self):
        shares = XorCipher(num_shares=2).encrypt(b"")
        assert XorCipher.decrypt(shares) == b""


class TestSplitJoinHelpers:
    def test_split_message_roundtrip(self):
        shares = split_message(b"hello", num_proxies=3, keystream=KeystreamGenerator(seed=b"s"))
        assert join_shares(shares) == b"hello"

    @pytest.mark.parametrize("num_shares", [2, 3, 4])
    def test_cipher_and_split_message_are_one_routine(self, num_shares):
        """Same shares, same order, same indices from either entry point."""
        message = bytes(range(47))
        via_cipher = XorCipher(num_shares, KeystreamGenerator(seed=b"s")).encrypt(
            message, message_id="m"
        )
        via_function = split_message(
            message, num_shares, KeystreamGenerator(seed=b"s"), message_id="m"
        )
        assert via_cipher == via_function
        assert [share.index for share in via_function] == list(range(num_shares))
        # Key strings come off the keystream in share order.
        keystream = KeystreamGenerator(seed=b"s")
        assert [share.payload for share in via_function[1:]] == [
            keystream.next_bytes(len(message)) for _ in range(num_shares - 1)
        ]

    def test_split_message_rejects_fewer_than_two_shares(self):
        with pytest.raises(ValueError, match="at least 2 shares, got 1"):
            split_message(b"hello", num_proxies=1)

    def test_default_message_id_is_os_entropy_as_hex(self, monkeypatch):
        """The MID comes through ``prng.secure_random_bytes`` — the one
        monkeypatch point that module advertises — as 32 lowercase hex chars."""
        from repro.crypto import prng

        keystream = KeystreamGenerator(seed=b"s")
        monkeypatch.setattr(prng, "secure_random_bytes", lambda n: bytes(range(n)))
        shares = split_message(b"hello", num_proxies=2, keystream=keystream)
        assert {share.message_id for share in shares} == {bytes(range(16)).hex()}
        monkeypatch.undo()
        message_id = split_message(b"hello", num_proxies=2)[0].message_id
        assert len(message_id) == 32 and set(message_id) <= set("0123456789abcdef")
        assert message_id != split_message(b"hello", num_proxies=2)[0].message_id

    def test_join_requires_two_shares(self):
        share = MessageShare(message_id="m", payload=b"abc", index=0)
        with pytest.raises(ValueError):
            join_shares([share])

    def test_join_rejects_mixed_message_ids(self):
        a = MessageShare(message_id="m1", payload=b"abc", index=0)
        b = MessageShare(message_id="m2", payload=b"abc", index=1)
        with pytest.raises(ValueError):
            join_shares([a, b])

    def test_join_rejects_mismatched_lengths(self):
        a = MessageShare(message_id="m", payload=b"abc", index=0)
        b = MessageShare(message_id="m", payload=b"abcd", index=1)
        with pytest.raises(ValueError):
            join_shares([a, b])

    def test_join_is_order_independent(self):
        shares = split_message(b"order free", num_proxies=4)
        assert join_shares(list(reversed(shares))) == b"order free"

    def test_share_size_includes_mid_overhead(self):
        share = MessageShare(message_id="m", payload=b"12345678", index=0)
        assert share.size_bytes() == 8 + 16

    @given(
        message=st.binary(min_size=0, max_size=256),
        num_proxies=st.integers(min_value=2, max_value=6),
        seed=st.binary(min_size=1, max_size=16),
    )
    def test_split_join_roundtrip_property(self, message, num_proxies, seed):
        """Invariant: XOR of all shares always recovers the message."""
        shares = split_message(
            message, num_proxies=num_proxies, keystream=KeystreamGenerator(seed=seed)
        )
        assert len(shares) == num_proxies
        assert join_shares(shares) == message


class TestJoinSharesBatch:
    """The batched shard-decrypt path must match join_shares group-for-group."""

    def make_groups(self, num_groups: int, num_proxies: int = 2) -> list:
        keystream = KeystreamGenerator(seed=b"batch")
        return [
            split_message(
                f"answer-{index:04d}".encode(), num_proxies=num_proxies, keystream=keystream
            )
            for index in range(num_groups)
        ]

    def test_matches_scalar_reference(self):
        groups = self.make_groups(17)
        assert join_shares_batch(groups) == [join_shares(g) for g in groups]

    def test_matches_reference_across_share_counts(self):
        """Groups of different proxy counts coexist in one batch."""
        groups = self.make_groups(5, num_proxies=2) + self.make_groups(5, num_proxies=4)
        assert join_shares_batch(groups) == [join_shares(g) for g in groups]

    def test_mixed_lengths_bucket_separately(self):
        keystream = KeystreamGenerator(seed=b"mixed")
        groups = [
            split_message(b"short", num_proxies=2, keystream=keystream),
            split_message(b"a much longer message body", num_proxies=2, keystream=keystream),
            split_message(b"short", num_proxies=2, keystream=keystream),
        ]
        assert join_shares_batch(groups) == [join_shares(g) for g in groups]

    def test_malformed_groups_yield_none_not_poison(self):
        """Where join_shares raises, the batch yields None — in place."""
        good = self.make_groups(3)
        lone = [MessageShare(message_id="m", payload=b"abc", index=0)]
        mixed_ids = [
            MessageShare(message_id="m1", payload=b"abc", index=0),
            MessageShare(message_id="m2", payload=b"abc", index=1),
        ]
        unequal = [
            MessageShare(message_id="m", payload=b"abc", index=0),
            MessageShare(message_id="m", payload=b"abcd", index=1),
        ]
        groups = [good[0], lone, good[1], mixed_ids, unequal, good[2]]
        batch = join_shares_batch(groups)
        assert batch[0] == join_shares(good[0])
        assert batch[2] == join_shares(good[1])
        assert batch[5] == join_shares(good[2])
        assert batch[1] is None and batch[3] is None and batch[4] is None
        for bad in (lone, mixed_ids, unequal):
            with pytest.raises(ValueError):
                join_shares(bad)

    def test_empty_payloads_and_empty_batch(self):
        assert join_shares_batch([]) == []
        empty = split_message(b"", num_proxies=3, keystream=KeystreamGenerator(seed=b"e"))
        assert join_shares_batch([empty, empty]) == [b"", b""]

    @given(
        num_groups=st.integers(min_value=1, max_value=12),
        num_proxies=st.integers(min_value=2, max_value=5),
        seed=st.binary(min_size=1, max_size=8),
    )
    def test_batch_equals_reference_property(self, num_groups, num_proxies, seed):
        keystream = KeystreamGenerator(seed=seed)
        groups = [
            split_message(bytes([index]) * (index + 1), num_proxies=num_proxies,
                          keystream=keystream)
            for index in range(num_groups)
        ]
        assert join_shares_batch(groups) == [join_shares(g) for g in groups]
