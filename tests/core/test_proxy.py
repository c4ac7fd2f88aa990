"""Tests for the proxy tier (anonymizing relays)."""

import pytest

from repro.core import ProxyNetwork
from repro.core.client import ResponseBlock
from repro.core.encryption import AnswerCodec
from repro.core.proxy import poll_shares
from repro.core.query import QueryAnswer
from repro.crypto.prng import KeystreamGenerator
from repro.crypto.xor import ShareColumn
from tests.conftest import forge_block


def encrypted_answer(num_proxies: int = 2, bits=(1, 0, 1)):
    return AnswerCodec().encrypt(
        QueryAnswer(query_id="q", bits=tuple(bits)),
        num_proxies=num_proxies,
        keystream=KeystreamGenerator(seed=b"t"),
    )


def answer_block(rows: int, num_proxies: int = 2, bits=(1, 0, 1)) -> ResponseBlock:
    """``rows`` answers to query ``q`` as one shard's block."""
    message = AnswerCodec().encode_message("q", 0, b"t" * 32, bits)
    keystream = KeystreamGenerator(seed=b"t")
    answer_rows = [
        (
            f"c{row}",
            bits,
            bits,
            message,
            tuple(keystream.next_bytes(len(message)) for _ in range(num_proxies - 1)),
        )
        for row in range(rows)
    ]
    return forge_block("q", 0, answer_rows, num_proxies)


def share_fields(shares):
    return sorted((share.message_id, share.payload, share.index) for share in shares)


class TestProxyNetwork:
    def test_requires_at_least_two_proxies(self):
        with pytest.raises(ValueError):
            ProxyNetwork(num_proxies=1)

    def test_transmit_fans_shares_out(self):
        network = ProxyNetwork(num_proxies=3)
        answer = encrypted_answer(num_proxies=3)
        network.transmit(list(answer.shares))
        assert [proxy.shares_relayed for proxy in network.proxies] == [1, 1, 1]
        assert network.total_shares_relayed() == 3

    def test_transmit_rejects_wrong_share_count(self):
        network = ProxyNetwork(num_proxies=2)
        answer = encrypted_answer(num_proxies=3)
        with pytest.raises(ValueError):
            network.transmit(list(answer.shares))

    def test_each_proxy_stores_only_its_share(self):
        """No proxy ever holds two shares of the same message (non-collusion)."""
        network = ProxyNetwork(num_proxies=2)
        inspectors = network.make_consumers()
        answer = encrypted_answer(num_proxies=2)
        network.transmit(list(answer.shares))
        for inspector in inspectors:
            records = inspector.poll()
            message_ids = [share.message_id for r in records for share in r.value]
            assert len(message_ids) == len(set(message_ids)) == 1

    def test_consumers_receive_relayed_shares(self):
        network = ProxyNetwork(num_proxies=2)
        consumers = network.make_consumers()
        answer = encrypted_answer(num_proxies=2)
        network.transmit(list(answer.shares))
        received = poll_shares(consumers)
        assert len(received) == 2
        assert AnswerCodec().decrypt(received).bits == (1, 0, 1)

    def test_proxy_cannot_decrypt_alone(self):
        """A single proxy's view is an opaque byte string, not the answer."""
        network = ProxyNetwork(num_proxies=2)
        answer = encrypted_answer(num_proxies=2)
        plaintext = AnswerCodec().encode(QueryAnswer(query_id="q", bits=(1, 0, 1)))
        inspectors = network.make_consumers()
        network.transmit(list(answer.shares))
        for inspector in inspectors:
            records = inspector.poll()
            assert len(records) == 1
            assert all(share.payload != plaintext for share in records[0].value)

    def test_bytes_relayed_accounting(self):
        network = ProxyNetwork(num_proxies=2)
        answer = encrypted_answer(num_proxies=2)
        network.transmit(list(answer.shares))
        assert network.total_bytes_relayed() == answer.total_bytes()


class TestShardBatchRecords:
    """The staged engine's relay: one column record per proxy per shard, on
    the same channel topics the per-share relay uses."""

    def test_transmit_shard_relays_every_share(self):
        network = ProxyNetwork(num_proxies=2)
        block = answer_block(5)
        consumers = network.make_consumers(channel="q")
        others = network.make_consumers(channel="other")
        network.transmit_shard(block, channel="q")
        # One column record per proxy on the channel's topic, nothing elsewhere.
        assert all(not consumer.poll() for consumer in others)
        for proxy_index, consumer in enumerate(consumers):
            records = consumer.poll()
            assert len(records) == 1  # one column record per shard transmission
            column = records[0].value
            assert isinstance(column, ShareColumn) and len(column) == 5
            assert column.shares() == [block.shares(row)[proxy_index] for row in range(5)]
            assert records[0].size_bytes() == 16 + sum(
                share.size_bytes() for share in column.shares()
            )
        assert network.total_shares_relayed() == 10

    def test_transmit_shard_empty_rows_is_noop(self):
        network = ProxyNetwork(num_proxies=2)
        network.transmit_shard(answer_block(0), channel="q")
        assert network.total_shares_relayed() == 0
        assert not network.cluster._topics

    def test_transmit_shard_rejects_wrong_share_count(self):
        network = ProxyNetwork(num_proxies=2)
        with pytest.raises(ValueError):
            network.transmit_shard(answer_block(1, num_proxies=3), channel="q")

    def test_topics_are_created_on_first_use(self):
        """No relay topic exists until something publishes or subscribes to
        it, and a channel's topics are the only ones its relay touches."""
        network = ProxyNetwork(num_proxies=2)
        assert not network.cluster._topics
        block = answer_block(1)
        network.transmit_shard(block, channel="q")
        network.transmit(block.shares(0), channel="q")
        assert sorted(network.cluster._topics) == ["proxy-0-q-q", "proxy-1-q-q"]
        network.make_consumers()
        assert sorted(network.cluster._topics) == [
            "proxy-0",
            "proxy-0-q-q",
            "proxy-1",
            "proxy-1-q-q",
        ]

    def test_per_share_and_batch_records_poll_alike(self):
        """One poll returns each proxy's one-share record as its share and
        its column record as the column, which holds the rest of the shares."""
        network = ProxyNetwork(num_proxies=2)
        consumers = network.make_consumers(channel="q")
        block = answer_block(3)
        network.transmit(block.shares(0), channel="q")
        network.transmit_shard(block.select([1, 2]), channel="q")
        items = poll_shares(consumers)
        assert sorted(type(item).__name__ for item in items) == [
            "MessageShare", "MessageShare", "ShareColumn", "ShareColumn"
        ]
        loose = [
            share
            for item in items
            for share in (item.shares() if isinstance(item, ShareColumn) else [item])
        ]
        assert share_fields(loose) == share_fields(
            share for row in range(3) for share in block.shares(row)
        )

    def test_byte_accounting_counts_each_share(self):
        network = ProxyNetwork(num_proxies=2)
        block = answer_block(3)
        network.transmit_shard(block)
        expected = sum(share.size_bytes() for row in range(3) for share in block.shares(row))
        assert network.total_bytes_relayed() == expected
