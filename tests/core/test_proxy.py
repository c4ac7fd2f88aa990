"""Tests for the proxy tier (anonymizing relays)."""

import pytest

from repro.core import ProxyNetwork
from repro.core.encryption import AnswerCodec
from repro.core.query import QueryAnswer
from repro.crypto.prng import KeystreamGenerator


def encrypted_answer(num_proxies: int = 2, bits=(1, 0, 1)):
    return AnswerCodec().encrypt(
        QueryAnswer(query_id="q", bits=tuple(bits)),
        num_proxies=num_proxies,
        keystream=KeystreamGenerator(seed=b"t"),
    )


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
        inspectors = network.make_consumers(group_id="inspect")
        answer = encrypted_answer(num_proxies=2)
        network.transmit(list(answer.shares))
        for inspector in inspectors:
            records = inspector.poll()
            message_ids = [r.value.message_id for r in records]
            assert len(message_ids) == len(set(message_ids)) == 1

    def test_consumers_receive_relayed_shares(self):
        network = ProxyNetwork(num_proxies=2)
        consumers = network.make_consumers()
        answer = encrypted_answer(num_proxies=2)
        network.transmit(list(answer.shares))
        received = []
        for consumer in consumers:
            received.extend(record.value for record in consumer.poll())
        assert len(received) == 2
        assert AnswerCodec().decrypt(received).bits == (1, 0, 1)

    def test_proxy_cannot_decrypt_alone(self):
        """A single proxy's view is an opaque byte string, not the answer."""
        network = ProxyNetwork(num_proxies=2)
        answer = encrypted_answer(num_proxies=2)
        plaintext = AnswerCodec().encode(QueryAnswer(query_id="q", bits=(1, 0, 1)))
        inspectors = network.make_consumers(group_id="inspect")
        network.transmit(list(answer.shares))
        for inspector in inspectors:
            records = inspector.poll()
            assert len(records) == 1
            assert all(record.value.payload != plaintext for record in records)

    def test_bytes_relayed_accounting(self):
        network = ProxyNetwork(num_proxies=2)
        answer = encrypted_answer(num_proxies=2)
        network.transmit(list(answer.shares))
        assert network.total_bytes_relayed() == answer.total_bytes()

    def test_pending_shares(self):
        network = ProxyNetwork(num_proxies=2)
        answer = encrypted_answer(num_proxies=2)
        network.transmit(list(answer.shares))
        assert all(proxy.pending_shares() == 1 for proxy in network.proxies)

    def test_reset_metrics(self):
        network = ProxyNetwork(num_proxies=2)
        network.transmit(list(encrypted_answer().shares))
        for proxy in network.proxies:
            proxy.reset_metrics()
        assert network.total_shares_relayed() == 0


class TestProxyPerformanceModel:
    def test_throughput_falls_with_message_size(self):
        network = ProxyNetwork(num_proxies=2)
        assert network.modelled_throughput(64) >= network.modelled_throughput(4096)

    def test_latency_linear_in_share_count(self):
        network = ProxyNetwork(num_proxies=2)
        assert network.modelled_latency(2_000_000, 64) == pytest.approx(
            2 * network.modelled_latency(1_000_000, 64)
        )


class TestShardAwareTopics:
    """The pipelined runtime's per-shard relay topics and batch records."""

    def test_transmit_shard_relays_every_share(self):
        network = ProxyNetwork(num_proxies=2)
        rows = [list(encrypted_answer(num_proxies=2).shares) for _ in range(5)]
        consumers = network.make_shard_consumers(group_id="t", num_slots=3)
        network.transmit_shard(1, rows)
        # One batch record per proxy on slot 1, nothing on other slots.
        for slot in (0, 2):
            assert all(not consumer.poll() for consumer in consumers[slot])
        relayed = []
        for proxy_index, consumer in enumerate(consumers[1]):
            records = consumer.poll()
            assert len(records) == 1  # one batch record per shard transmission
            relayed.append(list(records[0].value))
            assert relayed[-1] == [row[proxy_index] for row in rows]
        assert network.total_shares_relayed() == 10

    def test_transmit_shard_empty_rows_is_noop(self):
        network = ProxyNetwork(num_proxies=2)
        network.ensure_shard_topics(2)
        network.transmit_shard(0, [])
        assert network.total_shares_relayed() == 0

    def test_transmit_shard_rejects_wrong_share_count(self):
        network = ProxyNetwork(num_proxies=2)
        network.ensure_shard_topics(1)
        rows = [list(encrypted_answer(num_proxies=3).shares)]
        with pytest.raises(ValueError):
            network.transmit_shard(0, rows)

    def test_ensure_shard_topics_is_idempotent(self):
        network = ProxyNetwork(num_proxies=2)
        network.ensure_shard_topics(2)
        network.ensure_shard_topics(4)  # growing the slot count is fine
        names = network.proxies[0].ensure_shard_topics(4)
        assert names == [f"proxy-0-shard-{slot}" for slot in range(4)]

    def test_byte_accounting_counts_each_share(self):
        network = ProxyNetwork(num_proxies=2)
        network.ensure_shard_topics(1)
        rows = [list(encrypted_answer(num_proxies=2).shares) for _ in range(3)]
        network.transmit_shard(0, rows)
        expected = sum(share.size_bytes() for row in rows for share in row)
        assert network.total_bytes_relayed() == expected
