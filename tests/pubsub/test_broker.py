"""Tests for brokers and broker clusters."""

import pytest

from repro.pubsub import BrokerCluster, Record
from repro.pubsub.errors import PubSubError, UnknownTopicError


class TestBrokerCluster:
    def test_create_topic(self):
        cluster = BrokerCluster(num_brokers=2)
        cluster.create_topic("answers", num_partitions=4)
        assert cluster.topic("answers").num_partitions == 4

    def test_duplicate_topic_rejected(self):
        cluster = BrokerCluster()
        cluster.create_topic("t")
        with pytest.raises(PubSubError):
            cluster.create_topic("t")

    def test_ensure_topic_is_idempotent(self):
        cluster = BrokerCluster()
        first = cluster.ensure_topic("t", 2)
        second = cluster.ensure_topic("t", 2)
        assert first is second

    def test_unknown_topic_rejected(self):
        with pytest.raises(UnknownTopicError):
            BrokerCluster().topic("missing")

    def test_publish_appends_to_the_topic(self):
        cluster = BrokerCluster(num_brokers=2)
        cluster.create_topic("t", num_partitions=1)
        cluster.publish("t", Record(value="hello"))
        records = cluster.topic("t").partition(0).read(offset=0)
        assert [r.value for r in records] == ["hello"]

    def test_partition_leaders_are_balanced(self):
        cluster = BrokerCluster(num_brokers=2)
        cluster.create_topic("t", num_partitions=4)
        leaders = [cluster.leader_for("t", i).broker_id for i in range(4)]
        assert leaders == [0, 1, 0, 1]

    def test_leader_accounting(self):
        cluster = BrokerCluster(num_brokers=2)
        cluster.create_topic("t", num_partitions=2)
        for i in range(10):
            cluster.publish("t", Record(value=i, key=str(i)))
        handled = sum(b.records_handled for b in cluster.brokers)
        assert handled == 10
        assert cluster.total_records() == 10

    def test_needs_at_least_one_broker(self):
        with pytest.raises(PubSubError):
            BrokerCluster(num_brokers=0)

    def test_total_bytes_grows_with_messages(self):
        cluster = BrokerCluster()
        cluster.create_topic("t")
        before = cluster.total_bytes()
        cluster.publish("t", Record(value=b"x" * 100))
        assert cluster.total_bytes() > before
