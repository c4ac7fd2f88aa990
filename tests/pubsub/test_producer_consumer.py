"""Tests for the producer and consumer APIs."""

import gc

import pytest

from repro.pubsub import BrokerCluster, Consumer, ConsumerGroup, Producer
from repro.pubsub.errors import PubSubError


@pytest.fixture
def cluster() -> BrokerCluster:
    cluster = BrokerCluster(num_brokers=2)
    cluster.create_topic("answers", num_partitions=3)
    cluster.create_topic("keys", num_partitions=3)
    return cluster


class TestProducer:
    def test_send_tracks_metrics(self, cluster):
        producer = Producer(cluster)
        producer.send("answers", value=b"payload", key="m1")
        assert producer.records_sent == 1
        assert producer.bytes_sent > 0

    def test_send_batch_preserves_order_per_key(self, cluster):
        producer = Producer(cluster)
        producer.send_batch("answers", [b"a", b"b", b"c"], key="same")
        consumer = Consumer(cluster)
        consumer.subscribe(["answers"])
        values = [r.value for r in consumer.poll()]
        assert values == [b"a", b"b", b"c"]

    def test_timestamps_increase_when_not_provided(self, cluster):
        producer = Producer(cluster)
        first = producer.send("answers", b"a")
        second = producer.send("answers", b"b")
        assert second.timestamp > first.timestamp

    def test_explicit_timestamp_used(self, cluster):
        producer = Producer(cluster)
        record = producer.send("answers", b"a", timestamp=123.5)
        assert record.timestamp == 123.5


class TestConsumer:
    def test_poll_before_subscribe_rejected(self, cluster):
        with pytest.raises(PubSubError):
            Consumer(cluster).poll()

    def test_poll_returns_only_new_records(self, cluster):
        producer = Producer(cluster)
        consumer = Consumer(cluster)
        consumer.subscribe(["answers"])
        producer.send("answers", b"first")
        assert [r.value for r in consumer.poll()] == [b"first"]
        assert consumer.poll() == []
        producer.send("answers", b"second")
        assert [r.value for r in consumer.poll()] == [b"second"]

    def test_poll_across_topics(self, cluster):
        producer = Producer(cluster)
        consumer = Consumer(cluster)
        consumer.subscribe(["answers", "keys"])
        producer.send("answers", b"a")
        producer.send("keys", b"k")
        values = {r.value for r in consumer.poll()}
        assert values == {b"a", b"k"}

    def test_seek_to_beginning_rewinds_to_the_earliest_retained_offset(self, cluster):
        producer = Producer(cluster)
        consumer = Consumer(cluster)
        laggard = Consumer(cluster)
        consumer.subscribe(["answers"])
        laggard.subscribe(["answers"])
        producer.send("answers", b"a")
        consumer.poll()
        consumer.seek_to_beginning()
        # The laggard still pins b"a", so the rewind reads it again ...
        assert [r.value for r in consumer.poll()] == [b"a"]
        laggard.poll()
        producer.send("answers", b"b")
        consumer.poll()
        laggard.poll()
        consumer.seek_to_beginning()
        # ... but once both have read past a record it is gone for good.
        assert consumer.poll() == []

    def test_lag(self, cluster):
        producer = Producer(cluster)
        consumer = Consumer(cluster)
        consumer.subscribe(["answers"])
        for i in range(5):
            producer.send("answers", bytes([i]))
        assert consumer.lag() == 5
        consumer.poll()
        assert consumer.lag() == 0

    def test_max_records_limits_poll(self, cluster):
        producer = Producer(cluster)
        consumer = Consumer(cluster)
        consumer.subscribe(["answers"])
        for i in range(10):
            producer.send("answers", bytes([i]))
        assert len(consumer.poll(max_records=4)) == 4
        assert len(consumer.poll()) == 6

    def test_subscribe_unknown_topic_rejected(self, cluster):
        consumer = Consumer(cluster)
        with pytest.raises(Exception):
            consumer.subscribe(["missing"])


class TestConsumerGroup:
    def test_members_split_partitions(self, cluster):
        producer = Producer(cluster)
        for i in range(30):
            producer.send("answers", value=i, key=f"key-{i}")
        group = ConsumerGroup(cluster, group_id="g", num_members=3)
        group.subscribe(["answers"])
        records = group.poll_all()
        assert len(records) == 30

    def test_poll_all_does_not_duplicate(self, cluster):
        producer = Producer(cluster)
        for i in range(10):
            producer.send("answers", value=i)
        group = ConsumerGroup(cluster, group_id="g", num_members=2)
        group.subscribe(["answers"])
        assert len(group.poll_all()) == 10
        assert group.poll_all() == []

    def test_requires_members(self, cluster):
        with pytest.raises(PubSubError):
            ConsumerGroup(cluster, group_id="g", num_members=0)

    def test_poll_before_subscribe_rejected(self, cluster):
        group = ConsumerGroup(cluster, group_id="g", num_members=1)
        with pytest.raises(PubSubError):
            group.poll_all()


class TestRetention:
    """Partitions drop what every live subscribed reader has polled past."""

    @pytest.fixture
    def log(self) -> BrokerCluster:
        cluster = BrokerCluster(num_brokers=1)
        cluster.create_topic("log", num_partitions=1)
        return cluster

    @staticmethod
    def partition(cluster: BrokerCluster):
        return cluster.topic("log").partition(0)

    def test_trims_to_the_slowest_live_reader(self, log):
        producer = Producer(log)
        fast, slow = Consumer(log), Consumer(log)
        fast.subscribe(["log"])
        slow.subscribe(["log"])
        producer.send_batch("log", [bytes([i]) for i in range(5)])
        assert len(fast.poll()) == 5
        assert len(slow.poll(max_records=2)) == 2
        partition = self.partition(log)
        assert partition.base_offset == 2
        assert [r.offset for r in partition.records] == [2, 3, 4]
        assert [r.value for r in slow.poll()] == [bytes([2]), bytes([3]), bytes([4])]
        assert len(partition) == 0 and partition.end_offset == 5

    def test_a_collected_reader_stops_pinning(self, log):
        producer = Producer(log)
        reader, idle = Consumer(log), Consumer(log)
        reader.subscribe(["log"])
        idle.subscribe(["log"])
        producer.send_batch("log", [b"a", b"b"])
        reader.poll()
        assert len(self.partition(log)) == 2  # idle has read nothing yet
        del idle
        gc.collect()
        producer.send("log", b"c")
        reader.poll()
        assert len(self.partition(log)) == 0

    def test_a_partition_without_readers_keeps_everything(self, log):
        producer = Producer(log)
        producer.send_batch("log", [bytes([i]) for i in range(5)])
        assert len(self.partition(log)) == 5
        late = Consumer(log)
        late.subscribe(["log"])
        assert len(late.poll()) == 5

    def test_trim_leaves_offsets_lag_and_totals_absolute(self, log):
        producer = Producer(log)
        fast, slow = Consumer(log), Consumer(log)
        fast.subscribe(["log"])
        slow.subscribe(["log"])
        producer.send_batch("log", [bytes([i]) for i in range(6)])
        slow.poll(max_records=3)
        before = (fast.lag(), slow.lag(), self.partition(log).end_offset, log.total_records())
        fast.poll()
        slow.poll(max_records=1)
        assert self.partition(log).base_offset == 4
        assert (fast.lag() + 6, slow.lag() + 1) == before[:2]
        assert (self.partition(log).end_offset, log.total_records()) == before[2:] == (6, 6)
        appended = producer.send("log", b"next")
        assert appended.offset == 6 and self.partition(log).end_offset == 7
        assert slow.position("log", 0) == 4
        assert [r.offset for r in slow.poll()] == [4, 5, 6]

    def test_send_offsets_continue_after_a_trim(self, log):
        producer = Producer(log)
        reader = Consumer(log)
        reader.subscribe(["log"])
        for value in (b"a", b"b", b"c"):
            producer.send("log", value)
        reader.poll()
        partition = self.partition(log)
        assert (partition.base_offset, len(partition)) == (3, 0)
        record = producer.send("log", b"d")
        assert record.offset == 3 == partition.base_offset + len(partition) - 1

    def test_group_members_pin_their_own_partitions(self, cluster):
        producer = Producer(cluster)
        group = ConsumerGroup(cluster, group_id="g", num_members=3)
        group.subscribe(["answers"])
        for i in range(12):
            producer.send("answers", value=i)
        assert len(group.poll_all()) == 12
        topic = cluster.topic("answers")
        assert topic.total_records() == 12
        assert all(len(partition) == 0 for partition in topic.partitions)
