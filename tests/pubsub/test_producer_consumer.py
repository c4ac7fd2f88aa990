"""Tests for the producer and consumer APIs."""

import gc

import pytest

from repro.pubsub import BrokerCluster, Consumer, Producer
from repro.pubsub.errors import PubSubError


def publish(producer: Producer, values: list) -> None:
    for value in values:
        producer.send("log", value)


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

    def test_one_key_preserves_order(self, cluster):
        producer = Producer(cluster)
        for value in (b"a", b"b", b"c"):
            producer.send("answers", value, key="same")
        consumer = Consumer(cluster)
        consumer.subscribe(["answers"])
        values = [r.value for r in consumer.poll()]
        assert values == [b"a", b"b", b"c"]

    def test_send_many_routes_each_value_by_its_key(self, cluster):
        producer = Producer(cluster)
        sent = producer.send_many("answers", [b"a", b"b", b"c"], keys=["k1", "k2", "k1"])
        topic = cluster.topic("answers")
        assert [r.partition for r in sent] == [
            topic.partition_for(key, 0) for key in ("k1", "k2", "k1")
        ]
        assert producer.records_sent == 3
        assert producer.bytes_sent == sum(r.size_bytes() for r in sent)

    def test_send_many_needs_one_key_per_value(self, cluster):
        producer = Producer(cluster)
        with pytest.raises(ValueError, match="one key per value"):
            producer.send_many("answers", [b"a", b"b"], keys=["k1"])
        assert producer.records_sent == 0


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

    def test_lag(self, cluster):
        producer = Producer(cluster)
        consumer = Consumer(cluster)
        consumer.subscribe(["answers"])
        for i in range(5):
            producer.send("answers", bytes([i]))
        assert consumer.lag() == 5
        consumer.poll()
        assert consumer.lag() == 0

    def test_each_consumer_reads_every_record_at_its_own_pace(self, cluster):
        producer = Producer(cluster)
        first, second = Consumer(cluster), Consumer(cluster)
        first.subscribe(["answers"])
        second.subscribe(["answers"])
        for i in range(4):
            producer.send("answers", i, key=f"key-{i}")
        assert sorted(r.value for r in first.poll()) == [0, 1, 2, 3]
        producer.send("answers", 4)
        assert sorted(r.value for r in second.poll()) == [0, 1, 2, 3, 4]
        assert [r.value for r in first.poll()] == [4]

    def test_subscribe_unknown_topic_rejected(self, cluster):
        consumer = Consumer(cluster)
        with pytest.raises(Exception):
            consumer.subscribe(["missing"])


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
        publish(producer, [bytes([i]) for i in range(2)])
        assert len(slow.poll()) == 2
        publish(producer, [bytes([i]) for i in range(2, 5)])
        assert len(fast.poll()) == 5
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
        publish(producer, [b"a", b"b"])
        reader.poll()
        assert len(self.partition(log)) == 2  # idle has read nothing yet
        del idle
        gc.collect()
        producer.send("log", b"c")
        reader.poll()
        assert len(self.partition(log)) == 0

    def test_a_partition_without_readers_keeps_everything(self, log):
        producer = Producer(log)
        publish(producer, [bytes([i]) for i in range(5)])
        assert len(self.partition(log)) == 5
        late = Consumer(log)
        late.subscribe(["log"])
        assert len(late.poll()) == 5

    def test_trim_leaves_offsets_lag_and_totals_absolute(self, log):
        producer = Producer(log)
        fast, slow = Consumer(log), Consumer(log)
        fast.subscribe(["log"])
        slow.subscribe(["log"])
        publish(producer, [bytes([i]) for i in range(4)])
        slow.poll()
        publish(producer, [bytes([i]) for i in range(4, 6)])
        before = (fast.lag(), slow.lag(), self.partition(log).end_offset, log.total_records())
        fast.poll()
        assert self.partition(log).base_offset == 4
        assert (fast.lag() + 6, slow.lag()) == before[:2] == (6, 2)
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
