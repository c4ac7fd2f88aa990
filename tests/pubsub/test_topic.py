"""Tests for topics and partitions."""

import pytest

from repro.pubsub import Partition, Record, Topic
from repro.pubsub.errors import UnknownPartitionError


class TestPartition:
    def test_append_assigns_offsets(self):
        partition = Partition(topic_name="t", index=0)
        first = partition.append(Record(value="a"))
        second = partition.append(Record(value="b"))
        assert (first.offset, second.offset) == (0, 1)
        assert first.topic == "t" and first.partition == 0

    def test_read_from_offset(self):
        partition = Partition(topic_name="t", index=0)
        for i in range(5):
            partition.append(Record(value=i))
        values = [r.value for r in partition.read(offset=2)]
        assert values == [2, 3, 4]

    def test_read_at_the_end_offset_is_empty(self):
        partition = Partition(topic_name="t", index=0)
        partition.append(Record(value="a"))
        assert partition.read(offset=partition.end_offset) == []

    def test_read_below_the_base_offset_starts_at_the_earliest_retained(self):
        partition = Partition(topic_name="t", index=0)
        for i in range(5):
            partition.append(Record(value=i))
        del partition.records[:3]
        partition.base_offset = 3
        assert [r.offset for r in partition.read(offset=1)] == [3, 4]

    def test_read_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            Partition(topic_name="t", index=0).read(offset=-1)

    def test_end_offset(self):
        partition = Partition(topic_name="t", index=0)
        assert partition.end_offset == 0
        partition.append(Record(value="x"))
        assert partition.end_offset == 1

    def test_total_bytes_positive(self):
        partition = Partition(topic_name="t", index=0)
        partition.append(Record(value=b"12345678"))
        assert partition.total_bytes() >= 8


class TestTopic:
    def test_requires_at_least_one_partition(self):
        with pytest.raises(ValueError):
            Topic(name="t", num_partitions=0)

    def test_keyed_records_go_to_stable_partition(self):
        topic = Topic(name="t", num_partitions=4)
        partitions = {topic.partition_for("answer-123", i) for i in range(10)}
        assert len(partitions) == 1

    def test_unkeyed_records_round_robin(self):
        topic = Topic(name="t", num_partitions=3)
        partitions = [topic.partition_for(None, i) for i in range(6)]
        assert partitions == [0, 1, 2, 0, 1, 2]

    def test_append_routes_by_key(self):
        topic = Topic(name="t", num_partitions=4)
        record = topic.append(Record(value="v", key="stable-key"))
        again = topic.append(Record(value="w", key="stable-key"))
        assert record.partition == again.partition

    def test_unknown_partition_rejected(self):
        with pytest.raises(UnknownPartitionError):
            Topic(name="t", num_partitions=2).partition(5)

    def test_all_records_and_totals(self):
        topic = Topic(name="t", num_partitions=2)
        for i in range(10):
            topic.append(Record(value=i), round_robin_counter=i)
        assert topic.total_records() == 10
        assert len(topic.all_records()) == 10
        assert topic.total_bytes() > 0


class TestRecord:
    def test_size_bytes_for_bytes_payload(self):
        assert Record(value=b"123456").size_bytes() == 6 + 16

    def test_size_bytes_includes_key(self):
        keyed = Record(value=b"123456", key="abcd")
        assert keyed.size_bytes() == 6 + 4 + 16

    def test_size_bytes_for_object_with_size(self):
        class Sized:
            def size_bytes(self):
                return 100

        assert Record(value=Sized()).size_bytes() == 100 + 16

    def test_with_position_preserves_value(self):
        record = Record(value="v", key="k")
        positioned = record.with_position("topic", 1, 7)
        assert positioned.value == "v"
        assert positioned.key == "k"
        assert (positioned.topic, positioned.partition, positioned.offset) == ("topic", 1, 7)
