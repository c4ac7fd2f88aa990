"""Brokers and broker clusters hosting topics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pubsub.errors import PubSubError, UnknownTopicError
from repro.pubsub.record import Record
from repro.pubsub.topic import Topic


@dataclass
class Broker:
    """A single broker node hosting a set of topics.

    In a real Kafka deployment partitions are spread over brokers; in this
    in-memory model a :class:`BrokerCluster` owns the topics and assigns
    partition leadership to brokers, while each broker tracks the counters
    needed for throughput accounting (records and bytes handled).
    """

    broker_id: int
    records_handled: int = 0
    bytes_handled: int = 0

    def account(self, record: Record) -> None:
        """Record that this broker handled one record (for metrics)."""
        self.records_handled += 1
        self.bytes_handled += record.size_bytes()


@dataclass
class BrokerCluster:
    """A cluster of brokers sharing a topic namespace.

    Partition leadership is assigned round-robin over brokers, mirroring
    Kafka's default balanced assignment.  All appends go through the cluster
    so that per-broker accounting stays accurate.
    """

    num_brokers: int = 1
    brokers: list[Broker] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_brokers < 1:
            raise PubSubError("a cluster needs at least one broker")
        if not self.brokers:
            self.brokers = [Broker(broker_id=i) for i in range(self.num_brokers)]
        self._topics: dict[str, Topic] = {}
        self._leaders: dict[tuple[str, int], int] = {}
        self._round_robin = 0

    # -- topic management -------------------------------------------------

    def create_topic(self, name: str, num_partitions: int = 1) -> Topic:
        """Create a topic and assign partition leaders round-robin."""
        if name in self._topics:
            raise PubSubError(f"topic {name} already exists")
        topic = Topic(name=name, num_partitions=num_partitions)
        self._topics[name] = topic
        for index in range(num_partitions):
            self._leaders[(name, index)] = index % self.num_brokers
        return topic

    def ensure_topic(self, name: str, num_partitions: int = 1) -> Topic:
        """Create the topic if needed, otherwise return the existing one."""
        if name in self._topics:
            return self._topics[name]
        return self.create_topic(name, num_partitions)

    def topic(self, name: str) -> Topic:
        if name not in self._topics:
            raise UnknownTopicError(f"unknown topic: {name}")
        return self._topics[name]

    def leader_for(self, topic_name: str, partition_index: int) -> Broker:
        """The broker leading a given partition."""
        key = (topic_name, partition_index)
        if key not in self._leaders:
            raise UnknownTopicError(f"unknown topic/partition: {key}")
        return self.brokers[self._leaders[key]]

    # -- produce --------------------------------------------------

    def publish(self, topic_name: str, record: Record) -> Record:
        """Append a record to the topic, accounting it to the partition leader."""
        topic = self.topic(topic_name)
        self._round_robin += 1
        positioned = topic.append(record, round_robin_counter=self._round_robin)
        leader = self.leader_for(topic_name, positioned.partition)
        leader.account(positioned)
        return positioned

    # -- metrics ----------------------------------------------------------------

    def total_records(self) -> int:
        return sum(topic.total_records() for topic in self._topics.values())

    def total_bytes(self) -> int:
        return sum(topic.total_bytes() for topic in self._topics.values())
