"""Consumer API for the in-memory pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pubsub.broker import BrokerCluster
from repro.pubsub.errors import PubSubError
from repro.pubsub.record import Record


@dataclass
class Consumer:
    """A consumer that tracks its own offset in every partition it reads.

    ``poll`` returns new records since the last poll; ``seek_to_beginning``
    rewinds, mirroring the Kafka consumer API surface the aggregator needs.
    Subscribing registers the consumer (weakly) with every partition of the
    topic, so it pins the records it has not yet polled; each poll that
    reads something trims what every live reader has polled past.
    """

    cluster: BrokerCluster
    group_id: str = "default"
    consumer_id: str = "consumer"

    def __post_init__(self) -> None:
        self._offsets: dict[tuple[str, int], int] = {}
        self._subscriptions: list[str] = []

    def subscribe(self, topics: list[str]) -> None:
        """Subscribe to a list of topics (resets nothing; offsets start at 0)."""
        for name in topics:
            topic = self.cluster.topic(name)  # validates existence
            if name not in self._subscriptions:
                self._subscriptions.append(name)
                for partition in topic.partitions:
                    partition.add_reader(self)

    @property
    def subscriptions(self) -> list[str]:
        return list(self._subscriptions)

    def poll(self, max_records: int | None = None) -> list[Record]:
        """Return records published since the previous poll, across topics."""
        if not self._subscriptions:
            raise PubSubError("poll() before subscribe()")
        out: list[Record] = []
        for topic_name in self._subscriptions:
            topic = self.cluster.topic(topic_name)
            for partition in topic.partitions:
                remaining = None if max_records is None else max_records - len(out)
                if remaining is not None and remaining <= 0:
                    return out
                out.extend(self._read(topic_name, partition, remaining))
        return out

    def _read(self, topic_name: str, partition, max_records: int | None) -> list[Record]:
        """Read one partition from this consumer's position, then trim it."""
        key = (topic_name, partition.index)
        start = max(self._offsets.get(key, 0), partition.base_offset)
        records = partition.read(start, max_records)
        self._offsets[key] = start + len(records)
        if records:
            partition.trim()
        return records

    def seek_to_beginning(self) -> None:
        """Rewind every partition to its earliest retained offset."""
        self._offsets = {}

    def position(self, topic: str, partition: int) -> int:
        """Current offset for a topic partition."""
        return self._offsets.get((topic, partition), 0)

    def lag(self) -> int:
        """Total number of unconsumed records across subscribed topics."""
        total = 0
        for topic_name in self._subscriptions:
            topic = self.cluster.topic(topic_name)
            for partition in topic.partitions:
                consumed = self._offsets.get((topic_name, partition.index), 0)
                total += partition.end_offset - max(consumed, partition.base_offset)
        return total


@dataclass
class ConsumerGroup:
    """A set of consumers sharing partitions of the subscribed topics.

    Partitions are assigned range-style across members, as Kafka does: member
    ``i`` of ``k`` handles partitions ``p`` with ``p % k == i``.
    """

    cluster: BrokerCluster
    group_id: str
    num_members: int = 1
    members: list[Consumer] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_members < 1:
            raise PubSubError("a consumer group needs at least one member")
        if not self.members:
            self.members = [
                Consumer(self.cluster, group_id=self.group_id, consumer_id=f"{self.group_id}-{i}")
                for i in range(self.num_members)
            ]
        self._topics: list[str] = []

    def subscribe(self, topics: list[str]) -> None:
        for name in topics:
            topic = self.cluster.topic(name)
            if name not in self._topics:
                self._topics.append(name)
                for partition in topic.partitions:
                    partition.add_reader(self.members[partition.index % self.num_members])

    def poll_all(self) -> list[Record]:
        """Poll every member and merge results, respecting partition assignment."""
        if not self._topics:
            raise PubSubError("poll_all() before subscribe()")
        out: list[Record] = []
        for member_index, member in enumerate(self.members):
            for topic_name in self._topics:
                topic = self.cluster.topic(topic_name)
                for partition in topic.partitions:
                    if partition.index % self.num_members == member_index:
                        out.extend(member._read(topic_name, partition, None))
        return out
