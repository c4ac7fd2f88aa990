"""Consumer API for the in-memory pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass

from repro.pubsub.broker import BrokerCluster
from repro.pubsub.errors import PubSubError
from repro.pubsub.record import Record


@dataclass
class Consumer:
    """A consumer that tracks its own offset in every partition it reads.

    ``poll`` returns new records since the last poll, the one piece of the
    Kafka consumer API the proxies and the query feed need.
    Subscribing registers the consumer (weakly) with every partition of the
    topic, so it pins the records it has not yet polled; each poll that
    reads something trims what every live reader has polled past.
    """

    cluster: BrokerCluster

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

    def poll(self) -> list[Record]:
        """Return records published since the previous poll, across topics.

        Each partition is read from this consumer's position on, then
        trimmed of what every live reader has polled past.
        """
        if not self._subscriptions:
            raise PubSubError("poll() before subscribe()")
        out: list[Record] = []
        for topic_name in self._subscriptions:
            for partition in self.cluster.topic(topic_name).partitions:
                key = (topic_name, partition.index)
                start = max(self._offsets.get(key, 0), partition.base_offset)
                records = partition.read(start)
                self._offsets[key] = start + len(records)
                if records:
                    partition.trim()
                    out.extend(records)
        return out

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

