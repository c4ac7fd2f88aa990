"""Producer API for the in-memory pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.pubsub.broker import BrokerCluster
from repro.pubsub.record import Record


@dataclass
class Producer:
    """Publishes records to topics on a broker cluster.

    Tracks how many records and bytes it has sent, which the network model
    uses to compute client → proxy traffic.
    """

    cluster: BrokerCluster
    client_id: str = "producer"
    records_sent: int = 0
    bytes_sent: int = 0

    def send(self, topic: str, value: Any, key: str | None = None) -> Record:
        """Publish one record and return it with its assigned position."""
        positioned = self.cluster.publish(topic, Record(value=value, key=key))
        self.records_sent += 1
        self.bytes_sent += positioned.size_bytes()
        return positioned

    def send_many(
        self, topic: str, values: list[Any], keys: list[str] | None = None
    ) -> list[Record]:
        """Publish many values with per-value keys: one :meth:`send` per value.

        No runtime publishes through it any more; the name stays because
        the epoch profile's tracer patches it.
        """
        if keys is not None and len(keys) != len(values):
            raise ValueError("send_many needs one key per value")
        if keys is None:
            keys = [None] * len(values)
        return [self.send(topic, value, key=key) for value, key in zip(values, keys)]
