"""Record type for the in-memory pub/sub broker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def payload_size(value: Any) -> int:
    """Approximate wire size of a record payload.

    Understands sized objects (anything with ``size_bytes()``), raw bytes and
    strings, and lists/tuples of payloads — every proxy relay record's value
    is a tuple of shares — which are sized as the sum of their elements
    (batch framing is charged once, at the record level).
    """
    if hasattr(value, "size_bytes"):
        return value.size_bytes()
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(payload_size(item) for item in value)
    return len(repr(value).encode("utf-8"))


@dataclass(frozen=True)
class Record:
    """A single published record.

    Attributes
    ----------
    value:
        Arbitrary payload (PrivApprox's proxies publish tuples of
        :class:`~repro.crypto.xor.MessageShare` objects; the query
        distributor publishes announcements).
    key:
        Optional partitioning key; records with the same key land in the same
        partition, preserving per-key order.
    timestamp:
        Logical event time in seconds, assigned by the producer.
    headers:
        Optional metadata attached by the producer.
    offset / partition / topic:
        Assigned by the broker when the record is appended.
    """

    value: Any
    key: str | None = None
    timestamp: float = 0.0
    headers: dict = field(default_factory=dict)
    topic: str | None = None
    partition: int | None = None
    offset: int | None = None

    def with_position(self, topic: str, partition: int, offset: int) -> "Record":
        """Return a copy annotated with its committed position in the log."""
        return Record(
            value=self.value,
            key=self.key,
            timestamp=self.timestamp,
            headers=self.headers,
            topic=topic,
            partition=partition,
            offset=offset,
        )

    def size_bytes(self) -> int:
        """Approximate wire size of the record, used by the network model."""
        key_size = len(self.key.encode("utf-8")) if self.key else 0
        return payload_size(self.value) + key_size + 16  # 16 bytes framing/timestamp
