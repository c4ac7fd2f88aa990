"""Topics and partitions: append-only ordered logs."""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field

from repro.pubsub.errors import UnknownPartitionError
from repro.pubsub.record import Record


@dataclass
class Partition:
    """One partition of a topic: an ordered log of records.

    Offsets are absolute: ``records[0]`` sits at ``base_offset``, and
    ``end_offset`` is the offset the next append gets.  Readers register
    with :meth:`add_reader` (a :class:`~repro.pubsub.consumer.Consumer` does
    at ``subscribe``) and are held weakly; :meth:`trim` drops the records
    every live reader has polled past.  A partition no live reader has
    registered with keeps everything.
    """

    topic_name: str
    index: int
    records: list[Record] = field(default_factory=list)
    base_offset: int = 0

    def __post_init__(self) -> None:
        self._readers: dict[int, weakref.ref] = {}

    def append(self, record: Record) -> Record:
        """Append a record and return it annotated with its offset."""
        positioned = record.with_position(self.topic_name, self.index, self.end_offset)
        self.records.append(positioned)
        return positioned

    def read(self, offset: int = 0) -> list[Record]:
        """Read every record from ``offset`` on.

        An offset below ``base_offset`` reads from the earliest retained record.
        """
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        return self.records[max(offset - self.base_offset, 0):]

    def add_reader(self, reader) -> None:
        """Let ``reader`` pin this partition's records from its position on.

        ``reader.position(topic_name, index)`` is its next offset to read;
        the reader is held weakly, so a collected reader stops pinning.
        """
        self._readers[id(reader)] = weakref.ref(reader)

    def trim(self) -> None:
        """Drop the records every live registered reader has polled past."""
        low = None
        for key, ref in list(self._readers.items()):
            reader = ref()
            if reader is None:
                del self._readers[key]
                continue
            position = reader.position(self.topic_name, self.index)
            if low is None or position < low:
                low = position
        if low is not None and low > self.base_offset:
            del self.records[: low - self.base_offset]
            self.base_offset = low

    @property
    def end_offset(self) -> int:
        """Offset one past the last record (the next offset to be assigned)."""
        return self.base_offset + len(self.records)

    def total_bytes(self) -> int:
        """Total approximate wire size of the records the partition holds."""
        return sum(record.size_bytes() for record in self.records)

    def __len__(self) -> int:
        """Number of records the partition holds (trimmed ones excluded)."""
        return len(self.records)


@dataclass
class Topic:
    """A named stream of records split into a fixed number of partitions."""

    name: str
    num_partitions: int = 1

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ValueError("a topic needs at least one partition")
        self.partitions = [Partition(self.name, i) for i in range(self.num_partitions)]

    def partition_for(self, key: str | None, round_robin_counter: int) -> int:
        """Choose a partition: hash of the key if present, else round-robin."""
        if key is None:
            return round_robin_counter % self.num_partitions
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % self.num_partitions

    def partition(self, index: int) -> Partition:
        if not 0 <= index < self.num_partitions:
            raise UnknownPartitionError(
                f"topic {self.name} has {self.num_partitions} partitions, asked for {index}"
            )
        return self.partitions[index]

    def append(self, record: Record, round_robin_counter: int = 0) -> Record:
        """Route a record to a partition and append it."""
        index = self.partition_for(record.key, round_robin_counter)
        return self.partitions[index].append(record)

    def total_records(self) -> int:
        """Records ever appended, trimmed ones included."""
        return sum(p.end_offset for p in self.partitions)

    def total_bytes(self) -> int:
        """Approximate wire size of the records the partitions hold."""
        return sum(p.total_bytes() for p in self.partitions)
