"""Stream record type: a value with an event-time timestamp and optional key."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class StreamRecord:
    """A single element flowing through the dataflow graph.

    Attributes
    ----------
    value:
        Arbitrary payload.
    timestamp:
        Event time in seconds.  Window assignment uses this, not arrival
        order, matching Flink's event-time semantics.
    key:
        Optional key; the keyed join groups records by it.
    """

    value: Any
    timestamp: float = 0.0
    key: Any = None

