"""The two dataflow operators the aggregator runs (Section 3.2.4).

A keyed join pairs a message's shares by ``MID`` and a window aggregate
counts the joined answers per sliding window.  Each maps a list of
:class:`~repro.streaming.records.StreamRecord` to another list and keeps
its state across calls (the join's unmatched records, the open window
buffers), so the aggregator feeds them epoch by epoch over an unbounded
stream.
"""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass
from typing import Any, Callable

from repro.streaming.records import StreamRecord
from repro.streaming.windows import SlidingWindowAssigner, Window


@dataclass
class KeyedJoinOperator:
    """Joins records on their key, buffering unmatched records.

    The aggregator uses this to pair the encrypted-answer share with all of its
    key shares, keyed by message id: once ``expected_per_key`` records with
    the same key have arrived, the join fires and emits a single record whose
    value is the list of joined values (ordered by arrival).

    Buffered state is kept across ``process`` calls so shares arriving in
    different epochs still join, as they would in Flink's keyed state.
    """

    expected_per_key: int = 2

    def __post_init__(self) -> None:
        if self.expected_per_key < 2:
            raise ValueError("a join needs at least two records per key")
        self._buffer: dict[Any, list[StreamRecord]] = {}

    def process(self, records: list[StreamRecord]) -> list[StreamRecord]:
        out: list[StreamRecord] = []
        for record in records:
            if record.key is None:
                raise ValueError("KeyedJoinOperator requires keyed records")
            bucket = self._buffer.setdefault(record.key, [])
            bucket.append(record)
            if len(bucket) >= self.expected_per_key:
                joined_values = [r.value for r in bucket]
                timestamp = max(r.timestamp for r in bucket)
                out.append(StreamRecord(value=joined_values, timestamp=timestamp, key=record.key))
                del self._buffer[record.key]
        return out

    def pending_keys(self) -> int:
        """Number of keys still waiting for their remaining shares."""
        return len(self._buffer)

    def has_pending(self, key: Any) -> bool:
        """Whether earlier records for ``key`` are buffered awaiting a join."""
        return key in self._buffer

    def waiting_keys(self) -> KeysView:
        """The keys still waiting for their remaining records (a live view)."""
        return self._buffer.keys()


@dataclass
class WindowAggregateOperator:
    """Aggregates record values per sliding window.

    ``aggregate_fn`` receives the list of values falling inside a window and
    returns the aggregate.  Output records carry ``(window, aggregate)`` as
    their value and the window end as their timestamp, so downstream operators
    (e.g. error estimation) know which window each result belongs to.

    The operator keeps per-window buffers across calls and only emits windows
    whose end time is at or before the current watermark (the maximum
    timestamp seen), mirroring event-time triggering.  ``flush`` emits all
    remaining windows regardless of the watermark — used at end of stream.

    Out-of-order (late) records are accepted as long as their window has not
    fired yet; records for windows that already fired (or whose end the
    watermark has passed) are dropped and counted in
    ``late_records_dropped``, so a late answer can never silently re-open a
    window the analyst already received.
    ``weight`` says how many input elements a record's value stands for
    (the aggregator's values are partial counts over many answers); a
    dropped record adds its weight, 1 when ``weight`` is ``None``.
    """

    assigner: SlidingWindowAssigner
    aggregate_fn: Callable[[list], Any]
    weight: Callable[[Any], int] | None = None

    def __post_init__(self) -> None:
        self._window_buffers: dict[Window, list] = {}
        self._emitted_windows: set[Window] = set()
        self._watermark = float("-inf")
        self.late_records_dropped = 0

    def process(self, records: list[StreamRecord]) -> list[StreamRecord]:
        for record in records:
            self._watermark = max(self._watermark, record.timestamp)
            for window in self.assigner.assign(record.timestamp):
                is_past_due = (
                    window.end <= self._watermark and window not in self._window_buffers
                )
                if window in self._emitted_windows or is_past_due:
                    self.late_records_dropped += (
                        1 if self.weight is None else self.weight(record.value)
                    )
                    continue
                self._window_buffers.setdefault(window, []).append(record.value)
        emitted = self._emit(lambda window: window.end <= self._watermark)
        self._prune_emitted_state()
        return emitted

    def _prune_emitted_state(self) -> None:
        """Forget emitted windows far below the watermark (bounded memory)."""
        horizon = self._watermark - self.assigner.window_length
        self._emitted_windows = {w for w in self._emitted_windows if w.end >= horizon}

    def flush(self) -> list[StreamRecord]:
        """Emit every buffered window (end of stream)."""
        return self._emit(lambda window: True)

    def _emit(self, should_fire: Callable[[Window], bool]) -> list[StreamRecord]:
        out: list[StreamRecord] = []
        for window in sorted(list(self._window_buffers)):
            if not should_fire(window):
                continue
            values = self._window_buffers.pop(window)
            self._emitted_windows.add(window)
            aggregate = self.aggregate_fn(values)
            out.append(StreamRecord(value=(window, aggregate), timestamp=window.end))
        return out

    def pending_windows(self) -> int:
        return len(self._window_buffers)
