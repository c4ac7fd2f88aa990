"""Tests for the dataflow operators."""

import pytest

from repro.streaming import (
    KeyedJoinOperator,
    SlidingWindowAssigner,
    StreamRecord,
    WindowAggregateOperator,
)


def records(values, timestamps=None, keys=None):
    timestamps = timestamps or list(range(len(values)))
    keys = keys or [None] * len(values)
    return [
        StreamRecord(value=v, timestamp=float(t), key=k)
        for v, t, k in zip(values, timestamps, keys)
    ]


class TestKeyedJoinOperator:
    def test_join_fires_when_all_shares_arrive(self):
        join = KeyedJoinOperator(expected_per_key=2)
        first = join.process(records(["share-a"], keys=["m1"]))
        assert first == []
        assert join.pending_keys() == 1
        second = join.process(records(["share-b"], keys=["m1"]))
        assert len(second) == 1
        assert second[0].value == ["share-a", "share-b"]
        assert join.pending_keys() == 0

    def test_join_keeps_streams_separate_by_key(self):
        join = KeyedJoinOperator(expected_per_key=2)
        out = join.process(records(["a1", "b1", "a2"], keys=["a", "b", "a"]))
        assert len(out) == 1
        assert out[0].key == "a"

    def test_join_with_three_shares(self):
        join = KeyedJoinOperator(expected_per_key=3)
        out = join.process(records(["x", "y"], keys=["m", "m"]))
        assert out == []
        out = join.process(records(["z"], keys=["m"]))
        assert out[0].value == ["x", "y", "z"]

    def test_join_timestamp_is_max_of_parts(self):
        join = KeyedJoinOperator(expected_per_key=2)
        out = join.process(records(["a", "b"], timestamps=[1.0, 9.0], keys=["m", "m"]))
        assert out[0].timestamp == 9.0

    def test_join_state_survives_across_batches(self):
        join = KeyedJoinOperator(expected_per_key=2)
        join.process(records(["early"], keys=["m"]))
        out = join.process(records(["late"], keys=["m"]))
        assert len(out) == 1

    def test_has_pending_tracks_a_key_until_it_joins(self):
        join = KeyedJoinOperator(expected_per_key=2)
        assert not join.has_pending("m")
        join.process(records(["a"], keys=["m"]))
        assert join.has_pending("m") and not join.has_pending("other")
        join.process(records(["b"], keys=["m"]))
        assert not join.has_pending("m")

    def test_unkeyed_record_rejected(self):
        with pytest.raises(ValueError):
            KeyedJoinOperator(expected_per_key=2).process(records(["x"]))

    def test_requires_at_least_two_per_key(self):
        with pytest.raises(ValueError):
            KeyedJoinOperator(expected_per_key=1)


class TestWindowAggregateOperator:
    def _operator(self, window=60.0, slide=60.0):
        return WindowAggregateOperator(
            assigner=SlidingWindowAssigner(window_length=window, slide_interval=slide),
            aggregate_fn=sum,
        )

    def test_windows_fire_when_watermark_passes(self):
        op = self._operator()
        # All values in window [0, 60); nothing fires until a later timestamp arrives.
        assert op.process(records([1, 2, 3], timestamps=[0.0, 10.0, 59.0])) == []
        out = op.process(records([10], timestamps=[61.0]))
        assert len(out) == 1
        window, aggregate = out[0].value
        assert (window.start, window.end) == (0.0, 60.0)
        assert aggregate == 6

    def test_flush_emits_pending_windows(self):
        op = self._operator()
        op.process(records([5, 7], timestamps=[0.0, 30.0]))
        out = op.flush()
        assert len(out) == 1
        assert out[0].value[1] == 12
        assert op.pending_windows() == 0

    def test_sliding_windows_count_values_multiple_times(self):
        op = WindowAggregateOperator(
            assigner=SlidingWindowAssigner(window_length=120.0, slide_interval=60.0),
            aggregate_fn=sum,
        )
        op.process(records([1], timestamps=[70.0]))
        out = op.flush()
        # Timestamp 70 belongs to windows [0,120) and [60,180).
        assert len(out) == 2
        assert all(aggregate == 1 for _, aggregate in (r.value for r in out))

    def test_output_timestamp_is_window_end(self):
        op = self._operator()
        op.process(records([1], timestamps=[10.0]))
        out = op.flush()
        assert out[0].timestamp == 60.0

    def test_windows_emitted_in_order(self):
        op = self._operator()
        op.process(records([1, 2, 3], timestamps=[0.0, 70.0, 130.0]))
        out = op.flush()
        ends = [r.timestamp for r in out]
        assert ends == sorted(ends)


class TestLateDataHandling:
    def _operator(self):
        return WindowAggregateOperator(
            assigner=SlidingWindowAssigner(window_length=60.0, slide_interval=60.0),
            aggregate_fn=sum,
        )

    def test_late_record_for_fired_window_is_dropped(self):
        op = self._operator()
        op.process(records([1], timestamps=[10.0]))
        fired = op.process(records([2], timestamps=[70.0]))
        assert len(fired) == 1 and fired[0].value[1] == 1
        # A record for the already-fired window [0, 60) arrives late.
        late = op.process(records([100], timestamps=[20.0]))
        assert late == []
        assert op.late_records_dropped == 1
        # The fired window is never re-emitted with the late value.
        remaining = op.flush()
        assert all(aggregate != 100 for _, aggregate in (r.value for r in remaining))

    def test_a_dropped_record_counts_its_weight(self):
        op = WindowAggregateOperator(
            assigner=SlidingWindowAssigner(window_length=60.0, slide_interval=60.0),
            aggregate_fn=sum,
            weight=lambda value: value,
        )
        op.process(records([1], timestamps=[10.0]))
        op.process(records([2], timestamps=[70.0]))
        op.process(records([5, 4], timestamps=[20.0, 30.0]))
        assert op.late_records_dropped == 9

    def test_very_old_record_is_dropped_even_if_window_never_buffered(self):
        op = self._operator()
        op.process(records([1], timestamps=[500.0]))
        op.process(records([9], timestamps=[10.0]))
        assert op.late_records_dropped == 1
        flushed = op.flush()
        assert all(aggregate != 9 for _, aggregate in (r.value for r in flushed))


class TestJoinThenWindow:
    """The aggregator's dataflow: a keyed join on the message id feeding a
    window aggregate over the joined records."""

    def _chain(self, shares=2):
        join = KeyedJoinOperator(expected_per_key=shares)
        window = WindowAggregateOperator(
            assigner=SlidingWindowAssigner(window_length=10.0, slide_interval=10.0),
            aggregate_fn=len,
        )
        return join, window

    def test_each_joined_message_counts_once_in_its_window(self):
        join, window = self._chain()
        shares = records(
            ["a0", "b0", "a1", "c0", "b1", "c1"],
            timestamps=[1, 2, 3, 4, 12, 13],
            keys=["a", "b", "a", "c", "b", "c"],
        )
        out = window.process(join.process(shares)) + window.flush()
        assert {r.value[0].start: r.value[1] for r in out} == {0.0: 1, 10.0: 2}

    def test_window_state_survives_across_epochs(self):
        join, window = self._chain()
        first = window.process(join.process(records(["x", "y"], [1, 2], ["m", "m"])))
        assert first == []  # window [0, 10) has not seen its watermark yet
        second = window.process(join.process(records(["p", "q"], [11, 12], ["n", "n"])))
        assert [(r.value[0].start, r.value[1]) for r in second] == [(0.0, 1)]

    def test_a_message_lands_in_the_window_of_its_last_share(self):
        join, window = self._chain()
        window.process(join.process(records(["early"], [8], ["m"])))
        window.process(join.process(records(["late"], [14], ["m"])))
        out = window.flush()
        assert [(r.value[0].start, r.value[1]) for r in out] == [(10.0, 1)]

    def test_flush_emits_only_completed_joins(self):
        join, window = self._chain(shares=3)
        shares = records(["a", "b", "c", "d"], [1, 2, 3, 4], ["m", "m", "m", "n"])
        window.process(join.process(shares))
        out = window.flush()
        assert [r.value[1] for r in out] == [1]
        assert join.pending_keys() == 1
