"""Tests for event-time window assignment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.streaming import SlidingWindowAssigner, Window


class TestWindow:
    def test_contains_is_half_open(self):
        window = Window(start=0.0, end=10.0)
        assert window.contains(0.0)
        assert window.contains(9.999)
        assert not window.contains(10.0)
        assert not window.contains(-0.1)

    def test_ordering(self):
        assert Window(0.0, 10.0) < Window(5.0, 15.0)


class TestSlidingWindowAssigner:
    def test_tumbling_case_assigns_single_window(self):
        assigner = SlidingWindowAssigner(window_length=60.0, slide_interval=60.0)
        windows = assigner.assign(75.0)
        assert windows == [Window(start=60.0, end=120.0)]

    @pytest.mark.parametrize("timestamp", [0.0, 29.9, 30.0, 61.0, 1234.5])
    def test_tumbling_case_assigns_the_window_that_starts_at_the_floor(self, timestamp):
        assigner = SlidingWindowAssigner(window_length=30.0, slide_interval=30.0)
        start = (timestamp // 30.0) * 30.0
        assert assigner.assign(timestamp) == [Window(start=start, end=start + 30.0)]

    def test_every_window_spans_the_window_length(self):
        assigner = SlidingWindowAssigner(window_length=90.0, slide_interval=30.0)
        windows = assigner.assign(100.0) + assigner.windows_between(0.0, 300.0)
        assert windows
        assert all(w.end - w.start == 90.0 for w in windows)

    def test_overlapping_windows(self):
        # 10-minute window sliding every minute: each timestamp is in 10 windows.
        assigner = SlidingWindowAssigner(window_length=600.0, slide_interval=60.0)
        windows = assigner.assign(1234.0)
        assert len(windows) == 10
        assert all(w.contains(1234.0) for w in windows)
        # Windows are consecutive slides.
        starts = [w.start for w in windows]
        assert starts == sorted(starts)
        assert starts[1] - starts[0] == 60.0

    def test_timestamp_zero(self):
        assigner = SlidingWindowAssigner(window_length=120.0, slide_interval=60.0)
        windows = assigner.assign(0.0)
        assert Window(start=0.0, end=120.0) in windows

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindowAssigner(window_length=0, slide_interval=1)
        with pytest.raises(ValueError):
            SlidingWindowAssigner(window_length=10, slide_interval=0)
        with pytest.raises(ValueError):
            SlidingWindowAssigner(window_length=10, slide_interval=20)

    def test_windows_between(self):
        assigner = SlidingWindowAssigner(window_length=100.0, slide_interval=50.0)
        windows = assigner.windows_between(0.0, 200.0)
        assert [w.start for w in windows] == [0.0, 50.0, 100.0, 150.0]

    def test_windows_between_rejects_reversed_range(self):
        assigner = SlidingWindowAssigner(window_length=100.0, slide_interval=50.0)
        with pytest.raises(ValueError):
            assigner.windows_between(100.0, 0.0)

    @given(
        timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        window_length=st.integers(min_value=1, max_value=1000),
        slide_divisor=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_assigned_window_contains_the_timestamp(
        self, timestamp, window_length, slide_divisor
    ):
        slide = max(1, window_length // slide_divisor)
        assigner = SlidingWindowAssigner(window_length=float(window_length), slide_interval=float(slide))
        windows = assigner.assign(timestamp)
        assert windows, "every timestamp belongs to at least one window"
        assert all(w.contains(timestamp) for w in windows)
        # The number of covering windows is ceil(length / slide) or one fewer at edges.
        assert len(windows) <= -(-window_length // slide)

    def test_fractional_slide_matches_windows_between_exactly(self):
        """Window starts must not drift for non-representable slides.

        0.1 has no exact binary representation, so building starts by
        repeated subtraction (``start -= slide``) accumulates rounding error
        and eventually keys the same logical window with a float that
        differs in the last ulp from the multiplication form used by
        ``windows_between`` — splitting one window's state in two.  Starts
        must therefore be computed as ``index * slide`` on both paths.
        """
        assigner = SlidingWindowAssigner(window_length=0.5, slide_interval=0.1)
        reference = {w.start for w in assigner.windows_between(0.0, 100.0)}
        for k in range(1000):
            timestamp = k * 0.1
            for window in assigner.assign(timestamp):
                if 0.0 <= window.start < 100.0:
                    assert window.start in reference, (
                        f"assign() start {window.start!r} at t={timestamp!r} "
                        "does not equal any windows_between() start bit-for-bit"
                    )

    def test_fractional_slide_assigns_full_coverage(self):
        """Every timestamp is covered by exactly ceil(w / slide) interior windows."""
        assigner = SlidingWindowAssigner(window_length=0.5, slide_interval=0.1)
        for k in range(5, 500):
            windows = assigner.assign(k * 0.1)
            assert 4 <= len(windows) <= 5
            assert all(w.contains(k * 0.1) for w in windows)

