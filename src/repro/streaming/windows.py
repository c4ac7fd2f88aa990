"""Event-time window assignment: sliding windows.

The analyst's query carries a window length ``w`` and a sliding interval ``δ``
(Section 3.1).  A record with timestamp ``t`` belongs to every window
``[start, start + w)`` whose start is a multiple of ``δ`` and satisfies
``start <= t < start + w`` — the standard sliding-window semantics the paper
(and Flink) use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Window:
    """A half-open event-time interval ``[start, end)``."""

    start: float
    end: float

    def contains(self, timestamp: float) -> bool:
        return self.start <= timestamp < self.end

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end})"


@dataclass(frozen=True)
class SlidingWindowAssigner:
    """Assigns each timestamp to the sliding windows that cover it.

    Parameters
    ----------
    window_length:
        ``w`` — the length of each window in seconds.
    slide_interval:
        ``δ`` — the spacing between successive window starts.  Must not exceed
        the window length (otherwise records could be dropped).
    """

    window_length: float
    slide_interval: float

    def __post_init__(self) -> None:
        if self.window_length <= 0:
            raise ValueError("window_length must be positive")
        if self.slide_interval <= 0:
            raise ValueError("slide_interval must be positive")
        if self.slide_interval > self.window_length:
            raise ValueError("slide_interval must not exceed window_length")

    def assign(self, timestamp: float) -> list[Window]:
        """All windows containing ``timestamp``, ordered by start time.

        Window starts are computed as ``index * slide_interval`` — never by
        repeatedly subtracting the slide.  Accumulated float subtraction
        drifts for non-representable slides (0.1, 0.3, ...), producing start
        values that differ in the last ulp from the multiplication form used
        by :meth:`windows_between`; since :class:`Window` keys window state
        by exact float equality, a drifted start would silently split one
        logical window into two.
        """
        last_index = math.floor(timestamp / self.slide_interval)
        windows = []
        index = last_index
        while index * self.slide_interval > timestamp - self.window_length:
            start = index * self.slide_interval
            window = Window(start=start, end=start + self.window_length)
            if window.contains(timestamp):
                windows.append(window)
            index -= 1
        windows.reverse()
        return windows

    def windows_between(self, start_time: float, end_time: float) -> list[Window]:
        """All windows whose start lies in ``[start_time, end_time)``.

        Starts are ``index * slide_interval``, the same form :meth:`assign`
        uses, so the two methods key every logical window with bit-identical
        floats (repeated ``start += slide`` would drift; see :meth:`assign`).
        """
        if end_time < start_time:
            raise ValueError("end_time must not precede start_time")
        index = math.ceil(start_time / self.slide_interval)
        out = []
        while index * self.slide_interval < end_time:
            start = index * self.slide_interval
            out.append(Window(start=start, end=start + self.window_length))
            index += 1
        return out

