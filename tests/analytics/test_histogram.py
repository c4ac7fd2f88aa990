"""Tests for histogram results and bucket estimates."""

import dataclasses
import pickle
import struct
from types import SimpleNamespace

import pytest

from repro.analytics import BucketEstimate, HistogramResult
from repro.runtime.scenario import _serialize_window_results


class TestBucketEstimate:
    def test_interval_bounds(self):
        bucket = BucketEstimate(bucket_index=0, label="[0,1)", estimate=100.0, error_bound=5.0)
        assert bucket.lower == 95.0
        assert bucket.upper == 105.0

    def test_contains(self):
        bucket = BucketEstimate(0, "[0,1)", 100.0, 5.0)
        assert bucket.contains(97.0)
        assert bucket.contains(105.0)
        assert not bucket.contains(106.0)

    def test_zero_error_bound_interval_is_point(self):
        bucket = BucketEstimate(0, "b", 10.0, 0.0)
        assert bucket.contains(10.0)
        assert not bucket.contains(10.1)

    def test_slotted_value_object(self):
        """One allocation per estimate: no ``__dict__``, still frozen."""
        bucket = BucketEstimate(3, "[3,4)", 12.5, 1.5, 0.9)
        assert not hasattr(bucket, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            bucket.estimate = 1.0

    def test_pickle_replace_and_equality(self):
        bucket = BucketEstimate(3, "[3,4)", 12.5, 1.5, 0.9)
        restored = pickle.loads(pickle.dumps(bucket))
        assert restored == bucket and restored is not bucket
        assert (restored.bucket_index, restored.label, restored.estimate) == (3, "[3,4)", 12.5)
        assert (restored.error_bound, restored.confidence_level) == (1.5, 0.9)
        wider = dataclasses.replace(bucket, error_bound=4.0)
        assert wider == BucketEstimate(3, "[3,4)", 12.5, 4.0, 0.9) != bucket
        assert BucketEstimate(0, "b", 1.0) == BucketEstimate(0, "b", 1.0, 0.0, 0.95)
        assert BucketEstimate(0, "b", 1.0) != BucketEstimate(1, "b", 1.0)

    def test_serialized_window_results_are_unchanged(self):
        """The digest's bytes for a window read only index, estimate and bound."""
        histogram = HistogramResult(
            buckets=[BucketEstimate(0, "a", 70.0, 3.0), BucketEstimate(1, "b", -2.5, float("inf"))]
        )
        window = SimpleNamespace(start=0.0, end=60.0)
        result = SimpleNamespace(window=window, num_answers=50, population=80, histogram=histogram)
        assert _serialize_window_results([result]) == (
            struct.pack(">ddqq", 0.0, 60.0, 50, 80)
            + struct.pack(">qdd", 0, 70.0, 3.0)
            + struct.pack(">qdd", 1, -2.5, float("inf"))
        )
        assert _serialize_window_results([result]).hex() == (
            "0000000000000000404e00000000000000000000000000320000000000000050"
            "000000000000000040518000000000004008000000000000"
            "0000000000000001c0040000000000007ff0000000000000"
        )


class TestHistogramResult:
    def _histogram(self) -> HistogramResult:
        result = HistogramResult(window=(0.0, 60.0), num_answers=50)
        result.add_bucket(BucketEstimate(1, "[1,2)", 30.0, 2.0))
        result.add_bucket(BucketEstimate(0, "[0,1)", 70.0, 3.0))
        result.add_bucket(BucketEstimate(2, "[2,3)", 0.0, 1.0))
        return result

    def test_estimates_are_ordered_by_bucket_index(self):
        assert self._histogram().estimates() == [70.0, 30.0, 0.0]

    def test_labels_follow_bucket_order(self):
        assert self._histogram().labels() == ["[0,1)", "[1,2)", "[2,3)"]

    def test_error_bounds_follow_bucket_order(self):
        assert self._histogram().error_bounds() == [3.0, 2.0, 1.0]

    def test_total(self):
        assert self._histogram().total() == 100.0

    def test_fractions(self):
        assert self._histogram().fractions() == [0.7, 0.3, 0.0]

    def test_fractions_of_empty_histogram(self):
        empty = HistogramResult()
        empty.add_bucket(BucketEstimate(0, "b", 0.0))
        assert empty.fractions() == [0.0]

    def test_bucket_lookup(self):
        assert self._histogram().bucket(1).estimate == 30.0

    def test_bucket_lookup_missing(self):
        with pytest.raises(KeyError):
            self._histogram().bucket(9)

    def test_len(self):
        assert len(self._histogram()) == 3
