"""Tests for the deterministic shard planner."""

import pytest
from hypothesis import given, strategies as st

from repro.runtime import Shard, plan_shards, shard_span


class TestPlanShards:
    def test_single_shard_covers_everything(self):
        assert plan_shards(10, 1) == [Shard(index=0, start=0, stop=10)]

    def test_even_split(self):
        shards = plan_shards(10, 2)
        assert [(s.start, s.stop) for s in shards] == [(0, 5), (5, 10)]

    def test_remainder_spread_over_leading_shards(self):
        shards = plan_shards(10, 3)
        assert [s.num_items for s in shards] == [4, 3, 3]

    def test_more_shards_than_items_yields_empty_shards(self):
        shards = plan_shards(2, 5)
        assert [s.num_items for s in shards] == [1, 1, 0, 0, 0]

    def test_zero_items(self):
        assert all(s.num_items == 0 for s in plan_shards(0, 3))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(5, 0)

    def test_slices_reassemble_population(self):
        population = list(range(23))
        shards = plan_shards(len(population), 7)
        reassembled = []
        for shard in shards:
            reassembled.extend(population[shard.as_slice()])
        assert reassembled == population

    @given(
        num_items=st.integers(min_value=0, max_value=500),
        num_shards=st.integers(min_value=1, max_value=64),
    )
    def test_partition_properties(self, num_items, num_shards):
        """Shards are contiguous, ordered, balanced and cover [0, num_items)."""
        shards = plan_shards(num_items, num_shards)
        assert len(shards) == num_shards
        assert shards[0].start == 0
        assert shards[-1].stop == num_items
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start
        sizes = [s.num_items for s in shards]
        assert sum(sizes) == num_items
        assert max(sizes) - min(sizes) <= 1


class TestShardSpan:
    def test_span_is_the_start_stop_pair(self):
        assert [shard_span(s) for s in plan_shards(10, 3)] == [(0, 4), (4, 7), (7, 10)]

    @given(
        num_items=st.integers(min_value=0, max_value=500),
        num_shards=st.integers(min_value=1, max_value=64),
    )
    def test_spans_depend_only_on_population_size(self, num_items, num_shards):
        """Residency keys on these spans: re-planning the same population
        yields the same spans, and each span covers exactly its shard."""
        first = plan_shards(num_items, num_shards)
        again = plan_shards(num_items, num_shards)
        assert [shard_span(s) for s in first] == [shard_span(s) for s in again]
        population = list(range(num_items))
        for shard in first:
            start, stop = shard_span(shard)
            assert population[shard.as_slice()] == population[start:stop]
