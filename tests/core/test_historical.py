"""Tests for historical (batch) analytics over stored responses."""

import pytest

from repro.core import (
    AnswerSpec,
    ExecutionParameters,
    HistoricalAnalytics,
    HistoricalStore,
    QueryBudget,
    RangeBuckets,
)
from repro.core.query import Query, QueryAnswer


def make_query() -> Query:
    return Query(
        query_id="analyst-00000001",
        sql="SELECT v FROM private_data",
        answer_spec=AnswerSpec(
            buckets=RangeBuckets(boundaries=(0.0, 1.0, 2.0), open_ended=True), value_column="v"
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )


NOISELESS = ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5)


def populate(store: HistoricalStore, per_epoch: int = 10, epochs: int = 3) -> None:
    for epoch in range(epochs):
        rows = [(1, 0, 0) if i % 2 == 0 else (0, 1, 0) for i in range(per_epoch)]
        store.append_rows("analyst-00000001", epoch, rows, epoch_timestamp=epoch * 60.0)


class TestHistoricalStore:
    def test_append_and_read_roundtrip(self):
        store = HistoricalStore()
        populate(store)
        answers = store.read_answers("analyst-00000001")
        assert len(answers) == 30
        assert all(isinstance(a, QueryAnswer) for a, _ in answers)
        assert [(a.query_id, a.bits, a.epoch, t) for a, t in answers[9:11]] == [
            ("analyst-00000001", (0, 1, 0), 0, 0.0),
            ("analyst-00000001", (1, 0, 0), 1, 60.0),
        ]

    def test_read_missing_query_returns_empty(self):
        assert HistoricalStore().read_answers("missing") == []

    def test_time_range_filter(self):
        store = HistoricalStore()
        populate(store, epochs=3)
        answers = store.read_answers("analyst-00000001", start_time=60.0, end_time=120.0)
        assert len(answers) == 10
        assert all(timestamp == 60.0 for _, timestamp in answers)


class TestHistoricalAnalytics:
    def test_batch_query_over_all_epochs(self):
        store = HistoricalStore()
        populate(store, per_epoch=10, epochs=3)
        analytics = HistoricalAnalytics(store=store, seed=1)
        histogram = analytics.run_batch_query(
            make_query(), NOISELESS, total_clients_per_epoch=10
        )
        # 30 answers over 3 epochs, population 30; half in bucket 0, half in bucket 1.
        assert histogram.num_answers == 30
        assert histogram.estimates()[0] == pytest.approx(15.0)
        assert histogram.estimates()[1] == pytest.approx(15.0)

    def test_batch_query_over_time_range(self):
        store = HistoricalStore()
        populate(store, per_epoch=10, epochs=3)
        analytics = HistoricalAnalytics(store=store, seed=1)
        histogram = analytics.run_batch_query(
            make_query(),
            NOISELESS,
            total_clients_per_epoch=10,
            start_time=0.0,
            end_time=60.0,
        )
        assert histogram.num_answers == 10

    def test_cost_budget_triggers_resampling(self):
        store = HistoricalStore()
        populate(store, per_epoch=100, epochs=2)
        analytics = HistoricalAnalytics(store=store, seed=3)
        budget = QueryBudget(max_cost_units=50)
        histogram = analytics.run_batch_query(
            make_query(), NOISELESS, total_clients_per_epoch=100, budget=budget
        )
        # Only about a quarter of the 200 stored answers are scanned.
        assert histogram.num_answers < 120
        # The estimate still scales to the full population.
        assert histogram.total() == pytest.approx(200.0, rel=0.35)

    def test_empty_store_gives_empty_histogram(self):
        analytics = HistoricalAnalytics(store=HistoricalStore(), seed=1)
        histogram = analytics.run_batch_query(make_query(), NOISELESS, total_clients_per_epoch=10)
        assert histogram.num_answers == 0
        assert all(b.error_bound == float("inf") for b in histogram.buckets)

    def test_error_bounds_present_for_randomized_answers(self):
        store = HistoricalStore()
        populate(store, per_epoch=50, epochs=2)
        analytics = HistoricalAnalytics(store=store, seed=5)
        params = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.6)
        histogram = analytics.run_batch_query(make_query(), params, total_clients_per_epoch=50)
        assert all(b.error_bound > 0 for b in histogram.buckets)
