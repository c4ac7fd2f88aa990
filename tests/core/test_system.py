"""Tests for the end-to-end system wiring."""

import random

import pytest

from repro.core import (
    Analyst,
    AnswerSpec,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    SystemConfig,
)
from repro.core.estimation import estimate_histogram
from repro.runtime import cli_smoke_matrix
from repro.sqldb import SchemaError


class TestSystemConfig:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(num_clients=0)
        with pytest.raises(ValueError):
            SystemConfig(num_proxies=1)


class TestProvisioning:
    def test_clients_receive_their_own_data(self):
        system = PrivApproxSystem(SystemConfig(num_clients=5, seed=1))
        system.provision_clients(
            [("value", "REAL")], lambda i: [{"value": float(i)}, {"value": float(i) + 0.1}]
        )
        assert all(client.local_row_count() == 2 for client in system.clients)

    def test_clients_with_no_data(self):
        system = PrivApproxSystem(SystemConfig(num_clients=3, seed=1))
        system.provision_clients([("value", "REAL")], lambda i: [])
        assert all(client.local_row_count() == 0 for client in system.clients)


class TestQuerySubmission:
    def test_submit_subscribes_all_clients(self, small_system):
        system, _, query_id = small_system
        assert all(query_id in c.subscribed_query_ids for c in system.clients)

    def test_explicit_parameters_bypass_planner(self, small_system):
        system, _, query_id = small_system
        params = system.parameters_for(query_id)
        assert params == ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.6)

    def test_planner_derives_parameters_from_budget(self):
        system = PrivApproxSystem(SystemConfig(num_clients=10, seed=2))
        system.provision_clients([("value", "REAL")], lambda i: [{"value": 0.5}])
        analyst = Analyst("a")
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(buckets=RangeBuckets(boundaries=(0.0, 1.0), open_ended=True)),
        )
        params = system.submit_query(analyst, query, QueryBudget(max_epsilon=1.0))
        assert params.epsilon_zk <= 1.0 + 1e-6

    def test_unknown_query_rejected(self, small_system):
        system, _, _ = small_system
        with pytest.raises(KeyError):
            system.run_epoch("missing", 0)
        with pytest.raises(KeyError):
            system.parameters_for("missing")
        with pytest.raises(KeyError):
            system.aggregator_for("missing")


class TestEpochExecution:
    def test_participation_rate_close_to_sampling_fraction(self, small_system):
        system, _, query_id = small_system
        reports = system.run_epochs(query_id, 10)
        mean_rate = sum(r.participation_rate for r in reports) / len(reports)
        assert 0.75 < mean_rate <= 1.0  # s = 0.9

    def test_results_delivered_to_analyst(self, small_system):
        system, analyst, query_id = small_system
        system.run_epochs(query_id, 3)
        system.flush(query_id)
        results = analyst.results_for(query_id)
        assert len(results) >= 3

    def test_estimates_track_ground_truth(self):
        """A moderately sized noiseless-ish deployment recovers the exact histogram."""
        config = SystemConfig(num_clients=400, num_proxies=2, seed=7)
        system = PrivApproxSystem(config)
        rng = random.Random(5)
        system.provision_clients(
            [("speed", "REAL"), ("location", "TEXT")],
            lambda i: [{"speed": rng.uniform(0, 80), "location": "San Francisco"}],
        )
        analyst = Analyst("acme")
        query = analyst.create_query(
            "SELECT speed FROM private_data WHERE location = 'San Francisco'",
            AnswerSpec(
                buckets=RangeBuckets(boundaries=(0.0, 20.0, 40.0, 60.0), open_ended=True),
                value_column="speed",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(
            analyst,
            query,
            QueryBudget(),
            parameters=ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5),
        )
        system.run_epoch(query.query_id, 0)
        results = system.flush(query.query_id)
        exact = system.exact_bucket_counts(query.query_id)
        assert results[0].histogram.estimates() == pytest.approx(exact, abs=1e-6)

    def test_window_results_have_error_bounds(self, small_system):
        system, _, query_id = small_system
        system.run_epochs(query_id, 2)
        results = system.flush(query_id)
        assert results
        for result in results:
            assert all(b.error_bound >= 0 for b in result.histogram.buckets)

    def test_responses_log_only_contains_participants(self, small_system):
        system, _, query_id = small_system
        report = system.run_epoch(query_id, 0)
        log = system.responses_log(query_id)
        assert len(log) == report.num_participants

    def test_epoch_report_fields(self, small_system):
        system, _, query_id = small_system
        report = system.run_epoch(query_id, 0)
        assert report.epoch == 0
        assert report.num_clients == 40
        assert 0 <= report.num_participants <= 40


class TestMultiQueryEpochs:
    """run_epoch_all: N concurrent queries from one answering pass."""

    def _submit_queries(self, system, num_queries):
        analyst = Analyst("multi")
        query_ids = []
        for index in range(num_queries):
            query = analyst.create_query(
                "SELECT value FROM private_data",
                AnswerSpec(
                    buckets=RangeBuckets.uniform(0.0, 8.0, 4 + index, open_ended=True),
                    value_column="value",
                ),
                frequency_seconds=60.0,
                window_seconds=60.0,
                slide_seconds=60.0,
            )
            system.submit_query(
                analyst,
                query,
                QueryBudget(),
                parameters=ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.5),
            )
            query_ids.append(query.query_id)
        return analyst, query_ids

    def _build(self, num_queries=3, num_clients=20):
        system = PrivApproxSystem(SystemConfig(num_clients=num_clients, seed=21))
        rng = random.Random(21)
        system.provision_clients(
            [("value", "REAL")], lambda i: [{"value": rng.uniform(0, 8)}]
        )
        analyst, query_ids = self._submit_queries(system, num_queries)
        return system, analyst, query_ids

    def test_one_report_per_query_in_submission_order(self):
        system, _, query_ids = self._build()
        reports = system.run_epoch_all(0)
        assert list(reports) == query_ids
        assert all(report.epoch == 0 for report in reports.values())
        system.close()

    def test_each_query_gets_its_own_responses_and_results(self):
        system, analyst, query_ids = self._build()
        reports = system.run_epoch_all(0)
        for index, query_id in enumerate(query_ids):
            assert len(system.responses_log(query_id)) == (
                reports[query_id].num_participants
            )
            system.flush(query_id)
            results = analyst.results_for(query_id)
            assert results
            # Bucket resolution differs per query (4 + index finite ranges
            # plus the open-ended tail), so a cross-query mix-up could not
            # produce the right histogram width.
            assert len(results[-1].histogram.buckets) == 4 + index + 1
        system.close()

    def test_subset_of_queries(self):
        system, _, query_ids = self._build()
        reports = system.run_epoch_all(0, query_ids[:2])
        assert list(reports) == query_ids[:2]
        assert system.responses_log(query_ids[2]) == []
        system.close()

    def test_unknown_query_rejected(self):
        system, _, _ = self._build(num_queries=1)
        with pytest.raises(KeyError):
            system.run_epoch_all(0, ["missing"])
        system.close()

    def test_duplicate_query_ids_rejected(self):
        """Answering a query twice in one pass would corrupt its RNG streams."""
        system, _, query_ids = self._build(num_queries=2)
        with pytest.raises(ValueError, match="duplicates"):
            system.run_epoch_all(0, [query_ids[0], query_ids[0]])
        system.close()

    def test_no_queries_rejected(self):
        system = PrivApproxSystem(SystemConfig(num_clients=5, seed=1))
        system.provision_clients([("value", "REAL")], lambda i: [{"value": 1.0}])
        with pytest.raises(ValueError):
            system.run_epoch_all(0)
        system.close()

class TestFeedbackLoop:
    def test_feedback_raises_sampling_when_error_exceeds_budget(self):
        config = SystemConfig(num_clients=30, num_proxies=2, seed=3)
        system = PrivApproxSystem(config)
        rng = random.Random(11)
        system.provision_clients(
            [("value", "REAL")], lambda i: [{"value": rng.uniform(0, 3)}]
        )
        analyst = Analyst("a")
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(buckets=RangeBuckets(boundaries=(0.0, 1.0, 2.0), open_ended=True)),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        # Tight accuracy target with heavy randomization: the error bound will
        # exceed the target and the feedback loop must raise the sampling rate.
        initial = ExecutionParameters(sampling_fraction=0.4, p=0.3, q=0.6)
        system.submit_query(
            analyst, query, QueryBudget(target_accuracy_loss=0.01), parameters=initial
        )
        system.run_epochs(query.query_id, 4)
        final = system.parameters_for(query.query_id)
        assert final.sampling_fraction > initial.sampling_fraction


class TestHistoricalIntegration:
    def test_historical_store_receives_randomized_answers(self):
        config = SystemConfig(num_clients=20, num_proxies=2, seed=13, keep_historical=True)
        system = PrivApproxSystem(config)
        rng = random.Random(17)
        system.provision_clients([("value", "REAL")], lambda i: [{"value": rng.uniform(0, 2)}])
        analyst = Analyst("a")
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(buckets=RangeBuckets(boundaries=(0.0, 1.0), open_ended=True)),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(
            analyst,
            query,
            QueryBudget(),
            parameters=ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5),
        )
        reports = system.run_epochs(query.query_id, 2)
        stored = system.historical_store.read_answers(query.query_id)
        assert len(stored) == sum(r.num_participants for r in reports)

    @pytest.mark.parametrize("executor", ["serial", "inline/in-process"])
    def test_historical_store_records_each_epoch_from_its_own_responses(self, executor):
        """Each epoch stores its own blocks' randomized rows, in order, under
        the block's query id and epoch — not a rescan of the response log —
        so a repeated epoch number stores its own answers once instead of
        every earlier answer that carried the same number."""
        config = SystemConfig(num_clients=20, seed=13, keep_historical=True, executor=executor)
        system = PrivApproxSystem(config)
        system.provision_clients([("value", "REAL")], lambda i: [{"value": i % 2 + 0.5}])
        analyst = Analyst("a")
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(buckets=RangeBuckets(boundaries=(0.0, 1.0), open_ended=True)),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(
            analyst,
            query,
            QueryBudget(),
            parameters=ExecutionParameters(sampling_fraction=0.8, p=0.9, q=0.5),
        )
        participants = []
        for epoch in (0, 1, 2, 2):
            report = system.run_epoch(query.query_id, epoch)
            assert report.num_participants > 0
            participants.append(report.num_participants)
        system.close()
        stored = system.historical_store.read_answers(query.query_id)
        log = system.responses_log(query.query_id)
        assert len(stored) == len(log) == sum(participants)
        assert [answer.bits for answer, _ in stored] == [
            tuple(response.randomized_bits) for response in log
        ]
        assert [(answer.query_id, answer.epoch, timestamp) for answer, timestamp in stored] == [
            (query.query_id, response.epoch, response.epoch * 60.0) for response in log
        ]
        assert [response.epoch for response in log] == [
            epoch for epoch, count in zip((0, 1, 2, 2), participants) for _ in range(count)
        ]


class TestRelayBytes:
    def test_each_answer_relays_its_mid_and_message_per_proxy(self):
        """An answer costs every proxy a 16-byte MID plus the message: the
        11-byte header, the query id, the 16-byte raw token, packed bits."""
        config = SystemConfig(num_clients=20, seed=13, executor="inline/in-process")
        system = PrivApproxSystem(config)
        system.provision_clients([("value", "REAL")], lambda i: [{"value": i % 11 + 0.5}])
        analyst = Analyst("a")
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(buckets=RangeBuckets.uniform(0.0, 11.0, 11), value_column="value"),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(
            analyst,
            query,
            QueryBudget(),
            parameters=ExecutionParameters(sampling_fraction=0.8, p=0.9, q=0.5),
        )
        report = system.run_epoch(query.query_id, 0)
        system.close()
        width = 11 + len(query.query_id.encode()) + 16 + 2
        assert report.num_participants > 0
        assert system.proxies.total_bytes_relayed() == (
            report.num_participants * config.num_proxies * (16 + width)
        )


# -- the analyst's promises: privacy budget and honest bounds -------------------

QUICKSTART_BUCKETS = RangeBuckets(
    boundaries=(0.0, 1.0, 11.0, 21.0, 31.0, 41.0, 51.0, 61.0, 71.0, 81.0, 91.0, 101.0),
    open_ended=True,
)


def quickstart_deployment(executor="serial", budget=None):
    """``examples/quickstart.py``'s deployment: 500 clients, max epsilon 1.5,
    5 % accuracy target.  Returns (system, analyst, query_id)."""
    system = PrivApproxSystem(
        SystemConfig(num_clients=500, seed=7, executor=executor, executor_shards=4)
    )
    rng = random.Random(7)
    system.provision_clients(
        [("speed", "REAL"), ("location", "TEXT")],
        lambda i: [{"speed": rng.uniform(0.0, 110.0), "location": "San Francisco"}],
    )
    analyst = Analyst("quickstart-analyst")
    query = analyst.create_query(
        sql="SELECT speed FROM private_data WHERE location = 'San Francisco'",
        answer_spec=AnswerSpec(buckets=QUICKSTART_BUCKETS, value_column="speed"),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )
    budget = budget or QueryBudget(
        target_accuracy_loss=0.05,
        max_epsilon=1.5,
        expected_clients=500,
        answer_bits=QUICKSTART_BUCKETS.num_buckets,
    )
    system.submit_query(analyst, query, budget)
    return system, analyst, query.query_id


def observed_counts(system, query_id, epoch):
    """Per-bucket Yes counts and answer count of one epoch's responses."""
    responses = [r for r in system.responses_log(query_id) if r.epoch == epoch]
    counts = [sum(column) for column in zip(*(r.randomized_bits for r in responses))]
    return counts, len(responses)


class TestPrivacyBudgetAcrossEpochs:
    @pytest.mark.parametrize("executor", cli_smoke_matrix())
    def test_feedback_loop_never_exceeds_max_epsilon(self, executor):
        """The accuracy target asks for more than epsilon 1.5 allows: the
        budget wins on every epoch, and the reports say the target is unmet."""
        system, _, query_id = quickstart_deployment(executor)
        try:
            reports = system.run_epochs(query_id, 12)
        finally:
            system.close()
        for report in reports:
            assert report.parameters.epsilon_zk <= 1.5
        assert system.parameters_for(query_id).epsilon_zk <= 1.5
        assert any(report.accuracy_target_unmet for report in reports)

    def test_met_target_is_not_reported_unmet(self):
        budget = QueryBudget(target_accuracy_loss=0.9, max_epsilon=1.5, expected_clients=500)
        system, _, query_id = quickstart_deployment(budget=budget)
        reports = system.run_epochs(query_id, 6)
        assert sum(len(report.window_results) for report in reports) == 5
        assert not any(report.accuracy_target_unmet for report in reports)


class TestErrorBoundsUseTheParametersInForce:
    def test_bounds_after_a_retune_match_the_closed_form(self):
        """Each window is estimated *and* bounded at the p, q its answers were
        produced under, including after the feedback loop raised p.  A window
        closes during the next epoch's ingest, after that epoch's re-tune has
        already reached the aggregator."""
        budget = QueryBudget(target_accuracy_loss=0.05, expected_clients=500)
        system, _, query_id = quickstart_deployment(budget=budget)
        submitted = system.parameters_for(query_id)
        reports = system.run_epochs(query_id, 6)
        # What each epoch answered under: the parameters after the previous
        # epoch's re-tune.
        answered_under = [submitted] + [report.parameters for report in reports]
        checked_after_retune = 0
        for report in reports:
            for result in report.window_results:
                epoch = int(result.window.start // 60.0)
                in_force = answered_under[epoch]
                counts, num_answers = observed_counts(system, query_id, epoch)
                expected = estimate_histogram(
                    counts,
                    num_answers,
                    result.population,
                    QUICKSTART_BUCKETS.labels(),
                    in_force.p,
                    in_force.q,
                    window=result.histogram.window,
                )
                assert result.histogram.error_bounds() == expected.error_bounds()
                assert result.histogram.estimates() == expected.estimates()
                checked_after_retune += in_force.p != submitted.p
        assert checked_after_retune > 0
        # Only the epochs an open window may still need are remembered.
        assert len(system.aggregator_for(query_id)._epoch_parameters) <= 2


class TestLaterSubmitsLeaveEarlierSubscriptions:
    """Submitting a query delivers only its own announcement: it neither
    re-subscribes churned-out clients to an earlier query nor puts them back
    on that query's first announced parameters."""

    @staticmethod
    def speed_query(analyst):
        return analyst.create_query(
            "SELECT speed FROM private_data",
            AnswerSpec(buckets=QUICKSTART_BUCKETS, value_column="speed"),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )

    @pytest.mark.parametrize("executor", cli_smoke_matrix())
    def test_churned_out_clients_stay_out(self, executor):
        system = PrivApproxSystem(
            SystemConfig(num_clients=4, seed=5, executor=executor, executor_shards=2)
        )
        try:
            system.provision_clients([("speed", "REAL")], lambda i: [{"speed": 5.0 * i}])
            analyst = Analyst("acme")
            first = self.speed_query(analyst)
            everyone = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.6)
            system.submit_query(analyst, first, QueryBudget(), parameters=everyone)
            system.set_active_clients([0])
            held = [c.is_subscribed(first.query_id) for c in system.clients]
            assert held == [True, False, False, False]
            second = self.speed_query(analyst)
            system.submit_query(analyst, second, QueryBudget(), parameters=everyone)
            assert [c.is_subscribed(first.query_id) for c in system.clients] == held
            assert all(c.is_subscribed(second.query_id) for c in system.clients)
            reports = system.run_epoch_all(0)
        finally:
            system.close()
        assert reports[first.query_id].num_participants == 1
        assert reports[second.query_id].num_participants == 4

    @pytest.mark.parametrize("executor", cli_smoke_matrix())
    def test_a_retune_survives_the_next_submit(self, executor):
        system, analyst, query_id = quickstart_deployment(executor)
        try:
            announced = system.parameters_for(query_id)
            system.run_epochs(query_id, 3)
            retuned = system.parameters_for(query_id)
            assert retuned.sampling_fraction == 1.0 != announced.sampling_fraction
            system.submit_query(analyst, self.speed_query(analyst), QueryBudget())
            held = {c.subscriptions[query_id][1] for c in system.clients}
            assert held == {retuned} == {system.aggregator_for(query_id).parameters}
            report = system.run_epoch(query_id, 3)
        finally:
            system.close()
        # s = 1: every client answers, as the aggregator assumes when it inverts.
        assert report.num_participants == len(system.clients)


class TestWindowsAreScaledByTheirOwnRoster:
    """Churn rescales a query's population from the next epoch on.  A window
    closes during the *next* epoch's ingest — after ``set_active_clients``
    already rescaled the aggregator for that epoch — and must still be scaled
    by the roster its own epoch ran under."""

    @pytest.mark.parametrize("executor", ["serial", "inline/in-process"])
    def test_a_roster_change_reaches_only_later_windows(self, executor):
        system = PrivApproxSystem(
            SystemConfig(num_clients=8, seed=5, executor=executor, executor_shards=2)
        )
        try:
            system.provision_clients([("speed", "REAL")], lambda i: [{"speed": 5.0 * i}])
            analyst = Analyst("acme")
            query = analyst.create_query(
                "SELECT speed FROM private_data",
                AnswerSpec(buckets=QUICKSTART_BUCKETS, value_column="speed"),
                frequency_seconds=60.0,
                window_seconds=60.0,
                slide_seconds=60.0,
            )
            everyone = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.6)
            system.submit_query(analyst, query, QueryBudget(), parameters=everyone)
            system.run_epoch(query.query_id, 0)
            system.set_active_clients([0, 1])
            first = system.run_epoch(query.query_id, 1)
            system.set_active_clients(range(8))
            second = system.run_epoch(query.query_id, 2)
        finally:
            system.close()
        (closed_in_epoch_1,) = first.window_results
        (closed_in_epoch_2,) = second.window_results
        assert closed_in_epoch_1.window.start == 0.0
        assert closed_in_epoch_1.population == 8  # epoch 0's roster, not epoch 1's
        assert closed_in_epoch_2.window.start == 60.0
        assert closed_in_epoch_2.population == 2
        assert first.num_participants == 2 and second.num_participants == 8


def _counting_passes(monkeypatch) -> list[int]:
    """Every ``CompiledSelect.matching_ids_per_client`` pass's ``start``."""
    from repro.sqldb.compile import CompiledSelect

    starts: list[int] = []
    matching = CompiledSelect.matching_ids_per_client

    def counting_pass(self, table, start=0):
        starts.append(start)
        return matching(self, table, start)

    monkeypatch.setattr(CompiledSelect, "matching_ids_per_client", counting_pass)
    return starts


class TestLoneAnswersAreStanding:
    """Every ground truth and every answer is a standing latest-row answer.

    A client answering alone — serial and ``SQLDB_FORCE_PER_CLIENT`` — asks
    its one-slot arena, as the shard pass asks the shard's: over unchanged
    tables a second epoch and a second ``exact_bucket_counts`` run no
    matching pass, and an appended row is folded in from where the answer
    stopped.  On the in-process engine the ground truth asks the shard
    arenas the epoch answered from: after an epoch it runs no matching
    pass at all and builds no client a one-slot arena."""

    @pytest.mark.parametrize(
        "executor, per_client, passes_per_read, tail_start",
        [
            ("serial", "0", 30, 3),
            ("inline/in-process", "1", 30, 3),
            # Two shards of 15 clients × 3 rows: one pass per shard arena.
            ("inline/in-process", "0", 2, 45),
        ],
    )
    def test_unchanged_tables_are_read_once(
        self, monkeypatch, executor, per_client, passes_per_read, tail_start
    ):
        monkeypatch.setenv("SQLDB_FORCE_PER_CLIENT", per_client)
        lone = passes_per_read == 30
        system = PrivApproxSystem(
            SystemConfig(num_clients=30, seed=11, executor=executor, executor_shards=2)
        )
        rng = random.Random(11)
        system.provision_clients(
            [("speed", "REAL"), ("location", "TEXT")],
            lambda i: [
                {"speed": rng.uniform(0.0, 80.0), "location": rng.choice(["SF", "LA"])}
                for _ in range(3)
            ],
        )
        analyst = Analyst("standing")
        query = analyst.create_query(
            "SELECT speed FROM private_data WHERE location = 'SF'",
            AnswerSpec(buckets=RangeBuckets(boundaries=(0.0, 40.0, 80.0)), value_column="speed"),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(
            analyst,
            query,
            QueryBudget(),
            parameters=ExecutionParameters(sampling_fraction=0.6, p=0.9, q=0.5),
        )
        query_id = query.query_id
        starts = _counting_passes(monkeypatch)
        system.run_epoch(query_id, 0)
        assert starts and set(starts) == {0}
        truth = system.exact_bucket_counts(query_id)
        # Every client has been read (by an epoch or the ground truth) once.
        assert len(starts) == passes_per_read and set(starts) == {0}
        system.run_epoch(query_id, 1)
        assert system.exact_bucket_counts(query_id) == truth
        assert len(starts) == passes_per_read
        system.clients[4].ingest([{"speed": 79.0, "location": "SF"}])
        system.run_epoch(query_id, 2)
        system.exact_bucket_counts(query_id)
        # One fold, over the appended tail only.
        assert starts[passes_per_read:] == [tail_start]
        assert {client.database._arena is None for client in system.clients} == {not lone}
        monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
        scanned = system.exact_bucket_counts(query_id)
        assert len(starts) == passes_per_read + 1
        monkeypatch.delenv("SQLDB_FORCE_SCAN")
        assert system.exact_bucket_counts(query_id) == scanned
        assert sum(scanned) == sum(
            1 for client in system.clients if client.truthful_answer(query_id) != [0, 0]
        )


#: The ground-truth statements: a probe the arenas answer, the same probe
#: with its projected name case-twisted (it compiles too), an unknown
#: projection every member answers on the row scan (a ``SchemaError``), and
#: one that raises for one client only.
GROUND_TRUTH_SQL = {
    "probe": "SELECT speed FROM private_data WHERE zone = 1",
    "twisted": "SELECT Speed FROM private_data WHERE zone = 1",
    "unknown": "SELECT nope FROM private_data WHERE zone = 1",
    "raises": "SELECT speed FROM private_data WHERE tag < 5",
}


def ground_truth_trace(executor: str) -> list[tuple]:
    """Every ground truth of one deployment, in order: a query's counts, or
    the type and message of the error it raised.

    The deployment has churn, appended rows, one member with a mixed schema
    (no arena answers it) and one whose ``tag`` makes ``tag < 5`` raise.
    """
    system = PrivApproxSystem(
        SystemConfig(
            num_clients=24, seed=13, executor=executor, executor_workers=2, executor_shards=3
        )
    )
    rng = random.Random(13)
    columns = [("speed", "REAL"), ("zone", "INTEGER"), ("tag", "TEXT")]

    def rows(count):
        return [
            {"speed": rng.uniform(0.0, 80.0), "zone": rng.choice([1, 2])} for _ in range(count)
        ]

    trace: list[tuple] = []
    try:
        system.provision_clients(columns, lambda i: rows(3))
        mixed = system.clients[4].database
        mixed.drop_table("private_data")
        mixed.create_table("private_data", [*columns, ("extra", "REAL")])
        mixed.insert_rows("private_data", rows(2))
        system.clients[17].ingest([{"speed": 10.0, "zone": 1, "tag": "late"}])
        analyst = Analyst("truth")
        query_ids = []
        for sql in GROUND_TRUTH_SQL.values():
            query = analyst.create_query(
                sql,
                AnswerSpec(
                    buckets=RangeBuckets(boundaries=(0.0, 40.0, 80.0)), value_column="speed"
                ),
                frequency_seconds=60.0,
                window_seconds=60.0,
                slide_seconds=60.0,
            )
            system.submit_query(
                analyst,
                query,
                QueryBudget(),
                parameters=ExecutionParameters(sampling_fraction=0.6, p=0.9, q=0.5),
            )
            query_ids.append(query.query_id)

        def record():
            for query_id in query_ids:
                try:
                    trace.append((system.exact_bucket_counts(query_id),))
                except Exception as exc:  # the error is what the ground truth answers
                    trace.append((type(exc), str(exc)))

        probe = query_ids[0]
        record()
        system.run_epoch(probe, 0)
        record()
        system.set_active_clients(range(0, 24, 2))  # client 17 churns out
        system.run_epoch(probe, 1)
        record()
        for client in system.clients[::5]:
            client.ingest(rows(1))
        system.run_epoch(probe, 2)
        record()
        system.set_active_clients(range(24))
        record()
    finally:
        system.close()
    return trace


class TestGroundTruthReadsTheAnswerArenas:
    """``exact_bucket_counts`` reads the arenas the executor answers from, and
    a slot they do not answer answers alone: every executor and every oracle
    switch counts alike, raises alike, and a closed system still counts."""

    @pytest.mark.parametrize(
        "executor, switch",
        [
            ("inline/in-process", None),
            ("pipelined-overlap/in-process", None),
            ("pinned-worker/framed-wire-local", None),
            ("inline/in-process", "SQLDB_FORCE_SCAN"),
            ("inline/in-process", "SQLDB_FORCE_PER_CLIENT"),
        ],
    )
    def test_every_executor_counts_alike(self, monkeypatch, executor, switch):
        reference = ground_truth_trace("serial")
        rounds = {
            name: reference[index :: len(GROUND_TRUTH_SQL)]
            for index, name in enumerate(GROUND_TRUTH_SQL)
        }
        assert all(sum(entry[0]) > 0 for entry in rounds["probe"])
        assert rounds["twisted"] == rounds["probe"]
        assert {entry[0] for entry in rounds["unknown"]} == {SchemaError}
        # Client 17 raises in three of the five rounds: not while churned out.
        raised = [entry for entry in rounds["raises"] if len(entry) == 2]
        assert len(raised) == 3 and raised[0][0] is TypeError
        if switch is not None:
            monkeypatch.setenv(switch, "1")
        assert ground_truth_trace(executor) == reference

    @pytest.mark.parametrize("executor", cli_smoke_matrix())
    def test_a_closed_system_counts_alike(self, executor):
        system, _, query_id = quickstart_deployment(executor)
        try:
            system.run_epochs(query_id, 2)
            counts = system.exact_bucket_counts(query_id)
        finally:
            system.close()
        assert system.exact_bucket_counts(query_id) == counts

    @pytest.mark.parametrize("executor", ["serial", "inline/in-process"])
    def test_the_scan_oracle_mirrors_no_table(self, monkeypatch, executor):
        """Under ``SQLDB_FORCE_SCAN`` every client answers and counts on the
        row scan, so no client database builds a one-slot arena: not by
        answering an epoch, and not for the ground truth."""
        monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
        system, _, query_id = quickstart_deployment(executor)
        try:
            system.run_epochs(query_id, 2)
            assert sum(system.exact_bucket_counts(query_id)) > 0
        finally:
            system.close()
        assert all(client.database._arena is None for client in system.clients)
