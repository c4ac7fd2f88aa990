"""Integration tests: the full client -> proxy -> aggregator -> analyst path."""

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
from repro.analytics import histogram_accuracy_loss


def build_system(num_clients: int, seed: int, num_proxies: int = 2) -> PrivApproxSystem:
    system = PrivApproxSystem(
        SystemConfig(num_clients=num_clients, num_proxies=num_proxies, seed=seed)
    )
    rng = random.Random(seed)
    system.provision_clients(
        [("value", "REAL"), ("region", "TEXT")],
        lambda i: [{"value": rng.gammavariate(2.0, 1.0), "region": "metro"}],
    )
    return system


def inspect_relay(system: PrivApproxSystem, query_id: str) -> list:
    """One consumer per proxy on the query's relay topic, subscribed before
    the epoch runs.

    Partitions trim the records every live reader has polled, so a relay is
    inspected through a reader of its own rather than read back afterwards.
    """
    return system.proxies.make_consumers(channel=query_id)


def relayed_shares(inspector) -> list:
    """Every share one inspector's proxy relayed: each record is a tuple."""
    return [share for record in inspector.poll() for share in record.value]


def submit(system: PrivApproxSystem, params: ExecutionParameters):
    analyst = Analyst("e2e")
    query = analyst.create_query(
        "SELECT value FROM private_data WHERE region = 'metro'",
        AnswerSpec(
            buckets=RangeBuckets(boundaries=(0.0, 1.0, 2.0, 3.0, 4.0), open_ended=True),
            value_column="value",
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )
    system.submit_query(analyst, query, QueryBudget(), parameters=params)
    return analyst, query


class TestEndToEndAccuracy:
    def test_privacy_pipeline_recovers_distribution_with_enough_clients(self):
        """With 2,000 clients and mild randomization the estimated histogram is
        within a few percent of the exact one — the paper's core utility claim."""
        system = build_system(num_clients=2_000, seed=21)
        params = ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.6)
        _, query = submit(system, params)
        system.run_epoch(query.query_id, 0)
        results = system.flush(query.query_id)
        exact = system.exact_bucket_counts(query.query_id)
        estimated = results[0].histogram.estimates()
        assert histogram_accuracy_loss(exact, estimated) < 0.15

    def test_more_clients_improve_utility(self):
        """Figure 4(c): accuracy improves with the number of participating clients."""
        params = ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.6)

        def loss_for(num_clients: int, seed: int) -> float:
            system = build_system(num_clients=num_clients, seed=seed)
            _, query = submit(system, params)
            system.run_epoch(query.query_id, 0)
            results = system.flush(query.query_id)
            exact = system.exact_bucket_counts(query.query_id)
            return histogram_accuracy_loss(exact, results[0].histogram.estimates())

        small = sum(loss_for(50, seed) for seed in (1, 2, 3)) / 3
        large = sum(loss_for(1_500, seed) for seed in (1, 2, 3)) / 3
        assert large < small

    def test_three_proxy_deployment_works_end_to_end(self):
        system = build_system(num_clients=300, seed=31, num_proxies=3)
        params = ExecutionParameters(sampling_fraction=1.0, p=1.0, q=0.5)
        _, query = submit(system, params)
        system.run_epoch(query.query_id, 0)
        results = system.flush(query.query_id)
        exact = system.exact_bucket_counts(query.query_id)
        assert results[0].histogram.estimates() == pytest.approx(exact, abs=1e-6)

    def test_streaming_over_multiple_epochs_produces_one_result_per_window(self):
        system = build_system(num_clients=200, seed=41)
        params = ExecutionParameters(sampling_fraction=0.8, p=0.9, q=0.6)
        analyst, query = submit(system, params)
        system.run_epochs(query.query_id, 5)
        system.flush(query.query_id)
        results = analyst.results_for(query.query_id)
        assert len(results) == 5
        windows = [r.window for r in results]
        assert windows == sorted(windows, key=lambda w: w.start)


class TestPrivacyProperties:
    def test_wire_never_carries_truthful_plaintext(self):
        """No share published to any proxy equals the client's encoded truthful answer."""
        from repro.core.encryption import AnswerCodec
        from repro.core.query import QueryAnswer

        system = build_system(num_clients=100, seed=51)
        params = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.6)
        _, query = submit(system, params)
        inspectors = inspect_relay(system, query.query_id)
        system.run_epoch(query.query_id, 0)

        codec = AnswerCodec()
        truthful_messages = set()
        for client in system.clients:
            bits = tuple(client.truthful_answer(query.query_id))
            truthful_messages.add(codec.encode(QueryAnswer(query.query_id, bits, epoch=0)))

        for inspector in inspectors:
            shares = relayed_shares(inspector)
            assert len(shares) == 100
            for share in shares:
                assert share.payload not in truthful_messages

    def test_single_proxy_shares_do_not_decode(self):
        """One proxy's stream alone cannot be decoded into any valid answer."""
        from repro.core.encryption import AnswerCodec

        system = build_system(num_clients=50, seed=61)
        params = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.6)
        _, query = submit(system, params)
        inspector = inspect_relay(system, query.query_id)[0]
        system.run_epoch(query.query_id, 0)
        codec = AnswerCodec()
        decodable = 0
        shares = relayed_shares(inspector)
        assert len(shares) == 50
        for share in shares:
            try:
                codec.decode(share.payload)
                decodable += 1
            except ValueError:
                pass
        # Decoding requires the magic header to appear by chance; allow a tiny
        # number of accidental matches but not systematic decodability.
        assert decodable <= 1

    def test_epsilon_reported_matches_parameters(self):
        system = build_system(num_clients=50, seed=71)
        params = ExecutionParameters(sampling_fraction=0.6, p=0.6, q=0.6)
        _, query = submit(system, params)
        reported = system.parameters_for(query.query_id).epsilon_zk
        assert reported == pytest.approx(params.epsilon_zk)
