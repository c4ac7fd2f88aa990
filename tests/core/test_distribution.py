"""Tests for query distribution through the proxies."""

import dataclasses
import pickle
from unittest import mock

import pytest

from repro.core import (
    Analyst,
    AnswerSpec,
    Client,
    ClientConfig,
    ExecutionParameters,
    PrivApproxSystem,
    Query,
    QueryBudget,
    QueryDistributor,
    RangeBuckets,
    RuleBuckets,
    SystemConfig,
)
from repro.pubsub import BrokerCluster


SPEC = AnswerSpec(buckets=RangeBuckets(boundaries=(0.0, 1.0), open_ended=True))


@pytest.fixture
def distributor() -> QueryDistributor:
    return QueryDistributor(cluster=BrokerCluster(num_brokers=2))


@pytest.fixture
def analyst() -> Analyst:
    return Analyst(analyst_id="acme", signing_key=b"acme-key")


def make_client(client_id: str = "c-1") -> Client:
    client = Client(ClientConfig(client_id=client_id, seed=1))
    client.create_table([("value", "REAL")])
    return client


class TestPublishing:
    def test_publish_signed_query(self, distributor, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        announcement = distributor.publish(query, QueryBudget())
        assert announcement.query.query_id == query.query_id
        assert distributor.queries_published == 1

    def test_unsigned_query_rejected(self, distributor):
        query = Query(query_id="q", sql="SELECT value FROM private_data", answer_spec=SPEC)
        with pytest.raises(ValueError):
            distributor.publish(query, QueryBudget())

    def test_explicit_parameters_bypass_planner(self, distributor, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        params = ExecutionParameters(sampling_fraction=0.5, p=0.5, q=0.5)
        announcement = distributor.publish(query, QueryBudget(), parameters=params)
        assert announcement.parameters == params

    def test_planner_used_when_parameters_omitted(self, distributor, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        announcement = distributor.publish(query, QueryBudget(max_epsilon=1.0))
        assert announcement.parameters.epsilon_zk <= 1.0 + 1e-6


class TestClientDelivery:
    def test_client_receives_and_subscribes(self, distributor, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        client = make_client()
        distributor.publish(query, QueryBudget())
        accepted = QueryDistributor.deliver_to_client(
            client, distributor.poll_announcements(), {"acme": analyst.signing_key}
        )
        assert len(accepted) == 1
        assert client.subscribed_query_ids == [query.query_id]

    def test_unknown_analyst_is_ignored(self, distributor, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        client = make_client()
        distributor.publish(query, QueryBudget())
        accepted = QueryDistributor.deliver_to_client(client, distributor.poll_announcements(), {})
        assert accepted == []
        assert client.subscribed_query_ids == []

    def test_forged_signature_is_ignored(self, distributor, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        client = make_client()
        distributor.publish(query, QueryBudget())
        accepted = QueryDistributor.deliver_to_client(
            client, distributor.poll_announcements(), {"acme": b"wrong-key"}
        )
        assert accepted == []

    def test_multiple_clients_receive_the_same_query(self, distributor, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        clients = [make_client(f"c-{i}") for i in range(5)]
        distributor.publish(query, QueryBudget())
        announcements = distributor.poll_announcements()
        for client in clients:
            QueryDistributor.deliver_to_client(client, announcements, {"acme": analyst.signing_key})
        assert all(c.subscribed_query_ids == [query.query_id] for c in clients)

    def test_second_submit_delivers_only_the_second_announcement(self, distributor, analyst):
        client = make_client()
        first = analyst.create_query("SELECT value FROM private_data", SPEC)
        distributor.publish(first, QueryBudget())
        QueryDistributor.deliver_to_client(
            client, distributor.poll_announcements(), {"acme": analyst.signing_key}
        )
        second = analyst.create_query("SELECT value AS v1 FROM private_data", SPEC)
        distributor.publish(second, QueryBudget())
        accepted = QueryDistributor.deliver_to_client(
            client, distributor.poll_announcements(), {"acme": analyst.signing_key}
        )
        assert [a.query.query_id for a in accepted] == [second.query_id]
        assert set(client.subscribed_query_ids) == {first.query_id, second.query_id}

    def test_announcements_are_read_once(self, distributor, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        distributor.publish(query, QueryBudget())
        assert [a.query for a in distributor.poll_announcements()] == [query]
        assert distributor.poll_announcements() == []


def tampered_sql(query: Query) -> Query:
    return dataclasses.replace(query, sql="SELECT value FROM private_data WHERE value > 0.9")


def tampered_buckets(query: Query) -> Query:
    spec = AnswerSpec(buckets=RangeBuckets(boundaries=(0.0, 0.5, 1.0), open_ended=True))
    return dataclasses.replace(query, answer_spec=spec)


def unknown_analyst(query: Query) -> Query:
    stranger = Analyst(analyst_id="stranger", signing_key=b"stranger-key")
    return stranger.create_query(query.sql, query.answer_spec)


class TestEveryClientVerifies:
    """The per-client signature check survives one read per announcement."""

    @pytest.mark.parametrize("forge", [tampered_sql, tampered_buckets, unknown_analyst])
    def test_a_bad_announcement_between_two_valid_ones(self, distributor, analyst, forge):
        keys = {"acme": analyst.signing_key}
        first = analyst.create_query("SELECT value FROM private_data", SPEC)
        victim = analyst.create_query("SELECT value AS v1 FROM private_data", SPEC)
        second = analyst.create_query("SELECT value AS v2 FROM private_data", SPEC)
        # The victim's canonical form is memoized before it is copied: a copy
        # must not inherit it.
        assert victim.verify_signature(analyst.signing_key)
        forged = forge(victim)
        assert forged.signature is not None
        for query in (first, forged, second):
            distributor.publish(query, QueryBudget())
        announcements = distributor.poll_announcements()
        clients = [make_client(f"c-{i}") for i in range(4)]
        for client in clients:
            accepted = QueryDistributor.deliver_to_client(client, announcements, keys)
            assert [a.query for a in accepted] == [first, second]
            assert client.subscribed_query_ids == sorted([first.query_id, second.query_id])


class TestCanonicalForm:
    @pytest.mark.parametrize("layout", ["range", "rule"])
    def test_a_held_list_cannot_change_a_signed_query(self, analyst, layout):
        if layout == "range":
            held = [0.0, 1.0, 2.0]
            buckets = RangeBuckets(boundaries=held)
            assert buckets.boundaries == (0.0, 1.0, 2.0)
        else:
            held = [["low", "^a"], ["high", "^b"]]
            buckets = RuleBuckets(rules=held)
            assert buckets.rules == (("low", "^a"), ("high", "^b"))
        query = analyst.create_query("SELECT value FROM private_data", AnswerSpec(buckets=buckets))
        assert query.verify_signature(analyst.signing_key)
        before = query.canonical_bytes()
        if layout == "range":
            held[0] = -1.0
            held.append(3.0)
        else:
            held[0][0] = "renamed"
            held.append(["extra", "^c"])
        assert query.canonical_bytes() == before
        assert query.answer_spec.labels()[0] == ("[0.0, 1.0)" if layout == "range" else "low")
        assert query.num_buckets == (3 if layout == "range" else 2)

    def test_the_memo_is_not_pickled(self, analyst):
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        before = pickle.dumps(query)
        assert query.verify_signature(analyst.signing_key)
        assert pickle.dumps(query) == before
        restored = pickle.loads(before)
        assert restored == query
        assert restored.verify_signature(analyst.signing_key)


class TestSystemIntegration:
    def test_system_distributes_queries_via_proxies(self):
        system = PrivApproxSystem(SystemConfig(num_clients=10, seed=3))
        system.provision_clients([("value", "REAL")], lambda i: [{"value": 0.5}])
        analyst = Analyst("acme", signing_key=b"k")
        query = analyst.create_query("SELECT value FROM private_data", SPEC)
        system.submit_query(analyst, query, QueryBudget())
        assert system.query_distributor.queries_published == 1
        assert all(query.query_id in c.subscribed_query_ids for c in system.clients)

    def test_each_submit_verifies_once_per_client(self):
        """C clients, N sequential submits: C signature checks per submit
        (C*N in total, not C*N(N+1)/2), and one canonical form per query."""
        clients, submits = 6, 4
        system = PrivApproxSystem(SystemConfig(num_clients=clients, seed=3))
        system.provision_clients([("value", "REAL")], lambda i: [{"value": 0.5}])
        analyst = Analyst("acme", signing_key=b"k")
        queries = [
            analyst.create_query(f"SELECT value AS v{n + 1} FROM private_data", SPEC)
            for n in range(submits)
        ]
        verified: list[int] = []
        builds: list[int] = []
        verify, canonical = Query.verify_signature, Query.canonical_bytes

        def counting_verify(query, key):
            verified.append(id(query))
            return verify(query, key)

        def counting_canonical(query):
            if "_canonical_bytes" not in query.__dict__:
                builds.append(id(query))
            return canonical(query)

        with (
            mock.patch.object(Query, "verify_signature", counting_verify),
            mock.patch.object(Query, "canonical_bytes", counting_canonical),
        ):
            for query in queries:
                before = len(verified)
                system.submit_query(analyst, query, QueryBudget())
                assert len(verified) - before == clients
                assert set(verified[before:]) == {id(query)}
        assert len(verified) == clients * submits
        assert sorted(builds) == sorted(id(query) for query in queries)
        assert all(
            client.subscribed_query_ids == sorted(q.query_id for q in queries)
            for client in system.clients
        )
