"""The shard answer pass against the per-client reference.

``answer_shard`` answers each query as a column over its shard: one coin
pass, then one arena ask per statement for the participants, whose values
are bucketed.  The reference is what serial does: ``Client.answer`` per
member, then ``ResponseBlock.build`` per query.  Every block column must
match except ``message_ids`` (random), and a shard whose statements or
bucket rules raise must raise what serial raises.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core import (
    Analyst,
    AnswerSpec,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    RuleBuckets,
    SystemConfig,
)
from repro.core.client import Client, ClientConfig, ResponseBlock
from repro.runtime.engine import answer_shard
from repro.sqldb import cached_shard_arena

PARAMS = ExecutionParameters(sampling_fraction=0.7, p=0.9, q=0.5)
ALWAYS = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5)
RETUNED = ExecutionParameters(sampling_fraction=1.0, p=0.6, q=0.3)
SCHEMA = [("value", "REAL"), ("zone", "INTEGER")]


def _query(analyst: Analyst, sql: str, low: float = 0.0, high: float = 8.0):
    return analyst.create_query(
        sql,
        AnswerSpec(
            buckets=RangeBuckets.uniform(low, high, 4, open_ended=True), value_column="value"
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )


def _rows(rng: random.Random, count: int) -> list[dict]:
    return [{"value": rng.uniform(0.0, 9.0), "zone": rng.randrange(4)} for _ in range(count)]


def _mixed_shard():
    """Ten members and three queries.

    0-4 and 9 are plain members; 5 holds no subscription; 6's table has a
    mixed schema (``value`` is TEXT); 7 has no table; 8 is re-tuned to its
    own ``p``/``q``.  Members 6 and 7 always participate, and their reads
    raise: 6's of ``q2`` (a TEXT ``value`` compared with a number), 7's of
    every query (no table).  So the first raising pair in client-major
    order, (6, ``q2``), is not the first in query-major order, (7, ``q1``).
    """
    analyst = Analyst("shard-pass")
    queries = [
        _query(analyst, "SELECT value FROM private_data"),
        _query(analyst, "SELECT zone, value FROM private_data WHERE value > 2.0"),
        _query(analyst, "SELECT value FROM private_data WHERE zone = 1"),
    ]
    rng = random.Random(41)
    clients = []
    for index in range(10):
        client = Client(ClientConfig(client_id=f"member-{index}", seed=700 + index))
        if index == 6:
            client.create_table([("value", "TEXT"), ("zone", "INTEGER")])
            client.ingest([{"value": "3.5", "zone": 1}])
        elif index != 7:
            client.create_table(SCHEMA)
            client.ingest(_rows(rng, 5))
        if index != 5:
            for query in queries:
                parameters = ALWAYS if index in (6, 7) else PARAMS
                client.subscribe(query, RETUNED if index == 8 else parameters)
        clients.append(client)
    late = frozenset({"member-2", "member-9"})
    return clients, queries, late


def reference(clients, query_ids, epoch, late):
    """Serial's answer to one shard: ``Client.answer`` per member, then one
    ``ResponseBlock.build`` per query."""
    answers = [[] for _ in query_ids]
    late_ids = [[] for _ in query_ids]
    for client in clients:
        for index, entry in enumerate(client.answer(query_ids, epoch=epoch)):
            if entry is None:
                continue
            if client.config.client_id in late:
                late_ids[index].append(client.config.client_id)
            else:
                answers[index].append((client, entry))
    return [
        ResponseBlock.build(query_id, epoch, rows, 2, late_ids=tuple(dropped))
        for query_id, rows, dropped in zip(query_ids, answers, late_ids)
    ]


def columns(blocks) -> list[tuple]:
    """Every block column but the random ``message_ids``."""
    return [
        tuple(getattr(block, field.name) for field in dataclasses.fields(block)
              if field.name != "message_ids")
        for block in blocks
    ]


def outcome(answer, *args):
    """The blocks' columns, or the raised error as (type, message)."""
    try:
        return columns(answer(*args))
    except Exception as exc:  # noqa: BLE001 - the error is what is compared
        return (type(exc), str(exc))


class TestMixedShard:
    def _arena(self, cache, clients):
        return cached_shard_arena(cache, 0, [client.database for client in clients])

    def _check(self, cache, clients, query_ids, epoch, late):
        arena = self._arena(cache, clients)
        got = outcome(answer_shard, clients, query_ids, epoch, arena, late)
        want = outcome(reference, clients, query_ids, epoch, late)
        assert got == want, epoch
        return got

    def test_the_column_pass_matches_the_per_client_reference(self):
        clients, queries, late = _mixed_shard()
        query_ids = [query.query_id for query in queries]
        cache: dict = {}
        # Both raising members participate: member 6's error wins.
        raised = self._check(cache, clients, query_ids, 0, late)
        assert raised[0] is TypeError
        clients[6].unsubscribe(query_ids[1])
        raised = self._check(cache, clients, query_ids, 1, late)
        assert raised[0].__name__ == "SchemaError" and "private_data" in raised[1]
        clients[7].create_table(SCHEMA)  # an excluded member gains the table
        rng = random.Random(5)
        for epoch in range(2, 12):
            blocks = self._check(cache, clients, query_ids, epoch, late)
            assert any(block[-1] for block in blocks)  # late ids were named
            for client in clients[epoch % 3 :: 4]:
                if client is not clients[6]:
                    client.ingest(_rows(rng, 1))

    def test_a_raising_bucket_rule_raises_in_client_major_order(self):
        """A bucket rule that raises (a callable ``RuleBuckets`` rule that
        expects TEXT, given a REAL) fails its (client, query) pair like a
        statement that raises: when member 8's rule raises on the first
        query, member 7's read error (no table) on it raises, as serial's
        client-major order has it; once member 7 has a table, its own rule
        error does."""
        clients, queries, late = _mixed_shard()
        clients[6].unsubscribe(queries[1].query_id)
        textual = Analyst("shard-pass-rules").create_query(
            "SELECT value FROM private_data",
            AnswerSpec(
                buckets=RuleBuckets(rules=(("three", lambda value: value.startswith("3")),)),
                value_column="value",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        for index in (6, 7, 8):  # 6 holds TEXT, so its rule answers
            clients[index].subscribe(textual, ALWAYS)
        query_ids = [textual.query_id] + [query.query_id for query in queries]
        cache: dict = {}
        raised = self._check(cache, clients, query_ids, 0, late)
        assert raised[0].__name__ == "SchemaError"
        clients[7].create_table(SCHEMA)
        clients[7].ingest([{"value": 1.0, "zone": 1}])
        raised = self._check(cache, clients, query_ids, 1, late)
        assert raised[0] is AttributeError
        clients[7].unsubscribe(textual.query_id)
        clients[8].unsubscribe(textual.query_id)
        blocks = self._check(cache, clients, query_ids, 2, late)
        assert blocks[0][2] == ("member-6",)  # client_ids: the rule's one answer

    def test_each_change_answers_like_the_reference(self):
        """A tail append, a re-submitted query, an unsubscribe then a
        resubscribe, and a replaced member: the pass answers like the
        reference after each, where a stale outcome or bucket would
        differ."""
        clients, queries, late = _mixed_shard()
        clients[7].create_table(SCHEMA)
        clients[7].ingest([{"value": 1.0, "zone": 1}])
        clients[6].unsubscribe(queries[1].query_id)
        query_ids = [query.query_id for query in queries]
        cache: dict = {}
        epoch = 0

        def check():
            nonlocal epoch
            epoch += 1
            blocks = self._check(cache, clients, query_ids, epoch, late)
            assert not isinstance(blocks, tuple)
            return blocks

        check()
        check()
        # A tail append moves every member's latest match to a new bucket.
        for client in clients:
            if client is not clients[6]:
                client.ingest([{"value": 7.5, "zone": 1}])
        check()
        # The same statement re-submitted with new buckets: the outcomes are
        # the same objects, the query is not.
        resubmitted = dataclasses.replace(
            queries[0],
            answer_spec=AnswerSpec(
                buckets=RangeBuckets.uniform(4.0, 12.0, 4, open_ended=True),
                value_column="value",
            ),
        )
        for client in clients:
            if client.is_subscribed(resubmitted.query_id):
                client.subscribe(resubmitted, client.subscriptions[resubmitted.query_id][1])
        check()
        # Unsubscribe, append while away, resubscribe.
        member = clients[0]
        parameters = member.subscriptions[query_ids[0]][1]
        member.unsubscribe(query_ids[0])
        check()
        member.ingest([{"value": 0.5, "zone": 1}])
        member.subscribe(resubmitted, parameters)
        check()
        # A replaced member rebuilds the arena.
        stale = self._arena(cache, clients)
        replacement = Client(ClientConfig(client_id="member-1", seed=701))
        replacement.create_table(SCHEMA)
        replacement.ingest([{"value": 11.0, "zone": 1}])
        for query in (resubmitted, *queries[1:]):
            replacement.subscribe(query, PARAMS)
        clients[1] = replacement
        check()
        assert self._arena(cache, clients) is not stale


def _case_twisted_system(executor: str) -> tuple[PrivApproxSystem, str]:
    options = {}
    if executor != "serial":
        options = dict(executor_workers=2, executor_shards=2)
    system = PrivApproxSystem(
        SystemConfig(num_clients=4, seed=3, executor=executor, **options)
    )
    system.provision_clients(
        [("zone", "INTEGER"), ("speed", "REAL")], lambda i: [{"zone": 1, "speed": 50.0}]
    )
    analyst = Analyst("case-twisted")
    query = analyst.create_query(
        "SELECT zone, Speed FROM private_data",
        AnswerSpec(buckets=RangeBuckets.uniform(0.0, 120.0, 3), value_column="speed"),
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
    return system, query.query_id


@pytest.mark.parametrize(
    "executor, scan",
    [
        ("serial", False),
        ("inline/in-process", False),
        ("pinned-worker/framed-wire-local", False),
        ("serial", True),
        ("inline/in-process", True),
    ],
)
def test_a_case_twisted_value_column_answers_with_that_column(executor, scan, monkeypatch):
    """``SELECT zone, Speed`` with ``value_column="speed"`` answers with
    ``Speed`` (50.0, bucket 1), not with the first column (zone 1, bucket 0)."""
    if scan:
        monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
    system, query_id = _case_twisted_system(executor)
    try:
        system.run_epoch(query_id, 0)
        rows = [
            bits for block in system.responses_log(query_id)
            for bits in block.bit_rows(block.truthful_bits)
        ]
        assert [sum(bits) for bits in zip(*rows)] == [0, 4, 0]
        assert system.exact_bucket_counts(query_id) == [0, 4, 0]
    finally:
        system.close()
