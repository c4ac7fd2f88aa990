"""Shared pytest fixtures for the PrivApprox reproduction test suite."""

from __future__ import annotations

import contextlib
import random
from unittest import mock

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
from repro.core.client import ResponseBlock
from repro.core.encryption import AnswerCodec
from repro.crypto.prng import secure_random_bytes
from repro.crypto.xor import MID_BYTES, split_columns

# -- answers and blocks outside a deployment ------------------------------------


def answer_one(client, query_id: str, epoch: int = 0, scan_cache=None):
    """``client``'s answer to one query as a :class:`ClientResponse`, or
    ``None`` for a non-participant: the one-row case of the block builder."""
    (entry,) = client.answer([query_id], epoch=epoch, scan_cache=scan_cache)
    if entry is None:
        return None
    block = ResponseBlock.build(query_id, epoch, [(client, entry)], client.config.num_proxies)
    return block.response(0)


def forge_block(query_id: str, epoch: int, rows, num_proxies: int = 2) -> ResponseBlock:
    """A block of arbitrary rows ``(client id, truthful bits, randomized
    bits, message, pad keys)``, which no client would build: the dataclass,
    with its 0/1 bit rows packed into the block's columns by the codec's
    packer, its payloads from :func:`split_columns` and fresh random
    ``MID`` s.  Every message must have one width and ``num_proxies - 1``
    keys."""
    if not rows:
        return ResponseBlock.build(query_id, epoch, [], num_proxies)
    client_ids, truthful, randomized, messages, keys = zip(*rows)
    num_bits = len(randomized[0])
    return ResponseBlock(
        query_id=query_id,
        epoch=epoch,
        client_ids=client_ids,
        message_ids=secure_random_bytes(MID_BYTES * len(rows)),
        num_bits=num_bits,
        truthful_bits=AnswerCodec._pack_bits(b"".join(map(bytes, truthful)), num_bits),
        randomized_bits=AnswerCodec._pack_bits(b"".join(map(bytes, randomized)), num_bits),
        width=len(messages[0]),
        payloads=tuple(
            split_columns(
                b"".join(messages),
                [b"".join(row[position] for row in keys) for position in range(num_proxies - 1)],
            )
        ),
    )


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded RNG for reproducible tests."""
    return random.Random(1234)


@pytest.fixture
def speed_buckets() -> RangeBuckets:
    """The paper's driving-speed example: 12 buckets on speed."""
    return RangeBuckets(
        boundaries=(0.0, 1.0, 11.0, 21.0, 31.0, 41.0, 51.0, 61.0, 71.0, 81.0, 91.0, 101.0),
        open_ended=True,
    )


@pytest.fixture
def small_system() -> tuple[PrivApproxSystem, Analyst, str]:
    """A tiny provisioned deployment with one submitted query.

    Returns (system, analyst, query_id).  Clients store a single ``speed``
    reading; the query buckets the speed into four ranges.
    """
    config = SystemConfig(num_clients=40, num_proxies=2, seed=99)
    system = PrivApproxSystem(config)
    generator = random.Random(42)

    def data_for_client(index: int):
        return [{"speed": generator.uniform(0.0, 80.0), "location": "San Francisco"}]

    system.provision_clients(
        columns=[("speed", "REAL"), ("location", "TEXT")],
        data_for_client=data_for_client,
    )
    analyst = Analyst(analyst_id="test-analyst")
    query = analyst.create_query(
        sql="SELECT speed FROM private_data WHERE location = 'San Francisco'",
        answer_spec=AnswerSpec(
            buckets=RangeBuckets(boundaries=(0.0, 20.0, 40.0, 60.0), open_ended=True),
            value_column="speed",
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )
    budget = QueryBudget(target_accuracy_loss=0.1, expected_clients=config.num_clients)
    system.submit_query(
        analyst,
        query,
        budget,
        parameters=ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.6),
    )
    return system, analyst, query.query_id


# -- the latest-row answer pass: one statement per plan shape ------------------
#
# Shared by tests/sqldb/test_latest_row.py (arena outcome ≡ row-scan
# ``rows[-1:]``) and tests/runtime/test_torture.py (``answer_shard`` with an
# arena ≡ without).  ``route`` is how ``arena_select_per_client`` gets to a
# member's last matching row:
#
# * ``standing`` — every statement of the dialect (``SELECT cols | * FROM t
#   [WHERE pred]``) whose projected names the schema holds, in any case: the
#   arena table's standing answer, kept by one matching pass per ask (the
#   first from row 0 through the probe, later ones over only the rows
#   appended since);
# * ``fallback`` — a projected name the schema lacks: no plan compiles, the
#   arena answers ``None`` and every member's row scan raises its
#   ``SchemaError``.

LATEST_ROW_COLUMNS = [("value", "REAL"), ("zone", "INTEGER"), ("tag", "TEXT")]

_T = "FROM private_data"
LATEST_ROW_STATEMENTS = (
    # (sql, CompiledSelect.describe() or None when nothing compiles, route)
    (f"SELECT value {_T}", "all", "standing"),
    (f"SELECT value {_T} WHERE zone = 1", "probe-eq(zone)", "standing"),
    (f"SELECT value {_T} WHERE zone IN (1, 2)", "probe-in(zone)", "standing"),
    (f"SELECT value {_T} WHERE value > 2.0", "probe-range(value)", "standing"),
    (
        f"SELECT value {_T} WHERE value BETWEEN 1.0 AND 3.0",
        "probe-range(value)",
        "standing",
    ),
    (
        f"SELECT value {_T} WHERE zone IN (1, 2) AND value < 1.0",
        "probe-in(zone)+residual",
        "standing",
    ),
    (
        f"SELECT value {_T} WHERE zone = 1 AND value BETWEEN 0.5 AND 4.0"
        " AND tag IN ('a', 'b')",
        "probe-eq(zone)+residual",
        "standing",
    ),
    (
        f"SELECT value {_T} WHERE zone = 1 AND value != 2.0",
        "probe-eq(zone)+residual",
        "standing",
    ),
    (
        f"SELECT value {_T} WHERE zone = 1 AND tag LIKE 'a%'",
        "probe-eq(zone)+residual",
        "standing",
    ),
    # Raises only where a zone-1 row with value <= 3.0 holds a non-NULL tag —
    # and that member's *last* zone-1 row matches, so an early exit would
    # return a row where the reference raises.
    (
        f"SELECT value {_T} WHERE zone = 1 AND (value > 3.0 OR tag < 5)",
        "probe-eq(zone)+residual",
        "standing",
    ),
    (
        f"SELECT value {_T} WHERE zone = 1 AND tag < 5",
        "probe-eq(zone)+residual",
        "standing",
    ),
    (
        f"SELECT value {_T} WHERE zone = 1 AND nope = 1",
        "probe-eq(zone)+residual",
        "standing",
    ),
    (f"SELECT value {_T} WHERE value != 2.0", "residual", "standing"),
    (f"SELECT value {_T} WHERE tag < 5", "residual", "standing"),
    (
        f"SELECT value {_T} WHERE value > 3.0 OR tag < 5",
        "residual",
        "standing",
    ),
    (f"SELECT * {_T} WHERE zone = 1", "probe-eq(zone)", "standing"),
    (f"SELECT value AS v, zone {_T} WHERE zone = 1", "probe-eq(zone)", "standing"),
    # value_column ("value") absent from the projection: the client reads row[0].
    (f"SELECT zone, tag {_T} WHERE value > 2.0", "probe-range(value)", "standing"),
    # Case-twisted projection: resolved case-insensitively, as WHERE's names
    # and SQLite's are, it answers every member like ``SELECT value``, under
    # the name as written.
    (f"SELECT Value {_T} WHERE zone = 1", "probe-eq(zone)", "standing"),
    # Unknown projection: SchemaError for every member, matched or not.
    (f"SELECT nope {_T} WHERE zone = 1", None, "fallback"),
)

# One shard's members, by name: (value, zone, tag) rows in insertion order.
# No member's last row is the answer to every statement, and the members
# differ in which statements match, raise, or come back empty.
LATEST_ROW_MEMBERS = {
    # Tags all NULL: no ordering on ``tag`` can raise here.
    "plain": [
        (0.5, 1, None),
        (4.5, 3, None),
        (0.7, 2, None),
        (2.5, 1, None),
        (0.2, 2, None),
        (6.0, 1, None),
        (3.5, 4, None),
        (5.0, 2, None),
        (1.0, 6, None),
    ],
    # Row 0 makes ``tag < 5`` raise; the later zone-1 rows match ``value > 3.0``.
    "text-tag": [
        (1.0, 1, "a"),
        (5.0, 1, "b"),
        (2.0, 2, None),
        (8.0, 1, "abc"),
        (7.0, 3, "zz"),
    ],
    # NULL values demote the arena's REAL vector to a plain list.
    "null-value": [(None, 1, None), (0.3, 2, "q"), (None, 2, None), (2.2, 1, None)],
    "empty": [],
    "no-match": [(9.0, 7, None), (9.5, 7, None)],
    # The only non-NULL tag sits outside zone 1 and before a matching row.
    "late-tag": [(1.0, 1, None), (2.0, 4, "x"), (3.3, 1, None)],
}


@pytest.fixture
def latest_row_cases():
    """``(columns, statements, members)`` of the latest-row route table."""
    return LATEST_ROW_COLUMNS, LATEST_ROW_STATEMENTS, LATEST_ROW_MEMBERS


# -- one failed epoch, at a chosen stage ----------------------------------------
#
# Shared by the failed-epoch contracts in tests/runtime/ (single-query in
# test_pipelined.py, multi-query in test_executor_equivalence.py).  Assumes the
# deployments those tests build: 12 clients in 3 shards of 4, one REAL column.


@contextlib.contextmanager
def _failing_epoch(system, stage, aggregator):
    if stage == "answer":
        # A dropped table travels with the client's state, so the failure also
        # happens inside a wire worker; client 9 sits in the *last* shard, so
        # on ``inline`` every earlier shard is relayed and ingested before it.
        victim = system.clients[9]
        victim.database.drop_table("private_data")
        try:
            yield
        finally:
            victim.create_table([("value", "REAL")])
            victim.ingest([{"value": 1.0}])
    elif stage in ("first-relay", "transmit"):
        # The first relay call fails the first shard emitted, before anything
        # was relayed; the later shards still answer.  The third call fails a
        # single-query epoch's third shard emitted, and a two-query epoch's
        # second shard emitted for its first query, after the first shard
        # went out for both.
        failing_call = 1 if stage == "first-relay" else 3
        publish = system.proxies.transmit_shard
        calls = []

        def fail_one_call(share_rows, channel=None):
            calls.append(channel)
            if len(calls) == failing_call:
                raise RuntimeError(f"injected {stage} fault")
            return publish(share_rows, channel=channel)

        with mock.patch.object(system.proxies, "transmit_shard", fail_one_call):
            yield
    else:
        assert stage == "ingest"
        fault = RuntimeError("injected ingest fault")
        with mock.patch.object(aggregator, "ingest_shares", side_effect=fault):
            yield


@pytest.fixture
def failing_epoch():
    """``with failing_epoch(system, stage, aggregator):`` — epochs run inside
    the block fail at ``stage`` (``"answer"``, ``"first-relay"``, ``"transmit"`` or
    ``"ingest"`` of ``aggregator``); leaving it repairs the deployment."""
    return _failing_epoch


# -- held-back, reversed emits ---------------------------------------------------
#
# The worker drivers (``pipelined-overlap/in-process`` and the
# ``pinned-worker`` spellings) emit each shard as its answer comes back, so the
# order in which the engine gates, relays and ingests shards is whatever the
# scheduler or the workers made it.  A test marked ``reversed_emits`` pins the
# opposite extreme: every emit is held back until the driver's collect has
# seen the epoch's last answer, then replayed in descending shard order.  The
# engine merges its outputs by shard index and ingests shard by shard, so
# nothing a test can observe may change.  The test modules add these cases to
# their driver matrices as ``<spelling>+reversed-emits``.


@pytest.fixture(autouse=True)
def _reversed_emits(request, monkeypatch):
    if request.node.get_closest_marker("reversed_emits") is None:
        yield
        return
    from repro.runtime.affinity import ResidentDriver
    from repro.runtime.engine import OverlapThreadDriver

    collected = []

    def held_back(collect):
        def collect_then_replay_in_reverse(self, handle):
            emit, held = handle.emit, []
            handle.emit = lambda shard_index, *args, **kwargs: held.append(
                (shard_index, args, kwargs)
            )
            try:
                collect(self, handle)
            finally:
                handle.emit = emit
            collected.append(len(held))
            for shard_index, args, kwargs in sorted(
                held, key=lambda item: item[0], reverse=True
            ):
                emit(shard_index, *args, **kwargs)

        return collect_then_replay_in_reverse

    for driver in (OverlapThreadDriver, ResidentDriver):
        monkeypatch.setattr(driver, "collect", held_back(driver.collect))
    yield
    assert collected, "a reversed_emits test never reached a worker driver's collect"


# -- respawned pinned workers ------------------------------------------------------
#
# ``pinned-worker/framed-wire-local`` keeps client state inside its spawned
# workers between epochs.  A test marked ``respawned_workers`` kills every
# pinned worker as soon as each epoch's acks are collected, so every later
# epoch runs the recovery path: a respawned child and a fresh bootstrap from
# the parent's copy, which answering never changes.  Recovery
# must be invisible: nothing a test can observe may change.  The test modules
# add these cases to their driver matrices as ``<spelling>+respawned-workers``.


@pytest.fixture(autouse=True)
def _respawned_workers(request, monkeypatch):
    if request.node.get_closest_marker("respawned_workers") is None:
        yield
        return
    from repro.runtime.affinity import ResidentDriver

    collect = ResidentDriver.collect
    collected = []

    def collect_then_kill_the_workers(self, handle):
        try:
            collect(self, handle)
        finally:
            live = [
                process
                for process in self._router._processes
                if process is not None and process.exitcode is None
            ]
            for process in live:
                process.kill()
                process.join(timeout=5.0)
            collected.append(len(live))

    monkeypatch.setattr(ResidentDriver, "collect", collect_then_kill_the_workers)
    yield
    assert collected, "a respawned_workers test never reached a resident collect"
