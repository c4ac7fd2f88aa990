"""The staged epoch engine: registry, driver configs, stage metrics.

One :class:`StagedEpochEngine` runs every parallel epoch; its behavior is
chosen by a (scheduling, transport) driver combination.  These tests pin
its contracts:

* the driver registry accepts exactly its four combinations and names
  every other pair an unknown executor;
* ``make_executor("scheduling/transport")`` is the only way to name a
  parallel runtime and always returns a plain engine — removed names and
  removed options raise;
* the engine emits one :class:`StageMetrics` per epoch — stage wall-clock,
  wire bytes, deadline late-drops;
* ``pinned-worker`` × ``sealed-tcp-remote`` (resident workers launched
  separately, over the sealed TCP transport) satisfies the
  seeded-equivalence contract against serial.
"""

from __future__ import annotations

import random
import threading

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
from repro.runtime import (
    DRIVER_COMBOS,
    DRIVER_SPELLINGS,
    EXECUTOR_KINDS,
    OverlapThreadDriver,
    RemoteWorkerServer,
    SerialExecutor,
    StageMetrics,
    StagedEpochEngine,
    cli_smoke_matrix,
    make_executor,
    run_scenario,
    validate_driver_combo,
)
from repro.runtime.executor import _driver_factories
from repro.runtime.scenario import ScenarioSpec
from repro.sqldb import ParseError

SEED = 20260808
KEY = bytes.fromhex("cc" * 32)
#: The drivers that answer in the coordinator's process: the ones the
#: epoch's late set reaches.
IN_PROCESS_EXECUTORS = [
    f"{scheduling}/{transport}"
    for scheduling, transport in DRIVER_COMBOS
    if transport == "in-process"
]
#: ``pipelined-overlap/in-process`` once more, with every emit held back to the
#: end of the epoch and replayed in reverse shard order (``reversed_emits``,
#: conftest.py).
REVERSED_IN_PROCESS = pytest.param(
    "pipelined-overlap/in-process",
    marks=pytest.mark.reversed_emits,
    id="pipelined-overlap/in-process+reversed-emits",
)


# -- registry ----------------------------------------------------------------


class TestDriverRegistry:
    def test_every_registered_combo_validates(self):
        for scheduling, transport in DRIVER_COMBOS:
            assert validate_driver_combo(scheduling, transport) == (
                scheduling,
                transport,
            )

    @pytest.mark.parametrize(
        "scheduling,transport",
        [
            ("fiber", "in-process"),
            ("inline", "carrier-pigeon"),
            ("inline", "framed-wire-local"),
            ("inline", "sealed-tcp-remote"),
            ("pinned-worker", "in-process"),
            ("pipelined-overlap", "framed-wire-local"),
            ("pipelined-overlap", "sealed-tcp-remote"),
        ],
    )
    def test_unregistered_pairs_are_unknown_executors(self, scheduling, transport):
        """Any pair not in DRIVER_COMBOS — an unknown axis value or a known
        one in a combination no driver implements — is an unknown executor,
        and the error lists the names that exist."""
        with pytest.raises(ValueError, match="unknown executor") as excinfo:
            validate_driver_combo(scheduling, transport)
        assert f"{scheduling}/{transport}" in str(excinfo.value)
        assert str(EXECUTOR_KINDS) in str(excinfo.value)

    def test_spellings_are_exactly_the_canonical_forms(self):
        assert DRIVER_SPELLINGS == {f"{s}/{t}": (s, t) for s, t in DRIVER_COMBOS}
        assert "serial" not in DRIVER_SPELLINGS  # the frozen reference

    def test_executor_kinds_are_serial_plus_the_combos(self):
        assert EXECUTOR_KINDS == ("serial",) + tuple(
            f"{s}/{t}" for s, t in DRIVER_COMBOS
        )

    def test_smoke_matrix_is_single_host_only(self):
        matrix = cli_smoke_matrix()
        assert matrix[0] == "serial"
        assert all(name in EXECUTOR_KINDS for name in matrix)
        assert not any("sealed-tcp-remote" in name for name in matrix)
        # Every locally runnable combo is covered.
        assert len(matrix) == 1 + sum(
            1 for _, t in DRIVER_COMBOS if t != "sealed-tcp-remote"
        )


# -- make_executor driver mapping -------------------------------------------

class TestMakeExecutorDriverMapping:
    def test_every_combo_has_exactly_one_factory(self):
        assert set(_driver_factories()) == set(DRIVER_COMBOS)

    @pytest.mark.parametrize("combo", DRIVER_COMBOS, ids="/".join)
    def test_every_spelling_builds_a_plain_engine(self, combo, tmp_path):
        kwargs = {}
        if combo[1] == "sealed-tcp-remote":
            # Connections are opened on first use, so no server is needed.
            kwargs = dict(
                remote_workers=["127.0.0.1:1", "127.0.0.1:2"],
                key_file=write_key_file(tmp_path),
            )
        executor = make_executor("/".join(combo), workers=2, shards=3, **kwargs)
        try:
            assert type(executor) is StagedEpochEngine
            assert (executor.scheduling, executor.transport) == combo
            assert (executor.num_workers, executor.num_shards) == (2, 3)
        finally:
            executor.close()

    def test_serial_stays_engine_free(self):
        assert type(make_executor("serial")) is SerialExecutor

    def test_sealed_tcp_spelling_requires_addresses(self):
        with pytest.raises(ValueError, match="remote worker addresses"):
            make_executor("pinned-worker/sealed-tcp-remote")


class TestRemovedNamesAndOptions:
    """The pre-engine executor names and the knobs that only told them
    apart are gone: no alias, no deprecation path — they raise."""

    @pytest.mark.parametrize(
        "name",
        [
            "sharded",
            "pipelined",
            "process",
            "thread-pool/in-process",
            "thread-pool/framed-wire-local",
            "pipelined-overlap/framed-wire-local",
            "pipelined-overlap/sealed-tcp-remote",
        ],
    )
    def test_legacy_names_raise_everywhere(self, name):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor(name)
        with pytest.raises(ValueError, match="unknown executor"):
            SystemConfig(num_clients=4, executor=name)
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--executor", name])

    @pytest.mark.parametrize("kwarg", ["pool", "resident", "adaptive"])
    def test_make_executor_refuses_removed_kwargs(self, kwarg):
        with pytest.raises(TypeError):
            make_executor("inline/in-process", **{kwarg: True})

    @pytest.mark.parametrize("kwarg", ["adaptive", "queue_depth"])
    def test_engine_refuses_removed_kwargs(self, kwarg):
        with pytest.raises(TypeError):
            StagedEpochEngine(OverlapThreadDriver(), **{kwarg: 2})

    def test_run_scenario_refuses_the_resident_kwarg(self):
        with pytest.raises(TypeError):
            run_scenario(ScenarioSpec(name="x", seed=1), resident=True)


# -- stage metrics -----------------------------------------------------------


def build_system(
    executor: str,
    num_clients: int = 16,
    sql: str = "SELECT value FROM private_data",
    sampling_fraction: float = 1.0,
    **config_kwargs,
):
    config = SystemConfig(
        num_clients=num_clients,
        seed=SEED,
        executor=executor,
        executor_workers=2,
        executor_shards=4,
        **config_kwargs,
    )
    system = PrivApproxSystem(config)
    rng = random.Random(SEED)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": rng.uniform(0.0, 8.0)}]
    )
    analyst = Analyst("engine-metrics")
    query = analyst.create_query(
        sql,
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True),
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
        parameters=ExecutionParameters(sampling_fraction=sampling_fraction, p=0.9, q=0.5),
    )
    return system, query.query_id


class TestNoPerAnswerObjects:
    """A count guard, not a timer: an engine epoch moves every real answer
    as a block, from the client's row to the window's counts."""

    @pytest.mark.parametrize("executor", [e for e in cli_smoke_matrix() if e != "serial"])
    def test_an_engine_epoch_builds_no_per_answer_object(self, executor, monkeypatch):
        from repro.core.client import ClientResponse
        from repro.core.encryption import EncryptedAnswer
        from repro.core.query import QueryAnswer
        from repro.crypto.xor import MessageShare

        built: dict[str, int] = {}

        def counting(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built[cls.__name__] = built.get(cls.__name__, 0) + 1
                init(self, *args, **kwargs)

            return counted

        system, query_id = build_system(executor)
        try:
            # Late clients too: the in-process drivers skip their rows, the
            # pinned-worker gate slices them out of the acked block.
            system.late_clients = frozenset(
                client.config.client_id for client in system.clients[::4]
            )
            for cls in (MessageShare, EncryptedAnswer, ClientResponse, QueryAnswer):
                monkeypatch.setattr(cls, "__init__", counting(cls))
            report = system.run_epoch(query_id, 0)
        finally:
            system.close()
        assert report.num_participants == 12 and len(report.late_drops) == 4
        assert system.aggregator_for(query_id).answers_processed == 12
        assert built == {}

    @pytest.mark.parametrize("num_clients", [1, 7, 50])
    def test_each_block_randomizes_and_builds_its_prefix_once(self, num_clients, monkeypatch):
        """Steps II-III run once per non-empty block, whatever its row count:
        one ``randomize_vector`` call and one header prefix.  A per-row path
        would count one per participant."""
        from repro.core.encryption import AnswerCodec
        from repro.core.randomized_response import RandomizedResponder
        from repro.runtime import answer_shard

        system, query_id = build_system("serial", num_clients=num_clients, sampling_fraction=0.6)
        system.close()
        calls = {"randomize_vector": 0, "prefix": 0}
        randomize_vector, prefix = RandomizedResponder.randomize_vector, AnswerCodec.prefix

        def counting_randomize(self, *args, **kwargs):
            calls["randomize_vector"] += 1
            return randomize_vector(self, *args, **kwargs)

        def counting_prefix(*args, **kwargs):
            calls["prefix"] += 1
            return prefix(*args, **kwargs)

        monkeypatch.setattr(RandomizedResponder, "randomize_vector", counting_randomize)
        monkeypatch.setattr(AnswerCodec, "prefix", staticmethod(counting_prefix))
        late = frozenset(client.config.client_id for client in system.clients[1::3])
        blocks = []
        for epoch in range(4):
            blocks += answer_shard(system.clients, [query_id], epoch, late=late)
        built = sum(1 for block in blocks if len(block))
        assert built > 0
        if num_clients > 1:
            assert max(len(block) for block in blocks) > 1
        assert calls == {"randomize_vector": built, "prefix": built}

    def test_serial_randomizes_once_per_query(self, monkeypatch):
        """Serial builds its one block per query with one call, over the
        on-time participants only (a late participant is never built)."""
        from repro.core.randomized_response import RandomizedResponder

        calls = []
        randomize_vector = RandomizedResponder.randomize_vector

        def counting(self, truthful_bits, draws=None):
            calls.append(len(draws))
            return randomize_vector(self, truthful_bits, draws)

        system, query_id = build_system("serial")
        try:
            system.late_clients = frozenset(
                client.config.client_id for client in system.clients[::4]
            )
            monkeypatch.setattr(RandomizedResponder, "randomize_vector", counting)
            report = system.run_epoch(query_id, 0)
        finally:
            system.close()
        assert len(report.late_drops) == 4
        assert calls == [report.num_participants] == [12]


class TestOneArenaSyncPerShard:
    """The shard answer pass syncs its arena once, before its first ask,
    however many statements it asks: client SQL only reads, so nothing
    changes a member's tables within the pass."""

    def test_each_answer_pass_syncs_the_arena_once(self, monkeypatch):
        import dataclasses

        from repro.runtime import answer_shard
        from repro.sqldb import ShardArena
        from repro.sqldb.columnar import ArenaTable

        system, query_id = build_system("serial", num_clients=8)
        system.close()
        clients = system.clients
        query, parameters = clients[0].subscriptions[query_id]
        query_ids = [query_id]
        for index, where in enumerate(("value > 2.0", "value < 6.0")):
            other = dataclasses.replace(
                query, query_id=f"{query_id}-{index}", sql=f"{query.sql} WHERE {where}"
            )
            for client in clients:
                client.subscribe(other, parameters)
            query_ids.append(other.query_id)
        arena = ShardArena([client.database for client in clients])
        syncs = []
        sync = ArenaTable.sync

        def counting_sync(self):
            syncs.append(self.name)
            sync(self)

        monkeypatch.setattr(ArenaTable, "sync", counting_sync)
        rows = random.Random(SEED)
        for epoch in range(4):
            syncs.clear()
            blocks = answer_shard(clients, query_ids, epoch, arena=arena)
            # The first pass builds the table; every later one syncs it once.
            assert syncs == ([] if epoch == 0 else ["private_data"])
            # ...and still sees every row appended before the pass.
            alone = answer_shard(clients, query_ids, epoch)
            assert [
                (b.client_ids, b.truthful_bits, b.randomized_bits, b.payloads) for b in blocks
            ] == [(b.client_ids, b.truthful_bits, b.randomized_bits, b.payloads) for b in alone]
            for client in clients[::3]:
                client.ingest([{"value": rows.uniform(0.0, 8.0)}])


def _two_raising_statements(executor: str, late: bool):
    """A deployment whose two queries' statements raise for different
    clients of one shard (clients 4-7 of 16 in 4 shards): the first query's
    for client 7, the second's for client 5."""
    system, first = build_system(
        executor, sql="SELECT value FROM private_data WHERE value < 15.0 OR value >= 'x'"
    )
    analyst = Analyst("engine-errors")
    query = analyst.create_query(
        "SELECT value FROM private_data WHERE value < 9.0 OR value > 15.0 OR value <= 'x'",
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True), value_column="value"
        ),
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
    system.clients[5].database.table("private_data").append_rows([(10.0,)])
    system.clients[7].database.table("private_data").append_rows([(20.0,)])
    if late:
        system.late_clients = frozenset({"client-000005", "client-000007"})
    return system, (first, query.query_id)


class TestErrorOrder:
    """Every participant's SQL outcome is read before any block is built,
    client by client, so the first ``(client, query)`` that raises under
    serial raises on every executor — late participants included, since
    they still read their outcome."""

    def test_the_statements_raise_for_different_clients(self):
        system, (first, second) = _two_raising_statements("serial", late=False)
        system.close()
        with pytest.raises(TypeError, match="'>='"):
            system.clients[7].answer([first, second])
        with pytest.raises(TypeError, match="'<='"):
            system.clients[5].answer([first, second])

    @pytest.mark.parametrize("late", [False, True], ids=["on-time", "late"])
    @pytest.mark.parametrize("executor", cli_smoke_matrix())
    def test_every_executor_raises_what_serial_raises(self, executor, late):
        raised = {}
        for name in ("serial", executor):
            system, _ = _two_raising_statements(name, late)
            try:
                with pytest.raises(Exception) as error:
                    system.run_epoch_all(0)
            finally:
                system.close()
            raised[name] = error.value
        expected, got = raised["serial"], raised[executor]
        assert isinstance(expected, TypeError) and "'<='" in str(expected)
        # A pinned worker's error comes back as "TypeError: <message>".
        assert type(got) is TypeError or str(got).startswith("TypeError: ")
        assert str(expected) in str(got)


class TestAnalystSqlIsReadOnly:
    """A client runs the analyst's signed SQL against its private tables.
    A statement outside the client dialect — a write, or an aggregate no
    client answer reads — fails the epoch on every executor as it does
    under serial, and no client's tables change: the SQL is parsed as the
    dialect's SELECT before any table is touched."""

    @pytest.mark.parametrize(
        "sql, refusal",
        [
            ("DELETE FROM private_data", "unsupported statement"),
            ("DROP TABLE private_data", "unsupported statement"),
            ("INSERT INTO private_data VALUES (9.0)", "unsupported statement"),
            ("SELECT COUNT(*) FROM private_data", "aggregate COUNT() is not supported"),
        ],
        ids=["delete", "drop", "insert", "aggregate"],
    )
    @pytest.mark.parametrize("executor", cli_smoke_matrix())
    def test_a_write_raises_what_serial_raises_and_changes_no_table(
        self, executor, sql, refusal
    ):
        raised = {}
        for name in ("serial", executor):
            system, _ = build_system(name, num_clients=4, sql=sql)
            for client in system.clients:
                client.database.insert_rows("private_data", [{"value": 1.0}])
            tables = [client.database.table_names() for client in system.clients]
            try:
                with pytest.raises(Exception) as error:
                    system.run_epoch_all(0)
            finally:
                system.close()
            assert [client.database.table_names() for client in system.clients] == tables
            assert [client.local_row_count() for client in system.clients] == [2, 2, 2, 2]
            raised[name] = error.value
        expected, got = raised["serial"], raised[executor]
        assert isinstance(expected, ParseError) and refusal in str(expected)
        # A pinned worker's error comes back as "ParseError: <message>".
        assert type(got) is ParseError or str(got).startswith("ParseError: ")
        assert str(expected) in str(got)


class TestStageMetrics:
    def test_accumulators_are_thread_safe(self):
        metrics = StageMetrics(epoch=0)

        def hammer():
            for _ in range(1000):
                metrics.add_wire_bytes(1)
                metrics.add_late_drops(1)
                metrics.add_stage_seconds("transmit", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.wire_bytes == 4000
        assert metrics.late_drops == 4000
        assert metrics.transmit_seconds == pytest.approx(4.0)

    @pytest.mark.parametrize("executor", [*IN_PROCESS_EXECUTORS, REVERSED_IN_PROCESS])
    def test_in_process_epochs_record_stages_without_wire(self, executor):
        system, query_id = build_system(executor)
        try:
            for epoch in range(2):
                system.run_epoch(query_id, epoch)
            metrics = system.executor.stage_metrics
            assert sorted(metrics) == [0, 1]
            for epoch, m in metrics.items():
                assert m.epoch == epoch
                assert m.answer_seconds > 0.0
                assert m.plan_seconds >= 0.0
                assert m.transmit_seconds >= 0.0
                assert m.ingest_seconds >= 0.0
                assert m.wire_bytes == 0  # nothing crossed a process border
                assert m.late_drops == 0
            assert system.executor.epoch_wire_bytes == {0: 0, 1: 0}
        finally:
            system.close()

    def test_wire_transport_epochs_account_every_frame(self):
        system, query_id = build_system("pinned-worker/framed-wire-local")
        try:
            system.run_epoch(query_id, 0)
            metrics = system.executor.stage_metrics[0]
            assert metrics.wire_bytes > 0
            # The per-epoch ledger is a view over the unified metrics.
            assert system.executor.epoch_wire_bytes == {0: metrics.wire_bytes}
        finally:
            system.close()

    def test_pinned_worker_engine_reports_its_frame_counters(self):
        """benchmarks/epoch_profile reads these off the engine with
        ``getattr(..., 0)``: losing them would silently zero
        ``runtime.affinity.*``."""
        system, query_id = build_system("pinned-worker/framed-wire-local")
        try:
            system.run_epoch(query_id, 0)
            assert system.executor.bootstrap_frames == 4  # one per shard
            assert system.executor.delta_frames == 0
            system.run_epoch(query_id, 1)
            assert system.executor.bootstrap_frames == 4
            assert system.executor.delta_frames == 4
        finally:
            system.close()
        stateless, query_id = build_system("pipelined-overlap/in-process")
        try:
            stateless.run_epoch(query_id, 0)
            assert stateless.executor.bootstrap_frames == 0
            assert stateless.executor.delta_frames == 0
        finally:
            stateless.close()

    def test_deadline_gate_records_late_drops_in_metrics(self):
        """The engine's single transmit-boundary gate feeds the metrics: the
        per-epoch late-drop count equals what the epoch report says."""
        system, query_id = build_system("pipelined-overlap/in-process")
        try:
            late = frozenset(
                client.config.client_id for client in system.clients[::2]
            )
            system.late_clients = late
            report = system.run_epoch(query_id, 0)
            dropped = len(report.late_drops)
            assert dropped == len(late)
            assert system.executor.stage_metrics[0].late_drops == dropped
        finally:
            system.close()

    @pytest.mark.parametrize("executor", ["serial", "inline/in-process"])
    def test_a_late_client_whose_statement_raises_still_fails_the_epoch(self, executor):
        """A known-late client flips only its coin instead of building, but
        it still reads its SQL outcome: what raises under serial raises
        here."""
        system, query_id = build_system(
            executor, sql="SELECT value FROM private_data WHERE value >= 0.0"
        )
        try:
            victim = system.clients[5]
            victim.database.table("private_data").append_rows([("not a number",)])
            system.late_clients = frozenset({victim.config.client_id})
            with pytest.raises(TypeError, match="not supported between"):
                system.run_epoch(query_id, 0)
        finally:
            system.close()

    @pytest.mark.parametrize("executor", cli_smoke_matrix())
    def test_coins_flipped_in_the_coordinator(self, executor, monkeypatch):
        """What the epoch profile's ``core.sampling.coin_calls`` counts:
        ``SimpleRandomSampler.should_participate`` calls in the coordinator's
        process.  Answering in process flips exactly one coin per subscribed
        (client, query) per epoch — a late client too, an unsubscribed one
        never; the pinned-worker coordinator flips none (its workers do)."""
        from repro.core.sampling import SimpleRandomSampler

        calls = []
        coin = SimpleRandomSampler.should_participate

        def counting_coin(self, uniform=None):
            calls.append(uniform)
            return coin(self, uniform)

        monkeypatch.setattr(SimpleRandomSampler, "should_participate", counting_coin)
        system, query_id = build_system(executor)
        try:
            system.set_active_clients(range(12))
            system.late_clients = frozenset(
                client.config.client_id for client in system.clients[::3]
            )
            for epoch in range(3):
                system.run_epoch(query_id, epoch)
        finally:
            system.close()
        in_coordinator = not executor.startswith("pinned-worker/")
        assert len(calls) == (12 * 3 if in_coordinator else 0)

    @pytest.mark.parametrize("executor", IN_PROCESS_EXECUTORS)
    def test_the_arena_is_asked_only_for_participants(self, executor, monkeypatch):
        """Coins first: each shard asks the arena for exactly the members whose
        coin participates, late ones included (they still read their SQL
        outcome), and nobody else's answer is finished — what the profile's
        ``sqldb.engine.result_use_ratio`` of 1.0 reads."""
        from repro.runtime import engine
        from repro.sqldb import ARENA_FALLBACK

        asked = []
        select = engine.arena_select_per_client

        def recording(arena, sql, slots=None):
            outcomes = select(arena, sql, slots)
            asked.append((arena.databases, list(slots), outcomes))
            return outcomes

        monkeypatch.setattr(engine, "arena_select_per_client", recording)
        system, query_id = build_system(
            executor,
            num_clients=24,
            sql="SELECT value FROM private_data WHERE value > 2.0",
            sampling_fraction=0.5,
        )
        owner = {id(client.database): client for client in system.clients}
        try:
            system.late_clients = frozenset(
                client.config.client_id for client in system.clients[::3]
            )
            for epoch in range(3):
                asked.clear()
                system.run_epoch(query_id, epoch)
                seen = set()
                for databases, slots, outcomes in asked:
                    members = [owner[id(db)] for db in databases]
                    assert slots == [
                        slot
                        for slot, client in enumerate(members)
                        if client.flip_coins([query_id], epoch)[0] is not None
                    ]
                    assert [o is ARENA_FALLBACK for o in outcomes] == [
                        slot not in slots for slot in range(len(members))
                    ]
                    seen.update(members[slot].config.client_id for slot in slots)
                participants = {
                    client.config.client_id
                    for client in system.clients
                    if client.flip_coins([query_id], epoch)[0] is not None
                }
                assert seen == participants
                assert 0 < len(participants) < 24
                assert participants & system.late_clients
        finally:
            system.close()

    @pytest.mark.parametrize(
        "combo", sorted(f"{s}/{t}" for s, t in DRIVER_COMBOS)
    )
    def test_stage_seconds_never_negative(self, combo, tmp_path):
        """Ledger invariant for every registered driver combination: no stage
        wall-clock may ever be negative.  Regression for answer_seconds once
        being derived by subtracting independently measured transmit_seconds from a
        shared span, which could dip below zero and corrupt the ledger."""
        servers = []
        kwargs = {}
        if combo.endswith("/sealed-tcp-remote"):
            servers = [start_server(), start_server()]
            kwargs = dict(
                executor_remote_workers=tuple(
                    f"{server.address[0]}:{server.address[1]}" for server in servers
                ),
                executor_key_file=write_key_file(tmp_path),
            )
        system, query_id = build_system(combo, **kwargs)
        try:
            for epoch in range(2):
                system.run_epoch(query_id, epoch)
            assert sorted(system.executor.stage_metrics) == [0, 1]
            for metrics in system.executor.stage_metrics.values():
                for stage in ("plan", "answer", "transmit", "ingest", "finalize"):
                    seconds = getattr(metrics, f"{stage}_seconds")
                    assert seconds >= 0.0, (combo, stage, seconds)
        finally:
            system.close()
            for server in servers:
                server.stop()

    @pytest.mark.parametrize("executor", IN_PROCESS_EXECUTORS)
    def test_non_adaptive_engines_never_reshard(self, executor):
        """Boundaries are static on every engine, so the re-shard counter
        the epoch profile still reads stays at zero."""
        system, query_id = build_system(executor)
        try:
            for epoch in range(3):
                system.run_epoch(query_id, epoch)
            assert all(
                m.reshard_events == 0
                for m in system.executor.stage_metrics.values()
            )
        finally:
            system.close()


# -- resident workers over the sealed transport -------------------------------


def start_server() -> RemoteWorkerServer:
    server = RemoteWorkerServer("127.0.0.1", 0, KEY)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def write_key_file(tmp_path) -> str:
    path = tmp_path / "engine.keys"
    path.write_text(KEY.hex() + "\n")
    return str(path)


class TestSealedTcpCombo:
    """``pinned-worker`` × ``sealed-tcp-remote``: bootstrap and delta frames
    out to separately launched workers, acks collected as they arrive — and
    it must still match serial byte-for-byte under churn."""

    def test_scenario_digest_matches_serial(self, tmp_path):
        servers = [start_server(), start_server()]
        try:
            spec = ScenarioSpec(
                name="engine-sealed-remote",
                seed=513,
                num_clients=14,
                num_epochs=2,
                initial_active_fraction=0.9,
                join_rate=0.1,
                leave_rate=0.1,
            )
            serial = run_scenario(spec, executor="serial")
            remote = run_scenario(
                spec,
                executor="pinned-worker/sealed-tcp-remote",
                remote_workers=[
                    f"{server.address[0]}:{server.address[1]}" for server in servers
                ],
                key_file=write_key_file(tmp_path),
            )
            assert remote.digest == serial.digest
            assert remote.total_wire_bytes > 0
        finally:
            for server in servers:
                server.stop()


# -- the benchmark harness's patch points --------------------------------------


def _epoch_profile_tracer():
    """``benchmarks/epoch_profile/tracer.py`` loaded read-only by path, or a
    skip when the harness is not checked out beside the tests."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "benchmarks/epoch_profile/tracer.py"
    if not path.is_file():
        pytest.skip("benchmarks/epoch_profile/ is absent")
    spec = importlib.util.spec_from_file_location("_epoch_profile_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_still_resolves():
    """The profile patches ~40 functions *by name*; a rename or move used to
    surface only as a ``KeyError`` in CI's traced smoke.  Also pins the shape
    ``sqldb.engine.arena_select`` counts: a list aligned with the arena's
    databases whose fallback entries are the ``ARENA_FALLBACK`` object."""
    from repro.runtime import engine
    from repro.sqldb import ARENA_FALLBACK, Database, ShardArena

    tracer = _epoch_profile_tracer()
    table = tracer.patch_table()
    for owner, attribute, _ in table:
        assert callable(vars(owner)[attribute]), (owner, attribute)
    patched = {(getattr(owner, "__name__", ""), attribute) for owner, attribute, _ in table}
    assert ("repro.runtime.engine", "arena_select_per_client") in patched
    assert ("CompiledSelect", "matching_ids_per_client") in patched

    members = []
    for rows in ([(1.0,), (3.0,)], None, []):
        db = Database()
        if rows is not None:  # the middle member has no table: the arena's fallback
            db.create_table("t", [("x", "REAL")])
            db.table("t").append_rows(rows)
        members.append(db)
    arena = ShardArena(members)
    outcomes = engine.arena_select_per_client(arena, "SELECT x FROM t WHERE x > 0.5")
    assert isinstance(outcomes, list) and len(outcomes) == len(arena.databases)
    assert [outcome is ARENA_FALLBACK for outcome in outcomes] == [False, True, False]
