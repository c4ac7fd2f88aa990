"""Edge cases and failure handling of ``pipelined-overlap/in-process``.

The equivalence suite (`test_executor_equivalence.py`) pins the overlap
scheduler to the serial reference on ordinary populations; this module covers
the boundaries — an empty client population, fewer clients than shards, one
shard — and the failure contract: an exception in any stage surfaces from
``run_epoch``, but only once every answer task has finished.  The engine-wide
contracts — a failed epoch leaves nothing behind in the shard-topic
consumers, a reused engine rebinds them, a driver that breaks the emit
contract fails the epoch — run over every single-host engine spelling or
over a hand-built driver.
"""

from __future__ import annotations

import threading
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
from repro.core.aggregator import Aggregator
from repro.core.client import Client, ClientConfig
from repro.core.proxy import ProxyNetwork
from repro.runtime import (
    EpochContext,
    InlineDriver,
    SerialExecutor,
    StagedEpochEngine,
    cli_smoke_matrix,
    engine,
    make_executor,
)

PIPELINED = "pipelined-overlap/in-process"
INLINE = "inline/in-process"
#: Every engine spelling that runs on a single host (serial is not an engine).
ENGINE_SPELLINGS = cli_smoke_matrix()[1:]
#: The worker-driver spellings once more, with every emit held back to the
#: end of the epoch and replayed in reverse shard order (``reversed_emits``,
#: conftest.py).
REVERSED_EMITS = [
    pytest.param(
        spelling, marks=pytest.mark.reversed_emits, id=f"{spelling}+reversed-emits"
    )
    for spelling in ENGINE_SPELLINGS
    if not spelling.startswith("inline/")
]
#: The resident spelling once more, with every pinned worker killed after each
#: epoch (``respawned_workers``, conftest.py).
RESIDENT = "pinned-worker/framed-wire-local"
RESPAWNED_WORKERS = pytest.param(
    RESIDENT, marks=pytest.mark.respawned_workers, id=f"{RESIDENT}+respawned-workers"
)
PARAMS = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5)


def make_context(num_clients: int) -> EpochContext:
    """A minimal epoch context wired by hand (no PrivApproxSystem).

    Lets the tests exercise populations PrivApproxSystem refuses (0 clients).
    """
    proxies = ProxyNetwork(num_proxies=2)
    analyst = Analyst("pipeline-edge")
    query = analyst.create_query(
        "SELECT value FROM private_data",
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True),
            value_column="value",
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )
    clients = []
    for index in range(num_clients):
        client = Client(
            ClientConfig(client_id=f"edge-{index:03d}", num_proxies=2, seed=1000 + index)
        )
        client.create_table([("value", "REAL")])
        client.ingest([{"value": float(index % 8)}])
        client.subscribe(query, PARAMS)
        clients.append(client)
    aggregator = Aggregator(
        query=query,
        parameters=PARAMS,
        total_clients=max(1, num_clients),
        num_proxies=2,
    )
    return EpochContext(
        clients=clients,
        proxies=proxies,
        aggregator=aggregator,
        consumers=proxies.make_consumers(group_id="pipeline-edge"),
        query_id=query.query_id,
    )


def make_system(
    num_clients: int = 24, shards: int | None = None, executor: str = PIPELINED
) -> tuple:
    config = SystemConfig(
        num_clients=num_clients,
        seed=99,
        executor=executor,
        executor_workers=2,
        executor_shards=shards,
    )
    system = PrivApproxSystem(config)
    system.provision_clients([("value", "REAL")], lambda i: [{"value": float(i % 8)}])
    analyst = Analyst("pipeline-edge")
    query = analyst.create_query(
        "SELECT value FROM private_data",
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True),
            value_column="value",
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )
    system.submit_query(analyst, query, QueryBudget(), parameters=PARAMS)
    return system, query.query_id


class TestPopulationEdges:
    def test_zero_clients(self):
        """An empty population completes the epoch and produces nothing."""
        executor = make_executor(PIPELINED, workers=2, shards=4)
        try:
            outcome = executor.run_epoch(make_context(0), epoch=0)
        finally:
            executor.close()
        assert outcome.num_participants == 0
        assert outcome.window_results == ()

    def test_zero_clients_matches_serial(self):
        serial = SerialExecutor()
        pipelined = make_executor(PIPELINED, workers=2, shards=3)
        try:
            serial_outcome = serial.run_epoch(make_context(0), epoch=0)
            pipelined_outcome = pipelined.run_epoch(make_context(0), epoch=0)
        finally:
            serial.close()
            pipelined.close()
        assert serial_outcome.responses == pipelined_outcome.responses == ()
        assert serial_outcome.window_results == pipelined_outcome.window_results == ()

    def test_fewer_clients_than_shards(self):
        """Trailing empty shards are simply skipped."""
        executor = make_executor(PIPELINED, workers=2, shards=8)
        try:
            outcome = executor.run_epoch(make_context(3), epoch=0)
        finally:
            executor.close()
        assert outcome.num_participants == 3  # s = 1.0: everyone participates
        assert [r.client_id for r in outcome.responses] == [
            "edge-000",
            "edge-001",
            "edge-002",
        ]

    def test_single_shard(self):
        """One shard degenerates to serial answering but still pipelines."""
        executor = make_executor(PIPELINED, workers=2, shards=1)
        try:
            outcome = executor.run_epoch(make_context(5), epoch=0)
        finally:
            executor.close()
        assert outcome.num_participants == 5
        assert [r.client_id for r in outcome.responses] == [
            f"edge-{i:03d}" for i in range(5)
        ]


class TestFailureSurfacing:
    def test_worker_exception_surfaces(self):
        """A client that blows up mid-answer fails the epoch, promptly."""
        system, query_id = make_system(num_clients=24, shards=4)

        def explode(*args, **kwargs):
            raise RuntimeError("client device on fire")

        system.clients[13].answer_query = explode
        with pytest.raises(RuntimeError, match="client device on fire"):
            system.run_epoch(query_id, 0)
        system.close()

    def test_transmit_exception_surfaces(self):
        system, query_id = make_system(num_clients=12, shards=3)

        def explode(*args, **kwargs):
            raise RuntimeError("proxy link down")

        system.proxies.transmit_shard = explode
        with pytest.raises(RuntimeError, match="proxy link down"):
            system.run_epoch(query_id, 0)
        system.close()

    def test_ingest_exception_surfaces(self):
        system, query_id = make_system(num_clients=12, shards=3)
        aggregator = system.aggregator_for(query_id)

        def explode(*args, **kwargs):
            raise RuntimeError("aggregator out of memory")

        aggregator.ingest_shares = explode
        with pytest.raises(RuntimeError, match="aggregator out of memory"):
            system.run_epoch(query_id, 0)
        system.close()

    @pytest.mark.parametrize("stage", ["answer", "transmit", "ingest"])
    @pytest.mark.parametrize(
        "executor", [*ENGINE_SPELLINGS, *REVERSED_EMITS, RESPAWNED_WORKERS]
    )
    def test_failed_epoch_leaves_no_stale_records(
        self, executor, stage, failing_epoch
    ):
        """Shards relayed but never ingested must not leak into epoch t+1.

        Whatever stage fails, on whichever engine spelling, some shard's
        batch records can be left sitting in the shard-topic consumers (a
        transmit failure on one query's topic strands what was published
        for the queries before it; an ingest failure strands the shard it
        polled); without the failure-path drain they would be polled at the
        next epoch and ingested with the wrong epoch number.
        """
        system, query_id = make_system(num_clients=12, shards=3, executor=executor)
        aggregator = system.aggregator_for(query_id)
        with failing_epoch(system, stage, aggregator):
            with pytest.raises(Exception, match="private_data|injected"):
                system.run_epoch(query_id, 0)
        before = aggregator.shares_received
        report = system.run_epoch(query_id, 1)
        assert report.num_participants == 12
        # Only epoch 1's own shares arrive: 12 participants x 2 proxies.
        assert aggregator.shares_received - before == 12 * 2
        system.close()

    def test_executor_survives_for_the_next_epoch(self):
        """After a failed epoch the pool is intact and can run again."""
        system, query_id = make_system(num_clients=12, shards=3)
        original = system.clients[5].answer_query

        def explode(*args, **kwargs):
            raise RuntimeError("transient fault")

        system.clients[5].answer_query = explode
        with pytest.raises(RuntimeError, match="transient fault"):
            system.run_epoch(query_id, 0)
        system.clients[5].answer_query = original
        report = system.run_epoch(query_id, 1)
        assert report.num_participants == 12
        system.close()

    def test_a_failed_epoch_waits_for_every_answer_task(self):
        """Shard 0 raises while shard 1 is still answering on a pool thread:
        ``run_epoch`` re-raises only after shard 1's task has finished, so no
        task keeps advancing the live clients after the epoch has failed."""
        system, query_id = make_system(num_clients=8, shards=2)
        in_flight, release = threading.Event(), threading.Event()
        finished = []
        blocked = system.clients[4]  # shard 1 = clients 4-7
        answer = blocked.answer

        def explode(*args, **kwargs):
            in_flight.wait(5)
            raise RuntimeError("shard 0 on fire")

        def block(*args, **kwargs):
            in_flight.set()
            release.wait(5)
            finished.append(True)
            return answer(*args, **kwargs)

        system.clients[0].answer = explode
        blocked.answer = block
        raised = []

        def run():
            try:
                system.run_epoch(query_id, 0)
            except RuntimeError as exc:
                raised.append(exc)

        runner = threading.Thread(target=run)
        runner.start()
        try:
            assert in_flight.wait(5)
            runner.join(timeout=0.3)
            assert runner.is_alive(), "run_epoch returned while shard 1 was answering"
        finally:
            release.set()
            runner.join(5)
        assert not runner.is_alive()
        assert finished == [True]
        assert [str(exc) for exc in raised] == ["shard 0 on fire"]
        system.close()

    @pytest.mark.parametrize("stage", ["answer", "gate", "transmit", "ingest"])
    def test_inline_answers_every_shard_once_on_a_failed_epoch(
        self, stage, failing_epoch
    ):
        """Like the pool drivers, ``inline`` keeps answering after a failure,
        so a failed epoch has advanced every occupied shard exactly once."""
        system, query_id = make_system(num_clients=12, shards=3, executor=INLINE)
        aggregator = system.aggregator_for(query_id)
        counted = mock.patch.object(engine, "answer_shard", wraps=engine.answer_shard)
        with counted as answer_shard, failing_epoch(system, stage, aggregator):
            with pytest.raises(Exception, match="private_data|injected"):
                system.run_epoch(query_id, 0)
        answered = [
            [client.config.client_id for client in call.args[0]]
            for call in answer_shard.call_args_list
        ]
        assert answered == [
            [client.config.client_id for client in system.clients[start:start + 4]]
            for start in (0, 4, 8)
        ]
        system.close()

    @pytest.mark.parametrize("fault", ["skip", "twice"])
    def test_a_broken_emit_contract_fails_the_epoch(self, fault):
        """A driver that never emits an occupied shard, or emits one twice,
        fails the epoch with a named error: no shard is silently dropped,
        none is ingested twice, and the next epoch starts clean."""
        driver = _MisbehavingDriver(fault)
        executor = StagedEpochEngine(driver, num_workers=1, num_shards=3)
        context = make_context(12)
        try:
            with pytest.raises(RuntimeError, match="broke the emit contract"):
                executor.run_epoch(context, epoch=0)
            # Shards 0 and 1 were ingested once each; nothing else was.
            assert context.aggregator.shares_received == 8 * 2
            driver.fault = None
            executor.run_epoch(context, epoch=1)
        finally:
            executor.close()
        assert context.aggregator.shares_received == 8 * 2 + 12 * 2


class _MisbehavingDriver(InlineDriver):
    """Answers like ``inline`` but skips shard 2's emit, or emits shard 1
    twice."""

    def __init__(self, fault: str | None):
        self.fault = fault

    def collect(self, handle):
        emit = handle.emit

        def misbehaving_emit(shard_index, responses, **kwargs):
            if self.fault == "skip" and shard_index == 2:
                return
            emit(shard_index, responses, **kwargs)
            if self.fault == "twice" and shard_index == 1:
                emit(shard_index, responses, **kwargs)

        handle.emit = misbehaving_emit
        super().collect(handle)


def answer_bytes(responses) -> list[tuple]:
    """Everything seeded in a response log (MIDs are OS entropy)."""
    return [
        (
            r.client_id,
            r.epoch,
            r.truthful_bits,
            r.randomized_bits,
            tuple(share.payload for share in r.encrypted.shares),
        )
        for r in responses
    ]


class TestExecutorReuse:
    @pytest.mark.parametrize(
        "spelling", [*ENGINE_SPELLINGS, *REVERSED_EMITS, RESPAWNED_WORKERS]
    )
    def test_reuse_across_deployments_rebinds_consumers(self, spelling):
        """Query ids are deterministic, so a reused executor must notice a
        new proxy network instead of polling the old deployment's brokers:
        every spelling reads the engine's own shard-topic consumers.  A
        pinned-worker driver must also hand the old deployment's resident
        streams back to *its* clients rather than graft them onto the new
        ones: the second deployment answers exactly as a fresh serial run
        does, and the first one's clients end where serial's do."""
        executor = make_executor(spelling, workers=2, shards=2)
        try:
            context_a = make_context(6)
            executor.run_epoch(context_a, epoch=0)
            context_b = make_context(6)  # same query id, fresh brokers
            outcome = executor.run_epoch(context_b, epoch=0)
        finally:
            executor.close()
        assert outcome.num_participants == 6
        # The second deployment's aggregator really received the shares.
        assert context_b.aggregator.shares_received == 6 * 2
        reference = make_context(6)
        expected = SerialExecutor().run_epoch(reference, epoch=0)
        assert answer_bytes(outcome.responses) == answer_bytes(expected.responses)
        assert outcome.window_results == expected.window_results
        assert [client.state_fingerprint() for client in context_a.clients] == [
            client.state_fingerprint() for client in reference.clients
        ]


class TestConfiguration:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_executor(PIPELINED, workers=0)
        with pytest.raises(ValueError):
            make_executor(PIPELINED, workers=2, shards=0)

    def test_close_is_idempotent(self):
        executor = make_executor(PIPELINED, workers=2)
        executor.run_epoch(make_context(4), epoch=0)
        executor.close()
        executor.close()
