"""Edge cases and failure handling of ``pinned-worker/framed-wire-local``.

The equivalence suite pins the resident protocol over spawned workers to
the serial reference on ordinary populations; this module covers the
boundaries (an empty client population, fewer clients than shards) and the
failure contract: a worker exception, a dead worker process, a parent-side
pickling failure, a transmit or ingest error must all surface from
``run_epoch`` without hanging the driver's collect loop — and the executor
must be usable for the next epoch afterwards.  A killed worker is respawned
(a new process, a new pid) and its shards recover by checkpoint + replay,
byte-identical to serial.
"""

from __future__ import annotations

import dataclasses
import os

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
from repro.sqldb import Database
from repro.runtime import (
    EpochContext,
    LocalWorkerTransport,
    ResidentDriver,
    SerialExecutor,
    WireError,
    decode_shard_ack,
    encode_shard_ack,
    make_executor,
    plan_shards,
    shard_span,
)

RESIDENT = "pinned-worker/framed-wire-local"
PARAMS = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5)


def make_context(num_clients: int) -> EpochContext:
    """A minimal epoch context wired by hand (no PrivApproxSystem).

    Lets the tests exercise populations PrivApproxSystem refuses (0 clients).
    """
    proxies = ProxyNetwork(num_proxies=2)
    analyst = Analyst("process-edge")
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
            ClientConfig(client_id=f"edge-{index:03d}", num_proxies=2, seed=2000 + index)
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
        consumers=proxies.make_consumers(group_id="process-edge"),
        query_id=query.query_id,
    )


def make_system(num_clients: int = 12, shards: int | None = None) -> tuple:
    config = SystemConfig(
        num_clients=num_clients,
        seed=424,
        executor=RESIDENT,
        executor_workers=2,
        executor_shards=shards,
    )
    system = PrivApproxSystem(config)
    system.provision_clients([("value", "REAL")], lambda i: [{"value": float(i % 8)}])
    analyst = Analyst("process-edge")
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
        executor = make_executor(RESIDENT, workers=2, shards=4)
        try:
            outcome = executor.run_epoch(make_context(0), epoch=0)
        finally:
            executor.close()
        assert outcome.num_participants == 0
        assert outcome.window_results == ()

    def test_zero_clients_matches_serial(self):
        serial = SerialExecutor()
        process = make_executor(RESIDENT, workers=2, shards=3)
        try:
            serial_outcome = serial.run_epoch(make_context(0), epoch=0)
            process_outcome = process.run_epoch(make_context(0), epoch=0)
        finally:
            serial.close()
            process.close()
        assert serial_outcome.responses == process_outcome.responses == ()
        assert serial_outcome.window_results == process_outcome.window_results == ()

    def test_fewer_clients_than_shards(self):
        """Trailing empty shards are simply skipped."""
        executor = make_executor(RESIDENT, workers=2, shards=8)
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

    def test_state_written_back_to_live_clients(self):
        """Shutdown grafts the workers' advanced streams onto the parent's
        own client objects: they end where the serial reference's do."""
        context, reference = make_context(6), make_context(6)
        originals = list(context.clients)
        executor = make_executor(RESIDENT, workers=2, shards=2)
        try:
            executor.run_epoch(context, epoch=0)
        finally:
            executor.close()
        SerialExecutor().run_epoch(reference, epoch=0)
        assert all(a is b for a, b in zip(context.clients, originals))
        assert stream_positions(context.clients) == stream_positions(reference.clients)


class TestFailureSurfacing:
    def test_worker_exception_surfaces(self):
        """A client whose local SQL fails inside the worker fails the epoch."""
        system, query_id = make_system(num_clients=8, shards=4)
        # Dropping the table travels with the state snapshot, so the failure
        # happens in the worker process, not in the parent.
        system.clients[5].database.drop_table("private_data")
        with pytest.raises(Exception, match="private_data"):
            system.run_epoch(query_id, 0)
        system.close()

    def test_worker_process_death_surfaces_and_the_worker_respawns(self):
        """A worker that dies mid-frame fails the epoch; the next epoch
        spawns a replacement process and succeeds."""
        from repro.runtime import ResidentWorkerError

        system, query_id = make_system(num_clients=8, shards=2)

        class Bomb:
            """Pickles fine in the parent; detonates on unpickle in the child."""

            def __reduce__(self):
                return (os._exit, (1,))

        table = system.clients[2].database.table("private_data")
        table.rows.append((Bomb(),))
        with pytest.raises(ResidentWorkerError, match="died mid-epoch"):
            system.run_epoch(query_id, 0)
        router = system.executor.driver._router
        victim = router._processes[router.slot_for(0)]
        assert victim.exitcode == 1
        # Remove the bomb; the executor must spawn a fresh worker and succeed.
        del table.rows[-1]
        report = system.run_epoch(query_id, 1)
        assert report.num_participants == 8
        assert router._processes[router.slot_for(0)].pid != victim.pid
        system.close()

    def test_unpicklable_appended_row_raises_wire_error(self):
        """A pickling failure in a steady-state frame surfaces before any
        shard is relayed, and leaves the executor usable."""
        system, query_id = make_system(num_clients=6, shards=3)
        system.run_epoch(query_id, 0)
        table = system.clients[1].database.table("private_data")
        table.rows.append((lambda: None,))  # lambdas cannot pickle
        with pytest.raises(WireError, match="serialize"):
            system.run_epoch(query_id, 1)
        # The failure is pre-relay: removing the row leaves the executor usable.
        del table.rows[-1]
        report = system.run_epoch(query_id, 2)
        assert report.num_participants == 6
        system.close()

    def test_transmit_exception_surfaces(self):
        system, query_id = make_system(num_clients=6, shards=3)

        def explode(*args, **kwargs):
            raise RuntimeError("proxy link down")

        system.proxies.transmit_shard = explode
        with pytest.raises(RuntimeError, match="proxy link down"):
            system.run_epoch(query_id, 0)
        system.close()

    def test_ingest_exception_surfaces(self):
        system, query_id = make_system(num_clients=6, shards=3)
        aggregator = system.aggregator_for(query_id)

        def explode(*args, **kwargs):
            raise RuntimeError("aggregator out of memory")

        aggregator.ingest_shares = explode
        with pytest.raises(RuntimeError, match="aggregator out of memory"):
            system.run_epoch(query_id, 0)
        system.close()

    def test_executor_survives_worker_exception(self):
        """After a failed epoch the executor runs the next one."""
        system, query_id = make_system(num_clients=6, shards=3)
        client = system.clients[0]
        client.database.drop_table("private_data")
        with pytest.raises(Exception, match="private_data"):
            system.run_epoch(query_id, 0)
        client.create_table([("value", "REAL")])
        client.ingest([{"value": 1.0}])
        report = system.run_epoch(query_id, 1)
        assert report.num_participants == 6
        system.close()


class TestConfiguration:
    def test_factory_builds_a_resident_executor_over_spawned_workers(self):
        executor = make_executor(RESIDENT, workers=2, shards=5)
        assert isinstance(executor.driver, ResidentDriver)
        assert executor.num_workers == 2
        assert executor.num_shards == 5
        assert type(executor.driver._ensure_router()) is LocalWorkerTransport
        executor.close()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_executor(RESIDENT, workers=0)
        with pytest.raises(ValueError):
            make_executor(RESIDENT, workers=2, shards=0)

    def test_close_is_idempotent(self):
        executor = make_executor(RESIDENT, workers=2)
        executor.run_epoch(make_context(4), epoch=0)
        executor.close()
        executor.close()


def _one_row(index: int) -> list[dict]:
    return [{"value": float(index % 8)}]


def make_resident_system(
    num_clients: int = 12,
    shards: int | None = 4,
    checkpoint_every: int = 4,
    num_queries: int = 1,
    rows=None,
) -> tuple:
    """A worker-resident deployment plus a serial twin for byte comparison.

    ``rows(i)`` gives client ``i``'s initial rows (one row by default).
    """
    config = SystemConfig(
        num_clients=num_clients,
        seed=868,
        executor=RESIDENT,
        executor_workers=2,
        executor_shards=shards,
        executor_checkpoint_every=checkpoint_every,
    )
    system = PrivApproxSystem(config)
    system.provision_clients([("value", "REAL")], rows or _one_row)
    analyst = Analyst("resident-failure")
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
        system.submit_query(analyst, query, QueryBudget(), parameters=PARAMS)
        query_ids.append(query.query_id)
    return system, query_ids


def run_serial_twin(
    num_clients: int, num_epochs: int, num_queries: int = 1, rows=None
) -> dict:
    config = SystemConfig(num_clients=num_clients, seed=868, executor="serial")
    system = PrivApproxSystem(config)
    system.provision_clients([("value", "REAL")], rows or _one_row)
    analyst = Analyst("resident-failure")
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
        system.submit_query(analyst, query, QueryBudget(), parameters=PARAMS)
        query_ids.append(query.query_id)
    for epoch in range(num_epochs):
        system.run_epoch_all(epoch) if num_queries > 1 else system.run_epoch(
            query_ids[0], epoch
        )
    out = {
        query_id: serialize_responses(system.responses_log(query_id))
        for query_id in query_ids
    }
    system.close()
    return out


def serialize_responses(responses) -> list[tuple]:
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


def stream_positions(clients) -> list[bytes]:
    """Every client's stream position, as the oracle digest of its streams."""
    return [client.state_fingerprint() for client in clients]


class TamperingRouter(LocalWorkerTransport):
    """The spawned-worker router, logging every ack and letting a test rewrite one.

    ``tamper(ack, blob) -> blob`` runs on each ack before the driver sees it.
    """

    def __init__(self, num_workers: int):
        super().__init__(num_workers)
        self.acks = []
        self.tamper = None

    def recv(self, timeout: float) -> bytes:
        blob = super().recv(timeout)
        ack = decode_shard_ack(blob)
        self.acks.append(ack)
        return blob if self.tamper is None else self.tamper(ack, blob)

    def checkpoints(self, shard_index: int) -> list[int]:
        """Epochs whose ack for the shard carried state (-1 = a sync)."""
        return [
            ack.epoch
            for ack in self.acks
            if ack.shard_index == shard_index and ack.client_states is not None
        ]


class TestResidentFailureInjection:
    """Worker death and poisoned fingerprints must re-bootstrap, not corrupt.

    The parent holds a checkpoint (live clients' last grafted streams) plus a
    replay log; killing a pinned worker or poisoning the expected fingerprint
    must fall back to checkpoint + replay + bootstrap for exactly the
    affected shards, with every subsequent byte equal to the serial
    reference — and the run must terminate (an un-acked shard would
    otherwise hang the driver's collect loop).
    """

    def test_killed_worker_rebootstraps_byte_identically(self):
        system, (query_id,) = make_resident_system(num_clients=12, shards=4)
        executor = system.executor
        system.run_epoch(query_id, 0)
        system.run_epoch(query_id, 1)
        bootstraps_before = executor.bootstrap_frames
        router = executor.driver._router
        replaced_before = router.reconnects
        # Kill the worker pinned to shards 0 and 2 between epochs.
        victim = router._processes[router.slot_for(0)]
        victim.kill()
        victim.join(timeout=5.0)
        system.run_epoch(query_id, 2)
        system.run_epoch(query_id, 3)
        assert router.reconnects == replaced_before + 1
        # replace() spawned a new process; the other worker was left alone.
        assert router._processes[router.slot_for(0)].pid != victim.pid
        assert router._processes[router.slot_for(1)].exitcode is None
        # Exactly the dead worker's shards re-bootstrapped (2 of 4 shards).
        assert executor.bootstrap_frames == bootstraps_before + 2
        resident = serialize_responses(system.responses_log(query_id))
        system.close()
        assert run_serial_twin(12, 4)[query_id] == resident

    def test_killed_worker_with_stale_checkpoint_replays_exactly(self):
        """checkpoint_every=0: recovery must replay the whole epoch log."""
        system, (query_id,) = make_resident_system(
            num_clients=10, shards=2, checkpoint_every=0
        )
        executor = system.executor
        for epoch in range(3):
            system.run_epoch(query_id, epoch)
        router = executor.driver._router
        victim = router._processes[0]
        victim.kill()
        victim.join(timeout=5.0)
        for epoch in range(3, 5):
            system.run_epoch(query_id, epoch)
        assert router._processes[0].pid != victim.pid
        resident = serialize_responses(system.responses_log(query_id))
        system.close()
        assert run_serial_twin(10, 5)[query_id] == resident

    def test_poisoned_fingerprint_triggers_rebootstrap(self):
        """A fingerprint mismatch makes the worker refuse; the parent recovers."""
        system, (query_id,) = make_resident_system(num_clients=12, shards=4)
        executor = system.executor
        system.run_epoch(query_id, 0)
        system.run_epoch(query_id, 1)
        assert executor.driver.rebootstraps == 0
        # Simulate a poisoned ShardAck: the recorded fingerprint no longer
        # matches the worker-resident state.
        executor.driver._shards[1].fingerprint = b"poisoned" * 4
        system.run_epoch(query_id, 2)
        assert executor.driver.rebootstraps == 1
        system.run_epoch(query_id, 3)
        resident = serialize_responses(system.responses_log(query_id))
        system.close()
        assert run_serial_twin(12, 4)[query_id] == resident

    def test_worker_exception_surfaces_and_recovers(self):
        """A worker-side failure arrives as an error ack, not a hang."""
        from repro.runtime import ResidentWorkerError

        system, (query_id,) = make_resident_system(num_clients=8, shards=4)
        system.run_epoch(query_id, 0)
        client = system.clients[5]
        client.database.drop_table("private_data")
        with pytest.raises(ResidentWorkerError, match="private_data"):
            system.run_epoch(query_id, 1)
        client.create_table([("value", "REAL")])
        client.ingest([{"value": 5.0}])
        report = system.run_epoch(query_id, 2)
        assert report.num_participants == 8
        system.close()

    def test_unpicklable_client_state_raises_wire_error(self):
        system, (query_id,) = make_resident_system(num_clients=6, shards=3)
        table = system.clients[1].database.table("private_data")
        table.rows.append((lambda: None,))  # lambdas cannot pickle
        with pytest.raises(WireError, match="serialize"):
            system.run_epoch(query_id, 0)
        del table.rows[-1]
        report = system.run_epoch(query_id, 1)
        assert report.num_participants == 6
        system.close()

    def test_close_exports_resident_state_to_live_clients(self):
        """Shutdown is an export-on-demand point: parent clients end current."""
        seen = {}

        def remember(system, resident):
            seen[resident] = system

        lockstep = TestResidentParentSideMutations()._run_lockstep
        lockstep("serial", 3, {2: remember})
        _, executor = lockstep("resident", 3, {2: remember})  # checkpoint_every=0
        assert executor.driver.sync_frames == 2 and executor.bootstrap_frames == 2
        assert stream_positions(seen[True].clients) == stream_positions(
            seen[False].clients
        )


def _skewed_rows(index: int) -> list[dict]:
    """Five heavy clients (400 rows) among light ones (one row): shard 0
    answers far slower than the rest every epoch."""
    count = 400 if index < 5 else 1
    return [{"value": float((index + row) % 8)} for row in range(count)]


class TestStaticResidency:
    """Shard boundaries are ``plan_shards`` over the population size.

    However unevenly the shards answer, a deployment bootstraps each shard
    once and sends deltas thereafter: measured answer time reaches the stage
    metrics and never the plan.
    """

    NUM_CLIENTS, NUM_SHARDS, NUM_EPOCHS = 40, 4, 4

    def _run_skewed(self, checkpoint_every: int = 4):
        system, (query_id,) = make_resident_system(
            num_clients=self.NUM_CLIENTS,
            shards=self.NUM_SHARDS,
            checkpoint_every=checkpoint_every,
            rows=_skewed_rows,
        )
        spans = []
        try:
            for epoch in range(self.NUM_EPOCHS):
                system.run_epoch(query_id, epoch)
                spans.append(
                    {
                        index: (state.start, state.stop)
                        for index, state in system.executor.driver._shards.items()
                    }
                )
            responses = serialize_responses(system.responses_log(query_id))
            return system.executor, spans, responses, query_id
        finally:
            system.close()

    def test_skewed_population_bootstraps_each_shard_once(self):
        executor, _, responses, query_id = self._run_skewed()
        assert executor.bootstrap_frames == self.NUM_SHARDS
        assert executor.delta_frames == self.NUM_SHARDS * (self.NUM_EPOCHS - 1)
        assert executor.driver.rebootstraps == 0
        twin = run_serial_twin(self.NUM_CLIENTS, self.NUM_EPOCHS, rows=_skewed_rows)
        assert responses == twin[query_id]

    def test_resident_spans_are_the_balanced_plan(self):
        _, spans, _, _ = self._run_skewed()
        plan = {
            shard.index: shard_span(shard)
            for shard in plan_shards(self.NUM_CLIENTS, self.NUM_SHARDS)
        }
        assert spans == [plan] * self.NUM_EPOCHS

    def test_answer_time_reaches_metrics_not_the_plan(self):
        executor, _, _, _ = self._run_skewed()
        metrics = executor.stage_metrics
        assert sorted(metrics) == list(range(self.NUM_EPOCHS))
        assert all(m.answer_seconds > 0.0 for m in metrics.values())
        assert all(m.reshard_events == 0 for m in metrics.values())

    def test_steady_epochs_cost_the_same_wire_bytes(self):
        """With no checkpoint cadence and no parent-side edits, every epoch
        after the bootstrap sends the same delta frames and acks."""
        executor, _, _, _ = self._run_skewed(checkpoint_every=0)
        wire = executor.epoch_wire_bytes
        assert wire[0] > wire[1]
        assert len({wire[epoch] for epoch in range(1, self.NUM_EPOCHS)}) == 1


class TestResidentParentSideMutations:
    """Parent-side mutations the delta protocol must not lose.

    Two regressions: an in-place row edit that keeps the table length (a
    count-only baseline would ship no delta and leave the worker reading
    stale rows), and a subscription change whose checkpoint ack never lands
    because the pinned worker dies (recovery replay must run under the
    subscriptions the logged epochs actually used).
    """

    def _run_lockstep(
        self, executor_kind, num_epochs, actions, checkpoint_every=0, router=None
    ):
        """Run epochs with per-epoch mutation callbacks; return the byte log.

        ``actions`` maps epoch → callback(system, resident) applied *after*
        that epoch; callbacks receive whether this is the resident run so
        worker-kill steps can no-op on the serial twin.  ``router`` swaps the
        resident run's router class (a :class:`TamperingRouter` to observe or
        rewrite acks) before its first epoch.
        """
        resident = executor_kind == "resident"
        if resident:
            system, (query_id,) = make_resident_system(
                num_clients=10, shards=2, checkpoint_every=checkpoint_every
            )
            if router is not None:
                system.executor.driver._router = router(system.executor.num_workers)
        else:
            config = SystemConfig(num_clients=10, seed=868, executor="serial")
            system = PrivApproxSystem(config)
            system.provision_clients(
                [("value", "REAL")], lambda i: [{"value": float(i % 8)}]
            )
            analyst = Analyst("resident-failure")
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
            query_id = query.query_id
        for epoch in range(num_epochs):
            system.run_epoch(query_id, epoch)
            action = actions.get(epoch)
            if action is not None:
                action(system, resident)
        log = serialize_responses(system.responses_log(query_id))
        executor = system.executor
        system.close()
        return log, executor

    def test_in_place_row_edit_reaches_the_worker(self):
        """Same-length content changes must dirty the shard, not go stale."""

        def edit_row(system, resident):
            table = system.clients[3].database.table("private_data")
            table.rows[0] = (7.25,)

        actions = {1: edit_row}
        serial_log, _ = self._run_lockstep("serial", 4, actions)
        resident_log, executor = self._run_lockstep("resident", 4, actions)
        assert resident_log == serial_log
        # The edited shard was synced back and re-bootstrapped (2 initial + 1).
        assert executor.bootstrap_frames == 3

    def test_unacked_unsubscribe_survives_worker_death(self):
        """Recovery replay runs under the subscriptions the log ran under."""

        def unsubscribe_and_kill(system, resident):
            query_id = system.clients[0].subscribed_query_ids[0]
            system.clients[0].unsubscribe(query_id)
            if resident:
                router = system.executor.driver._router
                victim = router._processes[router.slot_for(0)]
                victim.kill()
                victim.join(timeout=5.0)

        def resubscribe(system, resident):
            query_id = next(iter(system._queries))
            system.clients[0].subscribe(system._queries[query_id], PARAMS)

        actions = {1: unsubscribe_and_kill, 2: resubscribe}
        serial_log, _ = self._run_lockstep("serial", 5, actions)
        resident_log, _ = self._run_lockstep("resident", 5, actions)
        assert resident_log == serial_log

    def test_row_list_rebind_reaches_the_worker(self):
        """A rebound row list is no append, whatever it holds: re-bootstrap."""

        def rebind(system, resident):
            table = system.clients[3].database.table("private_data")
            table.rows = [(2.5,)] + list(table.rows[1:])

        serial_log, _ = self._run_lockstep("serial", 4, {1: rebind})
        resident_log, executor = self._run_lockstep("resident", 4, {1: rebind})
        assert resident_log == serial_log
        assert executor.bootstrap_frames == 3

    @staticmethod
    def _append_everywhere(system, resident):
        """Every client's stream grows by one row between epochs."""
        for index, client in enumerate(system.clients):
            client.ingest([{"value": float((index + client.local_row_count()) % 8)}])

    @pytest.mark.parametrize("checkpoint_every", [4, 0])
    @pytest.mark.parametrize("fault", ["kill", "poison"])
    def test_recovery_replays_across_appended_rows(
        self, checkpoint_every, fault, monkeypatch
    ):
        """Appends no longer checkpoint, so the replay window spans them —
        and replay *draws* the logged epochs (``Client.advance``): it runs no
        SQL, so the appended rows under it are never even read."""
        seen = {}
        parent_queries = []
        query = Database.query

        def spying_query(self, sql):
            parent_queries.append(sql)  # workers append to their own copy
            return query(self, sql)

        def append_then_fault(system, resident):
            self._append_everywhere(system, resident)
            if not resident:
                return
            driver = system.executor.driver
            seen["replay_log"] = list(driver._shards[0].replay_log)
            if fault == "kill":
                router = driver._router
                victim = router._processes[router.slot_for(0)]
                victim.kill()
                victim.join(timeout=5.0)
            else:
                driver._shards[0].fingerprint = b"poisoned" * 4

        # Rows arrive after every epoch; the fault strikes three epochs after
        # the bootstrap, one short of the checkpoint cadence.
        actions = dict.fromkeys(range(6), self._append_everywhere)
        actions[2] = append_then_fault
        serial_log, _ = self._run_lockstep("serial", 6, actions)
        monkeypatch.setattr(Database, "query", spying_query)
        resident_log, executor = self._run_lockstep(
            "resident", 6, actions, checkpoint_every=checkpoint_every
        )
        # The append-only epochs left the log in place: replay over appended
        # rows, not a fresh checkpoint, is what recovers.
        assert [epoch for epoch, _ in seen["replay_log"]] == [0, 1, 2]
        assert resident_log == serial_log
        assert parent_queries == []  # the coordinator replayed without SQL
        assert executor.bootstrap_frames == 3
        assert executor.driver.rebootstraps == (1 if fault == "poison" else 0)

    @pytest.mark.parametrize("checkpoint_every", [4, 0])
    def test_append_only_epochs_checkpoint_on_the_cadence_alone(self, checkpoint_every):
        seen = {}

        def step(system, resident):
            self._append_everywhere(system, resident)
            seen["router"] = system.executor.driver._router

        _, executor = self._run_lockstep(
            "resident",
            9,
            dict.fromkeys(range(9), step),
            checkpoint_every=checkpoint_every,
            router=TamperingRouter,
        )
        assert executor.bootstrap_frames == 2 and executor.delta_frames == 16
        for shard_index in (0, 1):
            # ⌊9/4⌋ = 2 periodic checkpoints (none at 0), then close()'s sync.
            assert seen["router"].checkpoints(shard_index) == (
                [3, 7, -1] if checkpoint_every else [-1]
            )

    def test_subscription_deltas_still_force_a_checkpoint(self):
        """Subscribe / unsubscribe / re-tune reset the replay log that epoch."""
        seen = {"logs": []}
        retuned = ExecutionParameters(sampling_fraction=1.0, p=0.8, q=0.5)

        def unsubscribe(system):
            system.clients[0].unsubscribe(system.clients[0].subscribed_query_ids[0])

        def resubscribe(system):
            system.clients[0].subscribe(next(iter(system._queries.values())), PARAMS)

        def retune(system):
            system.clients[0].subscribe(next(iter(system._queries.values())), retuned)

        mutations = {0: unsubscribe, 2: resubscribe, 4: retune}

        def step_after(epoch):
            def step(system, resident):
                if resident:
                    driver = system.executor.driver
                    seen["router"] = driver._router
                    seen["logs"].append(
                        [len(driver._shards[index].replay_log) for index in (0, 1)]
                    )
                if epoch in mutations:
                    mutations[epoch](system)

            return step

        actions = {epoch: step_after(epoch) for epoch in range(7)}
        serial_log, _ = self._run_lockstep("serial", 7, actions)
        resident_log, _ = self._run_lockstep(
            "resident", 7, actions, router=TamperingRouter
        )
        assert resident_log == serial_log
        # Shard 0 (client 0's) checkpoints exactly on the epoch after each
        # subscription change and its replay log restarts there; shard 1
        # never checkpoints before close() (checkpoint_every=0).
        assert seen["router"].checkpoints(0) == [1, 3, 5, -1]
        assert seen["router"].checkpoints(1) == [-1]
        assert seen["logs"] == [[1, 1], [0, 2], [1, 3], [0, 4], [1, 5], [0, 6], [1, 7]]


class TestResidentMalformedAcks:
    """A checkpoint or sync ack the parent cannot use must not be half-used."""

    def test_short_checkpoint_is_refused_whole(self):
        from repro.runtime import ResidentWorkerError

        system, (query_id,) = make_resident_system(
            num_clients=10, shards=2, checkpoint_every=2
        )
        executor = system.executor
        driver = executor.driver
        driver._router = TamperingRouter(executor.num_workers)
        at_bootstrap = stream_positions(system.clients[:5])
        system.run_epoch(query_id, 0)

        def truncate(ack, blob):
            if ack.shard_index == 0 and ack.client_states is not None:
                ack = dataclasses.replace(ack, client_states=ack.client_states[:-1])
                return encode_shard_ack(ack)
            return blob

        driver._router.tamper = truncate
        with pytest.raises(ResidentWorkerError, match="malformed checkpoint"):
            system.run_epoch(query_id, 1)
        driver._router.tamper = None
        state = driver._shards[0]
        # Nothing grafted, nothing forgotten: the live clients are still the
        # last good checkpoint and the log still reaches it.
        assert not state.resident
        assert [epoch for epoch, _ in state.replay_log] == [0]
        assert stream_positions(system.clients[:5]) == at_bootstrap
        assert driver.token_refusals == 0  # the token was fine; the records were not
        report = system.run_epoch(query_id, 2)
        assert report.num_participants == 10
        assert executor.bootstrap_frames == 3
        system.close()

    @pytest.mark.parametrize("forgery", ["altered", "replayed"])
    def test_ack_for_a_frame_not_sent_is_refused(self, forgery):
        """The parent hashes what it sent.  An ack vouching for anything else
        — an altered token, or last epoch's valid ack re-stamped with this
        epoch — is refused whole, and the retried epoch re-bootstraps from
        checkpoint + replay, byte-identical to serial."""
        from repro.runtime import ResidentWorkerError

        system, (query_id,) = make_resident_system(
            num_clients=10, shards=2, checkpoint_every=2
        )
        executor = system.executor
        driver = executor.driver
        driver._router = TamperingRouter(executor.num_workers)
        at_bootstrap = stream_positions(system.clients)
        system.run_epoch(query_id, 0)
        router = driver._router
        last_epoch = {ack.shard_index: ack for ack in router.acks}
        adopted = [driver._shards[index].fingerprint for index in (0, 1)]

        def forge(ack, blob):
            if forgery == "altered":  # epoch 1 checkpoints: it carries state
                assert ack.client_states is not None
                return encode_shard_ack(dataclasses.replace(ack, fingerprint=bytes(32)))
            return encode_shard_ack(
                dataclasses.replace(last_epoch[ack.shard_index], epoch=ack.epoch)
            )

        router.tamper = forge
        with pytest.raises(ResidentWorkerError, match="did not send"):
            system.run_epoch(query_id, 1)
        router.tamper = None
        assert driver.token_refusals == 2 and driver.rebootstraps == 0
        # Nothing adopted, grafted or logged on either shard.
        for index in (0, 1):
            state = driver._shards[index]
            assert not state.resident and state.fingerprint == adopted[index]
            assert [epoch for epoch, _ in state.replay_log] == [0]
        assert stream_positions(system.clients) == at_bootstrap
        for epoch in range(1, 4):
            system.run_epoch(query_id, epoch)
        assert executor.bootstrap_frames == 4 and driver.token_refusals == 2
        resident = serialize_responses(system.responses_log(query_id))
        system.close()
        assert run_serial_twin(10, 4)[query_id] == resident

    @pytest.mark.parametrize("how", ["garbage", "forged"])
    def test_corrupt_sync_ack_does_not_abort_close(self, how):
        seen = {}

        def corrupt(ack, blob):
            if ack.epoch != -1 or ack.shard_index != 0:
                return blob
            if how == "garbage":
                return b"garbage"
            # Well-formed records for the wrong clients under a token the
            # parent never sent: grafting them would be silent corruption.
            return encode_shard_ack(
                dataclasses.replace(
                    ack, fingerprint=bytes(32), client_states=ack.client_states[::-1]
                )
            )

        def remember(system, resident):
            seen["resident" if resident else "serial"] = system
            if resident:
                system.executor.driver._router.tamper = corrupt

        lockstep = TestResidentParentSideMutations()._run_lockstep
        lockstep("serial", 3, {2: remember})
        _, executor = lockstep("resident", 3, {2: remember}, router=TamperingRouter)
        # close() replayed what it could not graft: every live client ends
        # where the serial twin's did.
        assert stream_positions(seen["resident"].clients) == stream_positions(
            seen["serial"].clients
        )
        assert executor.driver.token_refusals == (how == "forged")
