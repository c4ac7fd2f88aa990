"""Equivalence of the parallel runtimes with the serial reference executor.

The property the runtime guarantees (the seeded-equivalence contract of
``docs/ARCHITECTURE.md``): for the same system seed, every registered
driver combination produces *identical* results to the serial executor —
same participants, same response logs, byte-identical window histograms
(estimates AND error bounds, which are a closed-form function of the
window's counts) — regardless of shard count, worker count, scheduling or
transport.  For the wire transports this additionally pins the wire format:
client state travels to the workers as bootstrap snapshots (config, PRF
key, tables, subscriptions) and deltas, so a multi-epoch run only matches
serial if a restored client answers every epoch exactly as the original.

Multi-query epochs extend the contract twice over: ``run_epoch_all`` must
produce, per query, exactly what the serial executor produces for the same
multi-query epoch (any executor, any shard count), *and* — because every
client draw is addressed by its query — each query's results must be
byte-identical whether it runs alone or co-subscribed with others.
"""

from __future__ import annotations

import hashlib
import random
import struct

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
from repro.runtime import cli_smoke_matrix

SEED = 20260727
#: Every driver combination that runs without separately launched TCP
#: workers (the sealed-TCP ones are covered by test_remote.py).
SINGLE_HOST_COMBOS = cli_smoke_matrix()[1:]
RESIDENT = "pinned-worker/framed-wire-local"
#: The worker-driver spellings once more, with every emit held back to the
#: end of the epoch and replayed in reverse shard order (``reversed_emits``,
#: conftest.py).
REVERSED_EMITS = [
    pytest.param(
        spelling, marks=pytest.mark.reversed_emits, id=f"{spelling}+reversed-emits"
    )
    for spelling in SINGLE_HOST_COMBOS
    if not spelling.startswith("inline/")
]
#: The resident spelling once more, with every pinned worker killed after each
#: epoch, so later epochs recover by respawn + re-bootstrap
#: (``respawned_workers``, conftest.py).
RESPAWNED_WORKERS = pytest.param(
    RESIDENT, marks=pytest.mark.respawned_workers, id=f"{RESIDENT}+respawned-workers"
)
ENGINE_MATRIX = [*SINGLE_HOST_COMBOS, *REVERSED_EMITS, RESPAWNED_WORKERS]


def run_deployment(
    num_clients: int,
    *,
    executor: str = "serial",
    workers: int = 4,
    shards: int | None = None,
    sampling_fraction: float = 0.8,
    num_epochs: int = 2,
    seed: int = SEED,
):
    """Run a small deployment end-to-end and return its observable outputs."""
    config = SystemConfig(
        num_clients=num_clients,
        num_proxies=2,
        seed=seed,
        executor=executor,
        executor_workers=workers,
        executor_shards=shards,
    )
    system = PrivApproxSystem(config)
    rng = random.Random(seed)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": rng.uniform(0.0, 8.0)}]
    )
    analyst = Analyst("equivalence")
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
    system.submit_query(
        analyst,
        query,
        QueryBudget(),
        parameters=ExecutionParameters(
            sampling_fraction=sampling_fraction, p=0.9, q=0.5
        ),
    )
    reports = system.run_epochs(query.query_id, num_epochs)
    system.flush(query.query_id)
    system.close()
    results = analyst.results_for(query.query_id)
    responses = system.responses_log(query.query_id)
    return reports, results, responses


def serialize_results(results) -> bytes:
    """Canonical byte serialization of the analyst-facing window results."""
    out = bytearray()
    for result in results:
        out += struct.pack(">ddqq", result.window.start, result.window.end,
                           result.num_answers, result.population)
        for bucket in result.histogram.buckets:
            out += struct.pack(
                ">qdd", bucket.bucket_index, bucket.estimate, bucket.error_bound
            )
    return bytes(out)


def serialize_responses(responses) -> list[tuple]:
    # Bits as tuples: the golden digest below hashes this list's repr.
    return [
        (r.client_id, r.epoch, tuple(r.truthful_bits), tuple(r.randomized_bits))
        for r in responses
    ]


@pytest.mark.parametrize("executor", ENGINE_MATRIX)
class TestParallelExecutorsMatchSerial:
    @pytest.mark.parametrize("num_clients", [1, 50, 100])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_identical_outputs_across_shard_counts(
        self, executor, num_clients, num_shards
    ):
        serial_reports, serial_results, serial_responses = run_deployment(num_clients)
        parallel_reports, parallel_results, parallel_responses = run_deployment(
            num_clients, executor=executor, workers=4, shards=num_shards
        )
        assert [r.num_participants for r in serial_reports] == [
            r.num_participants for r in parallel_reports
        ]
        assert serialize_responses(serial_responses) == serialize_responses(
            parallel_responses
        )
        assert serialize_results(serial_results) == serialize_results(parallel_results)

    def test_fewer_clients_than_workers(self, executor):
        _, serial_results, serial_responses = run_deployment(3)
        _, parallel_results, parallel_responses = run_deployment(
            3, executor=executor, workers=8, shards=8
        )
        assert serialize_responses(serial_responses) == serialize_responses(
            parallel_responses
        )
        assert serialize_results(serial_results) == serialize_results(parallel_results)

    def test_zero_participant_shards(self, executor):
        """A tiny sampling fraction leaves whole shards without participants."""
        _, serial_results, serial_responses = run_deployment(
            20, sampling_fraction=0.05, num_epochs=3
        )
        _, parallel_results, parallel_responses = run_deployment(
            20,
            executor=executor,
            workers=4,
            shards=10,
            sampling_fraction=0.05,
            num_epochs=3,
        )
        # With s=0.05 over 20 clients most of the 10 shards are empty of
        # participants every epoch; results must still line up exactly.
        assert len(serial_responses) < 20 * 3
        assert serialize_responses(serial_responses) == serialize_responses(
            parallel_responses
        )
        assert serialize_results(serial_results) == serialize_results(parallel_results)

    def test_more_shards_than_clients(self, executor):
        _, serial_results, serial_responses = run_deployment(5)
        _, parallel_results, parallel_responses = run_deployment(
            5, executor=executor, workers=2, shards=7
        )
        assert serialize_responses(serial_responses) == serialize_responses(
            parallel_responses
        )
        assert serialize_results(serial_results) == serialize_results(parallel_results)

    def test_seeded_runs_are_reproducible(self, executor):
        """Two identical parallel runs agree byte-for-byte with each other."""
        first = run_deployment(40, executor=executor, workers=4, shards=4)
        second = run_deployment(40, executor=executor, workers=4, shards=4)
        assert serialize_results(first[1]) == serialize_results(second[1])
        assert serialize_responses(first[2]) == serialize_responses(second[2])


class TestPipelinedMatchesInline:
    def test_pipelined_and_inline_agree_directly(self):
        """Transitivity check without the serial baseline in the middle."""
        _, inline_results, inline_responses = run_deployment(
            60, executor="inline/in-process", workers=4, shards=6
        )
        _, pipelined_results, pipelined_responses = run_deployment(
            60, executor="pipelined-overlap/in-process", workers=3, shards=5
        )
        assert serialize_responses(inline_responses) == serialize_responses(
            pipelined_responses
        )
        assert serialize_results(inline_results) == serialize_results(
            pipelined_results
        )


def run_multi_deployment(
    num_clients: int,
    num_queries: int,
    *,
    executor: str = "serial",
    workers: int = 4,
    shards: int | None = None,
    sampling_fraction: float = 0.8,
    num_epochs: int = 2,
    seed: int = SEED,
    single_query_epochs: bool = False,
):
    """Run N concurrent queries end-to-end and return per-query outputs.

    ``single_query_epochs=True`` answers each query in its own full
    ``run_epoch`` pass instead of the shared ``run_epoch_all`` pass — the
    baseline the RNG-isolation tests compare against.  Queries differ in
    bucket resolution so a cross-query mix-up cannot cancel out.
    """
    config = SystemConfig(
        num_clients=num_clients,
        num_proxies=2,
        seed=seed,
        executor=executor,
        executor_workers=workers,
        executor_shards=shards,
    )
    system = PrivApproxSystem(config)
    rng = random.Random(seed)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": rng.uniform(0.0, 8.0)}]
    )
    analyst = Analyst("equivalence-multi")
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
            parameters=ExecutionParameters(
                sampling_fraction=sampling_fraction, p=0.9, q=0.5
            ),
        )
        query_ids.append(query.query_id)
    for epoch in range(num_epochs):
        if single_query_epochs:
            for query_id in query_ids:
                system.run_epoch(query_id, epoch)
        else:
            system.run_epoch_all(epoch)
    per_query = {}
    for query_id in query_ids:
        system.flush(query_id)
        per_query[query_id] = (
            serialize_results(analyst.results_for(query_id)),
            serialize_responses(system.responses_log(query_id)),
        )
    system.close()
    return per_query


@pytest.mark.parametrize("executor", ENGINE_MATRIX)
@pytest.mark.parametrize("num_queries", [2, 3])
class TestMultiQueryExecutorsMatchSerial:
    """run_epoch_all: every executor serves N queries from one pass, byte-identically."""

    def test_identical_outputs_per_query(self, executor, num_queries):
        serial = run_multi_deployment(40, num_queries)
        parallel = run_multi_deployment(
            40, num_queries, executor=executor, workers=4, shards=5
        )
        assert serial.keys() == parallel.keys()
        for query_id in serial:
            assert parallel[query_id] == serial[query_id]

    def test_more_shards_than_clients(self, executor, num_queries):
        serial = run_multi_deployment(5, num_queries)
        parallel = run_multi_deployment(
            5, num_queries, executor=executor, workers=2, shards=7
        )
        assert parallel == serial

    def test_sparse_participation(self, executor, num_queries):
        serial = run_multi_deployment(
            20, num_queries, sampling_fraction=0.05, num_epochs=3
        )
        parallel = run_multi_deployment(
            20,
            num_queries,
            executor=executor,
            workers=4,
            shards=10,
            sampling_fraction=0.05,
            num_epochs=3,
        )
        assert parallel == serial


def test_golden_digest_of_a_three_epoch_two_query_run():
    """Byte-identity across commits, not only across executors.

    Everything else in this module compares two runs of the *same* commit, so
    a change that moves a draw on every path at once passes it.  This pins
    one seeded 3-epoch, two-query serial run (window estimates, closed-form
    error bounds, and the response log), re-captured when the t quantile
    became the stdlib routine in ``repro.core.sampling``, which moved the last
    bits of the error bounds and nothing else (Python 3.11).  A deliberate
    draw or bound change re-captures the constant in the same change.
    """
    per_query = run_multi_deployment(40, 2, num_epochs=3)
    digest = hashlib.sha256()
    for query_id in sorted(per_query):
        results, responses = per_query[query_id]
        digest.update(query_id.encode("utf-8"))
        digest.update(results)
        digest.update(repr(responses).encode("utf-8"))
    assert digest.hexdigest() == (
        "adc08779b6f1de591e4f2424461b2262a79c8c32c5e4a752b12650eae6367a15"
    )


class TestPerQueryRngIsolation:
    """The prerequisite bugfix: co-subscribed queries cannot perturb each other.

    Each client derives an independent seeded RNG per query id, so a query's
    sampling and randomization draws are the same whether the epoch serves it
    alone or alongside other queries.
    """

    def test_results_identical_with_and_without_cosubscription(self):
        alone = run_multi_deployment(30, 1, single_query_epochs=True)
        (query_id, alone_outputs), = alone.items()
        for num_queries in (2, 3):
            together = run_multi_deployment(30, num_queries)
            assert together[query_id] == alone_outputs, (
                f"co-subscribing {num_queries - 1} extra quer(y/ies) changed "
                f"query {query_id}'s bytes"
            )

    def test_single_query_run_epoch_all_matches_run_epoch(self):
        """The shared pass degenerates cleanly: one query, same bytes."""
        via_run_epoch = run_multi_deployment(30, 1, single_query_epochs=True)
        via_run_epoch_all = run_multi_deployment(30, 1)
        assert via_run_epoch_all == via_run_epoch

    def test_sequential_multi_query_epochs_match_shared_pass(self):
        """Answering N queries in N passes equals one shared pass, per query."""
        sequential = run_multi_deployment(25, 3, single_query_epochs=True)
        shared = run_multi_deployment(25, 3)
        assert shared == sequential


def build_two_query_system(executor, shards: int = 3):
    """12 clients at s = 1.0 under two co-subscribed queries, 3 shards of 4
    by default."""
    config = SystemConfig(
        num_clients=12,
        seed=SEED,
        executor=executor,
        executor_workers=2,
        executor_shards=shards,
    )
    system = PrivApproxSystem(config)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": float(i % 8)}]
    )
    analyst = Analyst("equivalence-multi-failure")
    query_ids = []
    for index in range(2):
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
            parameters=ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5),
        )
        query_ids.append(query.query_id)
    return system, query_ids


@pytest.mark.parametrize("stage", ["answer", "transmit", "ingest"])
@pytest.mark.parametrize("executor", ENGINE_MATRIX)
class TestMultiQueryFailureIsolation:
    """A failed multi-query epoch must not poison any query's next epoch.

    The failure-path consumer drain covers *every* query's relay consumers:
    records relayed before the epoch failed (a query whose ingest never ran
    because another query's failed first) must not linger and be replayed
    into the wrong epoch.  The ``answer`` case was once the regression:
    shards 0-1 were relayed per share on the query channel before shard 2
    raised, and the next epoch ingested them.
    """

    def test_a_failed_epoch_leaks_nothing_into_the_next(
        self, executor, stage, failing_epoch
    ):
        system, query_ids = build_two_query_system(executor)
        first, second = (system.aggregator_for(query_id) for query_id in query_ids)
        with failing_epoch(system, stage, first):
            with pytest.raises(Exception, match="private_data|injected"):
                system.run_epoch_all(0)

        # Epoch 1 must deliver exactly its own shares to *both* aggregators:
        # with s = 1.0 that is 12 participants x 2 proxies per query.  Any
        # records left over from the failed epoch would inflate the counts.
        before = (first.shares_received, second.shares_received)
        reports = system.run_epoch_all(1)
        assert all(r.num_participants == 12 for r in reports.values())
        assert first.shares_received - before[0] == 12 * 2
        assert second.shares_received - before[1] == 12 * 2
        assert first.pending_joins() == second.pending_joins() == 0
        system.close()


def inspect_channels(system, query_ids) -> dict:
    """One inspection consumer per (query, proxy) channel topic.

    Partitions trim what their readers have polled, so the relayed records
    are inspected through consumers subscribed before the epoch runs.
    """
    return {
        (query_id, proxy.proxy_id): proxy.make_consumer(channel=query_id)
        for query_id in query_ids
        for proxy in system.proxies.proxies
    }


@pytest.mark.parametrize("executor", ENGINE_MATRIX)
def test_every_engine_flow_relays_one_batch_record_per_proxy_per_shard(executor):
    """One relay granularity: after a two-query epoch each query's channel
    topic on each proxy holds one record per occupied shard with
    participants, carrying one share per gated participant; a shard whose
    participants were all gated away publishes nothing; the serial
    reference relays the same shares as one-share records; and the relay
    accounting equals serial's for the same seed."""
    # Shard 1 (clients 4-7) is occupied but entirely late; client 0 is late too.
    late = (0, 4, 5, 6, 7)
    relayed = {}
    for name in ("serial", executor):
        system, query_ids = build_two_query_system(name)
        system.late_clients = frozenset(
            system.clients[index].config.client_id for index in late
        )
        inspectors = inspect_channels(system, query_ids)
        reports = system.run_epoch_all(0)
        assert all(r.num_participants == 12 - len(late) for r in reports.values())
        relayed[name] = (
            system.proxies.total_shares_relayed(),
            system.proxies.total_bytes_relayed(),
        )
        # Shards 0 and 2 keep 3 and 4 participants.  Batch records carry no
        # key and route round-robin over the partitions, so the poll order
        # is not shard order: compare record lengths as a multiset.
        expected = [1] * 7 if name == "serial" else [3, 4]
        for query_id in query_ids:
            aggregator = system.aggregator_for(query_id)
            assert aggregator.shares_received == 7 * 2
            assert aggregator.answers_processed == 7
            for proxy in system.proxies.proxies:
                records = inspectors[query_id, proxy.proxy_id].poll()
                assert sorted(len(record.value) for record in records) == expected, (
                    name,
                    proxy.proxy_id,
                )
        system.close()
    assert relayed[executor] == relayed["serial"]


@pytest.mark.parametrize("executor", cli_smoke_matrix())
def test_one_relay_topic_per_proxy_per_query(executor):
    """A 2-proxy, 2-query, 4-shard deployment relays on exactly its four
    channel topics, whatever the executor: no shared base topic and no
    per-shard topics are created, and every relayed share crosses them."""
    system, query_ids = build_two_query_system(executor, shards=4)
    inspectors = inspect_channels(system, query_ids)
    for epoch in range(2):
        system.run_epoch_all(epoch)
    topics = [name for name in sorted(system.proxies.cluster._topics) if name.startswith("proxy-")]
    assert topics == sorted(
        f"proxy-{proxy}-q-{query_id}" for proxy in range(2) for query_id in query_ids
    )
    seen = sum(
        len(record.value)
        for inspector in inspectors.values()
        for record in inspector.poll()
    )
    assert seen == system.proxies.total_shares_relayed() == 2 * 2 * 12 * 2
    system.close()


@pytest.mark.parametrize("executor", [*cli_smoke_matrix(), *REVERSED_EMITS])
def test_each_query_ledgers_only_its_own_late_participants(executor):
    """Client 1 is late under both queries, client 6 is late but subscribed
    to the first query only, and the late set also names a client that does
    not exist: each query's ``late_drops`` lists exactly its own late
    participants, the unknown id appears nowhere, the engine's late-drop
    metric is the sum of the two ledgers, and the ledgers do not accumulate
    across epochs."""
    system, query_ids = build_two_query_system(executor)
    first, second = query_ids
    late_ids = [system.clients[index].config.client_id for index in (1, 6)]
    system.set_active_clients([i for i in range(12) if i != 6], query_ids=[second])
    system.late_clients = frozenset([*late_ids, "client-999999"])
    for epoch in range(2):
        reports = system.run_epoch_all(epoch)
        assert reports[first].late_drops == tuple(late_ids)
        assert reports[second].late_drops == (late_ids[0],)
        assert reports[first].num_participants == reports[second].num_participants == 10
        logged = {
            response.client_id
            for query_id in query_ids
            for response in system.responses_log(query_id)
        }
        assert logged.isdisjoint(system.late_clients)
        if executor != "serial":
            assert system.executor.stage_metrics[epoch].late_drops == 3
    system.close()


class TestResidentStateMatchesSerial:
    """Worker-resident state (wire v3) is byte-invisible: residency on ≡ off.

    ``pinned-worker`` scheduling keeps client state inside pinned workers
    and ships deltas/fingerprints instead of snapshots; for a fixed seed its
    outputs must equal the serial reference — across worker/shard layouts,
    multi-epoch runs answered from resident state (the coordinator's copy
    never needs to follow it), and multi-query epochs.
    """

    @pytest.mark.parametrize("workers,shards", [(1, 1), (2, 5), (3, 4)])
    def test_identical_outputs_across_worker_layouts(self, workers, shards):
        _, serial_results, serial_responses = run_deployment(30, num_epochs=4)
        _, resident_results, resident_responses = run_deployment(
            30,
            executor=RESIDENT,
            workers=workers,
            shards=shards,
            num_epochs=4,
        )
        assert serialize_responses(serial_responses) == serialize_responses(
            resident_responses
        )
        assert serialize_results(serial_results) == serialize_results(resident_results)

    def test_residency_on_equals_residency_off(self):
        """Same shards, client state kept in pinned workers or in the
        coordinator: byte-identical either way."""
        in_process = run_deployment(
            25, executor="pipelined-overlap/in-process", workers=2, shards=4, num_epochs=3
        )
        resident = run_deployment(
            25, executor=RESIDENT, workers=2, shards=4, num_epochs=3
        )
        assert serialize_responses(in_process[2]) == serialize_responses(resident[2])
        assert serialize_results(in_process[1]) == serialize_results(resident[1])

    def test_multi_query_epochs_with_residency(self):
        serial = run_multi_deployment(20, 3, num_epochs=3)
        resident = run_multi_deployment(
            20, 3, executor=RESIDENT, workers=2, shards=4, num_epochs=3
        )
        assert resident == serial

    def test_sparse_participation_with_residency(self):
        serial = run_multi_deployment(
            15, 2, sampling_fraction=0.05, num_epochs=3
        )
        resident = run_multi_deployment(
            15,
            2,
            executor=RESIDENT,
            workers=2,
            shards=6,
            sampling_fraction=0.05,
            num_epochs=3,
        )
        assert resident == serial


class TestIndexedAnswerPathMatchesScan:
    """The compiled columnar answer path vs the forced row-scan reference.

    The serial reference runs with ``SQLDB_FORCE_SCAN=1`` (the frozen
    interpreter); every executor configuration then runs the same
    deployment on the default compiled path.  Response logs and window
    results must be byte-identical — the fast path may not be observable
    anywhere above the SQL engine.  (The environment variable reaches the
    pinned workers because they fork after the test sets it.)
    """

    @pytest.mark.parametrize("executor", ["serial", *ENGINE_MATRIX])
    def test_digests_identical_to_serial_scan(self, executor, monkeypatch):
        monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
        _, scan_results, scan_responses = run_deployment(
            60, executor="serial", num_epochs=3
        )
        monkeypatch.setenv("SQLDB_FORCE_SCAN", "0")
        _, results, responses = run_deployment(
            60, executor=executor, workers=3, shards=5, num_epochs=3
        )
        assert serialize_responses(responses) == serialize_responses(scan_responses)
        assert serialize_results(results) == serialize_results(scan_results)
