"""Executor torture suite: seeded random scenarios vs the serial reference.

The hand-enumerated equivalence cases pin specific configurations; this
module generalizes them into a property-style harness.  A fixed scenario
seed generates ~25 random deployments — client count, shard/worker counts,
1–3 concurrent queries, 1–4 epochs, driver combination (inline, a thread
pool, worker-resident state), sparse or full
participation — and each must produce byte-identical per-query responses and window results to the serial
executor running the very same deployment.

The scenario list is deterministic (same seed → same 25 scenarios → stable
test ids), so a failure reproduces with ``-k torture-NN`` and a new
executor configuration knob only needs to be added to the generator to be
dragged through the whole space.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

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

INLINE = "inline/in-process"
PIPELINED = "pipelined-overlap/in-process"
RESIDENT = "pinned-worker/framed-wire-local"

SCENARIO_SEED = 0x7A57E5
NUM_SCENARIOS = 25
DATA_SEED = 20260727


@dataclass(frozen=True)
class Scenario:
    """One randomly drawn deployment configuration."""

    index: int
    executor: str
    num_clients: int
    num_shards: int
    num_workers: int
    num_queries: int
    num_epochs: int
    sampling_fraction: float
    rows_per_client: int

    @property
    def test_id(self) -> str:
        return (
            f"torture-{self.index:02d}-{self.executor}"
            f"-c{self.num_clients}-s{self.num_shards}-q{self.num_queries}"
            f"-e{self.num_epochs}"
        )


def generate_scenarios() -> list[Scenario]:
    """~25 deterministic scenarios with guaranteed executor coverage."""
    rng = random.Random(SCENARIO_SEED)
    # In-process drivers are cheap, so they carry the bulk of the fuzzing;
    # every pinned-worker scenario costs worker spawns.  (Ten resident slots:
    # four were snapshot-shipping slots once, and the draws below are
    # unchanged, so every scenario keeps its shape.)
    executors = [INLINE] * 8 + [PIPELINED] * 7 + [RESIDENT] * 10
    rng.shuffle(executors)
    scenarios = []
    for index, executor in enumerate(executors[:NUM_SCENARIOS]):
        num_epochs = rng.randint(1, 4)
        if executor == RESIDENT and num_epochs >= 3 and rng.random() < 0.6:
            # The draws of a retired forced-re-shard knob: kept, so every
            # scenario keeps its shape.
            rng.randint(1, num_epochs - 2)
        shape = dict(
            num_clients=rng.randint(1, 24),
            num_shards=rng.randint(1, 7),
            num_workers=rng.randint(1, 4),
            num_queries=rng.randint(1, 3),
            sampling_fraction=rng.choice([0.05, 0.3, 0.8, 1.0]),
        )
        # The draw of a retired checkpoint-cadence knob: kept, so every
        # scenario keeps its shape.
        rng.choice([0, 1, 2, 3])
        scenarios.append(
            Scenario(
                index=index,
                executor=executor,
                num_epochs=num_epochs,
                rows_per_client=rng.randint(1, 3),
                **shape,
            )
        )
    return scenarios


SCENARIOS = generate_scenarios()


def serialize_results(results) -> bytes:
    out = bytearray()
    for result in results:
        out += struct.pack(
            ">ddqq",
            result.window.start,
            result.window.end,
            result.num_answers,
            result.population,
        )
        for bucket in result.histogram.buckets:
            out += struct.pack(
                ">qdd", bucket.bucket_index, bucket.estimate, bucket.error_bound
            )
    return bytes(out)


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


def run_scenario(scenario: Scenario, as_serial: bool) -> dict:
    """Run one scenario end-to-end; return per-query serialized outputs."""
    config = SystemConfig(
        num_clients=scenario.num_clients,
        num_proxies=2,
        seed=DATA_SEED + scenario.index,
        executor="serial" if as_serial else scenario.executor,
        executor_workers=scenario.num_workers,
        executor_shards=None if as_serial else scenario.num_shards,
    )
    system = PrivApproxSystem(config)
    data_rng = random.Random(DATA_SEED + scenario.index)
    system.provision_clients(
        [("value", "REAL")],
        lambda i: [
            {"value": data_rng.uniform(0.0, 8.0)}
            for _ in range(scenario.rows_per_client)
        ],
    )
    analyst = Analyst(f"torture-{scenario.index}")
    query_ids = []
    for query_index in range(scenario.num_queries):
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(
                buckets=RangeBuckets.uniform(
                    0.0, 8.0, 3 + query_index, open_ended=True
                ),
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
                sampling_fraction=scenario.sampling_fraction, p=0.9, q=0.5
            ),
        )
        query_ids.append(query.query_id)
    for epoch in range(scenario.num_epochs):
        if scenario.num_queries == 1:
            system.run_epoch(query_ids[0], epoch)
        else:
            system.run_epoch_all(epoch)
    outputs = {}
    for query_id in query_ids:
        system.flush(query_id)
        outputs[query_id] = (
            serialize_responses(system.responses_log(query_id)),
            serialize_results(analyst.results_for(query_id)),
        )
    system.close()
    return outputs


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[scenario.test_id for scenario in SCENARIOS]
)
def test_scenario_matches_serial_reference(scenario: Scenario):
    serial = run_scenario(scenario, as_serial=True)
    parallel = run_scenario(scenario, as_serial=False)
    assert parallel.keys() == serial.keys()
    for query_id in serial:
        assert parallel[query_id][0] == serial[query_id][0], (
            f"{scenario.test_id}: response log diverged for query {query_id}"
        )
        assert parallel[query_id][1] == serial[query_id][1], (
            f"{scenario.test_id}: window results diverged for query {query_id}"
        )


def test_scenario_generation_is_deterministic():
    """Same seed, same scenarios — failures must reproduce by id."""
    assert generate_scenarios() == SCENARIOS
    assert len(SCENARIOS) == NUM_SCENARIOS
    executors_covered = {s.executor for s in SCENARIOS}
    assert executors_covered == {INLINE, PIPELINED, RESIDENT}
    assert executors_covered <= set(cli_smoke_matrix())
    assert any(s.num_queries > 1 for s in SCENARIOS)


# -- churn torture: the hostile-environment grid vs. the serial reference -----
#
# The scenarios above fuzz executor *configuration* over a well-behaved
# population.  These drag every executor through hostile *environments* from
# the seeded grid of repro.runtime.scenario — per-epoch join/leave churn,
# Zipf skew, byzantine duplicate injection, epoch deadlines — and demand the
# same byte-identity with the serial reference (compared via the run digest,
# which covers the response log, window results and late-drop ledger).

import dataclasses  # noqa: E402

import repro.core  # noqa: E402
from repro.core.client import ClientResponse  # noqa: E402
from repro.runtime.scenario import run_scenario as run_env_scenario  # noqa: E402
from repro.runtime.scenario import scenario_grid  # noqa: E402

CHURN_SCENARIO_NAMES = ("churn-mild", "churn-heavy", "zipf-churn", "kitchen-sink")
CHURN_SPECS = [
    spec for spec in scenario_grid("full") if spec.name in CHURN_SCENARIO_NAMES
]
# kitchen-sink (churn + duplicates + an armed deadline) once more with two
# co-subscribed queries: the sampling coins differ per query, so the
# per-query drop ledgers differ too.
CHURN_SPECS.append(
    dataclasses.replace(CHURN_SPECS[-1], name="kitchen-sink-two-queries", num_queries=2)
)
# Every single-host driver combination; the worker-driver spellings once more
# with every emit held back to the end of the epoch and replayed in reverse
# shard order (``reversed_emits``, conftest.py); and the resident spelling
# once more with every pinned worker killed after each epoch
# (``respawned_workers``, conftest.py).
REVERSED_EMITS = [
    pytest.param(
        spelling, marks=pytest.mark.reversed_emits, id=f"{spelling}+reversed-emits"
    )
    for spelling in cli_smoke_matrix()[1:]
    if not spelling.startswith("inline/")
]
RESPAWNED_WORKERS = pytest.param(
    RESIDENT, marks=pytest.mark.respawned_workers, id=f"{RESIDENT}+respawned-workers"
)
CHURN_EXECUTORS = [*cli_smoke_matrix()[1:], *REVERSED_EMITS, RESPAWNED_WORKERS]


def _run_churn_ledger(monkeypatch, spec, **executor_options) -> dict:
    """Run one grid scenario and return everything an epoch leaves behind.

    The run digest, plus the pieces it is made of in directly comparable
    form: the per-epoch per-query ``late_drops``, the engine's
    ``StageMetrics.late_drops`` (``None`` under serial, which has no stage
    ledger) and the response log.  ``run_scenario`` builds and closes its
    own system, so a recording subclass keeps hold of it.
    """
    systems = []

    class RecordingSystem(PrivApproxSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.reports = []
            systems.append(self)

        def run_epoch_all(self, epoch):
            reports = super().run_epoch_all(epoch)
            self.reports.append(reports)
            return reports

    monkeypatch.setattr(repro.core, "PrivApproxSystem", RecordingSystem)
    run = run_env_scenario(spec, **executor_options)
    (system,) = systems
    stage_metrics = getattr(system.executor, "stage_metrics", None)
    responses = [
        response
        for query_id in system.query_ids()
        for response in system.responses_log(query_id)
    ]
    # A late marker must never outlive the gate.
    assert all(type(response) is ClientResponse for response in responses)
    return {
        "label": run.executor_label,
        "digest": run.digest,
        "late_drops": [
            {query_id: report.late_drops for query_id, report in reports.items()}
            for reports in system.reports
        ],
        "stage_late_drops": None
        if stage_metrics is None
        else [stage_metrics[epoch].late_drops for epoch in range(spec.num_epochs)],
        "responses": [
            (
                r.client_id,
                r.query_id,
                r.epoch,
                r.truthful_bits,
                r.randomized_bits,
                tuple(share.payload for share in r.encrypted.shares),
            )
            for r in responses
        ],
    }


_serial_ledgers: dict[str, dict] = {}


def _serial_churn_ledger(monkeypatch, spec) -> dict:
    ledger = _serial_ledgers.get(spec.name)
    if ledger is None:
        ledger = _serial_ledgers[spec.name] = _run_churn_ledger(
            monkeypatch, spec, executor="serial"
        )
    return ledger


@pytest.mark.parametrize("executor", CHURN_EXECUTORS)
@pytest.mark.parametrize("spec", CHURN_SPECS, ids=[s.name for s in CHURN_SPECS])
def test_churn_scenario_matches_serial_reference(spec, executor, monkeypatch):
    """Seeded join/leave churn between epochs is executor-invariant — and so
    is the deadline gate's ledger, whether a driver *built* the late answers
    it dropped (serial, wire workers) or only *drew* them (in-process
    drivers handed the plan stage's late set)."""
    assert spec.join_rate > 0 and spec.leave_rate > 0  # really a churn scenario
    serial = _serial_churn_ledger(monkeypatch, spec)
    ledger = _run_churn_ledger(
        monkeypatch,
        spec,
        executor=executor,
        workers=2,
        shards=3,
    )
    assert ledger["digest"] == serial["digest"], (
        f"{spec.name} on {ledger['label']} diverged from the serial reference"
    )
    assert ledger["late_drops"] == serial["late_drops"]
    assert ledger["stage_late_drops"] == [
        sum(len(drops) for drops in epoch_drops.values())
        for epoch_drops in serial["late_drops"]
    ]
    assert ledger["responses"] == serial["responses"]
    if spec.deadline_seconds is not None:
        assert sum(ledger["stage_late_drops"]) > 0  # the gate really fired


# -- indexed answer path: scan reference vs compiled columnar -----------------
#
# The sqldb differential fuzzer proves compiled == scan per query; this
# drags one full hostile scenario (churn + skew + injections + deadlines)
# over the compiled columnar answer path on every executor configuration
# and demands the run digest match serial + SQLDB_FORCE_SCAN — the whole
# pipeline, not just the SELECT, must be unable to tell the paths apart.

@pytest.mark.parametrize(
    "mode", ["arena", "per-client"], ids=["arena", "per-client"]
)
@pytest.mark.parametrize(
    "executor", [*cli_smoke_matrix(), *REVERSED_EMITS, RESPAWNED_WORKERS]
)
def test_indexed_answer_path_matches_scan_reference(executor, mode, monkeypatch):
    """The full differential ladder over one hostile scenario: shard-wide
    arena answering (the default) and the per-client compiled path
    (``SQLDB_FORCE_PER_CLIENT=1``) must both match serial + forced row scan
    digest-for-digest — the whole pipeline, not just the SELECT, must be
    unable to tell the three paths apart."""
    spec = next(s for s in scenario_grid("full") if s.name == "kitchen-sink")
    monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
    reference_digest = run_env_scenario(spec, executor="serial").digest
    monkeypatch.setenv("SQLDB_FORCE_SCAN", "0")
    monkeypatch.setenv(
        "SQLDB_FORCE_PER_CLIENT", "1" if mode == "per-client" else "0"
    )
    run = run_env_scenario(
        spec,
        executor=executor,
        workers=2,
        shards=3,
    )
    assert run.digest == reference_digest, (
        f"{mode} path on {run.executor_label} diverged from serial+scan"
    )


# -- shard-arena maintenance under churn and ShardDelta traffic ---------------
#
# The resident answer path now probes a shard-wide arena; these pin that the
# torture traffic the resident runtime actually generates — subscription
# churn and ShardDelta row appends — syncs the arena incrementally and never
# triggers a spurious rebuild (a rebuild per epoch would silently erase the
# one-probe-per-shard win while every digest still matched).

from repro.core.client import Client, ClientConfig  # noqa: E402
from repro.runtime.affinity import ResidentShardCache  # noqa: E402
from repro.runtime.engine import answer_shard  # noqa: E402
from repro.runtime.wire import ClientDelta  # noqa: E402
from repro.sqldb import ShardArena  # noqa: E402


def _arena_clients(count: int = 6) -> tuple[list[Client], str]:
    analyst = Analyst("arena-torture")
    query = analyst.create_query(
        "SELECT value FROM private_data WHERE value >= 2.0",
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True),
            value_column="value",
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )
    params = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5)
    rng = random.Random(DATA_SEED)
    clients = []
    for index in range(count):
        client = Client(
            ClientConfig(client_id=f"arena-{index:02d}", num_proxies=2, seed=900 + index)
        )
        client.create_table([("value", "REAL")])
        client.ingest([{"value": rng.uniform(0.0, 8.0)} for _ in range(4)])
        client.subscribe(query, params)
        clients.append(client)
    return clients, query.query_id


def test_shard_delta_traffic_never_rebuilds_the_arena():
    """Bootstrap once, then epochs of ShardDelta row appends: the resident
    arena must sync in place — rebuild count pinned at the initial build."""
    clients, query_id = _arena_clients()
    cache = ResidentShardCache()
    cache.install(0, clients)
    arena = cache.arena_for(0)
    assert arena is not None
    answer_shard(clients, [query_id], 0, arena=arena)
    stats = arena.arena_stats()["private_data"]
    assert stats["rebuilds"] == 1
    appended_before = stats["appended_rows"]
    columns = (("value", "REAL"),)
    for epoch in range(1, 6):
        # The exact traffic serve_resident_frame applies for a ShardDelta.
        for client in clients[:: 1 + epoch % 2]:
            delta = ClientDelta(
                append_rows=((("private_data", columns, ((float(epoch),),))),)
            )
            client.apply_delta(delta)
            client.database.sync_columnar()
        assert cache.arena_for(0) is arena  # same membership, same arena
        answer_shard(clients, [query_id], epoch, arena=arena)
        stats = arena.arena_stats()["private_data"]
        assert stats["rebuilds"] == 1, f"spurious arena rebuild at epoch {epoch}"
    assert stats["appended_rows"] > appended_before
    assert stats["span_rows"] == sum(
        client.local_row_count() for client in clients
    )


def test_subscription_churn_keeps_the_resident_arena():
    """set_active_clients-style churn is subscription-only: client and
    database objects survive, so the arena must survive with them."""
    clients, query_id = _arena_clients()
    cache = ResidentShardCache()
    cache.install(0, clients)
    arena = cache.arena_for(0)
    for epoch in range(4):
        # Flip half the shard out and back in, as churn scenarios do.
        for client in clients[epoch % 2 :: 2]:
            subscription = client.subscriptions.get(query_id)
            if subscription is not None:
                client.unsubscribe(query_id)
            # Re-subscribe the others that were flipped out last epoch.
        answer_shard(clients, [query_id], epoch, arena=cache.arena_for(0))
        assert cache.arena_for(0) is arena
    assert arena.arena_stats()["private_data"]["rebuilds"] == 1


def test_rebootstrap_replaces_the_arena_with_the_clients():
    """A re-bootstrap installs new client objects; identity-based matching
    must drop the stale arena instead of answering from dead databases."""
    clients, query_id = _arena_clients(count=3)
    cache = ResidentShardCache()
    cache.install(0, clients)
    stale = cache.arena_for(0)
    replacements = [
        Client.from_state(client.export_state()) for client in clients
    ]
    cache.install(0, replacements)
    fresh = cache.arena_for(0)
    assert fresh is not stale
    assert fresh.matches([client.database for client in replacements])
    answer_shard(replacements, [query_id], 1, arena=fresh)


def _latest_row_shard(columns, statements, members):
    """One client per route-table member — plus a mixed-schema member, which
    the arena flags for per-client fallback — each subscribed to one query
    per statement."""
    analyst = Analyst("latest-row")
    params = ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5)
    queries = [
        analyst.create_query(
            sql,
            AnswerSpec(
                buckets=RangeBuckets.uniform(0.0, 8.0, 8, open_ended=True),
                value_column="value",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        for sql, _, _ in statements
    ]
    shard = [(name, columns, rows) for name, rows in members.items()]
    shard.insert(1, ("mixed-schema", [*columns, ("extra", "REAL")], [(4.0, 1, None, 0.5)]))
    clients = []
    for index, (name, schema, rows) in enumerate(shard):
        client = Client(ClientConfig(client_id=name, num_proxies=2, seed=700 + index))
        client.create_table(list(schema))
        client.database.table("private_data").append_rows(rows)
        for query in queries:
            client.subscribe(query, params)
        clients.append(client)
    return clients, [query.query_id for query in queries]


def _shard_outcome(clients, query_id, epoch, arena):
    """``answer_shard``'s responses in comparable form, or the error it raised."""
    try:
        (block,) = answer_shard(clients, [query_id], epoch, arena=arena)
    except Exception as exc:  # noqa: BLE001 — parity includes error behavior
        return ("error", type(exc).__name__, str(exc))
    return [
        (
            r.client_id,
            r.query_id,
            r.epoch,
            r.truthful_bits,
            r.randomized_bits,
            tuple(share.payload for share in r.encrypted.shares),
        )
        for r in map(block.response, range(len(block)))
    ]


def test_latest_row_arena_answers_equal_per_client_answers(latest_row_cases):
    """``answer_shard`` with an arena (standing answers in the scan cache)
    ≡ without one (every client asks its own one-slot arena, and the row
    scan for what that does not answer), response for response — truthful
    bits included — over the whole route table."""
    columns, statements, members = latest_row_cases
    with_arena, query_ids = _latest_row_shard(columns, statements, members)
    without, _ = _latest_row_shard(columns, statements, members)
    arena = ShardArena([client.database for client in with_arena])
    answered = 0
    for epoch in range(2):
        for query_id in query_ids:
            got = _shard_outcome(with_arena, query_id, epoch, arena)
            assert got == _shard_outcome(without, query_id, epoch, None), query_id
            if got[0] != "error":
                assert [row[0] for row in got] == [c.config.client_id for c in with_arena]
                answered += 1
        # A newer matching row on one member between epochs, as ShardDelta does.
        for clients in (with_arena, without):
            clients[0].database.table("private_data").append_rows([(7.5, 1, None)])
    assert answered >= len(statements)  # most statements raise for no member
    assert arena.arena_stats()["private_data"]["rebuilds"] == 1
