"""The four epoch_profile workloads.

Each workload is a closed loop: one epoch step runs after the previous one
returned.  They are chosen so that every optimisation has one workload that
exercises it and one that bypasses it (see README.md, "Workloads"):

* ``sql-heavy``     — ``sqldb`` does most of the work, crypto/relay little;
* ``answer-wide``   — randomized response, codec, keystream/XOR and relay
  dominate while ``sqldb`` is near-idle;
* ``stream-append`` — writes beside reads through the pinned-worker wire path;
* ``hostile-mix``   — churn, admission rejections and deadline drops under the
  overlap scheduler.

A workload run is a pure function of ``(seed, epochs, executor)``: the program
receives only the generated inputs.  Client counts were tuned to size the
runs, and ``sql-heavy`` has 256 rows per client so that ``sqldb`` really is
its largest layer; everything else follows ISSUE 12 (README.md, "Deviations").

Worker counts are what the placement in ``harness.run_repeat`` can honour:
``stream-append`` gets one worker process per CPU the coordinator does not
occupy; ``hostile-mix`` runs its pool threads on the coordinator's CPU (they
interleave under the GIL wherever they run), so its pool size is a constant.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable

from repro.analytics import histogram_accuracy_loss
from repro.core import (
    Analyst,
    AnswerSpec,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    SystemConfig,
)
from repro.runtime import scenario
from repro.runtime.scenario import ScenarioSpec, run_scenario

NPROC = os.cpu_count() or 1
EPOCH_SECONDS = 60.0
RR_P = 0.9  # randomized response's first coin, on every workload
POOL_THREADS = 2  # hostile-mix's thread pool; see the module docstring


@dataclass(frozen=True)
class Outcome:
    """What one workload run produced (everything the oracle compares)."""

    digest: str
    accuracy_loss: float


@dataclass(frozen=True)
class TableQuery:
    where: str | None
    buckets: int


@dataclass(frozen=True)
class Workload:
    """One workload: its inputs and its executor."""

    name: str
    why: str
    executor: str
    clients: int
    run: Callable[["Workload", int, int, str, object], Outcome]
    rows: int = 0
    appended_rows: int = 0
    queries: tuple[TableQuery, ...] = ()
    sampling_fraction: float = 0.8
    q: float = 0.5
    workers: int = 1
    shards: int = 4

    def parameters(self) -> dict:
        """The final workload parameters, as recorded in baseline.json."""
        return {
            "executor": self.executor,
            "clients": self.clients,
            "rows": self.rows,
            "appended_rows_per_epoch": self.appended_rows,
            "queries": [f"{q.where or 'TRUE'} / {q.buckets} buckets" for q in self.queries],
            "sampling_fraction": self.sampling_fraction,
            "p": RR_P,
            "q": self.q,
            "workers": self.workers,
            "shards": self.shards,
        }


def _row(rng: random.Random) -> dict:
    return {"value": rng.gammavariate(2.0, 1.0), "zone": rng.randrange(16)}


def _digest(system: PrivApproxSystem, analyst: Analyst, query_ids: list[str]) -> str:
    """sha256 over the responses log and the serialized window results.

    The table workloads set no deadline, so their late-drop ledger is empty
    and this is byte for byte what ``ScenarioRun.digest`` hashes.
    """
    digest = hashlib.sha256()
    for query_id in query_ids:
        scenario._digest_update_responses(digest, system.responses_log(query_id))
        digest.update(scenario._serialize_window_results(analyst.results_for(query_id)))
    return digest.hexdigest()


def _ingest_batches(system: PrivApproxSystem, batches: list[list[dict]]) -> None:
    """The epoch's input change, through the public API (timed: part of the step)."""
    for client, rows in zip(system.clients, batches):
        client.ingest(rows)


def run_tables(workload: Workload, seed: int, epochs: int, executor: str, timer) -> Outcome:
    """Drive a table workload: provision, submit, then one step per epoch.

    ``timer`` is the harness's ``StepTimer``: ``start_setup()`` marks the first
    call into the program, ``segment(fn)`` times an input change as part of
    the epoch step.
    """
    options = {}
    if executor != "serial":
        options = dict(executor_workers=workload.workers, executor_shards=workload.shards)
    # Row generation is harness work: done before set-up starts.
    data_rng = random.Random(seed * 7919 + 1)
    tables = [[_row(data_rng) for _ in range(workload.rows)] for _ in range(workload.clients)]
    timer.start_setup()
    system = PrivApproxSystem(
        SystemConfig(num_clients=workload.clients, seed=seed, executor=executor, **options)
    )
    system.provision_clients([("value", "REAL"), ("zone", "INTEGER")], tables.__getitem__)
    del tables
    analyst = Analyst(f"epoch-profile-{workload.name}")
    parameters = ExecutionParameters(
        sampling_fraction=workload.sampling_fraction, p=RR_P, q=workload.q
    )
    query_ids = []
    for table_query in workload.queries:
        sql = "SELECT value FROM private_data"
        if table_query.where:
            sql += f" WHERE {table_query.where}"
        query = analyst.create_query(
            sql,
            AnswerSpec(
                buckets=RangeBuckets.uniform(0.0, 8.0, table_query.buckets, open_ended=True),
                value_column="value",
            ),
            frequency_seconds=EPOCH_SECONDS,
            window_seconds=EPOCH_SECONDS,
            slide_seconds=EPOCH_SECONDS,
        )
        system.submit_query(analyst, query, QueryBudget(), parameters=parameters)
        query_ids.append(query.query_id)

    ingest = timer.segment(_ingest_batches)
    exact_by_epoch: list[dict[str, list[int]]] = []
    try:
        for epoch in range(epochs):
            if workload.appended_rows:
                # Row generation is harness work; only the ingest is timed.
                batches = [
                    [_row(data_rng) for _ in range(workload.appended_rows)]
                    for _ in range(workload.clients)
                ]
                ingest(system, batches)
            system.run_epoch_all(epoch)
            if workload.appended_rows or not exact_by_epoch:
                # Ground truth is harness work, outside the step; static
                # tables need it only once.
                exact_by_epoch.append(
                    {qid: system.exact_bucket_counts(qid) for qid in query_ids}
                )
        for query_id in query_ids:
            system.flush(query_id)
    finally:
        system.close()

    losses = []
    for query_id in query_ids:
        for result in analyst.results_for(query_id):
            epoch = int(result.window.start // EPOCH_SECONDS)
            exact = exact_by_epoch[min(epoch, len(exact_by_epoch) - 1)][query_id]
            if sum(exact):
                losses.append(histogram_accuracy_loss(exact, result.histogram.estimates()))
    return Outcome(
        digest=_digest(system, analyst, query_ids),
        accuracy_loss=sum(losses) / len(losses) if losses else 0.0,
    )


# Deadline + jitter tuned (ISSUE 12) to a 5-25 % late-drop ratio: phones in
# the long tail miss the deadline when their seeded jitter draws high.
HOSTILE_DEADLINE_SECONDS = 0.0255
HOSTILE_JITTER_SECONDS = 0.03


def run_hostile(workload: Workload, seed: int, epochs: int, executor: str, timer) -> Outcome:
    """Drive the hostile scenario through ``run_scenario`` (it owns the loop)."""
    spec = ScenarioSpec(
        name=workload.name,
        seed=seed,
        num_clients=workload.clients,
        num_epochs=epochs,
        num_queries=2,
        initial_active_fraction=0.7,
        join_rate=0.1,
        leave_rate=0.1,
        zipf_exponent=1.0,
        max_rows_per_client=12,
        duplicate_rate=0.05,
        duplicate_copies=3,
        deadline_seconds=HOSTILE_DEADLINE_SECONDS,
        jitter_seconds=HOSTILE_JITTER_SECONDS,
        sampling_fraction=workload.sampling_fraction,
        p=RR_P,
        q=workload.q,
    )
    timer.start_setup()
    run = run_scenario(
        spec, executor=executor, workers=workload.workers, shards=workload.shards
    )
    return Outcome(digest=run.digest, accuracy_loss=run.mean_accuracy_loss or 0.0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sql-heavy",
            why=(
                "sqldb (arena probe, residual, finisher, ResultSet construction) does most "
                "of the work and crypto/relay little: what a fused aggregate pass must win on"
            ),
            executor="inline/in-process",
            clients=225,
            run=run_tables,
            rows=256,
            queries=(
                TableQuery("value > 4.0", 8),
                TableQuery("zone = 3", 8),
                TableQuery("zone IN (1, 2) AND value < 1.0", 8),
            ),
            sampling_fraction=0.6,
            q=0.6,
        ),
        Workload(
            name="answer-wide",
            why=(
                "randomized response, AnswerCodec, keystream/XOR, relay bytes, share join and "
                "histogram accumulation dominate while sqldb is near-idle: the SQL bypass"
            ),
            executor="inline/in-process",
            clients=135,
            run=run_tables,
            rows=4,
            queries=(TableQuery(None, 128), TableQuery(None, 192)),
            sampling_fraction=0.9,
            q=0.6,
        ),
        Workload(
            name="stream-append",
            why=(
                "sqldb writes beside reads (tail appends, live indexes) plus the only path "
                "where runtime.wire codec, ShardDelta/ShardAck, checkpoints and worker wait matter"
            ),
            executor="pinned-worker/framed-wire-local",
            clients=90,
            run=run_tables,
            rows=16,
            appended_rows=2,
            queries=(
                TableQuery("value > 1.0 AND value < 5.0", 16),
                TableQuery("value >= 2.5", 16),
            ),
            sampling_fraction=0.8,
            workers=max(1, NPROC - 1),
            shards=2 * max(1, NPROC - 1),
        ),
        Workload(
            name="hostile-mix",
            why=(
                "churn, admission/validation rejections, deadline gating and the overlap "
                "scheduler carry the cost; SQL and answer width are small: bypasses both"
            ),
            executor="pipelined-overlap/in-process",
            clients=500,
            run=run_hostile,
            workers=POOL_THREADS,
            shards=4,
        ),
    )
}
