"""The staged epoch engine: one dataflow, pluggable stage drivers.

Every parallel runtime runs the same answering epoch — plan shards, answer
them, drop the late answers, transmit to the proxy brokers, ingest into the
aggregators.  :class:`StagedEpochEngine` is its single implementation,
decomposing an epoch into explicit stages:

    plan -> answer -> transmit -> ingest -> finalize

and delegates *how the answer stage runs* to a pluggable
:class:`StageDriver`.  Drivers are classified along two orthogonal axes
(declared in :mod:`repro.runtime.executor`):

* **scheduling** — ``inline`` (caller thread), ``pipelined-overlap``
  (answer tasks on a thread pool, collected in completion order),
  ``pinned-worker`` (long-lived workers holding resident state);
* **transport** — ``in-process`` (shared objects), ``framed-wire-local``
  (:mod:`repro.runtime.wire` frames in HMAC-sealed envelopes to workers
  spawned on loopback), ``sealed-tcp-remote`` (the same envelopes to
  separately launched workers).

The engine owns all policy, so no driver carries its own copy:

* the deadline: :meth:`StagedEpochEngine._gate` drops every answer whose
  client is in ``EpochContext.late`` and returns the per-query drop ledger
  with the outcome — drivers hand raw blocks to :meth:`EpochHandle.emit`
  and at most read the set to flip only the coins of known-late clients
  instead of building their answers;
* per-epoch :class:`StageMetrics` (stage wall-clocks, wire bytes, late
  drops);
* static shard boundaries: :func:`~repro.runtime.sharding.plan_shards` over
  the population size, so a deployment's shards never move and wall-clock
  reaches the metrics but never the control path;
* the one epoch flow: the driver's ``begin_epoch`` and ``collect`` run on
  the caller thread, and each :meth:`EpochHandle.emit` gates, relays (one
  column record per proxy on each query's channel topic,
  :func:`_publish_shard`) and ingests (each query's context consumers,
  :func:`~repro.core.proxy.poll_shares`) its shard before it returns.  The
  engine starts no thread of its own: the only concurrency is the driver's
  answering pool, worker processes or sockets, which keep answering while
  the caller relays what has already come back.

:class:`~repro.runtime.serial.SerialExecutor` deliberately stays *outside*
the engine: it is the frozen executable specification every driver
combination must match byte-for-byte (``docs/ARCHITECTURE.md``, the
equivalence and torture suites).

The driver *mechanisms* live next to the machinery they drive: the
in-process drivers here, the resident driver in
:mod:`repro.runtime.affinity`, and its sealed transports in
:mod:`repro.runtime.remote`.  :func:`~repro.runtime.executor.make_executor`
builds the engine for a ``"scheduling/transport"`` spelling.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.runtime.executor import (
    EpochContext,
    EpochExecutor,
    EpochOutcome,
    QueryEpochOutcome,
    validate_driver_combo,
)
from repro.runtime.sharding import Shard, plan_shards
from repro.sqldb import (
    ARENA_FALLBACK,
    ShardArena,
    arena_select_per_client,
    cached_shard_arena,
)

if TYPE_CHECKING:
    from repro.core.client import Client, ResponseBlock
    from repro.core.query import Query
    from repro.pubsub import Consumer


def answer_shard(
    clients: list["Client"],
    query_ids: Sequence[str],
    epoch: int,
    arena: ShardArena | None = None,
    late: frozenset[str] = frozenset(),
) -> list["ResponseBlock"]:
    """Answer one shard of clients for one epoch (every driver's shard task).

    The return value holds one :class:`~repro.core.client.ResponseBlock` per
    query, its rows the participants in client order (empty when nobody in
    the shard participates).  Each query is answered as a column over the
    shard:

    1. **Coins.**  Every member's coin for every query is flipped before any
       SQL runs, one pass per query (:func:`~repro.core.client.coin_columns`;
       a coin is a pure function of ``(key, query, epoch)``, so this is
       draw-neutral).
    2. **Arena asks.**  With a :class:`~repro.sqldb.columnar.ShardArena`
       over these clients' databases, each statement is asked once, for the
       slots of its participants only (:func:`shard_outcomes`) — draw-neutral
       too, since SQL consumes no randomness.
    3. **Buckets.**  Each participant's bucket is the bucket of its
       outcome's value (:func:`~repro.core.client.answer_value`).  Members
       the arena does not answer — flagged
       :data:`~repro.sqldb.ARENA_FALLBACK`, a statement that falls back for
       the whole shard, or every member when there is no arena — read their
       outcome themselves (:meth:`Client._query_outcome
       <repro.core.client.Client._query_outcome>`).
    4. **Blocks.**  Each query's ``(client, (coin, bucket))`` rows become one
       block a column at a time — randomized, encoded and XOR-split for all
       of its rows at once (:meth:`ResponseBlock.build
       <repro.core.client.ResponseBlock.build>`).

    Every participant's outcome is read and bucketed before any block is
    built, and when several ``(client, query)`` pairs raise — reading the
    statement or bucketing its value — the first in client-major order
    raises, as under serial.

    ``late`` is the epoch's late set (``EpochContext.late``): a late
    participant reads its outcome (so a statement that raises for it still
    raises) and is named in its query's block's ``late_ids`` instead of
    holding a row, for the engine's gate to record; nothing is built for
    it.  It stays in the arena's slot set.
    """
    # Imported here: repro.core imports repro.runtime at package level.
    from repro.core.client import ResponseBlock, answer_value, coin_columns

    columns = coin_columns(clients, query_ids, epoch)
    slots_per_sql: dict[str, set[int]] = {}
    for coins in columns:
        for slot, coin in enumerate(coins):
            if coin is not None:
                slots = slots_per_sql.get(coin[0].sql)
                if slots is None:
                    slots = slots_per_sql[coin[0].sql] = set()
                slots.add(slot)
    asked = shard_outcomes(
        clients, arena, {sql: sorted(slots) for sql, slots in slots_per_sql.items()}
    )
    own_caches: dict[int, dict] = {}  # members answering alone, one cache each
    errors: list[tuple[int, int, Exception]] = []
    blocks_rows: list[tuple[list, list[str]]] = []
    for index, coins in enumerate(columns):
        rows: list = []
        late_ids: list[str] = []
        blocks_rows.append((rows, late_ids))
        for slot, coin in enumerate(coins):
            if coin is None:
                continue
            query, client = coin[0], clients[slot]
            outcomes = None if asked is None else asked.get(query.sql)
            outcome = ARENA_FALLBACK if outcomes is None else outcomes[slot]
            try:
                if outcome is ARENA_FALLBACK:
                    outcome = client._query_outcome(query, own_caches.setdefault(slot, {}))
                elif isinstance(outcome, BaseException):
                    errors.append((slot, index, outcome))
                    continue
                if late and client.config.client_id in late:
                    late_ids.append(client.config.client_id)
                    continue
                spec = query.answer_spec
                bucket = spec.buckets.bucket_of(answer_value(outcome, spec.value_column))
            except Exception as exc:  # noqa: BLE001 - raised below, in serial's order
                errors.append((slot, index, exc))
                continue
            rows.append((client, (coin, bucket)))
    if errors:
        raise min(errors, key=lambda error: error[:2])[2]
    num_proxies = clients[0].config.num_proxies if clients else 2
    return [
        ResponseBlock.build(query_id, epoch, rows, num_proxies, late_ids=tuple(late_ids))
        for query_id, (rows, late_ids) in zip(query_ids, blocks_rows)
    ]


def shard_outcomes(
    clients: list["Client"],
    arena: ShardArena | None,
    slots_per_sql: dict[str, list[int]],
) -> dict[str, list | None] | None:
    """Ask the shard's arena once per statement, for the listed slots.

    ``slots_per_sql`` maps each statement to the ascending slots that read
    it.  Returns ``{sql: outcomes}`` — each list aligned with ``clients``,
    :func:`~repro.sqldb.engine.arena_select_per_client`'s answer: a member's
    standing outcome (its result's columns over at most its last row, or
    the exception ``client.database.query(sql)`` raises), or
    :data:`ARENA_FALLBACK` for a slot not asked or one the arena excludes;
    ``None`` for a statement that falls back for every member (refused by
    the parser, missing table, unknown projected column).  Returns ``None``
    when the arena is absent or no longer matches the shard's databases
    (churn replaced a member — the caller answers per-client and the arena
    owner rebuilds on the next fetch).

    The arena is synced once, before the first ask (:meth:`ShardArena.sync
    <repro.sqldb.columnar.ShardArena.sync>`): client SQL only reads, so
    nothing changes a member's tables between two asks of one pass.  The
    answer pass and the ground truth
    (:meth:`StagedEpochEngine.truth_scan_caches`) both ask through here.
    """
    if arena is None or not clients:
        return None
    if not arena.matches([client.database for client in clients]):
        return None
    if slots_per_sql:
        arena.sync()
    return {
        sql: arena_select_per_client(arena, sql, slots=slots)
        for sql, slots in slots_per_sql.items()
    }


def _timed_answer_shard(
    clients: list["Client"],
    query_ids: Sequence[str],
    epoch: int,
    arena: ShardArena | None = None,
    late: frozenset[str] = frozenset(),
) -> tuple[list["ResponseBlock"], float]:
    """:func:`answer_shard`'s blocks plus its own wall-clock, for stage
    accounting."""
    started = time.perf_counter()
    blocks = answer_shard(clients, query_ids, epoch, arena=arena, late=late)
    return blocks, time.perf_counter() - started


@dataclass
class StageMetrics:
    """One epoch's unified stage accounting, emitted by every driver combo.

    ``wire_bytes`` counts every serialized frame that crossed a process or
    socket border this epoch (bootstraps/deltas out plus acks back) —
    zero for in-process transports.  ``late_drops`` counts answers the
    engine's gate removed at the transmit boundary because their client was
    in ``EpochContext.late``.
    ``reshard_events`` is always 0 now that shard boundaries are static; it
    stays only because the ``epoch_profile`` benchmark still reads it, and
    the next benchmark change retires it.  Stage seconds measure *active*
    work: ``answer_seconds`` sums the drivers' per-shard answering wall-clocks,
    which overlap each other (and the caller's transmit and ingest) on pool
    and worker drivers, so the stages legitimately sum to more than the
    epoch's wall-clock.
    """

    epoch: int
    plan_seconds: float = 0.0
    answer_seconds: float = 0.0
    transmit_seconds: float = 0.0
    ingest_seconds: float = 0.0
    finalize_seconds: float = 0.0
    wire_bytes: int = 0
    late_drops: int = 0
    reshard_events: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def add_wire_bytes(self, count: int) -> None:
        """Thread-safe wire accounting (a driver may call from any thread)."""
        with self._lock:
            self.wire_bytes += count

    def add_late_drops(self, count: int) -> None:
        with self._lock:
            self.late_drops += count

    def add_stage_seconds(self, stage: str, seconds: float) -> None:
        with self._lock:
            setattr(self, f"{stage}_seconds", getattr(self, f"{stage}_seconds") + seconds)


class EpochHandle:
    """Everything a driver needs for one epoch, plus the emit contract.

    The driver must call :meth:`emit` **exactly once per occupied shard** —
    success or failure — from the caller thread (inside ``collect``), with
    the shard's raw (ungated) per-query
    :class:`~repro.core.client.ResponseBlock` s.  ``emit`` returns
    once the engine has gated, relayed and ingested that shard, and it
    never raises: the epoch's first error is recorded and every later emit
    is ignored, so a driver keeps collecting until every answer task it
    started has finished.  A shard emitted twice, or an occupied shard
    never emitted, fails the epoch with a ``RuntimeError`` naming the
    broken emit contract.

    Drivers that answer in this process hand ``context.late`` to
    :func:`answer_shard`; wire drivers ignore it (their frames have no field
    for it yet) and keep building the rows the gate drops.
    """

    __slots__ = ("context", "epoch", "occupied", "query_ids", "metrics", "emit")

    def __init__(self, context: EpochContext, epoch: int, occupied: list[Shard],
                 metrics: StageMetrics, emit) -> None:
        self.context = context
        self.epoch = epoch
        self.occupied = occupied
        self.query_ids = tuple(context.query_ids)
        self.metrics = metrics
        self.emit = emit


class StageDriver:
    """Base class for answer-stage drivers.

    A driver declares its position on the two axes (``scheduling`` ×
    ``transport``; validated against the registry in
    :mod:`repro.runtime.executor`) and implements the *mechanism* of the
    answer stage.  All policy — dropping late answers, metrics, shard planning,
    relay and ingest, failure unwinding — stays in the engine.

    Lifecycle hooks, all called on the caller thread (all optional except
    :meth:`collect`):

    * :meth:`prepare` — before planning (heal dead workers, drain stale
      acks);
    * :meth:`begin_epoch` — start the epoch's answering (submit pool tasks,
      send frames) before any shard is emitted; a failure here fails the
      epoch with nothing relayed;
    * :meth:`collect` — call :meth:`EpochHandle.emit` once per occupied
      shard as its result comes back, success or failure, and return only
      after every answer task this epoch started has finished.
    """

    scheduling = "inline"
    transport = "in-process"
    #: Resident-protocol frame counters; stateless drivers send none.
    bootstrap_frames = 0
    delta_frames = 0

    def bind(self, engine: "StagedEpochEngine") -> None:
        self.engine = engine

    def prepare(self, context: EpochContext, epoch: int) -> None:
        """Pre-plan hook (heal workers, record the context for shutdown)."""

    def begin_epoch(self, handle: EpochHandle) -> None:
        """Start the epoch's answering work (before any emit; may raise)."""

    def collect(self, handle: EpochHandle) -> None:
        """Emit every occupied shard's result, once each."""
        raise NotImplementedError

    def close(self) -> None:
        """Release driver-owned resources (pools, routers); idempotent."""


class StagedEpochEngine(EpochExecutor):
    """Epoch execution as explicit stages over one pluggable stage driver.

    Satisfies the seeded-equivalence contract for every registered driver
    combination: results are byte-identical to
    :class:`~repro.runtime.serial.SerialExecutor` for a fixed seed,
    regardless of scheduling or transport.

    Parameters
    ----------
    driver:
        The answer-stage driver; its ``scheduling``/``transport`` axes are
        validated against the combo registry.
    num_workers:
        Workers in the answering pool.
    num_shards:
        Shard count; defaults to ``num_workers``.  More shards than workers
        gives finer pipelining.
        Boundaries are ``plan_shards(len(context.clients), num_shards)``
        every epoch: a deployment's client list is fixed (churn flips
        subscriptions, never the list), so its shards never move.
    """

    def __init__(
        self,
        driver: StageDriver,
        num_workers: int = 4,
        num_shards: int | None = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if num_shards is not None and num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        validate_driver_combo(driver.scheduling, driver.transport)
        self.num_workers = num_workers
        self.num_shards = num_shards if num_shards is not None else num_workers
        self.driver = driver
        self.scheduling = driver.scheduling
        self.transport = driver.transport
        #: Per-epoch StageMetrics, success and failure alike.
        self.stage_metrics: dict[int, StageMetrics] = {}
        #: Shard index → ShardArena for the in-process drivers; reused across
        #: epochs while the shard's member databases are identical objects.
        self._arenas: dict[int, ShardArena] = {}
        driver.bind(self)

    def arena_for(
        self, shard_index: int, clients: list["Client"]
    ) -> ShardArena | None:
        """The shard's cached arena (:func:`~repro.sqldb.cached_shard_arena`).

        Call only on the epoch caller thread (shards are disjoint, so the
        per-shard arenas themselves may then be used concurrently).  The
        in-process drivers call it there while an epoch runs, and
        :meth:`truth_scan_caches` (the ground truth) calls it there
        between epochs.
        """
        return cached_shard_arena(
            self._arenas, shard_index, [client.database for client in clients]
        )

    def truth_scan_caches(
        self, clients: list["Client"], query: "Query"
    ) -> list[dict | None]:
        """The ground truth's scan caches, read off this engine's shard arenas.

        Walks the epoch's shards (``plan_shards`` over ``clients``) and asks
        each shard's arena once, through :func:`shard_outcomes`, for the
        members subscribed to ``query``, so no coin is flipped and nothing
        is drawn.  A shard with no arena (pinned by ``SQLDB_FORCE_SCAN``)
        gives its members ``None``, and a slot the arena does not answer gets
        an empty cache: those clients answer alone, as under serial.
        """
        caches: list[dict | None] = []
        for shard in plan_shards(len(clients), self.num_shards):
            members = clients[shard.as_slice()]
            slots = [
                slot
                for slot, client in enumerate(members)
                if client.is_subscribed(query.query_id)
            ]
            asked = shard_outcomes(
                members,
                self.arena_for(shard.index, members),
                {query.sql: slots} if slots else {},
            )
            if asked is None:
                caches.extend([None] * len(members))
                continue
            outcomes = asked.get(query.sql) or [ARENA_FALLBACK] * len(members)
            caches.extend(
                {} if outcome is ARENA_FALLBACK else {query.sql: outcome}
                for outcome in outcomes
            )
        return caches

    # -- accounting -----------------------------------------------------------

    @property
    def epoch_wire_bytes(self) -> dict[int, int]:
        """Epoch → serialized frame bytes, derived from :attr:`stage_metrics`.

        Read by the scenario sweep's wire accounting.
        """
        return {
            epoch: metrics.wire_bytes for epoch, metrics in self.stage_metrics.items()
        }

    @property
    def bootstrap_frames(self) -> int:
        """``ShardBootstrap`` frames the driver has sent so far."""
        return self.driver.bootstrap_frames

    @property
    def delta_frames(self) -> int:
        """``ShardDelta`` frames the driver has sent so far."""
        return self.driver.delta_frames

    def close(self) -> None:
        """Close the driver (stop workers, shut its pool down) and drop the
        cached arenas (idempotent)."""
        try:
            self.driver.close()
        finally:
            self._arenas.clear()

    # -- the deadline ---------------------------------------------------------

    @staticmethod
    def _gate(
        late: frozenset[str],
        blocks: list["ResponseBlock"],
        late_drops: list[list[str]],
        metrics: StageMetrics,
    ) -> list["ResponseBlock"]:
        """Drop one shard's late answers at the transmit boundary.

        A participant whose client is in ``late`` never reaches the proxies:
        an in-process driver that flipped only its coin named it in the
        block's ``late_ids``, a pinned worker built its row in full and the
        block is sliced by client id.  Either way its client id goes on the
        query's ``late_drops`` list and the count lands in the metrics.
        Draws are addressed by ``(client, query, epoch)``, so what a late
        client did or did not build changes none of its later answers.
        """
        if not late:
            return blocks
        gated = []
        for block, dropped in zip(blocks, late_drops):
            kept = [row for row, client_id in enumerate(block.client_ids) if client_id not in late]
            metrics.add_late_drops(len(block.late_ids) + len(block) - len(kept))
            dropped.extend(block.late_ids)
            if len(kept) < len(block):
                dropped.extend(client_id for client_id in block.client_ids if client_id in late)
                block = block.select(kept)
            elif block.late_ids:
                block = replace(block, late_ids=())
            gated.append(block)
        return gated

    # -- epoch execution ------------------------------------------------------

    def run_epoch(self, context: EpochContext, epoch: int) -> EpochOutcome:
        """Plan the shards, then gate, relay and ingest each one as it is emitted.

        The driver's ``begin_epoch`` and ``collect`` run on this (the
        caller's) thread, and so does every :meth:`EpochHandle.emit`: it
        drops the shard's late answers (:meth:`_gate`), publishes one column
        record per proxy on each query's channel topic (:func:`_publish_shard`),
        then polls each query's context consumers and ingests what they hold
        (the aggregator's one ``ingest_shares``) before it returns.  Shards
        arrive in whatever order the driver collects them; the per-query
        blocks are merged in shard-index (= client) order at the end.

        The first error — an error emit, a relay or ingest failure, a
        driver hook that raises, a shard emitted twice or an occupied shard
        never emitted — is recorded and every later emit ignored, while the
        driver keeps collecting until every answer task it started has
        finished.  Then every query's consumers are drained (whatever was
        relayed but not ingested must not reach the next epoch) and the
        error re-raises.
        """
        # Imported here: repro.core imports repro.runtime at package level.
        from repro.core.proxy import poll_shares

        metrics = StageMetrics(epoch=epoch)
        self.stage_metrics[epoch] = metrics
        plan_started = time.perf_counter()
        self.driver.prepare(context, epoch)
        shards = plan_shards(len(context.clients), self.num_shards)
        occupied = [shard for shard in shards if shard.num_items > 0]
        metrics.plan_seconds = time.perf_counter() - plan_started

        blocks_by_shard: list[list | None] = [None] * len(shards)
        window_results: list[list] = [[] for _ in context.queries]
        late_drops: list[list[str]] = [[] for _ in context.queries]
        answer_walls: dict[int, float] = {}
        awaited = {shard.index for shard in occupied}
        failure: Exception | None = None

        def emit(shard_index, blocks, error=None, wall_seconds=None):
            nonlocal failure
            if failure is not None:
                return
            if shard_index not in awaited:
                failure = RuntimeError(
                    f"stage driver broke the emit contract: shard {shard_index} "
                    "was emitted twice or is not an occupied shard of this epoch"
                )
                return
            awaited.remove(shard_index)
            if error is not None:
                failure = error
                return
            try:
                gated = self._gate(context.late, blocks, late_drops, metrics)
                relay_started = time.perf_counter()
                _publish_shard(context, gated)
                ingest_started = time.perf_counter()
                metrics.add_stage_seconds("transmit", ingest_started - relay_started)
                for index, query in enumerate(context.queries):
                    shares = poll_shares(query.consumers)
                    if shares:
                        window_results[index].extend(
                            query.aggregator.ingest_shares(shares, epoch)
                        )
                metrics.add_stage_seconds("ingest", time.perf_counter() - ingest_started)
            except Exception as exc:
                failure = exc
                return
            blocks_by_shard[shard_index] = gated
            if wall_seconds is not None:
                answer_walls[shard_index] = wall_seconds

        handle = EpochHandle(context, epoch, occupied, metrics, emit)
        try:
            self.driver.begin_epoch(handle)
            self.driver.collect(handle)
        except Exception as exc:
            if failure is None:
                failure = exc
        if failure is None and awaited:
            failure = RuntimeError(
                f"stage driver broke the emit contract: occupied shard(s) "
                f"{sorted(awaited)} were never emitted"
            )
        self._finalize(answer_walls, metrics)
        if failure is not None:
            for query in context.queries:
                _drain_consumers(query.consumers)
            raise failure
        return self._merge_outcome(
            context, shards, blocks_by_shard, window_results, late_drops
        )

    @staticmethod
    def _finalize(answer_walls: dict[int, float], metrics: StageMetrics) -> None:
        started = time.perf_counter()
        metrics.answer_seconds = sum(answer_walls.values())
        metrics.finalize_seconds = time.perf_counter() - started

    def _merge_outcome(
        self,
        context: EpochContext,
        shards: list[Shard],
        blocks_by_shard: list,
        window_results: list[list],
        late_drops: list[list[str]],
    ) -> EpochOutcome:
        """Merge per-shard blocks in shard-index (= client) order and sort
        each query's drop ledger (shards arrive in any order)."""
        per_query = []
        for index, query in enumerate(context.queries):
            blocks = [
                shard_blocks[index]
                for shard_blocks in (blocks_by_shard[shard.index] for shard in shards)
                if shard_blocks and len(shard_blocks[index])
            ]
            per_query.append(
                QueryEpochOutcome(
                    query_id=query.query_id,
                    blocks=tuple(blocks),
                    window_results=tuple(window_results[index]),
                    late_drops=tuple(sorted(late_drops[index])),
                )
            )
        return EpochOutcome(per_query=tuple(per_query))


# -- in-process drivers -------------------------------------------------------


def emit_as_completed(handle: EpochHandle, futures: dict[Future, Shard], unpack) -> None:
    """Emit each shard as its future completes; a failed one emits its error.

    ``unpack(shard, result) -> (blocks, wall_seconds)`` turns a finished
    task's result into the shard's emit; whatever it or the task raised
    becomes that shard's error emit.  Returns once every future has
    finished, so no answer task outlives the epoch.
    """
    for future in as_completed(futures):
        shard = futures[future]
        try:
            blocks, wall_seconds = unpack(shard, future.result())
        except Exception as exc:
            handle.emit(shard.index, None, error=exc)
        else:
            handle.emit(shard.index, blocks, wall_seconds=wall_seconds)


class InlineDriver(StageDriver):
    """``inline`` × ``in-process``: answer every shard on the caller thread.

    The minimal engine configuration — no pool, no threads, no serialization
    — and the cheapest way to run the engine's full plan/gate/transmit/
    ingest policy surface.  Useful as a debugging baseline one step above
    the frozen serial reference: shards answer, relay and ingest one after
    another in shard order, deterministic by construction.  A shard that
    fails to answer becomes its error emit and the later shards still
    answer, as they do on every pool driver.
    """

    scheduling = "inline"
    transport = "in-process"

    def collect(self, handle: EpochHandle) -> None:
        for shard in handle.occupied:
            clients = handle.context.clients[shard.as_slice()]
            try:
                arena = self.engine.arena_for(shard.index, clients)
                blocks, wall = _timed_answer_shard(
                    clients,
                    handle.query_ids,
                    handle.epoch,
                    arena=arena,
                    late=handle.context.late,
                )
            except Exception as exc:
                handle.emit(shard.index, None, error=exc)
            else:
                handle.emit(shard.index, blocks, wall_seconds=wall)


class OverlapThreadDriver(StageDriver):
    """``pipelined-overlap`` × ``in-process``: answer tasks on a thread pool.

    Every occupied shard is submitted up front and collected in completion
    order, so the caller relays and ingests early shards while later ones
    are still answering.  The pool threads share the GIL: this overlaps the
    stages, it does not parallelize the answering.  The driver owns its pool
    (``num_workers`` threads, built on the first epoch) and shuts it down
    in :meth:`close`.
    """

    scheduling = "pipelined-overlap"
    transport = "in-process"

    def __init__(self) -> None:
        self._pool: ThreadPoolExecutor | None = None

    def begin_epoch(self, handle: EpochHandle) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.engine.num_workers,
                thread_name_prefix="privapprox-pipeline",
            )
        # Every arena is fetched (replaced when its members changed) on the
        # caller thread before the first task starts; each task then syncs
        # and asks its own shard's arena, and the shards are disjoint.
        tasks = []
        for shard in handle.occupied:
            clients = handle.context.clients[shard.as_slice()]
            tasks.append((shard, clients, self.engine.arena_for(shard.index, clients)))
        self._futures = {
            self._pool.submit(
                _timed_answer_shard,
                clients,
                handle.query_ids,
                handle.epoch,
                arena=arena,
                late=handle.context.late,
            ): shard
            for shard, clients, arena in tasks
        }

    def collect(self, handle: EpochHandle) -> None:
        emit_as_completed(handle, self._futures, lambda _, result: result)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- relay and ingest ---------------------------------------------------------


def _publish_shard(context: EpochContext, gated: list["ResponseBlock"]) -> None:
    """Relay one gated shard — the engine's only relay granularity.

    Every query's block for the shard goes out as one column record per
    proxy on that query's channel topic (``transmit_shard``); a query with
    no participant in the shard publishes nothing.
    """
    for block, query in zip(gated, context.queries):
        context.proxies.transmit_shard(block, channel=query.query_id)


def _drain_consumers(consumers: Sequence["Consumer"]) -> None:
    """Poll and discard everything pending on one query's relay consumers.

    Best-effort cleanup for failed epochs; a consumer that itself fails to
    poll is skipped (the epoch error already surfaces).
    """
    for consumer in consumers:
        try:
            while consumer.poll():
                pass
        except Exception:
            continue
