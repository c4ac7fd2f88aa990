"""The staged epoch engine: one dataflow, pluggable stage drivers.

Every parallel runtime runs the same answering epoch — plan shards, answer
them, deadline-gate, transmit to the proxy brokers, ingest into the
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

* the **single** authoritative deadline-gate call site
  (:func:`~repro.runtime.executor.apply_deadline`) — drivers hand raw
  responses to :meth:`EpochHandle.emit` and never see the gate;
* per-epoch :class:`StageMetrics` (stage wall-clocks, wire bytes, late
  drops);
* the worker pool and the per-query shard-topic consumers, whose offsets
  persist across epochs;
* static shard boundaries: :func:`~repro.runtime.sharding.plan_shards` over
  the population size, so a deployment's shards never move and wall-clock
  reaches the metrics but never the control path;
* the one epoch flow: the driver's ``begin_epoch`` and ``collect`` run on
  the caller thread, and each :meth:`EpochHandle.emit` gates, relays (one
  batch record per proxy on the shard's topic, :func:`_publish_shard`) and
  ingests (that shard's slot of each query's consumer grid,
  :func:`_poll_shares`) its shard before it returns.  The engine starts no
  thread of its own: the only concurrency is the driver's answering pool,
  worker processes or sockets, which keep answering while the caller
  relays what has already come back.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.runtime.executor import (
    EpochContext,
    EpochExecutor,
    EpochOutcome,
    QueryEpochOutcome,
    apply_deadline,
    late_drops_for,
    validate_driver_combo,
)
from repro.runtime.sharding import Shard, plan_shards
from repro.sqldb import (
    ARENA_FALLBACK,
    ShardArena,
    arena_answering_enabled,
    arena_select_per_client,
)

if TYPE_CHECKING:
    from repro.core.client import Client, ClientResponse
    from repro.core.proxy import ProxyNetwork
    from repro.pubsub import Consumer


def answer_shard(
    clients: list["Client"],
    query_ids: Sequence[str],
    epoch: int,
    arena: ShardArena | None = None,
    late: frozenset[str] = frozenset(),
) -> tuple[list[list["ClientResponse"]], list["Client"]]:
    """Answer one shard of clients for one epoch (every driver's shard task).

    Every client answers all of ``query_ids`` in one pass; the return value
    holds one participating-response list per query (client order within
    each list) together with the clients themselves, advanced in place.

    With a :class:`~repro.sqldb.columnar.ShardArena` over these clients'
    databases, the epoch's SQL is evaluated once shard-wide and each
    client's pre-computed outcome is injected through its ``scan_cache`` —
    draw-neutral (SQL consumes no randomness), so responses are
    byte-identical to per-client evaluation.  Members flagged for fallback
    simply keep an empty cache and answer themselves.

    ``late`` names the client ids the epoch's deadline gate is already known
    to drop (:meth:`StagedEpochEngine._late_clients`): those members *draw*
    their answers instead of building them (``Client.answer(late=True)``) and
    their participating queries come back as
    :class:`~repro.core.client.LateAnswer` markers, in the same list
    positions a built response would hold, for the gate to drop and record.
    """
    caches = shard_scan_caches(clients, query_ids, arena)
    responses_per_query: list[list["ClientResponse"]] = [[] for _ in query_ids]
    for slot, client in enumerate(clients):
        scan_cache = None if caches is None else caches[slot]
        answers = client.answer(
            query_ids,
            epoch=epoch,
            scan_cache=scan_cache,
            late=client.config.client_id in late,
        )
        for index, response in enumerate(answers):
            if response is not None:
                responses_per_query[index].append(response)
    return responses_per_query, clients


def shard_scan_caches(
    clients: list["Client"],
    query_ids: Sequence[str],
    arena: ShardArena | None,
) -> list[dict] | None:
    """Pre-compute per-client scan caches for one epoch via the shard arena.

    Returns one ``{sql: outcome}`` dict per client, or ``None`` when the
    arena is absent or no longer matches the shard's databases (churn
    replaced a member — the caller answers per-client and the arena owner
    rebuilds on the next sync).  An outcome is the exception that client's
    own evaluation would raise, or the *latest-row form* of its result set
    (:func:`~repro.sqldb.engine.arena_select_per_client` with
    ``latest=True``): the columns of ``client.database.query(sql)`` and at
    most its last row — all :meth:`Client.answer
    <repro.core.client.Client.answer>` reads.  Statements that fall
    back (unparsable, non-SELECT, missing table, compiler fallback) are
    simply absent from every cache; members flagged :data:`ARENA_FALLBACK`
    are absent from that member's cache only.
    """
    if arena is None or not clients:
        return None
    if not arena.matches([client.database for client in clients]):
        return None
    caches: list[dict] = [{} for _ in clients]
    seen: set[str] = set()
    for query_id in query_ids:
        sql = None
        for client in clients:
            sql = client.query_sql(query_id)
            if sql is not None:
                break
        if sql is None or sql in seen:
            continue
        seen.add(sql)
        outcomes = arena_select_per_client(arena, sql, latest=True)
        if outcomes is None:
            continue
        for cache, outcome in zip(caches, outcomes):
            if outcome is ARENA_FALLBACK:
                continue
            cache[sql] = outcome
    return caches


def _timed_answer_shard(
    clients: list["Client"],
    query_ids: Sequence[str],
    epoch: int,
    arena: ShardArena | None = None,
    late: frozenset[str] = frozenset(),
) -> tuple[list[list["ClientResponse"]], float]:
    """:func:`answer_shard`'s responses plus its own wall-clock, for stage
    accounting (in-process: the clients advanced in place)."""
    started = time.perf_counter()
    responses, _ = answer_shard(clients, query_ids, epoch, arena=arena, late=late)
    return responses, time.perf_counter() - started


@dataclass
class StageMetrics:
    """One epoch's unified stage accounting, emitted by every driver combo.

    ``wire_bytes`` counts every serialized frame that crossed a process or
    socket border this epoch (bootstraps/deltas out plus acks back) —
    zero for in-process transports.  ``late_drops`` counts responses the
    engine's deadline gate removed at the transmit boundary.
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
    the shard's raw (ungated) per-query response lists.  ``emit`` returns
    once the engine has gated, relayed and ingested that shard, and it
    never raises: the epoch's first error is recorded and every later emit
    is ignored, so a driver keeps collecting until every answer task it
    started has finished.  A shard emitted twice, or an occupied shard
    never emitted, fails the epoch with a ``RuntimeError`` naming the
    broken emit contract.

    ``late`` is the plan stage's known-late client-id set
    (:meth:`StagedEpochEngine._late_clients`).  Drivers that answer in this
    process hand it to :func:`answer_shard`; wire drivers ignore it (their
    frames have no field for it yet) and keep building what the gate drops.
    """

    __slots__ = ("context", "epoch", "occupied", "query_ids", "metrics", "late", "emit")

    def __init__(self, context: EpochContext, epoch: int, occupied: list[Shard],
                 metrics: StageMetrics, emit, late: frozenset[str] = frozenset()) -> None:
        self.context = context
        self.epoch = epoch
        self.occupied = occupied
        self.query_ids = tuple(context.query_ids)
        self.metrics = metrics
        self.late = late
        self.emit = emit


class StageDriver:
    """Base class for answer-stage drivers.

    A driver declares its position on the two axes (``scheduling`` ×
    ``transport``; validated against the registry in
    :mod:`repro.runtime.executor`) and implements the *mechanism* of the
    answer stage.  All policy — deadline gating, metrics, shard planning,
    pool/consumer lifecycle, failure unwinding — stays in the engine.

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

    def make_pool(self, num_workers: int):
        """The ``concurrent.futures`` pool this driver answers on (or None)."""
        return None

    def prepare(self, context: EpochContext, epoch: int) -> None:
        """Pre-plan hook (heal workers, record the context for shutdown)."""

    def begin_epoch(self, handle: EpochHandle) -> None:
        """Start the epoch's answering work (before any emit; may raise)."""

    def collect(self, handle: EpochHandle) -> None:
        """Emit every occupied shard's result, once each."""
        raise NotImplementedError

    def close(self) -> None:
        """Release driver-owned resources (routers, caches); idempotent."""


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
        Shard count (and shard-aware topic slots per proxy); defaults to
        ``num_workers``.  More shards than workers gives finer pipelining.
        Boundaries are ``plan_shards(len(context.clients), num_shards)``
        every epoch: a deployment's client list is fixed (churn flips
        subscriptions, never the list), so its shards never move.
    """

    _consumer_group_prefix = "engine"

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
        self._pool = None
        # Shard-topic consumers per (query id, channel), tagged with the
        # proxy network they were built against; offsets persist across
        # epochs.  Channel-scoped entries point at the query's own topics,
        # so a multi-query epoch never cross-reads another query's records.
        self._consumers: dict[
            tuple[str, str | None],
            tuple["ProxyNetwork", list[list["Consumer"]]],
        ] = {}
        #: Per-epoch StageMetrics, success and failure alike.
        self.stage_metrics: dict[int, StageMetrics] = {}
        #: Shard index → ShardArena for the in-process drivers; reused across
        #: epochs while the shard's member databases are identical objects.
        self._arenas: dict[int, ShardArena] = {}
        driver.bind(self)

    def arena_for(
        self, shard_index: int, clients: list["Client"]
    ) -> ShardArena | None:
        """The cached arena for a shard, rebuilt when its membership changed.

        Returns ``None`` (and drops any cached arena) when arena answering
        is disabled or the shard is empty.  Membership is compared by
        database-object identity — a new deployment, or a member whose
        database was replaced, rebuilds; otherwise the shard keeps its arena
        and syncs it incrementally as rows are appended.  Call only on
        the epoch caller thread (shards are disjoint, so the per-shard
        arenas themselves may then be used concurrently).
        """
        if not clients or not arena_answering_enabled():
            self._arenas.pop(shard_index, None)
            return None
        databases = [client.database for client in clients]
        arena = self._arenas.get(shard_index)
        if arena is None or not arena.matches(databases):
            arena = ShardArena(databases)
            self._arenas[shard_index] = arena
        return arena

    # -- capability surface ---------------------------------------------------

    #: Every engine flow ingests from the shard-aware proxy topics, so this
    #: is a constant.  It exists for the scenario layer's byzantine injector,
    #: whose ``getattr(executor, "uses_shard_topics", False)`` places forged
    #: records where ingest reads: its *absence* on ``SerialExecutor`` is
    #: what keeps the serial reference on the query-channel topics.
    uses_shard_topics = True

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

    # -- pool / consumers / lifecycle -----------------------------------------

    def _ensure_pool(self):
        """The driver's ``concurrent.futures`` pool, built on first use."""
        if self._pool is None:
            self._pool = self.driver.make_pool(self.num_workers)
        return self._pool

    def _consumers_for(self, context: EpochContext) -> list[list[list["Consumer"]]]:
        """Per-query shard-topic consumers, created on first use.

        Returns one ``[slot][proxy]`` consumer grid per context query, in
        context order.  The cache is keyed by (query id, channel) but
        *validated* against the context's proxy network: query ids are
        deterministic per analyst name, so an executor reused across two
        deployments would otherwise keep polling the first deployment's
        brokers and silently ingest nothing.
        """
        grids = []
        for query in context.queries:
            key = (query.query_id, query.channel)
            cached = self._consumers.get(key)
            if cached is not None and cached[0] is context.proxies:
                grids.append(cached[1])
                continue
            group = f"{self._consumer_group_prefix}-{query.query_id}"
            if query.channel is not None:
                group = f"{group}-q-{query.channel}"
            grid = context.proxies.make_shard_consumers(
                group_id=group,
                num_slots=self.num_shards,
                channel=query.channel,
            )
            self._consumers[key] = (context.proxies, grid)
            grids.append(grid)
        return grids

    def close(self) -> None:
        """Close the driver (export resident state, stop workers), then shut
        the worker pool down and drop cached consumers (idempotent)."""
        try:
            self.driver.close()
        finally:
            self._arenas.clear()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self._consumers.clear()

    # -- the single deadline-gate call site -----------------------------------

    def _gate(
        self, context: EpochContext, responses_per_query: list[list], metrics: StageMetrics
    ) -> list[list]:
        """Deadline-gate one shard's raw responses at the transmit boundary.

        The one place :func:`~repro.runtime.executor.apply_deadline` is
        invoked across every driver combination: late answers advanced
        their clients' RNG streams exactly as under the serial reference —
        built by a pinned worker, or only *drawn* (a
        :class:`~repro.core.client.LateAnswer` marker) by an in-process
        driver that was handed the plan stage's late set — but never reach
        the proxies, and the drop count lands in the metrics.  A marker the
        gate does not drop has no shares to transmit: that is a gate whose
        ``is_late`` and ``should_drop`` disagree, and it fails the epoch.
        """
        # Imported here: repro.core imports repro.runtime at package level.
        from repro.core.client import LateAnswer

        gated = apply_deadline(context.deadline, responses_per_query)
        if context.deadline is not None:
            metrics.add_late_drops(
                sum(
                    len(raw) - len(kept)
                    for raw, kept in zip(responses_per_query, gated)
                )
            )
        for kept in gated:
            for response in kept:
                if isinstance(response, LateAnswer):
                    raise RuntimeError(
                        f"the deadline gate kept a late marker for client "
                        f"{response.client_id!r}, query {response.query_id!r}: "
                        "nothing was built to transmit"
                    )
        return gated

    @staticmethod
    def _late_clients(context: EpochContext) -> frozenset[str]:
        """The client ids this epoch's gate is already known to drop.

        Decided in the plan stage, on the caller thread, from the gate's
        optional ``is_late(client_id)`` — lateness is a pure function of the
        modeled network, known before anyone answers.  No gate, or a gate
        without ``is_late``, means nobody is known late and everything is
        built as before.  The set lives for one ``run_epoch``.
        """
        is_late = getattr(context.deadline, "is_late", None)
        if is_late is None:
            return frozenset()
        return frozenset(
            filter(is_late, (client.config.client_id for client in context.clients))
        )

    # -- epoch execution ------------------------------------------------------

    def run_epoch(self, context: EpochContext, epoch: int) -> EpochOutcome:
        """Plan the shards, then gate, relay and ingest each one as it is emitted.

        The driver's ``begin_epoch`` and ``collect`` run on this (the
        caller's) thread, and so does every :meth:`EpochHandle.emit`: it
        gates the shard's raw responses (:meth:`_gate`), publishes one batch
        record per proxy on the shard's topic (:func:`_publish_shard`), then
        polls that shard's slot of each query's consumer grid and ingests it
        (``ingest_shares(batched=True)``) before it returns.  Shards arrive
        in whatever order the driver collects them; the per-query logs are
        merged in shard-index (= client) order at the end.

        The first error — an error emit, a gate, relay or ingest failure, a
        driver hook that raises, a shard emitted twice or an occupied shard
        never emitted — is recorded and every later emit ignored, while the
        driver keeps collecting until every answer task it started has
        finished.  Then every query's grid is drained (whatever was relayed
        but not ingested must not reach the next epoch) and the error
        re-raises.
        """
        metrics = StageMetrics(epoch=epoch)
        self.stage_metrics[epoch] = metrics
        plan_started = time.perf_counter()
        self.driver.prepare(context, epoch)
        shards = plan_shards(len(context.clients), self.num_shards)
        occupied = [shard for shard in shards if shard.num_items > 0]
        late = self._late_clients(context)
        metrics.plan_seconds = time.perf_counter() - plan_started

        consumers = self._consumers_for(context)
        responses_by_shard: list[list | None] = [None] * len(shards)
        window_results: list[list] = [[] for _ in context.queries]
        answer_walls: dict[int, float] = {}
        awaited = {shard.index for shard in occupied}
        failure: Exception | None = None

        def emit(shard_index, responses, error=None, wall_seconds=None):
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
                gated = self._gate(context, responses, metrics)
                relay_started = time.perf_counter()
                _publish_shard(context, shard_index, gated)
                ingest_started = time.perf_counter()
                metrics.add_stage_seconds("transmit", ingest_started - relay_started)
                for index, query in enumerate(context.queries):
                    shares = _poll_shares(consumers[index][shard_index])
                    if shares:
                        window_results[index].extend(
                            query.aggregator.ingest_shares(shares, epoch, batched=True)
                        )
                metrics.add_stage_seconds("ingest", time.perf_counter() - ingest_started)
            except Exception as exc:
                failure = exc
                return
            responses_by_shard[shard_index] = gated
            if wall_seconds is not None:
                answer_walls[shard_index] = wall_seconds

        handle = EpochHandle(context, epoch, occupied, metrics, emit, late)
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
            for grid in consumers:
                _drain_consumers(grid)
            raise failure
        return self._merge_outcome(context, shards, responses_by_shard, window_results)

    @staticmethod
    def _finalize(answer_walls: dict[int, float], metrics: StageMetrics) -> None:
        started = time.perf_counter()
        metrics.answer_seconds = sum(answer_walls.values())
        metrics.finalize_seconds = time.perf_counter() - started

    def _merge_outcome(
        self,
        context: EpochContext,
        shards: list[Shard],
        responses_by_shard: list,
        window_results: list[list],
    ) -> EpochOutcome:
        """Merge per-shard logs in shard-index (= client) order."""
        per_query = []
        for index, query in enumerate(context.queries):
            responses: list = []
            for shard in shards:
                shard_responses = responses_by_shard[shard.index]
                if shard_responses:
                    responses.extend(shard_responses[index])
            per_query.append(
                QueryEpochOutcome(
                    query_id=query.query_id,
                    responses=tuple(responses),
                    window_results=tuple(window_results[index]),
                    late_drops=late_drops_for(context, query.query_id),
                )
            )
        return EpochOutcome(per_query=tuple(per_query))


# -- in-process drivers -------------------------------------------------------


def emit_as_completed(handle: EpochHandle, futures: dict[Future, Shard], unpack) -> None:
    """Emit each shard as its future completes; a failed one emits its error.

    ``unpack(shard, result) -> (responses, wall_seconds)`` turns a finished
    task's result into the shard's emit; whatever it or the task raised
    becomes that shard's error emit.  Returns once every future has
    finished, so no answer task outlives the epoch.
    """
    for future in as_completed(futures):
        shard = futures[future]
        try:
            responses, wall_seconds = unpack(shard, future.result())
        except Exception as exc:
            handle.emit(shard.index, None, error=exc)
        else:
            handle.emit(shard.index, responses, wall_seconds=wall_seconds)


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
                responses, wall = _timed_answer_shard(
                    clients, handle.query_ids, handle.epoch, arena=arena, late=handle.late
                )
            except Exception as exc:
                handle.emit(shard.index, None, error=exc)
            else:
                handle.emit(shard.index, responses, wall_seconds=wall)


class OverlapThreadDriver(StageDriver):
    """``pipelined-overlap`` × ``in-process``: answer tasks on a thread pool.

    Every occupied shard is submitted up front and collected in completion
    order, so the caller relays and ingests early shards while later ones
    are still answering.  The pool threads share the GIL: this overlaps the
    stages, it does not parallelize the answering.
    """

    scheduling = "pipelined-overlap"
    transport = "in-process"

    def make_pool(self, num_workers: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="privapprox-pipeline"
        )

    def begin_epoch(self, handle: EpochHandle) -> None:
        pool = self.engine._ensure_pool()
        # Every arena is fetched (and possibly synced/rebuilt) on the caller
        # thread before the first task starts; the disjoint per-shard arenas
        # are then used concurrently.
        tasks = []
        for shard in handle.occupied:
            clients = handle.context.clients[shard.as_slice()]
            tasks.append((shard, clients, self.engine.arena_for(shard.index, clients)))
        self._futures = {
            pool.submit(
                _timed_answer_shard,
                clients,
                handle.query_ids,
                handle.epoch,
                arena=arena,
                late=handle.late,
            ): shard
            for shard, clients, arena in tasks
        }

    def collect(self, handle: EpochHandle) -> None:
        emit_as_completed(handle, self._futures, lambda _, result: result)


# -- relay and ingest ---------------------------------------------------------


def _publish_shard(
    context: EpochContext, shard_index: int, gated: list[list["ClientResponse"]]
) -> None:
    """Relay one gated shard — the engine's only relay granularity.

    Every query's responses for the shard go out as one batch record per
    proxy on that query's shard-aware topic (``transmit_shard``); a query
    with no participant in the shard publishes nothing.
    """
    for index, query in enumerate(context.queries):
        context.proxies.transmit_shard(
            shard_index,
            [list(response.encrypted.shares) for response in gated[index]],
            channel=query.channel,
        )


def _poll_shares(slot_consumers: list["Consumer"]) -> list:
    """Everything pending on one query's shard slot, as a share list.

    ``slot_consumers`` holds the slot's consumer on every proxy; polling
    them together puts the shares of every ``MID`` in one batch, so the
    aggregator's grouped join never has to buffer across calls.
    """
    shares: list = []
    for consumer in slot_consumers:
        for record in consumer.poll():
            shares.extend(record.value)
    return shares


def _drain_consumers(consumers: list[list["Consumer"]]) -> None:
    """Poll and discard everything pending on one query's shard consumers.

    Best-effort cleanup for failed epochs; a consumer that itself fails to
    poll is skipped (the epoch error already surfaces).
    """
    for slot_consumers in consumers:
        for consumer in slot_consumers:
            try:
                while consumer.poll():
                    pass
            except Exception:
                continue
