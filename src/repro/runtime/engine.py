"""The staged epoch engine: one dataflow, pluggable stage drivers.

Every parallel runtime runs the same answering epoch — plan shards, answer
them, deadline-gate, transmit to the proxy brokers, ingest into the
aggregators.  :class:`StagedEpochEngine` is its single implementation,
decomposing an epoch into explicit stages:

    plan -> answer -> transmit -> ingest -> finalize

and delegates *how the answer stage runs* to a pluggable
:class:`StageDriver`.  Drivers are classified along two orthogonal axes
(declared in :mod:`repro.runtime.executor`):

* **scheduling** — ``inline`` (caller thread), ``thread-pool`` (barrier
  worker pool), ``pipelined-overlap`` (answer/transmit/ingest run
  concurrently), ``pinned-worker`` (long-lived workers holding resident
  state);
* **transport** — ``in-process`` (shared objects), ``framed-wire-local``
  (serialized :mod:`repro.runtime.wire` frames across a process border),
  ``sealed-tcp-remote`` (the same frames in HMAC-sealed envelopes over TCP).

The engine owns all policy, so no driver carries its own copy:

* the **single** authoritative deadline-gate call site
  (:func:`~repro.runtime.executor.apply_deadline`) — drivers hand raw
  responses to :meth:`EpochHandle.emit` and never see the gate;
* per-epoch :class:`StageMetrics` (stage wall-clocks, wire bytes, late
  drops, re-shard events);
* the worker pool and the per-query shard-topic consumers, whose offsets
  persist across epochs;
* adaptive shard sizing (:class:`AdaptiveShardSizer`) *and* the re-shard
  hysteresis that residency-holding drivers need (moving a boundary costs a
  sync + re-bootstrap, so boundaries move only on sustained imbalance);
* both dataflow shapes: the **barrier** flow (inline / thread-pool: collect
  in shard order, transmit per shard, ingest after the last shard) and the
  **overlap** flow (pipelined-overlap / pinned-worker: a transmitter thread
  and the caller's ingest loop run while shards are still answering, with a
  bounded hand-off queue for backpressure).  They differ in *when* a shard
  is relayed and ingested, never in *how*: both publish one batch record
  per proxy on the shard's topic (:func:`_publish_shard`), poll the same
  consumer grid (:func:`_poll_shares`) and drain it when an epoch fails.

:class:`~repro.runtime.serial.SerialExecutor` deliberately stays *outside*
the engine: it is the frozen executable specification every driver
combination must match byte-for-byte (``docs/ARCHITECTURE.md``, the
equivalence and torture suites).

The driver *mechanisms* live next to the machinery they drive: thread-pool
and in-process drivers here, snapshot-wire drivers in
:mod:`repro.runtime.process_pool`, the resident driver in
:mod:`repro.runtime.affinity`, and the sealed-TCP drivers in
:mod:`repro.runtime.remote`.  :func:`~repro.runtime.executor.make_executor`
builds the engine for a ``"scheduling/transport"`` spelling.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
from repro.runtime.sharding import Shard, plan_shards, plan_weighted_shards
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

# Re-sharding hysteresis (engine-owned; drivers only *report* residency):
# moving a boundary under a residency-holding driver costs a state sync plus
# a full re-bootstrap of the moved shards, so boundaries only move when the
# current cut's predicted bottleneck shard exceeds the rebalanced cut's by
# this factor, and at most once per cooldown window — otherwise per-epoch
# wall-clock noise would move boundaries every epoch and each move would
# throw away resident state.  (Snapshot-shipping drivers re-plan freely —
# their boundaries are free to move because they ship all state every epoch
# anyway.)
_RESHARD_IMBALANCE_THRESHOLD = 2.0
_RESHARD_COOLDOWN_EPOCHS = 3


def answer_shard(
    clients: list["Client"],
    query_ids: Sequence[str],
    epoch: int,
    arena: ShardArena | None = None,
    late: frozenset[str] = frozenset(),
) -> tuple[list[list["ClientResponse"]], list["Client"]]:
    """Answer one shard of clients for one epoch (the picklable shard task).

    Every client answers all of ``query_ids`` in one pass; the return value
    holds one participating-response list per query (client order within
    each list) together with the clients themselves: in-process (thread)
    execution returns the very same objects, while a process border returns
    copies carrying the advanced RNG/keystream state that the parent must
    adopt for the next epoch.

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


def make_shard_arena(clients: list["Client"]) -> ShardArena | None:
    """A fresh arena over a shard's databases, or ``None`` when disabled."""
    if not clients or not arena_answering_enabled():
        return None
    return ShardArena([client.database for client in clients])


def _timed_answer_shard(
    clients: list["Client"],
    query_ids: Sequence[str],
    epoch: int,
    arena: ShardArena | None = None,
    late: frozenset[str] = frozenset(),
) -> tuple[list[list["ClientResponse"]], list["Client"], float]:
    """:func:`answer_shard` plus its own wall-clock, for stage accounting."""
    started = time.perf_counter()
    responses, clients = answer_shard(
        clients, query_ids, epoch, arena=arena, late=late
    )
    return responses, clients, time.perf_counter() - started


class AdaptiveShardSizer:
    """Plans shard boundaries from per-shard answering wall-clock feedback.

    Epoch 0 uses balanced :func:`~repro.runtime.sharding.plan_shards`
    boundaries.  After each epoch :meth:`record` spreads every timed shard's
    wall-clock evenly over its clients and folds it into a per-client cost
    EWMA; :meth:`plan` then cuts the next epoch's boundaries so each shard
    carries roughly equal predicted cost.  A changed population size resets
    the estimates (client indices no longer line up).
    """

    def __init__(self, num_shards: int, smoothing: float = 0.5):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must lie in (0, 1], got {smoothing}")
        self.num_shards = num_shards
        self.smoothing = smoothing
        self._cost_per_client: list[float] | None = None

    def plan(self, num_items: int) -> list[Shard]:
        """Shard boundaries for the next epoch over ``num_items`` clients."""
        costs = self._cost_per_client
        if costs is None or len(costs) != num_items:
            return plan_shards(num_items, self.num_shards)
        return plan_weighted_shards(costs, self.num_shards)

    def cost_estimates(self, num_items: int) -> list[float] | None:
        """The current per-client cost EWMA, or ``None`` if not (yet) usable.

        The engine's re-shard hysteresis consults this to decide whether
        moving boundaries is worth invalidating worker-resident shards.
        """
        costs = self._cost_per_client
        if costs is None or len(costs) != num_items:
            return None
        return list(costs)

    def prime(self, costs: list[float]) -> None:
        """Seed the per-client cost estimates directly.

        Lets tests (and deployments with offline profiles) force a specific
        re-sharding decision instead of waiting for wall-clock feedback.
        """
        self._cost_per_client = list(costs)

    def record(self, shards: list[Shard], wall_seconds: dict[int, float]) -> None:
        """Fold one epoch's per-shard timings into the per-client estimates.

        ``wall_seconds`` maps shard index → answering wall-clock; shards that
        never produced a timing (failed epochs) are simply skipped.
        """
        if not shards:
            return
        num_items = shards[-1].stop
        costs = self._cost_per_client
        if costs is None or len(costs) != num_items:
            costs = [0.0] * num_items
        alpha = self.smoothing
        for shard in shards:
            if shard.num_items == 0 or shard.index not in wall_seconds:
                continue
            per_client = wall_seconds[shard.index] / shard.num_items
            for i in range(shard.start, shard.stop):
                previous = costs[i]
                costs[i] = per_client if previous <= 0.0 else (
                    (1.0 - alpha) * previous + alpha * per_client
                )
        self._cost_per_client = costs


@dataclass
class StageMetrics:
    """One epoch's unified stage accounting, emitted by every driver combo.

    ``wire_bytes`` counts every serialized frame that crossed a process or
    socket border this epoch (tasks/deltas out plus batches/acks back) —
    zero for in-process transports.  ``late_drops`` counts responses the
    engine's deadline gate removed at the transmit boundary.
    ``reshard_events`` counts adopted boundary moves (hysteresis-approved
    for residency drivers).  Stage seconds measure *active* work: in the
    overlap flow the stages run concurrently, so they legitimately sum to
    more than the epoch's wall-clock.
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
        """Thread-safe wire accounting (drivers call from any stage thread)."""
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
    success or failure — with the shard's raw (ungated) per-query response
    lists.  The engine's emit wrapper owns the single deadline-gate call
    site and the hand-off into the transmit stage; in the overlap flow emit
    may be called from any driver thread (the gate and metrics lock
    internally, and the bounded hand-off queue applies backpressure).

    ``late`` is the plan stage's known-late client-id set
    (:meth:`StagedEpochEngine._late_clients`).  Drivers that answer in this
    process hand it to :func:`answer_shard`; wire drivers ignore it (their
    frames have no field for it yet) and keep building what the gate drops.
    """

    __slots__ = (
        "context", "epoch", "occupied", "query_ids", "metrics", "late", "emit", "emitted",
    )

    def __init__(self, context: EpochContext, epoch: int, occupied: list[Shard],
                 metrics: StageMetrics, emit, late: frozenset[str] = frozenset()) -> None:
        self.context = context
        self.epoch = epoch
        self.occupied = occupied
        self.query_ids = tuple(context.query_ids)
        self.metrics = metrics
        self.late = late
        self.emitted: set[int] = set()
        inner = emit

        def tracking_emit(shard_index, responses, error=None, wall_seconds=None):
            self.emitted.add(shard_index)
            inner(shard_index, responses, error=error, wall_seconds=wall_seconds)

        self.emit = tracking_emit


class StageDriver:
    """Base class for answer-stage drivers.

    A driver declares its position on the two axes (``scheduling`` ×
    ``transport``; validated against the registry in
    :mod:`repro.runtime.executor`) and implements the *mechanism* of the
    answer stage.  All policy — deadline gating, metrics, shard planning,
    pool/consumer lifecycle, failure unwinding — stays in the engine.

    Lifecycle hooks (all optional except :meth:`collect` /
    :meth:`begin_epoch` as the driver's shape requires):

    * :meth:`prepare` — before planning (heal dead workers, drain stale
      acks);
    * :meth:`residency_spans` — report per-shard resident boundaries so the
      engine's hysteresis can avoid invalidating resident state;
    * :meth:`migrate` — after planning, before the epoch starts: move/export
      state for shards whose boundaries changed, returning wire bytes spent;
    * :meth:`begin_epoch` — runs on the caller thread *before* any pipeline
      thread starts; a failure here must leave nothing transmitted (the
      pre-pipeline error contract);
    * :meth:`collect` — produce one :meth:`EpochHandle.emit` per occupied
      shard.  ``runs_collector`` drivers do this on a dedicated collector
      thread; others emit directly from their answer tasks;
    * :meth:`handle_epoch_error` — after the pipeline has drained on a
      failed epoch (discard a broken pool, ...).
    """

    scheduling = "inline"
    transport = "in-process"
    #: True when collect() must run on a dedicated engine-owned collector
    #: thread (the driver receives results from elsewhere — a process pool,
    #: a result queue, a socket).  False when begin_epoch() schedules tasks
    #: that call emit themselves.
    runs_collector = False
    #: Whether the engine feeds per-shard answering wall-clock back into the
    #: next epoch's boundaries (``engine.adaptive`` starts from this).
    adaptive = False
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

    def residency_spans(self) -> dict[int, tuple[int, int]] | None:
        """Per-shard resident ``(start, stop)`` spans, or ``None`` if the
        driver holds no cross-epoch state (boundaries are free to move)."""
        return None

    def migrate(self, context: EpochContext, shards: list[Shard]) -> int:
        """Export state for shards whose boundaries moved; returns wire bytes."""
        return 0

    def begin_epoch(self, handle: EpochHandle) -> None:
        """Start the epoch's answering work (pre-pipeline; may raise cleanly)."""

    def collect(self, handle: EpochHandle) -> None:
        """Emit every occupied shard's result (collector-thread drivers)."""
        raise NotImplementedError

    def handle_epoch_error(self, error: Exception) -> None:
        """Post-drain cleanup for a failed epoch."""

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
        validated against the combo registry.  ``adaptive`` starts from the
        driver's declaration and stays assignable (tests pin it off to keep
        frame counts exact).
    num_workers:
        Workers in the answering pool.
    num_shards:
        Shard count (and shard-aware topic slots per proxy); defaults to
        ``num_workers``.  More shards than workers gives finer pipelining.
    queue_depth:
        Capacity of the bounded hand-off queue feeding the transmitter.
        Small values apply backpressure when transmission or ingestion falls
        behind; the default keeps roughly one shard per worker in flight.
    """

    _consumer_group_prefix = "engine"

    def __init__(
        self,
        driver: StageDriver,
        num_workers: int = 4,
        num_shards: int | None = None,
        queue_depth: int | None = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if num_shards is not None and num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if queue_depth is not None and queue_depth < 1:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        validate_driver_combo(driver.scheduling, driver.transport)
        self.num_workers = num_workers
        self.num_shards = num_shards if num_shards is not None else num_workers
        self.queue_depth = queue_depth if queue_depth is not None else max(2, num_workers)
        self.driver = driver
        self.scheduling = driver.scheduling
        self.transport = driver.transport
        self.adaptive = driver.adaptive
        self._pool = None
        # Shard-topic consumers per (query id, channel), tagged with the
        # proxy network they were built against; offsets persist across
        # epochs.  Channel-scoped entries point at the query's own topics,
        # so a multi-query epoch never cross-reads another query's records.
        self._consumers: dict[
            tuple[str, str | None],
            tuple["ProxyNetwork", list[list["Consumer"]]],
        ] = {}
        self._sizer = AdaptiveShardSizer(self.num_shards)
        self._epochs_since_reshard = 0
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
        database-object identity — re-sharding or churn that replaces a
        member rebuilds; stable shards keep their arena and sync it
        incrementally as ``ShardDelta`` traffic appends rows.  Call only on
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

        Read by the scenario sweep's wire accounting and the
        resident-vs-snapshot benchmark claim.
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

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) pool so the next epoch builds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

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

    # -- plan stage -----------------------------------------------------------

    def _plan_stage(self, context: EpochContext, metrics: StageMetrics) -> list[Shard]:
        """Shard boundaries for this epoch, with re-shard hysteresis.

        Without residency (``residency_spans() is None``) the adaptive plan
        is adopted as-is — snapshot transports ship all state every epoch,
        so boundary moves are free.  With residency, while the recorded
        boundaries tile the population, the adaptive plan is adopted only
        when it shrinks the predicted bottleneck shard by more than
        ``_RESHARD_IMBALANCE_THRESHOLD`` and the cooldown window since the
        last move has passed.  The recorded spans are kept even for shards
        that just lost residency (a replaced worker): moving *their*
        boundary would needlessly invalidate their still-resident neighbors
        — exactly the lost shards re-bootstrap, nothing else.  A first epoch
        or a population change takes the plan as-is.
        """
        num_clients = len(context.clients)
        self._epochs_since_reshard += 1
        if not self.adaptive:
            return plan_shards(num_clients, self.num_shards)
        proposed = self._sizer.plan(num_clients)
        spans = self.driver.residency_spans()
        if spans is None:
            return proposed
        current: list[Shard] = []
        position = 0
        for index in range(self.num_shards):
            span = spans.get(index)
            if span is None or span[0] != position:
                return proposed
            current.append(Shard(index=index, start=span[0], stop=span[1]))
            position = span[1]
        if position != num_clients:
            return proposed
        if self._epochs_since_reshard < _RESHARD_COOLDOWN_EPOCHS:
            return current
        costs = self._sizer.cost_estimates(num_clients)
        if costs is None:
            return current
        prefix = [0.0]
        for cost in costs:
            prefix.append(prefix[-1] + cost)
        current_max = max(prefix[s.stop] - prefix[s.start] for s in current)
        proposed_max = max(prefix[s.stop] - prefix[s.start] for s in proposed)
        if proposed_max > 0.0 and current_max > _RESHARD_IMBALANCE_THRESHOLD * proposed_max:
            self._epochs_since_reshard = 0
            metrics.reshard_events += 1
            return proposed
        return current

    # -- the single deadline-gate call site -----------------------------------

    def _gate(
        self, context: EpochContext, responses_per_query: list[list], metrics: StageMetrics
    ) -> list[list]:
        """Deadline-gate one shard's raw responses at the transmit boundary.

        The one place :func:`~repro.runtime.executor.apply_deadline` is
        invoked across every driver combination: late answers advanced
        their clients' RNG streams exactly as under the serial reference —
        built by a wire worker, or only *drawn* (a
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
        metrics = StageMetrics(epoch=epoch)
        self.stage_metrics[epoch] = metrics
        plan_started = time.perf_counter()
        self.driver.prepare(context, epoch)
        shards = self._plan_stage(context, metrics)
        metrics.add_wire_bytes(self.driver.migrate(context, shards))
        occupied = [shard for shard in shards if shard.num_items > 0]
        late = self._late_clients(context)
        metrics.plan_seconds = time.perf_counter() - plan_started
        if self.scheduling in ("pipelined-overlap", "pinned-worker"):
            return self._run_overlap(context, epoch, shards, occupied, metrics, late)
        return self._run_barrier(context, epoch, shards, occupied, metrics, late)

    def _finalize(
        self, shards: list[Shard], answer_walls: dict[int, float], metrics: StageMetrics
    ) -> None:
        started = time.perf_counter()
        if answer_walls:
            metrics.answer_seconds = sum(answer_walls.values())
        if self.adaptive and answer_walls:
            self._sizer.record(shards, answer_walls)
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

    # -- barrier flow (inline / thread-pool scheduling) -----------------------

    def _run_barrier(
        self,
        context: EpochContext,
        epoch: int,
        shards: list[Shard],
        occupied: list[Shard],
        metrics: StageMetrics,
        late: frozenset[str],
    ) -> EpochOutcome:
        """Collect in shard order, transmit per shard, ingest after the last.

        Emits arrive on the caller thread in shard-index order (the driver
        contract for barrier scheduling), so the per-query logs extend in
        serial client order and driver errors propagate naturally from the
        collect call.  Each gated shard is relayed as it arrives, exactly as
        the overlap flow relays it, and after the last shard every query is
        ingested *once* from its ``[slot][proxy]`` consumer grid (one
        window-operator pass per aggregator per epoch).  Any failure drains
        every query's grid before it re-raises: what was relayed but never
        ingested must not reach the next epoch.
        """
        consumers = self._consumers_for(context)
        responses_by_shard: list[list | None] = [None] * len(shards)
        answer_walls: dict[int, float] = {}
        answer_started = time.perf_counter()

        def emit(shard_index, responses, error=None, wall_seconds=None):
            if error is not None:
                raise error
            gated = self._gate(context, responses, metrics)
            responses_by_shard[shard_index] = gated
            if wall_seconds is not None:
                answer_walls[shard_index] = wall_seconds
            transmit_started = time.perf_counter()
            _publish_shard(context, shard_index, gated)
            metrics.add_stage_seconds(
                "transmit", time.perf_counter() - transmit_started
            )

        handle = EpochHandle(context, epoch, occupied, metrics, emit, late)
        try:
            self.driver.begin_epoch(handle)
            self.driver.collect(handle)
            ingest_started = time.perf_counter()
            window_results = [
                query.aggregator.ingest_shares(_poll_shares(grid), epoch, batched=True)
                for query, grid in zip(context.queries, consumers)
            ]
        except Exception as error:
            for grid in consumers:
                _drain_consumers(grid)
            self.driver.handle_epoch_error(error)
            raise
        metrics.ingest_seconds = time.perf_counter() - ingest_started
        if not answer_walls:
            # Wire drivers without per-shard wall-clocks: charge the collect
            # span minus transmit to the answer stage, clamped at zero — the
            # two spans are measured independently, so subtraction could
            # otherwise dip (fractionally) negative and corrupt the ledger.
            metrics.answer_seconds = max(
                0.0, ingest_started - answer_started - metrics.transmit_seconds
            )
        self._finalize(shards, answer_walls, metrics)
        return self._merge_outcome(context, shards, responses_by_shard, window_results)

    # -- overlap flow (pipelined-overlap / pinned-worker scheduling) ----------

    def _run_overlap(
        self,
        context: EpochContext,
        epoch: int,
        shards: list[Shard],
        occupied: list[Shard],
        metrics: StageMetrics,
        late: frozenset[str],
    ) -> EpochOutcome:
        """Answer, transmit and ingest concurrently through bounded queues."""
        consumers = self._consumers_for(context)
        responses_by_shard: list[list | None] = [None] * len(shards)
        answer_walls: dict[int, float] = {}
        answered: queue.Queue = queue.Queue(maxsize=self.queue_depth)
        transmitted: queue.Queue = queue.Queue()

        def emit(shard_index, responses, error=None, wall_seconds=None):
            if error is None:
                try:
                    responses_by_shard[shard_index] = self._gate(
                        context, responses, metrics
                    )
                except Exception as exc:
                    # Emit runs on driver threads: a gate that raises must
                    # fail the epoch through the queue, not kill the thread
                    # and leave the transmitter waiting for this shard.
                    error = exc
            if error is not None:
                responses_by_shard[shard_index] = [[] for _ in context.queries]
            elif wall_seconds is not None:
                answer_walls[shard_index] = wall_seconds
            answered.put((shard_index, error))

        handle = EpochHandle(context, epoch, occupied, metrics, emit, late)
        # Pre-pipeline: a begin_epoch failure surfaces with nothing
        # transmitted and no pipeline thread started; the partial metrics
        # (frames already encoded/sent) stay recorded for this epoch.
        try:
            self.driver.begin_epoch(handle)
        except Exception as error:
            self.driver.handle_epoch_error(error)
            raise
        collector = None
        if self.driver.runs_collector:
            collector = threading.Thread(
                target=self._run_collector,
                args=(handle,),
                name=f"privapprox-{self.scheduling}-collect",
                daemon=True,
            )
            collector.start()
        transmitter = threading.Thread(
            target=_transmit_stage,
            args=(context, len(occupied), responses_by_shard, answered, transmitted),
            kwargs={"metrics": metrics},
            name=f"privapprox-{self.scheduling}-transmit",
            daemon=True,
        )
        transmitter.start()
        window_results, error = _ingest_stage(
            context, consumers, epoch, transmitted, metrics=metrics
        )
        transmitter.join()
        if collector is not None:
            collector.join()

        self._finalize(shards, answer_walls, metrics)
        if error is not None:
            self.driver.handle_epoch_error(error)
            raise error
        return self._merge_outcome(context, shards, responses_by_shard, window_results)

    def _run_collector(self, handle: EpochHandle) -> None:
        """Run the driver's collect loop; never lets the pipeline hang.

        Drivers' collect implementations convert failures into per-shard
        error emits; this wrapper is the backstop for a driver bug — any
        escaped exception is emitted for every not-yet-emitted shard so the
        transmitter's expected-item count still lands.
        """
        try:
            self.driver.collect(handle)
        except BaseException as exc:  # noqa: BLE001 — backstop, must not hang
            error = exc if isinstance(exc, Exception) else RuntimeError(repr(exc))
            for shard in handle.occupied:
                if shard.index not in handle.emitted:
                    handle.emit(shard.index, None, error=error)


# -- in-process drivers -------------------------------------------------------


class InlineDriver(StageDriver):
    """``inline`` × ``in-process``: answer every shard on the caller thread.

    The minimal engine configuration — no pool, no threads, no serialization
    — and the cheapest way to run the engine's full plan/gate/transmit/
    ingest policy surface.  Useful as a debugging baseline one step above
    the frozen serial reference (same barrier dataflow as ``thread-pool``
    scheduling, deterministic by construction).
    """

    scheduling = "inline"
    transport = "in-process"

    def collect(self, handle: EpochHandle) -> None:
        for shard in handle.occupied:
            clients = handle.context.clients[shard.as_slice()]
            arena = self.engine.arena_for(shard.index, clients)
            responses, _, wall = _timed_answer_shard(
                clients, handle.query_ids, handle.epoch, arena=arena, late=handle.late
            )
            handle.emit(shard.index, responses, wall_seconds=wall)


class BarrierThreadDriver(StageDriver):
    """``thread-pool`` × ``in-process``: a barrier worker pool on threads.

    All occupied shards are submitted to a thread pool up front; collect
    waits in shard-index order (a later shard may finish answering while an
    earlier one transmits), so emits — and therefore transmits — happen in
    serial client order and a worker exception surfaces exactly where
    ``Future.result()`` would have raised it.
    """

    scheduling = "thread-pool"
    transport = "in-process"

    def make_pool(self, num_workers: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="privapprox-shard"
        )

    def begin_epoch(self, handle: EpochHandle) -> None:
        pool = self.engine._ensure_pool()
        # Arenas are fetched (and possibly synced/rebuilt) on the caller
        # thread; the disjoint per-shard arenas are then used concurrently.
        self._futures = []
        for shard in handle.occupied:
            clients = handle.context.clients[shard.as_slice()]
            arena = self.engine.arena_for(shard.index, clients)
            self._futures.append(
                (
                    shard,
                    pool.submit(
                        _timed_answer_shard,
                        clients,
                        handle.query_ids,
                        handle.epoch,
                        arena=arena,
                        late=handle.late,
                    ),
                )
            )

    def collect(self, handle: EpochHandle) -> None:
        for shard, future in self._futures:
            responses, _, wall = future.result()
            handle.emit(shard.index, responses, wall_seconds=wall)


class OverlapThreadDriver(StageDriver):
    """``pipelined-overlap`` × ``in-process``: overlapped stages on threads.

    Answer tasks run on a thread pool and emit directly from the worker
    thread — the engine's emit wrapper gates the deadline (the gate locks
    internally) and the bounded hand-off queue applies backpressure when
    transmission or ingestion falls behind.
    """

    scheduling = "pipelined-overlap"
    transport = "in-process"
    runs_collector = False

    def make_pool(self, num_workers: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="privapprox-pipeline"
        )

    def begin_epoch(self, handle: EpochHandle) -> None:
        pool = self.engine._ensure_pool()
        for shard in handle.occupied:
            # Fetch the arena on the caller thread so concurrent workers
            # never sync/rebuild shared engine state.
            clients = handle.context.clients[shard.as_slice()]
            arena = self.engine.arena_for(shard.index, clients)
            pool.submit(self._answer_one, handle, shard, clients, arena)

    @staticmethod
    def _answer_one(
        handle: EpochHandle,
        shard: Shard,
        clients: list["Client"],
        arena: ShardArena | None,
    ) -> None:
        started = time.perf_counter()
        try:
            responses, _ = answer_shard(
                clients, handle.query_ids, handle.epoch, arena=arena, late=handle.late
            )
        except Exception as exc:  # surfaced from run_epoch, never swallowed
            handle.emit(shard.index, None, error=exc)
        else:
            handle.emit(
                shard.index, responses, wall_seconds=time.perf_counter() - started
            )


# -- the shared overlap pipeline stages ---------------------------------------


def _transmit_stage(
    context: EpochContext,
    expected: int,
    responses_by_shard: list,
    answered: queue.Queue,
    transmitted: queue.Queue,
    metrics: StageMetrics | None = None,
) -> None:
    """Publish finished shards to their shard-aware topics as they arrive.

    Consumes exactly ``expected`` items from the answered queue even after a
    failure (so no answering worker ever blocks on a full hand-off queue),
    stops publishing once an error is seen, and always terminates the ingest
    stage with a ``("done", error)`` sentinel.
    """
    error: Exception | None = None
    for _ in range(expected):
        shard_index, exc = answered.get()
        if exc is not None:
            if error is None:
                error = exc
            continue
        if error is not None:
            continue  # drain without publishing; the epoch already failed
        started = time.perf_counter()
        try:
            _publish_shard(context, shard_index, responses_by_shard[shard_index])
        except Exception as exc:
            error = exc
            continue
        finally:
            if metrics is not None:
                metrics.add_stage_seconds(
                    "transmit", time.perf_counter() - started
                )
        transmitted.put(("shard", shard_index))
    transmitted.put(("done", error))


def _ingest_stage(
    context: EpochContext,
    consumers: list[list[list["Consumer"]]],
    epoch: int,
    transmitted: queue.Queue,
    metrics: StageMetrics | None = None,
) -> tuple[list[list], Exception | None]:
    """Ingest each relayed shard as soon as its transmission lands.

    ``consumers`` holds one ``[slot][proxy]`` grid per context query.  For
    every relayed shard each query's consumers are polled across all proxies
    together, so every batch carries complete ``MID`` groups and takes the
    grouped-join fast path of that query's aggregator.  Returns one
    window-result list per query.  Runs until the transmitter's ``done``
    sentinel and never raises — the first error is returned for
    ``run_epoch`` to re-raise after the pipeline has fully unwound.

    On a failed epoch, every query's shard consumers are drained (polled and
    discarded) before returning: records that were published but never
    ingested must not linger in the cached consumers, or a caller that
    treats the failure as transient and runs the next epoch would ingest
    them into the wrong epoch.
    """
    window_results: list[list] = [[] for _ in context.queries]
    error: Exception | None = None
    while True:
        kind, payload = transmitted.get()
        if kind == "done":
            if error is None:
                error = payload
            if error is not None:
                for grid in consumers:
                    _drain_consumers(grid)
            return window_results, error
        if error is not None:
            continue  # skip further shards; the final drain discards them
        started = time.perf_counter()
        try:
            for index, query in enumerate(context.queries):
                shares = _poll_shares([consumers[index][payload]])
                if shares:
                    window_results[index].extend(
                        query.aggregator.ingest_shares(shares, epoch, batched=True)
                    )
        except Exception as exc:
            error = exc
        finally:
            if metrics is not None:
                metrics.add_stage_seconds("ingest", time.perf_counter() - started)


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


def _poll_shares(slots: list[list["Consumer"]]) -> list:
    """Everything pending on some of one query's shard slots, as a share list.

    ``slots`` holds one per-proxy consumer list per shard slot.  Polling is
    slot-major — all of a slot's proxies before the next slot — so the
    shares of every ``MID`` arrive in one batch and the aggregator's grouped
    join never has to buffer across calls.
    """
    shares: list = []
    for slot_consumers in slots:
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
