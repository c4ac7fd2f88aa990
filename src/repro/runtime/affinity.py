"""Worker-resident client state behind sticky shard→worker affinity.

Answering is CPU-heavy (SQL → randomize → encrypt per client) and the GIL
keeps in-process threads on one core, so the ``pinned-worker`` scheduling
answers in worker processes — and keeps each client's state *inside* the
worker that answers it, so almost nothing crosses the process border after
the first epoch:

* The router pins each shard id to one worker (``shard_index %
  num_workers``) over one sealed channel per worker
  (:class:`~repro.runtime.remote.RemoteWorkerTransport`): locally spawned
  children on loopback (``framed-wire-local``) or separately launched
  hosts (``sealed-tcp-remote``) — one router, one protocol, every frame
  MAC'd.  Shard *boundaries* may move (adaptive re-sharding); shard *ids*
  are stable (:func:`repro.runtime.sharding.plan_weighted_shards` always
  emits ids ``0..num_shards-1``), so affinity survives boundary moves.
* Each worker keeps a :class:`ResidentShardCache` of reconstructed
  :class:`~repro.core.client.Client` objects per shard id, installed once
  from a :class:`~repro.runtime.wire.ShardBootstrap` and advanced in place
  epoch after epoch.
* The steady-state traffic is proportional to what changed: a
  :class:`~repro.runtime.wire.ShardDelta` per shard per epoch (subscription
  changes and the stream rows appended since the last frame — usually
  nothing) and a :class:`~repro.runtime.wire.ShardAck` back (responses plus
  the 32-byte hash of the frame served instead of advanced snapshots).

**Split authority, lazy reunification.**  The parent stays authoritative for
tables and subscriptions (its live clients are mutated directly by ingest and
re-tuning, and the changes ship as deltas); the pinned worker is
authoritative for the advancing RNG/keystream streams.  The parent's copy of
those streams is refreshed lazily — `export on demand`: every
``checkpoint_every`` epochs, whenever a delta changes *subscriptions* (so a
replay window never spans a subscription change), and on shutdown or shard
migration.  Such a delta sets ``want_state`` and the ack carries each
client's stream state and nothing else
(``Client.export_state(streams_only=True)``, grafted back via
:meth:`~repro.core.client.Client.adopt_rng_state`): the parent already holds
the tables and subscriptions, so a checkpoint costs O(clients × queries)
however long the streams have grown.  Appended rows alone do **not** force a
checkpoint (see the rule at :meth:`ResidentDriver._frame_for`).

**Recovery = checkpoint + replay.**  Between checkpoints the parent records
which ``(epoch, query_ids)`` each shard answered.  Because every draw in the
answering path comes from client-owned seeded RNG/keystream streams — and the
*number* of draws is content-independent (one sampling coin; randomization
draws depend only on the first coin; keystream consumption is fixed-length
per query; SQL consumes no randomness) — making the logged epochs' draws on
the checkpoint copy reproduces the worker's state exactly, whatever rows
were appended in between.  Replay answers nothing: it calls
:meth:`Client.advance <repro.core.client.Client.advance>`, the draw-only
twin of ``Client.answer`` (no SQL, no answer built, nothing to discard),
whose equality with the answering path on ``state_fingerprint()`` is a
tested contract rather than a side effect.  That is how
a killed worker, a broken token chain, or a mid-run re-shard falls back:
fast-forward the parent copy, then send a bootstrap frame for exactly the
moved/lost shards.  Results stay byte-identical to the serial reference —
the equivalence and torture suites pin this with residency on and off.

**No late set on the wire (yet).**  The engine's plan stage knows which
clients an armed deadline gate will drop, and the in-process drivers use it
to draw those answers instead of building them.  ``ShardDelta`` /
``ShardBootstrap`` have no field for it, so resident workers still build
every answer and the parent's gate drops the late ones as acks decode —
same bytes, same ledger; the field comes with the wire-v4 codec.
"""

from __future__ import annotations

import hashlib
import queue
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.runtime.engine import EpochHandle, StageDriver, answer_shard
from repro.sqldb import ShardArena, arena_answering_enabled
from repro.runtime.executor import DEFAULT_CHECKPOINT_EVERY, EpochContext
from repro.runtime.sharding import Shard, shard_span
from repro.runtime.wire import (
    ClientDelta,
    ShardAck,
    ShardBootstrap,
    ShardDelta,
    WireError,
    decode_frame,
    decode_shard_ack,
    encode_shard_ack,
    encode_shard_bootstrap,
    encode_shard_delta,
)

if TYPE_CHECKING:
    from repro.core.client import Client

# How often the parent-side collect loops poll the result queue between
# liveness checks; long enough to stay off the CPU, short enough that a
# killed worker is noticed promptly.
_RECV_POLL_SECONDS = 0.05
# A shard that keeps answering "bootstrap required" after being re-sent a
# fresh bootstrap is wedged, not cold; give up instead of looping.
_MAX_REBOOTSTRAPS_PER_EPOCH = 3


class ResidentWorkerError(RuntimeError):
    """A resident worker failed (worker-side exception or worker death)."""


def _frame_token(frame: bytes) -> bytes:
    """The continuity token of one bootstrap or delta frame: its SHA-256.

    The worker acks it, the parent derives it from the bytes it sent, and the
    next delta embeds it as ``expected_fingerprint`` — a hash chain, so a
    match vouches for the bootstrap and every delta since, in order (tables,
    subscriptions and epochs as well as stream position) at O(frame bytes).
    """
    return hashlib.sha256(frame).digest()


class ResidentShardCache:
    """The worker-side cache: shard id → live reconstructed clients.

    A plain dict with the lifecycle rules made explicit: ``install`` replaces
    a shard's clients wholesale (bootstrap), ``remember`` records the
    continuity token just acked for them, ``lookup`` hands the clients out
    only to a delta that expects exactly that token (a mismatch, a miss, or
    clients with no token remembered return ``None`` — the caller acks
    ``bootstrap_required``), and ``invalidate`` drops a shard whose state can
    no longer be trusted (a worker-side exception mid-answer leaves it
    half-advanced).  ``lookup`` consumes the token: the clients it hands out
    are about to advance, and only the next ack vouches for them again.
    """

    def __init__(self) -> None:
        self._clients: dict[int, list["Client"]] = {}
        self._tokens: dict[int, bytes] = {}
        # Shard id → ShardArena over the resident clients' databases; lives
        # and dies with the residency (bootstrap replaces it, invalidate
        # drops it) and syncs incrementally under ShardDelta traffic.
        self._arenas: dict[int, ShardArena] = {}

    def install(self, shard_index: int, clients: list["Client"]) -> None:
        self._clients[shard_index] = clients
        self._tokens.pop(shard_index, None)
        self._arenas.pop(shard_index, None)

    def lookup(self, shard_index: int, expected_fingerprint: bytes) -> list["Client"] | None:
        clients = self._clients.get(shard_index)
        if clients is None:
            return None
        if self._tokens.pop(shard_index, None) != expected_fingerprint:
            self.invalidate(shard_index)
            return None
        return clients

    def remember(self, shard_index: int, token: bytes) -> None:
        """Record the token just acked for a resident shard."""
        self._tokens[shard_index] = token

    def invalidate(self, shard_index: int) -> None:
        self._clients.pop(shard_index, None)
        self._tokens.pop(shard_index, None)
        self._arenas.pop(shard_index, None)

    def arena_for(self, shard_index: int) -> ShardArena | None:
        """The resident shard's arena, built lazily and reused across epochs.

        Returns ``None`` (dropping any cached arena) when arena answering is
        disabled or the shard is not resident.  Membership is compared by
        database-object identity, so a re-bootstrap that replaced the client
        objects rebuilds the arena while ``ShardDelta`` appends sync into it
        incrementally.
        """
        clients = self._clients.get(shard_index)
        if clients is None or not arena_answering_enabled():
            self._arenas.pop(shard_index, None)
            return None
        databases = [client.database for client in clients]
        arena = self._arenas.get(shard_index)
        if arena is None or not arena.matches(databases):
            arena = ShardArena(databases)
            self._arenas[shard_index] = arena
        return arena

    def __len__(self) -> int:
        return len(self._clients)


def _answer_from_residency(
    cache: ResidentShardCache,
    message: ShardBootstrap | ShardDelta,
    token: bytes,
    want_state: bool,
    clients: list["Client"],
) -> ShardAck:
    """Answer one frame's epoch from resident clients and build the ack,
    which carries the frame's ``token`` once answering succeeded."""
    shard_index, epoch = message.shard_index, message.epoch
    start = time.perf_counter()
    if message.query_ids:
        responses_per_query, clients = answer_shard(
            clients, message.query_ids, epoch, arena=cache.arena_for(shard_index)
        )
        responses = tuple(tuple(responses) for responses in responses_per_query)
    else:
        responses = ()
    wall_seconds = time.perf_counter() - start
    # A checkpoint carries stream state only (the parent holds everything
    # else); it is the only per-client pass an ack ever makes.
    client_states = (
        tuple(client.export_state(streams_only=True) for client in clients)
        if want_state
        else None
    )
    cache.remember(shard_index, token)
    return ShardAck(
        shard_index=shard_index,
        epoch=epoch,
        wall_seconds=wall_seconds,
        responses=responses,
        fingerprint=token,
        client_states=client_states,
    )


def serve_resident_frame(cache: ResidentShardCache, frame: bytes) -> bytes:
    """Serve one bootstrap/delta frame against a resident cache.

    The single protocol step of every worker — locally spawned or separately
    launched, both :class:`~repro.runtime.remote.RemoteWorkerServer` behind
    the envelope MAC: decode the frame, install or look
    up the shard's resident clients, answer, and return the encoded
    :class:`~repro.runtime.wire.ShardAck`, whose 32 bytes vouch for the frame
    served (:func:`_frame_token`).  Every frame produces exactly one
    ack — success, ``bootstrap_required``, or a captured worker-side error —
    so the parent's collect loop never counts itself into a hang.  An exception
    while answering invalidates the shard (its clients may be half-advanced)
    so the parent re-bootstraps it.
    """
    # Imported here: repro.core imports repro.runtime at package level, so a
    # module-level import would be cyclic.
    from repro.core.client import Client

    shard_index = -1
    epoch = -1
    try:
        message = decode_frame(frame)
        shard_index = message.shard_index
        epoch = message.epoch
        if isinstance(message, ShardBootstrap):
            clients = [Client.from_state(state) for state in message.client_states]
            cache.install(shard_index, clients)
            ack = _answer_from_residency(
                cache, message, _frame_token(frame), False, clients
            )
        elif isinstance(message, ShardDelta):
            clients = cache.lookup(shard_index, message.expected_fingerprint)
            if clients is None:
                ack = ShardAck(
                    shard_index=shard_index, epoch=epoch, bootstrap_required=True
                )
            else:
                for client, delta in zip(clients, message.deltas):
                    if delta is not None:
                        client.apply_delta(delta)
                        # Delta-driven index maintenance: fold the
                        # appended rows into any live columnar mirrors
                        # now, at ingest, keeping the rebuild/append
                        # work off the answer critical path.
                        client.database.sync_columnar()
                ack = _answer_from_residency(
                    cache,
                    message,
                    _frame_token(frame),
                    message.want_state,
                    clients,
                )
        else:
            raise WireError(
                f"resident worker cannot serve {type(message).__name__} frames"
            )
    except Exception as exc:  # noqa: BLE001 — every failure must become an ack
        cache.invalidate(shard_index)
        ack = ShardAck(
            shard_index=shard_index,
            epoch=epoch,
            error=(type(exc).__name__, str(exc)),
        )
    return encode_shard_ack(ack)


@dataclass
class _ShardResidency:
    """Parent-side bookkeeping for one shard id.

    ``start``/``stop`` are the boundaries the resident copy was built for
    (affinity survives boundary moves, resident state does not — a moved
    shard is synced back and re-bootstrapped).  ``fingerprint`` is the last
    acked continuity token, which the next delta will demand; ``sent_token``
    is the :func:`_frame_token` of the frame in flight, which its ack must
    carry to be adopted.  ``replay_log`` holds the
    ``(epoch, query_ids)`` answered since the parent's copy was last current;
    replaying it on the checkpoint copy reproduces the worker state exactly.
    ``replay_subscriptions`` pins the per-client subscription sets those
    logged epochs actually ran under — replay must restore them, because a
    parent-side unsubscribe or re-tune whose checkpoint ack never landed
    would otherwise change which draws the replay makes.  ``baseline`` is
    the per-client subscriptions + per-table append watermarks deltas are
    diffed against (:func:`_client_baseline`).
    """

    resident: bool = False
    start: int = 0
    stop: int = 0
    fingerprint: bytes = b""
    sent_token: bytes = b""
    replay_log: list = field(default_factory=list)
    replay_subscriptions: list | None = None
    baseline: list | None = None
    epochs_since_checkpoint: int = 0


def _column_signature(table) -> tuple:
    return tuple((column.name, column.sql_type) for column in table.columns)


def _client_baseline(client: "Client") -> tuple[dict, dict]:
    """Snapshot the parent-authoritative parts deltas are computed against.

    Per table this is the append watermark ``sqldb`` already trusts
    (:meth:`repro.sqldb.columnar.ColumnStore.sync`,
    :meth:`~repro.sqldb.columnar.ArenaTable.sync`): the row-list object, its
    ``_RowList.mutations`` counter and the shipped length, plus the column
    signature.  Holding the list *reference* (so its identity cannot be
    recycled) is what makes the triple sound: same list, same counter, not
    shorter means nothing in the shipped prefix was edited, reordered or
    removed — a delete-and-reinsert or an in-place row edit keeps the length
    but moves the counter, and a rebound list is a different object.  No
    copy of the rows is kept; the continuity token covers what was *shipped*,
    so this watermark is the only thing standing between a parent-side edit
    that never became a frame and a silently stale worker copy.
    """
    tables = {}
    for name in client.database.table_names():
        table = client.database.table(name)
        rows = table.rows
        tables[name] = (
            _column_signature(table),
            rows,
            getattr(rows, "mutations", 0),
            len(rows),
        )
    return (client.subscriptions, tables)


def _delta_since(client: "Client", baseline: tuple[dict, dict]) -> tuple:
    """Diff a live client against its baseline.

    Returns ``(delta_or_None, dirty)``: ``dirty`` means the change cannot be
    expressed as a delta — a table dropped or re-schema'd, or its row list
    rebound, shrunk or edited in place (exactly when the shard arena would
    rebuild rather than append) — and the shard must fall back to a full
    bootstrap.  Otherwise everything past the watermark is the append.
    """
    base_subs, base_tables = baseline
    subs = client.subscriptions
    subscribe = tuple(
        (query, parameters)
        for query_id, (query, parameters) in sorted(subs.items())
        if base_subs.get(query_id) != (query, parameters)
    )
    unsubscribe = tuple(
        query_id for query_id in sorted(base_subs) if query_id not in subs
    )
    append_rows = []
    names = client.database.table_names()
    for name in base_tables:
        if name not in names:
            return None, True
    for name in names:
        table = client.database.table(name)
        columns = _column_signature(table)
        rows = table.rows
        base = base_tables.get(name)
        if base is None:
            append_rows.append((name, columns, tuple(rows)))
            continue
        base_columns, base_rows, base_mutations, base_count = base
        if (
            columns != base_columns
            or rows is not base_rows
            or getattr(rows, "mutations", 0) != base_mutations
            or len(rows) < base_count
        ):
            return None, True
        if len(rows) > base_count:
            append_rows.append((name, columns, tuple(rows[base_count:])))
    if not (subscribe or unsubscribe or append_rows):
        return None, False
    return (
        ClientDelta(
            subscribe=subscribe,
            unsubscribe=unsubscribe,
            append_rows=tuple(append_rows),
        ),
        False,
    )


class ResidentDriver(StageDriver):
    """``pinned-worker`` scheduling: resident state, sticky affinity.

    The engine relays and ingests each shard as its ack is collected; this
    driver owns the resident protocol — bootstrap-once / delta-thereafter
    framing, checkpoint + replay recovery, worker healing, shard migration —
    and reports its per-shard spans so the engine's plan stage can apply
    re-shard hysteresis.  Its router is always a
    :class:`~repro.runtime.remote.RemoteWorkerTransport`: with no
    ``addresses`` it spawns its own workers on loopback
    (``framed-wire-local``, :class:`~repro.runtime.remote.LocalWorkerTransport`),
    with ``addresses`` it dials separately launched ones
    (``sealed-tcp-remote``) — the same sealed channel and the same protocol
    decisions either way.

    Parameters
    ----------
    checkpoint_every:
        Refresh the parent's authoritative copy every this many acked epochs
        per shard (``0`` = only on demand: subscription changes, migration,
        shutdown).  Smaller values shorten recovery replay at the cost of
        periodic stream-state acks.
    addresses, keys:
        ``(host, port)`` of each separately launched worker and its
        pre-shared MAC key (one per address); ``None`` spawns local workers
        under fresh per-run keys.
    """

    scheduling = "pinned-worker"
    adaptive = True

    def __init__(
        self,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        addresses: list[tuple[str, int]] | None = None,
        keys: list[bytes] | None = None,
    ):
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be non-negative, got {checkpoint_every}"
            )
        self.checkpoint_every = checkpoint_every
        self._addresses = addresses
        self._keys = keys
        self.transport = (
            "framed-wire-local" if addresses is None else "sealed-tcp-remote"
        )
        self._router = None
        self._shards: dict[int, _ShardResidency] = {}
        self._last_context: EpochContext | None = None
        self._pending: dict[int, Shard] = {}
        # Observability: frame counts and fallback events (the first two
        # are surfaced on the engine for the benchmark's shrinkage claim).
        self.bootstrap_frames = 0
        self.delta_frames = 0
        self.sync_frames = 0
        self.rebootstraps = 0
        self.token_refusals = 0

    # -- lifecycle -----------------------------------------------------------

    def _ensure_router(self):
        if self._router is None:
            # Imported here: repro.runtime.remote imports this module.
            from repro.runtime.remote import LocalWorkerTransport, RemoteWorkerTransport

            if self._addresses is None:
                self._router = LocalWorkerTransport(self.engine.num_workers)
            else:
                self._router = RemoteWorkerTransport(self._addresses, self._keys)
        return self._router

    def close(self) -> None:
        """Export resident state back to the parent, then stop the workers."""
        if self._router is not None:
            try:
                if self._last_context is not None:
                    resident = [
                        index for index, st in self._shards.items() if st.resident
                    ]
                    if resident:
                        self._sync_shards(self._last_context, resident)
            finally:
                self._router.close()
                self._router = None
        self._shards.clear()
        self._last_context = None

    # -- engine hooks --------------------------------------------------------

    def prepare(self, context: EpochContext, epoch: int) -> None:
        self._last_context = context
        router = self._ensure_router()
        router.drain_stale()
        self._heal_workers(context)

    def residency_spans(self) -> dict[int, tuple[int, int]]:
        """The recorded per-shard spans (kept even for shards that just lost
        residency — moving their boundary would needlessly invalidate their
        still-resident neighbors)."""
        return {
            index: (state.start, state.stop)
            for index, state in self._shards.items()
        }

    def migrate(self, context: EpochContext, shards: list[Shard]) -> int:
        return self._migrate_moved_shards(context, shards)

    def begin_epoch(self, handle: EpochHandle) -> None:
        """Frame and send every occupied shard's bootstrap/delta.

        Frames are all built *before* any is sent: ``_frame_for`` may need a
        synchronous state sync (dirty tables → export + bootstrap), which is
        only safe while no epoch acks are in flight on the result queue — and
        hashes each frame, which between sends would queue behind the
        router's ack-reader threads (``hashlib`` drops the GIL above 2,047
        bytes).
        """
        router = self._ensure_router()
        context, epoch, query_ids = handle.context, handle.epoch, handle.query_ids
        self._pending = {}
        try:
            frames = [
                (shard, self._frame_for(context, shard, epoch, query_ids))
                for shard in handle.occupied
            ]
            for shard, frame in frames:
                handle.metrics.add_wire_bytes(len(frame))
                router.send(shard.index, frame)
                self._pending[shard.index] = shard
        except Exception:
            # Workers already holding this epoch's frames may answer them and
            # advance state the parent never logged; residency cannot be
            # trusted for any shard this epoch touched, so every occupied
            # shard re-bootstraps (from checkpoint + replay) next epoch.
            # (The engine keeps the partial wire bytes recorded.)
            for shard in handle.occupied:
                self._residency(shard.index).resident = False
            raise

    def collect(self, handle: EpochHandle) -> None:
        """Decode acks, adopt checkpoints, fall back to bootstrap on demand.

        Emits exactly once per pending shard — success, worker error, or
        worker death — and returns only when no shard is pending.  A
        ``bootstrap_required`` ack re-sends a bootstrap frame for the same
        epoch (the shard stays pending), bounded by
        ``_MAX_REBOOTSTRAPS_PER_EPOCH``.
        """
        router = self._router
        context, epoch, query_ids = handle.context, handle.epoch, handle.query_ids
        pending = self._pending
        rebootstraps: dict[int, int] = {}

        def fail(shard: Shard, exc: Exception) -> None:
            self._residency(shard.index).resident = False
            handle.emit(shard.index, None, error=exc)

        while pending:
            for shard_index in list(pending):
                if not router.worker_alive(router.slot_for(shard_index)):
                    shard = pending.pop(shard_index)
                    # The resident copy died with the worker; the replay log
                    # still reaches the last *acked* epoch, so the next epoch
                    # re-bootstraps from checkpoint + replay.
                    fail(
                        shard,
                        ResidentWorkerError(
                            f"worker pinned to shard {shard_index} died mid-epoch"
                        ),
                    )
            if not pending:
                return
            try:
                blob = router.recv(timeout=_RECV_POLL_SECONDS)
            except queue.Empty:
                continue
            handle.metrics.add_wire_bytes(len(blob))
            try:
                ack = decode_shard_ack(blob)
            except WireError as exc:
                for shard in list(pending.values()):
                    fail(shard, exc)
                pending.clear()
                return
            if ack.shard_index == -1 and ack.error is not None:
                # The worker could not even decode the frame enough to name a
                # shard; nothing can be attributed, so the epoch fails whole.
                exc = ResidentWorkerError(f"{ack.error[0]}: {ack.error[1]}")
                for shard in list(pending.values()):
                    fail(shard, exc)
                pending.clear()
                return
            shard = pending.get(ack.shard_index)
            if shard is None or ack.epoch != epoch:
                continue  # stale ack from an earlier, failed epoch
            state = self._residency(shard.index)
            if ack.error is not None:
                # The worker invalidated its cache before acking.
                del pending[shard.index]
                fail(shard, ResidentWorkerError(f"{ack.error[0]}: {ack.error[1]}"))
                continue
            if ack.bootstrap_required:
                count = rebootstraps.get(shard.index, 0) + 1
                rebootstraps[shard.index] = count
                self.rebootstraps += 1
                state.resident = False
                if count > _MAX_REBOOTSTRAPS_PER_EPOCH:
                    del pending[shard.index]
                    fail(
                        shard,
                        ResidentWorkerError(
                            f"shard {shard.index} still required a bootstrap "
                            f"after {count - 1} attempts"
                        ),
                    )
                    continue
                try:
                    frame = self._bootstrap_frame(context, shard, epoch, query_ids)
                    handle.metrics.add_wire_bytes(len(frame))
                    router.send(shard.index, frame)
                except Exception as exc:  # unpicklable state, dead worker, ...
                    del pending[shard.index]
                    fail(shard, exc)
                continue
            del pending[shard.index]
            if self._refuses_token(state, ack):
                # Nothing is adopted or logged, like a malformed checkpoint.
                fail(
                    shard,
                    ResidentWorkerError(
                        f"shard {shard.index} acked epoch {epoch} with a token "
                        "for a frame this coordinator did not send"
                    ),
                )
                continue
            # Success: adopt the token (and checkpoint, if present).
            if ack.client_states is None:
                state.replay_log.append((epoch, query_ids))
                state.epochs_since_checkpoint += 1
            elif not self._adopt_checkpoint(context, state, ack.client_states):
                # Nothing was grafted and the replay log is intact, but the
                # worker advanced through an epoch the parent cannot log
                # (its responses are refused with the ack): the next epoch
                # re-bootstraps from the last good checkpoint + replay.
                fail(
                    shard,
                    ResidentWorkerError(
                        f"shard {shard.index} acked a malformed checkpoint: "
                        f"{len(ack.client_states)} records for "
                        f"{state.stop - state.start} clients, or one without "
                        "the stream-state fields"
                    ),
                )
                continue
            state.fingerprint = ack.fingerprint
            handle.emit(
                shard.index,
                [list(responses) for responses in ack.responses],
                wall_seconds=ack.wall_seconds,
            )

    # -- recovery helpers ----------------------------------------------------

    def _residency(self, shard_index: int) -> _ShardResidency:
        state = self._shards.get(shard_index)
        if state is None:
            state = _ShardResidency()
            self._shards[shard_index] = state
        return state

    def _refuses_token(self, state: _ShardResidency, ack: ShardAck) -> bool:
        """Count a success ack that does not vouch for the frame last sent:
        tampered, replayed, or from a worker deriving tokens another way."""
        refused = ack.fingerprint != state.sent_token
        self.token_refusals += refused
        return refused

    @staticmethod
    def _apply_subscriptions(client: "Client", subscriptions: dict) -> None:
        """Make a client's subscription set equal the given qid → (query, params)."""
        for query_id in list(client.subscriptions):
            if query_id not in subscriptions:
                client.unsubscribe(query_id)
        for query, parameters in subscriptions.values():
            client.subscribe(query, parameters)

    def _capture_replay_subscriptions(
        self, context: EpochContext, state: _ShardResidency
    ) -> None:
        """Pin the subscription sets the next replay window will run under.

        Called exactly when the replay log resets (bootstrap send, checkpoint
        graft, sync graft): at those moments the live subscriptions equal the
        resident copy's, and — because a delta that changes subscriptions
        forces a checkpoint (:meth:`_frame_for`) — they stay in force for
        every epoch the log will accumulate.
        """
        clients = context.clients[state.start : state.stop]
        state.replay_subscriptions = [client.subscriptions for client in clients]

    def _adopt_checkpoint(
        self, context: EpochContext, state: _ShardResidency, client_states: tuple
    ) -> bool:
        """Graft a checkpoint/sync ack's stream records, all or nothing.

        The records are checked — one per client of the shard, each carrying
        every stream field — *before* the first graft: adopting part of a
        short ack and then clearing the replay log would leave the parent
        vouching for a mixed state it can never replay out of.  Returns
        ``False`` (nothing touched) when the ack is malformed.
        """
        clients = context.clients[state.start : state.stop]
        if len(client_states) != len(clients) or not all(
            client.holds_stream_state(record)
            for client, record in zip(clients, client_states)
        ):
            return False
        for client, record in zip(clients, client_states):
            client.adopt_rng_state(record)
        state.replay_log.clear()
        state.epochs_since_checkpoint = 0
        self._capture_replay_subscriptions(context, state)
        return True

    def _fast_forward(self, context: EpochContext, shard_index: int) -> None:
        """Replay the logged epochs on the parent's checkpoint copy.

        After this the parent's live clients for the shard carry exactly the
        RNG/keystream state the worker-resident copy had after its last acked
        epoch — see the module docstring for why replay is exact.  Replay
        runs under the pinned ``replay_subscriptions``: a subscription change
        whose checkpoint ack never landed (mutation epoch lost to a worker
        death) postdates every logged epoch, and replaying with it applied
        would skip or alter draws the worker actually made.  Table content
        needs no such pinning — ``Client.advance`` makes an epoch's draws
        without reading a row, which is why rows appended since the
        checkpoint may sit under the replay.
        """
        state = self._residency(shard_index)
        if not state.replay_log:
            return
        clients = context.clients[state.start : state.stop]
        live_subscriptions = None
        if state.replay_subscriptions is not None:
            live_subscriptions = [client.subscriptions for client in clients]
            for client, pinned in zip(clients, state.replay_subscriptions):
                self._apply_subscriptions(client, pinned)
        for _, query_ids in state.replay_log:
            for client in clients:
                client.advance(query_ids)
        if live_subscriptions is not None:
            for client, current in zip(clients, live_subscriptions):
                self._apply_subscriptions(client, current)
        state.replay_log.clear()
        state.epochs_since_checkpoint = 0

    def _heal_workers(self, context: EpochContext) -> None:
        """Replace dead workers; recover their shards' state parent-side."""
        router = self._ensure_router()
        for slot in router.dead_slots():
            router.replace(slot)
            for shard_index, state in self._shards.items():
                if state.resident and router.slot_for(shard_index) == slot:
                    self._fast_forward(context, shard_index)
                    state.resident = False

    def _sync_shards(self, context: EpochContext, shard_indices: list[int]) -> int:
        """Pull stream state back from workers for the given resident shards.

        Sends sync deltas (no answering, ``want_state``), grafts the exported
        RNG/keystream state onto the parent's live clients, and marks the
        shards non-resident (the callers either re-bootstrap them under new
        boundaries or are shutting down).  Shards whose worker cannot serve
        the sync (died, token mismatch on either side, malformed or
        undecodable ack) fall back to checkpoint replay.  Returns the wire
        bytes moved.
        """
        router = self._ensure_router()
        router.drain_stale()
        wire_bytes = 0
        pending: dict[int, _ShardResidency] = {}
        for shard_index in shard_indices:
            state = self._residency(shard_index)
            frame = encode_shard_delta(
                ShardDelta(
                    shard_index=shard_index,
                    epoch=-1,
                    query_ids=(),
                    deltas=(),
                    expected_fingerprint=state.fingerprint,
                    want_state=True,
                )
            )
            state.sent_token = _frame_token(frame)
            self.sync_frames += 1
            wire_bytes += len(frame)
            router.send(shard_index, frame)
            pending[shard_index] = state
        while pending:
            for shard_index in list(pending):
                if not router.worker_alive(router.slot_for(shard_index)):
                    state = pending.pop(shard_index)
                    self._fast_forward(context, shard_index)
                    state.resident = False
            if not pending:
                break
            try:
                blob = router.recv(timeout=_RECV_POLL_SECONDS)
            except queue.Empty:
                continue
            wire_bytes += len(blob)
            try:
                ack = decode_shard_ack(blob)
            except WireError:
                # Nothing attributes the blob to a shard, so no pending sync
                # can be trusted to arrive: recover them all like shards of a
                # dead worker instead of aborting a migration or close()
                # with their live clients left at the last checkpoint.
                for shard_index, state in pending.items():
                    self._fast_forward(context, shard_index)
                    state.resident = False
                break
            state = pending.get(ack.shard_index)
            if state is None or ack.epoch != -1:
                continue  # stale ack from an earlier, failed round
            del pending[ack.shard_index]
            if (
                ack.error is not None
                or ack.bootstrap_required
                or self._refuses_token(state, ack)
                or ack.client_states is None
                or not self._adopt_checkpoint(context, state, ack.client_states)
            ):
                self._fast_forward(context, ack.shard_index)
            state.resident = False
        return wire_bytes

    def _migrate_moved_shards(self, context: EpochContext, shards: list[Shard]) -> int:
        """Sync back every resident shard whose boundaries are about to move.

        Adaptive re-sharding keeps shard ids stable but moves their client
        ranges; the resident copies are keyed to the old ranges, so exactly
        the moved shards are exported and later re-bootstrapped.  Returns the
        sync wire bytes.
        """
        moved = [
            shard.index
            for shard in shards
            if self._shards.get(shard.index) is not None
            and self._shards[shard.index].resident
            and shard_span(shard) != (
                self._shards[shard.index].start,
                self._shards[shard.index].stop,
            )
        ]
        if not moved:
            return 0
        return self._sync_shards(context, moved)

    # -- framing -------------------------------------------------------------

    def _bootstrap_frame(
        self, context: EpochContext, shard: Shard, epoch: int, query_ids: tuple
    ) -> bytes:
        """Fast-forward the parent copy and frame a full bootstrap."""
        state = self._residency(shard.index)
        self._fast_forward(context, shard.index)
        clients = context.clients[shard.as_slice()]
        frame = encode_shard_bootstrap(
            ShardBootstrap(
                shard_index=shard.index,
                epoch=epoch,
                query_ids=query_ids,
                client_states=tuple(client.export_state() for client in clients),
            )
        )
        state.resident = True
        state.start, state.stop = shard.start, shard.stop
        state.fingerprint = b""
        state.sent_token = _frame_token(frame)
        state.replay_log.clear()
        state.baseline = [_client_baseline(client) for client in clients]
        state.epochs_since_checkpoint = 0
        self._capture_replay_subscriptions(context, state)
        self.bootstrap_frames += 1
        return frame

    def _frame_for(
        self, context: EpochContext, shard: Shard, epoch: int, query_ids: tuple
    ) -> bytes:
        """The next frame for one occupied shard: delta if possible, else bootstrap."""
        state = self._residency(shard.index)
        if state.resident and (state.start, state.stop) == shard_span(shard):
            clients = context.clients[shard.as_slice()]
            deltas = []
            dirty = False
            for client, baseline in zip(clients, state.baseline):
                delta, client_dirty = _delta_since(client, baseline)
                if client_dirty:
                    dirty = True
                    break
                deltas.append(delta)
            if not dirty:
                mutated = any(delta is not None for delta in deltas)
                # When the ack must checkpoint.  A delta that changes
                # *subscriptions* always does: the replay log runs under one
                # pinned subscription set (_capture_replay_subscriptions), so
                # it must reset the epoch the set changes.  Appended rows
                # alone do not: replay across them is exact because the draws
                # an epoch makes do not depend on table content (one sampling
                # coin; randomization draws depend only on the first coin;
                # keystream consumption is fixed-length per query; SQL
                # consumes no randomness).  If a query *raises* on appended
                # content the worker invalidates the shard and error-acks,
                # the epoch is never logged, and the parent's replay runs
                # over that same content.  Otherwise only the periodic
                # ``checkpoint_every`` count (and sync frames) ask for state.
                resubscribed = any(
                    delta is not None and (delta.subscribe or delta.unsubscribe)
                    for delta in deltas
                )
                want_state = resubscribed or (
                    self.checkpoint_every > 0
                    and state.epochs_since_checkpoint + 1 >= self.checkpoint_every
                )
                frame = encode_shard_delta(
                    ShardDelta(
                        shard_index=shard.index,
                        epoch=epoch,
                        query_ids=query_ids,
                        deltas=tuple(deltas),
                        expected_fingerprint=state.fingerprint,
                        want_state=want_state,
                    )
                )
                state.sent_token = _frame_token(frame)
                if mutated:
                    state.baseline = [
                        baseline if delta is None else _client_baseline(client)
                        for client, baseline, delta in zip(
                            clients, state.baseline, deltas
                        )
                    ]
                self.delta_frames += 1
                return frame
            # A non-append mutation: pull the worker's stream state back so
            # the bootstrap below ships current RNG state with the new tables.
            self._sync_shards(context, [shard.index])
        return self._bootstrap_frame(context, shard, epoch, query_ids)
