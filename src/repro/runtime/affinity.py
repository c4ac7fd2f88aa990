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
  MAC'd.  Shard boundaries are static
  (:func:`~repro.runtime.sharding.plan_shards` over the population size), so
  a shard id names the same clients every epoch of a deployment.
* Each worker keeps a :class:`ResidentShardCache` of reconstructed
  :class:`~repro.core.client.Client` objects per shard id, installed once
  from a :class:`~repro.runtime.wire.ShardBootstrap` and kept current by
  deltas epoch after epoch.
* The steady-state traffic is proportional to what changed: a
  :class:`~repro.runtime.wire.ShardDelta` per shard per epoch (subscription
  changes and the stream rows appended since the last frame — usually
  nothing) and a :class:`~repro.runtime.wire.ShardAck` back (one
  :class:`~repro.core.client.ResponseBlock` per query plus the 32-byte
  hash of the frame served).

**Nothing to keep in step.**  The parent stays authoritative for tables
and subscriptions: its live clients are mutated directly by ingest and
re-tuning, and the changes ship as deltas.  Client randomness has no
position to keep: every draw is a keyed function of the client's key, the
query and the epoch (:mod:`repro.core.seeding`), so the parent's copy of a
client (key, tables, subscriptions) answers any epoch exactly as the
worker's does, whichever epochs the worker has answered.  No client state
travels back and nothing is replayed.

**Recovery = bootstrap.**  A killed worker, a broken token chain, a refused
ack or a table change that is not an append all end the same way: the shard
is sent a fresh bootstrap built from the parent's clients.  An epoch that
failed for a shard was never adopted, and what the worker drew for it
depends on that epoch alone, so results stay byte-identical to the serial
reference; the equivalence and torture suites pin this with every worker
killed after every epoch.

**No late set on the wire (yet).**  Every epoch's context carries its late
set (``EpochContext.late``), and the in-process drivers use it to flip only
those clients' coins instead of building their answers.  ``ShardDelta`` /
``ShardBootstrap`` have no field for it, so resident workers still build
every answer and the parent's gate slices the late rows out of each acked
block — same bytes, same ledger; the field comes with the wire-v6 codec.
"""

from __future__ import annotations

import hashlib
import queue
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.runtime.engine import EpochHandle, StageDriver, answer_shard
from repro.sqldb import ShardArena, cached_shard_arena
from repro.runtime.executor import EpochContext
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

# How often the parent-side collect loop polls the result queue between
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
    subscriptions and epochs) at O(frame bytes).
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
    no longer be trusted (a worker-side exception mid-answer may leave a
    delta half-applied).  ``lookup`` consumes the token: the clients it
    hands out are about to take the frame's deltas, and only the next ack
    vouches for them again.
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
        """The resident shard's cached arena
        (:func:`~repro.sqldb.cached_shard_arena`; ``None`` when the shard is
        not resident): a re-bootstrap that replaced the client objects
        rebuilds it, ``ShardDelta`` appends sync into it incrementally."""
        clients = self._clients.get(shard_index, ())
        return cached_shard_arena(
            self._arenas, shard_index, [client.database for client in clients]
        )

    def __len__(self) -> int:
        return len(self._clients)


def _answer_from_residency(
    cache: ResidentShardCache,
    message: ShardBootstrap | ShardDelta,
    token: bytes,
    clients: list["Client"],
) -> ShardAck:
    """Answer one frame's epoch from resident clients and build the ack,
    which carries the frame's ``token`` once answering succeeded."""
    shard_index, epoch = message.shard_index, message.epoch
    start = time.perf_counter()
    if message.query_ids:
        responses = tuple(
            answer_shard(clients, message.query_ids, epoch, arena=cache.arena_for(shard_index))
        )
    else:
        responses = ()
    wall_seconds = time.perf_counter() - start
    cache.remember(shard_index, token)
    return ShardAck(
        shard_index=shard_index,
        epoch=epoch,
        wall_seconds=wall_seconds,
        responses=responses,
        fingerprint=token,
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
    while answering invalidates the shard (a delta may be half-applied) so
    the parent re-bootstraps it.
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
            ack = _answer_from_residency(cache, message, _frame_token(frame), clients)
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
                ack = _answer_from_residency(
                    cache, message, _frame_token(frame), clients
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
    """Parent-side bookkeeping for one resident shard id.

    A shard is resident exactly while the driver holds one of these for it.
    ``start``/``stop`` are the span the resident copy was built for.
    ``sent_token`` is the :func:`_frame_token` of the frame in flight, which
    its ack must carry to be adopted; ``fingerprint`` is the last adopted
    token, which the next delta will demand.  ``baseline`` is the per-client
    subscriptions + per-table append watermarks deltas are diffed against
    (:func:`_client_baseline`).
    """

    start: int
    stop: int
    sent_token: bytes
    baseline: list
    fingerprint: bytes = b""


def _column_signature(table) -> tuple:
    return tuple((column.name, column.sql_type) for column in table.columns)


def _client_baseline(client: "Client") -> tuple[dict, dict]:
    """Snapshot the parent-authoritative parts deltas are computed against.

    Per table this is the append watermark ``sqldb`` already trusts
    (:meth:`repro.sqldb.columnar.ArenaTable.sync`): the row-list object, its
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
    framing, the token chain, worker healing, and forgetting residency when
    the engine is reused on a new deployment.  Its router is always a
    :class:`~repro.runtime.remote.RemoteWorkerTransport`: with no
    ``addresses`` it spawns its own workers on loopback
    (``framed-wire-local``, :class:`~repro.runtime.remote.LocalWorkerTransport`),
    with ``addresses`` it dials separately launched ones
    (``sealed-tcp-remote``) — the same sealed channel and the same protocol
    decisions either way.

    Parameters
    ----------
    addresses, keys:
        ``(host, port)`` of each separately launched worker and its
        pre-shared MAC key (one per address); ``None`` spawns local workers
        under fresh per-run keys.
    """

    scheduling = "pinned-worker"

    def __init__(
        self,
        addresses: list[tuple[str, int]] | None = None,
        keys: list[bytes] | None = None,
    ):
        self._addresses = addresses
        self._keys = keys
        self.transport = (
            "framed-wire-local" if addresses is None else "sealed-tcp-remote"
        )
        self._router = None
        self._shards: dict[int, _ShardResidency] = {}
        self._proxies = None
        self._pending: dict[int, Shard] = {}
        # Observability: frame counts and fallback events (the first two
        # are surfaced on the engine for the benchmark's shrinkage claim).
        self.bootstrap_frames = 0
        self.delta_frames = 0
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
        """Stop the workers; the parent's clients are authoritative."""
        if self._router is not None:
            self._router.close()
            self._router = None
        self._shards.clear()
        self._proxies = None

    # -- engine hooks --------------------------------------------------------

    def prepare(self, context: EpochContext, epoch: int) -> None:
        # A different proxy network is a different deployment (the rule
        # the engine's consumer cache uses): the resident copies belong to
        # the previous deployment's clients, so every shard bootstraps anew.
        if self._proxies is not context.proxies:
            self._shards.clear()
            self._proxies = context.proxies
        router = self._ensure_router()
        router.drain_stale()
        self._heal_workers()

    def begin_epoch(self, handle: EpochHandle) -> None:
        """Frame and send every occupied shard's bootstrap/delta.

        Frames are all built *before* any is sent: ``_frame_for`` hashes each
        frame, which between sends would queue behind the router's
        ack-reader threads (``hashlib`` drops the GIL above 2,047 bytes).
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
            # Workers already holding this epoch's frames may apply their
            # deltas and ack tokens the parent never adopts; residency cannot
            # be trusted for any shard this epoch touched, so every occupied
            # shard re-bootstraps next epoch.  (The engine keeps the partial
            # wire bytes recorded.)
            for shard in handle.occupied:
                self._shards.pop(shard.index, None)
            raise

    def collect(self, handle: EpochHandle) -> None:
        """Decode and adopt acks, fall back to bootstrap on demand.

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
            self._shards.pop(shard.index, None)
            handle.emit(shard.index, None, error=exc)

        while pending:
            for shard_index in list(pending):
                if not router.worker_alive(router.slot_for(shard_index)):
                    # The resident copy died with the worker; the next epoch
                    # re-bootstraps the shard from the parent's copy.
                    fail(
                        pending.pop(shard_index),
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
            if ack.error is not None:
                # The worker invalidated its cache before acking.
                del pending[shard.index]
                fail(shard, ResidentWorkerError(f"{ack.error[0]}: {ack.error[1]}"))
                continue
            if ack.bootstrap_required:
                count = rebootstraps.get(shard.index, 0) + 1
                rebootstraps[shard.index] = count
                self.rebootstraps += 1
                self._shards.pop(shard.index, None)
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
            state = self._shards[shard.index]
            if self._refuses_token(state, ack):
                # Nothing is adopted: the worker's copy is discarded.
                fail(
                    shard,
                    ResidentWorkerError(
                        f"shard {shard.index} acked epoch {epoch} with a token "
                        "for a frame this coordinator did not send"
                    ),
                )
                continue
            state.fingerprint = ack.fingerprint
            handle.emit(shard.index, list(ack.responses), wall_seconds=ack.wall_seconds)

    # -- recovery helpers ----------------------------------------------------

    def _refuses_token(self, state: _ShardResidency, ack: ShardAck) -> bool:
        """Count a success ack that does not vouch for the frame last sent:
        tampered, replayed, or from a worker deriving tokens another way."""
        refused = ack.fingerprint != state.sent_token
        self.token_refusals += refused
        return refused

    def _heal_workers(self) -> None:
        """Replace dead workers; their shards bootstrap from the parent copy."""
        router = self._ensure_router()
        for slot in router.dead_slots():
            router.replace(slot)
            for shard_index in list(self._shards):
                if router.slot_for(shard_index) == slot:
                    del self._shards[shard_index]

    # -- framing -------------------------------------------------------------

    def _bootstrap_frame(
        self, context: EpochContext, shard: Shard, epoch: int, query_ids: tuple
    ) -> bytes:
        """Frame a full bootstrap from the parent's (current) clients."""
        clients = context.clients[shard.as_slice()]
        frame = encode_shard_bootstrap(
            ShardBootstrap(
                shard_index=shard.index,
                epoch=epoch,
                query_ids=query_ids,
                client_states=tuple(client.export_state() for client in clients),
            )
        )
        self._shards[shard.index] = _ShardResidency(
            start=shard.start,
            stop=shard.stop,
            sent_token=_frame_token(frame),
            baseline=[_client_baseline(client) for client in clients],
        )
        self.bootstrap_frames += 1
        return frame

    def _frame_for(
        self, context: EpochContext, shard: Shard, epoch: int, query_ids: tuple
    ) -> bytes:
        """The next frame for one occupied shard: delta if possible, else bootstrap.

        A delta needs a resident copy of exactly this span and a change that
        :func:`_delta_since` can express; anything else — a table dropped,
        re-schema'd, rebound or edited in place — bootstraps the shard with
        the parent's current tables.
        """
        state = self._shards.get(shard.index)
        if state is not None and (state.start, state.stop) == shard_span(shard):
            clients = context.clients[shard.as_slice()]
            deltas = []
            for client, baseline in zip(clients, state.baseline):
                delta, dirty = _delta_since(client, baseline)
                if dirty:
                    break
                deltas.append(delta)
            else:
                frame = encode_shard_delta(
                    ShardDelta(
                        shard_index=shard.index,
                        epoch=epoch,
                        query_ids=query_ids,
                        deltas=tuple(deltas),
                        expected_fingerprint=state.fingerprint,
                    )
                )
                state.sent_token = _frame_token(frame)
                if any(delta is not None for delta in deltas):
                    state.baseline = [
                        baseline if delta is None else _client_baseline(client)
                        for client, baseline, delta in zip(
                            clients, state.baseline, deltas
                        )
                    ]
                self.delta_frames += 1
                return frame
        return self._bootstrap_frame(context, shard, epoch, query_ids)
