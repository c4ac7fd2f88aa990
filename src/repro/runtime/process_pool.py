"""The framed-wire-local snapshot driver: answering escapes the GIL.

In-process drivers answer on threads: under the GIL they time-slice one
core, so the CPU-heavy answer stage (SQL → randomize → encrypt per client)
never truly parallelizes.  :class:`OverlapSnapshotWireDriver`
(``pipelined-overlap`` × ``framed-wire-local``) answers each shard in a
``concurrent.futures.ProcessPoolExecutor`` worker instead:

1. **Serialize** — the parent snapshots each occupied shard's clients
   (:meth:`~repro.core.client.Client.export_state`) and frames them into a
   self-contained :class:`~repro.runtime.wire.ShardTask` blob — client seeds
   and mid-stream RNG/keystream states, local tables, and the subscription
   carrying the query and randomized-response parameters.  No broker, proxy
   or aggregator state crosses the process border.  Shards are submitted as
   they are encoded (early shards answer while later shards serialize), and
   all of it happens in ``begin_epoch``, before any shard is emitted: a
   pickling failure cancels the submitted work and surfaces with nothing
   transmitted.
2. **Answer (worker process)** — :func:`answer_shard_task` reconstructs the
   shard's clients from their snapshots, answers the epoch with exactly the
   draws the serial reference would make (the restored RNG/keystream resume
   mid-stream), and returns a framed :class:`~repro.runtime.wire.ShardBatch`:
   responses, advanced client snapshots, and the shard's answering
   wall-clock.
3. **Collect** — the parent decodes batches in completion order, writes
   the advanced client state back into the live client list (so epoch
   ``t + 1`` continues the same streams) and emits each shard to the
   engine, which owns deadline gating, transmission and ingestion.

Adaptive shard sizing (:class:`~repro.runtime.engine.AdaptiveShardSizer`)
and its wall-clock feedback loop live in the engine; each batch's reported
answering wall-clock feeds the next epoch's boundary plan (more shards than
workers gives the sizer finer rebalancing, at more serialization calls).
Failure handling follows the engine's contract: a worker exception (or a
crashed worker — ``BrokenProcessPool``), a wire error, a transmit or ingest
failure all surface from ``run_epoch`` once every submitted task has
finished and the consumer grids have drained; a broken pool is discarded
so the next epoch gets a fresh one.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.runtime.engine import (
    EpochHandle,
    StageDriver,
    answer_shard,
    emit_as_completed,
    make_shard_arena,
)
from repro.runtime.sharding import Shard
from repro.runtime.wire import (
    ShardBatch,
    ShardTask,
    decode_shard_batch,
    decode_shard_task,
    encode_shard_batch,
    encode_shard_task,
)

__all__ = [
    "OverlapSnapshotWireDriver",
    "answer_shard_task",
]


def answer_shard_task(task_blob: bytes) -> bytes:
    """The worker entry point: bytes in, bytes out.

    Decodes one :class:`~repro.runtime.wire.ShardTask`, rebuilds its clients,
    answers the epoch, and returns the framed
    :class:`~repro.runtime.wire.ShardBatch`.  Module-level (hence picklable
    by reference) and dependent only on the blob, so it runs identically
    under fork or spawn — or, in principle, on another machine.
    """
    # Imported here: repro.core imports repro.runtime at package level, so a
    # module-level import would be cyclic.
    from repro.core.client import Client

    task = decode_shard_task(task_blob)
    start = time.perf_counter()
    clients = [Client.from_state(state) for state in task.client_states]
    # The same shard task the in-process drivers run, so participation
    # semantics can never drift between transports.  Snapshot shipping
    # rebuilds Client objects every epoch, so the arena is transient too —
    # built here, used once, discarded with the worker-side clients.
    arena = make_shard_arena(clients)
    responses_per_query, clients = answer_shard(
        clients, task.query_ids, task.epoch, arena=arena
    )
    wall_seconds = time.perf_counter() - start
    return encode_shard_batch(
        ShardBatch(
            shard_index=task.shard_index,
            epoch=task.epoch,
            wall_seconds=wall_seconds,
            responses=tuple(tuple(responses) for responses in responses_per_query),
            client_states=tuple(client.export_state() for client in clients),
        )
    )


class OverlapSnapshotWireDriver(StageDriver):
    """``pipelined-overlap`` × ``framed-wire-local``: streaming collection.

    Decodes batches in completion order and emits each shard while later
    shards are still answering in the worker processes; a failed task
    becomes that shard's error emit and collection carries on until every
    submitted task has finished.
    """

    scheduling = "pipelined-overlap"
    transport = "framed-wire-local"
    adaptive = True

    def make_pool(self, num_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=num_workers)

    def begin_epoch(self, handle: EpochHandle) -> None:
        """Encode and submit shard by shard (early shards answer while later
        shards still serialize).  A failure cancels what was submitted and
        raises before any shard is emitted — nothing transmitted, no parent
        state changed, and a broken pool is discarded so the next epoch can
        run as if this one never started."""
        pool = self.engine._ensure_pool()
        futures: dict[Future, Shard] = {}
        try:
            for shard in handle.occupied:
                blob = encode_shard_task(
                    ShardTask(
                        shard_index=shard.index,
                        epoch=handle.epoch,
                        query_ids=handle.query_ids,
                        client_states=tuple(
                            client.export_state()
                            for client in handle.context.clients[shard.as_slice()]
                        ),
                    )
                )
                handle.metrics.add_wire_bytes(len(blob))
                futures[pool.submit(answer_shard_task, blob)] = shard
        except Exception as exc:
            for future in futures:
                future.cancel()
            if isinstance(exc, BrokenProcessPool):
                self.engine._discard_pool()
            raise
        self._futures = futures

    def _decode_and_adopt(self, handle: EpochHandle, shard: Shard, blob: bytes):
        """Account, decode, and write the advanced client state back."""
        from repro.core.client import Client  # deferred: core <-> runtime

        handle.metrics.add_wire_bytes(len(blob))
        batch = decode_shard_batch(blob)
        # Adopt the advanced snapshots so epoch t+1 continues the exact
        # RNG/keystream sequences the serial reference would.
        handle.context.clients[shard.as_slice()] = [
            Client.from_state(state) for state in batch.client_states
        ]
        return [list(responses) for responses in batch.responses], batch.wall_seconds

    def collect(self, handle: EpochHandle) -> None:
        emit_as_completed(
            handle,
            self._futures,
            lambda shard, blob: self._decode_and_adopt(handle, shard, blob),
        )

    def handle_epoch_error(self, error: Exception) -> None:
        if isinstance(error, BrokenProcessPool):
            self.engine._discard_pool()
