"""Span tracing from outside the program, for the one *traced* repeat.

The end-to-end repeats run with no wrappers except the step timer.  The
traced repeat patches span wrappers around the public functions of every
layer (:func:`patch_table`) — on the name where each is looked up — keeps the spans
in memory in one flat ``array('d')`` (not GC-tracked, so tracing does not
move the program's GC schedule) and restores the originals afterwards.

A span is ``(name, start, end, parent, id, value)``.  ``value`` carries the
count measured at that boundary (bytes, rows, records, ...).  A layer's self
time is its span's duration minus the part of that interval its child spans
cover (:func:`self_times`); children on other threads or in forked worker
processes overlap, so coverage is an interval union, not a sum.

On ``stream-append`` the pinned worker processes are forked from the traced
process and inherit the wrappers; a worker appends its spans to a per-pid
file every time ``serve_resident_frame`` returns and the harness merges the
files (``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux: one clock for every
process on the host).
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import resource
import threading
import time
from array import array
from pathlib import Path

import numpy as np

FIELDS = 6  # name index, start, end, parent id, span id, value
_ID_SPACE = 2**30  # span ids are pid * _ID_SPACE + counter: unique across forks

#: Span-name prefix -> layer, longest prefix first (the repo's modules).
LAYERS = (
    "core.system",
    "core.client",
    "core.sampling",
    "core.rr",
    "core.encryption",
    "core.proxy",
    "core.aggregator",
    "core.admission",
    "core.validation",
    "core.estimation",
    "runtime.engine",
    "runtime.wire",
    "runtime.affinity",
    "runtime.scenario",
    "crypto",
    "sqldb",
    "pubsub",
    "streaming",
    "python.gc",
)

#: Step roots: their self time is the uncovered remainder of a step.
ROOT_SPANS = ("core.system.run_epoch_all", "core.system.set_active_clients")
ENGINE_SPAN = "runtime.engine.run_epoch"

_clock = time.perf_counter
_ACTIVE: "Tracer | None" = None
_FORK_HOOK_REGISTERED = False


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no declared layer")


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._become_worker()


class Tracer:
    """Collects spans; ``installed()`` patches and restores the wrappers."""

    def __init__(self, worker_dir: Path):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.buffer = array("d")
        self.worker_dir = worker_dir
        self.is_worker = False
        self.patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._id_base = float(os.getpid() * _ID_SPACE)
        self._gc_started = 0.0
        self._gc_name = self.name_index("python.gc.pause")
        self._arena_seen: dict[int, tuple[object, tuple[int, int, int]]] = {}
        self.consumers: dict[int, object] = {}

    # -- recording ----------------------------------------------------------

    def name_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            layer_of(name)  # every span must belong to a declared layer
            index = self._index[name] = len(self.names)
            self.names.append(name)
        return index

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, name: str, fn, value=None, after=None):
        """A span wrapper around ``fn``; ``value(args, result)`` is the count
        measured at this boundary and ``after(args, result)`` runs outside
        the span (worker flush, gauges)."""
        index = float(self.name_index(name))
        extend = self.buffer.extend
        ids = self._ids
        get_stack = self._stack

        def traced(*args, **kwargs):
            stack = get_stack()
            span_id = self._id_base + next(ids)
            parent = stack[-1] if stack else 0.0
            stack.append(span_id)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = _clock()
                stack.pop()
                extend((index, start, end, parent, span_id, 0.0))
                raise
            end = _clock()
            stack.pop()
            extend(
                (index, start, end, parent, span_id,
                 float(value(args, result)) if value is not None else 0.0)
            )
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def emit(self, name_index: int, value: float) -> None:
        """A zero-length span: a count observed now, under the current span."""
        stack = self._stack()
        now = _clock()
        self.buffer.extend(
            (float(name_index), now, now, stack[-1] if stack else 0.0,
             self._id_base + next(self._ids), float(value))
        )

    def count_calls(self, name: str, fn):
        """Count calls to ``fn`` without timing them (hot, tiny functions)."""
        index = self.name_index(name)
        emit = self.emit

        def counted(*args, **kwargs):
            emit(index, 1.0)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
            return
        end = _clock()
        stack = self._stack()
        self.buffer.extend(
            (float(self._gc_name), self._gc_started, end, stack[-1] if stack else 0.0,
             self._id_base + next(self._ids), float(info["generation"]))
        )

    # -- forked workers -----------------------------------------------------

    def _become_worker(self) -> None:
        del self.buffer[:]
        self.is_worker = True
        self._id_base = float(os.getpid() * _ID_SPACE)
        self._local.stack = []
        self._arena_seen.clear()

    def _flush_worker(self, args, result) -> None:
        """Worker side: append this frame's spans to the per-pid file."""
        if not self.is_worker:
            return
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.emit(self.name_index("runtime.affinity.worker_rss"), rss)
        with open(self.worker_dir / f"worker-{os.getpid()}.spans", "ab") as handle:
            self.buffer.tofile(handle)
        del self.buffer[:]

    def merge_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.spans")):
            with open(path, "rb") as handle:
                self.buffer.frombytes(handle.read())
            path.unlink()

    # -- gauges read through public counters --------------------------------

    def _arena_gauges(self, args, result) -> None:
        """Fold ``ShardArena.arena_stats()`` deltas into count spans."""
        arena = args[0]
        totals = [0, 0, 0]
        for stats in arena.arena_stats().values():
            totals[0] += stats["rebuilds"]
            totals[1] += stats["appended_rows"]
            totals[2] += stats["span_rows"]
        previous = self._arena_seen.get(id(arena), (arena, (0, 0, 0)))[1]
        self._arena_seen[id(arena)] = (arena, tuple(totals))
        for suffix, now, before in zip(
            ("arena_rebuilds", "appended_rows", "span_rows"), totals, previous
        ):
            if now != before:
                self.emit(self.name_index(f"sqldb.columnar.{suffix}"), now - before)

    def _remember_consumer(self, args, result) -> None:
        self.consumers[id(args[0])] = args[0]

    def consumer_lag_max(self) -> int:
        return max((consumer.lag() for consumer in self.consumers.values()), default=0)

    # -- install / restore --------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of :func:`patch_table`; restore the originals on exit."""
        global _ACTIVE, _FORK_HOOK_REGISTERED
        for name in EXTRA_NAMES:
            self.name_index(name)
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.worker_dir.glob("worker-*.spans"):
            stale.unlink()
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        _ACTIVE = self
        try:
            for owner, attribute, make in patch_table():
                original = vars(owner)[attribute]
                self.patched.append((owner, attribute, original))
                setattr(owner, attribute, make(self, original))
            gc.callbacks.append(self._gc_callback)
            yield self
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
            for owner, attribute, original in reversed(self.patched):
                setattr(owner, attribute, original)
            _ACTIVE = None

    # -- analysis -----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        data = np.frombuffer(self.buffer, dtype=np.float64).reshape(-1, FIELDS)
        return {
            "name": data[:, 0].astype(np.int64),
            "start": data[:, 1].copy(),
            "end": data[:, 2].copy(),
            "parent": data[:, 3].copy(),
            "id": data[:, 4].copy(),
            "value": data[:, 5].copy(),
        }


#: Count-only span names emitted outside ``wrap`` (registered before any fork
#: so parent and workers share one name table).
EXTRA_NAMES = (
    "sqldb.columnar.arena_rebuilds",
    "sqldb.columnar.appended_rows",
    "sqldb.columnar.span_rows",
    "runtime.affinity.worker_rss",
)


def patch_table():
    """``(owner, attribute, make(tracer, original))`` for every traced call.

    Module-level functions are patched on the module that *looks them up*
    (``affinity``'s imported ``encode_shard_delta``, ``engine``'s imported
    ``arena_select_per_client``), methods on the class that defines them.
    """
    from repro.core import aggregator as aggregator_module
    from repro.core import client as client_module
    from repro.core.admission import AnswerAdmissionController
    from repro.core.aggregator import Aggregator
    from repro.core.client import Client
    from repro.core.encryption import AnswerCodec
    from repro.core.estimation import ErrorEstimator
    from repro.core.proxy import ProxyNetwork
    from repro.core.randomized_response import RandomizedResponder
    from repro.core.sampling import SimpleRandomSampler
    from repro.core.system import PrivApproxSystem
    from repro.core.validation import AnswerValidator
    from repro.crypto.prng import KeystreamGenerator
    from repro.pubsub.consumer import Consumer
    from repro.pubsub.producer import Producer
    from repro.runtime import affinity, engine, scenario
    from repro.sqldb.columnar import ArenaTable
    from repro.sqldb.compile import CompiledSelect
    from repro.sqldb.engine import ARENA_FALLBACK, Database
    from repro.streaming.operators import WindowAggregateOperator

    def span(name, value=None, after=None):
        return lambda tracer, fn: tracer.wrap(
            name, fn, value, getattr(tracer, after) if after else None
        )

    def outcomes_used(args, result):
        # Distinct SQL outcomes this client's participating answers read.
        client, query_ids = args[0], args[1]
        return len(
            {client.query_sql(qid) for qid, r in zip(query_ids, result) if r is not None}
        )

    def outcomes_computed(args, result):
        if result is None:
            return 0
        return sum(1 for outcome in result if outcome is not ARENA_FALLBACK)

    def result_length(args, result):
        return len(result)

    return [
        (PrivApproxSystem, "__init__", span("core.system.build")),
        (PrivApproxSystem, "provision_clients", span("core.system.build")),
        (PrivApproxSystem, "submit_query", span("core.system.submit_query")),
        (PrivApproxSystem, "set_active_clients", span("core.system.set_active_clients")),
        (PrivApproxSystem, "run_epoch_all", span("core.system.run_epoch_all")),
        (Client, "answer", span("core.client.answer", outcomes_used)),
        (Client, "ingest", span("core.client.ingest", lambda a, r: r)),
        (Client, "export_state", span("core.client.export_state")),
        (
            SimpleRandomSampler,
            "should_participate",
            lambda tracer, fn: tracer.count_calls("core.sampling.coin", fn),
        ),
        (
            RandomizedResponder,
            "randomize_vector",
            span("core.rr.randomize", result_length),
        ),
        (AnswerCodec, "encrypt", span("core.encryption.encrypt")),
        (AnswerCodec, "decode", span("core.encryption.decode")),
        (KeystreamGenerator, "next_bytes", span("crypto.prng.keystream", result_length)),
        (
            aggregator_module,
            "join_shares_batch",
            span("crypto.xor.join_shares", lambda a, r: len(a[0])),
        ),
        (
            engine,
            "arena_select_per_client",
            span("sqldb.engine.arena_select", outcomes_computed, "_arena_gauges"),
        ),
        (CompiledSelect, "matching_ids_per_client", span("sqldb.compile.probe")),
        (Database, "query", span("sqldb.engine.per_client_query")),
        (Database, "sync_columnar", span("sqldb.columnar.sync")),
        (ArenaTable, "sync", span("sqldb.columnar.sync")),
        (ProxyNetwork, "transmit", span("core.proxy.transmit")),
        (ProxyNetwork, "transmit_batch", span("core.proxy.transmit")),
        (ProxyNetwork, "transmit_shard", span("core.proxy.transmit")),
        (Producer, "send", span("pubsub.publish", lambda a, r: 1)),
        (Producer, "send_many", span("pubsub.publish", result_length)),
        (Consumer, "poll", span("pubsub.poll", result_length, "_remember_consumer")),
        (Aggregator, "ingest_shares", span("core.aggregator.ingest")),
        (Aggregator, "finish_epoch", span("core.aggregator.finish_epoch")),
        (client_module, "participation_token", span("core.admission.token")),
        (AnswerAdmissionController, "admit_batch", span("core.admission.admit")),
        (AnswerValidator, "validate_batch", span("core.validation.validate")),
        (WindowAggregateOperator, "process", span("streaming.window")),
        (ErrorEstimator, "bucket_error_bound", span("core.estimation.error_bound")),
        (engine.StagedEpochEngine, "run_epoch", span(ENGINE_SPAN)),
        (affinity, "encode_shard_bootstrap", span("runtime.wire.encode", result_length)),
        (affinity, "encode_shard_delta", span("runtime.wire.encode", result_length)),
        (affinity, "encode_shard_ack", span("runtime.wire.encode", result_length)),
        (affinity, "decode_frame", span("runtime.wire.decode", lambda a, r: len(a[0]))),
        (
            affinity,
            "decode_shard_ack",
            # value: the worker's own answering wall-clock, ShardAck.wall_seconds
            span("runtime.wire.decode_ack", lambda a, r: r.wall_seconds),
        ),
        (
            affinity,
            "serve_resident_frame",
            span("runtime.affinity.serve_frame", None, "_flush_worker"),
        ),
        (scenario, "build_plan", span("runtime.scenario.build_plan")),
    ]


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray, span_id: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so a child that outlives
    its parent (or started on another thread before it) only counts where
    both were running.  Overlapping children count once.
    """
    duration = end - start
    if len(start) == 0:
        return duration
    sorter = np.argsort(span_id, kind="stable")
    position = np.clip(np.searchsorted(span_id, parent, sorter=sorter), 0, len(span_id) - 1)
    parent_index = sorter[position]
    child = np.flatnonzero((parent != 0.0) & (span_id[parent_index] == parent))
    if len(child) == 0:
        return duration
    owner = parent_index[child]
    child_start = np.maximum(start[child], start[owner])
    child_end = np.minimum(end[child], end[owner])
    keep = child_end > child_start
    owner, child_start, child_end = owner[keep], child_start[keep], child_end[keep]
    if len(owner) == 0:
        return duration
    order = np.lexsort((child_start, owner))
    owner, child_start, child_end = owner[order], child_start[order], child_end[order]
    # Shift every owner's children into its own disjoint time band, so one
    # running maximum of interval ends never leaks across owners.
    origin = child_start.min()
    band = (child_end.max() - origin) + 1.0
    _, rank = np.unique(owner, return_inverse=True)
    shifted_start = (child_start - origin) + rank * band
    shifted_end = (child_end - origin) + rank * band
    reach = np.maximum.accumulate(shifted_end)
    reached_before = np.concatenate(([-np.inf], reach[:-1]))
    covered = np.maximum(0.0, shifted_end - np.maximum(shifted_start, reached_before))
    return duration - np.bincount(owner, weights=covered, minlength=len(start))


def adopt_orphans(columns: dict[str, np.ndarray], names: list[str]) -> None:
    """Give root spans of pool threads and forked workers a parent.

    A span with no parent that is not a step root was started by the engine
    on another thread or in a worker process: it becomes a child of the
    ``runtime.engine.run_epoch`` span that was open when it started.
    """
    name = columns["name"]
    engine_index = names.index(ENGINE_SPAN) if ENGINE_SPAN in names else -1
    engines = np.flatnonzero(name == engine_index)
    if len(engines) == 0:
        return
    engines = engines[np.argsort(columns["start"][engines])]
    root_indexes = [names.index(n) for n in ROOT_SPANS if n in names]
    orphans = np.flatnonzero(
        (columns["parent"] == 0.0) & ~np.isin(name, root_indexes + [engine_index])
    )
    slot = np.searchsorted(columns["start"][engines], columns["start"][orphans], "right") - 1
    valid = slot >= 0
    candidate = engines[np.clip(slot, 0, None)]
    valid &= columns["start"][orphans] <= columns["end"][candidate]
    columns["parent"][orphans[valid]] = columns["id"][candidate[valid]]


def assign_steps(span_start: np.ndarray, steps: list[dict]) -> np.ndarray:
    """Index of the step whose timed segment contains each span start (-1: none)."""
    segments = sorted(
        (seg_start, seg_end, index)
        for index, step in enumerate(steps)
        for seg_start, seg_end in step["segments"]
    )
    if not segments:
        return np.full(len(span_start), -1, dtype=np.int64)
    seg_start = np.array([s[0] for s in segments])
    seg_end = np.array([s[1] for s in segments])
    seg_step = np.array([s[2] for s in segments], dtype=np.int64)
    slot = np.searchsorted(seg_start, span_start, "right") - 1
    inside = (slot >= 0) & (span_start <= seg_end[np.clip(slot, 0, None)])
    return np.where(inside, seg_step[np.clip(slot, 0, None)], -1)


class SpanTable:
    """Per-step totals by span name, over the measured steps only."""

    def __init__(self, tracer: Tracer, steps: list[dict], measured: range):
        self.names = tracer.names
        self.columns = tracer.columns()
        adopt_orphans(self.columns, self.names)
        c = self.columns
        self.self_time = self_times(c["start"], c["end"], c["parent"], c["id"])
        self.step = assign_steps(c["start"], steps)
        self.measured = measured
        self.num_steps = len(steps)

    def _per_step(self, name: str, weights: np.ndarray) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.measured))
        mask = (self.columns["name"] == self.names.index(name)) & (self.step >= 0)
        totals = np.bincount(self.step[mask], weights=weights[mask], minlength=self.num_steps)
        return totals[self.measured.start : self.measured.stop]

    def ms(self, *names: str) -> float:
        """Median over measured steps of the step's total span time, in ms."""
        duration = self.columns["end"] - self.columns["start"]
        return float(np.median(sum(self._per_step(n, duration) for n in names)) * 1000.0)

    def self_ms(self, *names: str) -> float:
        return float(np.median(sum(self._per_step(n, self.self_time) for n in names)) * 1000.0)

    def calls(self, *names: str) -> float:
        """Mean span count per measured step."""
        ones = np.ones(len(self.step))
        return float(np.mean(sum(self._per_step(n, ones) for n in names)))

    def value(self, *names: str) -> float:
        """Mean per measured step of the counts carried by the spans."""
        return float(np.mean(sum(self._per_step(n, self.columns["value"]) for n in names)))

    def total_value(self, name: str) -> float:
        """Sum over the measured steps of the counts carried by the spans."""
        return float(np.sum(self._per_step(name, self.columns["value"])))

    def total_seconds(self, name: str) -> float:
        duration = self.columns["end"] - self.columns["start"]
        return float(np.sum(self._per_step(name, duration)))

    def steps_with(self, name: str) -> int:
        """How many measured steps saw at least one span of this name."""
        return int(np.count_nonzero(self._per_step(name, np.ones(len(self.step)))))

    def run_total_value(self, name: str) -> float:
        """Sum of the counts over the whole run, set-up and warm-up included."""
        if name not in self.names:
            return 0.0
        mask = self.columns["name"] == self.names.index(name)
        return float(np.sum(self.columns["value"][mask]))

    def stage_wall_ms(self, first: str, last: str, pid: int) -> np.ndarray:
        """Per measured step: first ``first`` span start to last ``last`` span
        end, among the spans of one process (NaN where the step has neither)."""
        out = np.full(len(self.measured), np.nan)
        if first not in self.names or last not in self.names:
            return out
        c = self.columns
        own = (c["id"] // _ID_SPACE).astype(np.int64) == pid
        opens = own & (c["name"] == self.names.index(first))
        closes = own & (c["name"] == self.names.index(last))
        for offset, step in enumerate(self.measured):
            in_step = self.step == step
            if (opens & in_step).any() and (closes & in_step).any():
                out[offset] = (
                    c["end"][closes & in_step].max() - c["start"][opens & in_step].min()
                ) * 1000.0
        return out

    def per_step_values(self, name: str) -> list[np.ndarray]:
        """The individual span values of one name, grouped by measured step."""
        if name not in self.names:
            return [np.array([]) for _ in self.measured]
        mask = self.columns["name"] == self.names.index(name)
        return [
            self.columns["value"][mask & (self.step == step)] for step in self.measured
        ]

    def setup_ms(self, name: str) -> float:
        """Total time of a span that runs before the first step (set-up)."""
        if name not in self.names:
            return 0.0
        mask = self.columns["name"] == self.names.index(name)
        return float(np.sum((self.columns["end"] - self.columns["start"])[mask]) * 1000.0)

    def layer_self_share(self, step_wall_seconds: float) -> dict[str, float]:
        """Each layer's self time over the measured steps / their wall time."""
        in_measured = (self.step >= self.measured.start) & (self.step < self.measured.stop)
        totals = np.bincount(
            self.columns["name"][in_measured],
            weights=self.self_time[in_measured],
            minlength=len(self.names),
        )
        shares: dict[str, float] = {}
        for index, name in enumerate(self.names):
            if totals[index] > 0.0:
                layer = layer_of(name)
                shares[layer] = shares.get(layer, 0.0) + totals[index] / step_wall_seconds
        return dict(sorted(shares.items(), key=lambda item: -item[1]))

    def coverage(self, step_wall_seconds: float) -> float:
        """Self time of everything below the step roots / step wall time."""
        in_measured = (self.step >= self.measured.start) & (self.step < self.measured.stop)
        roots = [self.names.index(n) for n in ROOT_SPANS if n in self.names]
        below = in_measured & ~np.isin(self.columns["name"], roots)
        return float(np.sum(self.self_time[below]) / step_wall_seconds)

    def worker_busy_max_ms(self, own_pid: int) -> np.ndarray:
        """Per measured step: the busiest worker's ``serve_frame`` time, in ms."""
        out = np.zeros(len(self.measured))
        name = "runtime.affinity.serve_frame"
        if name not in self.names:
            return out
        c = self.columns
        pid = (c["id"] // _ID_SPACE).astype(np.int64)
        mask = (c["name"] == self.names.index(name)) & (pid != own_pid) & (self.step >= 0)
        duration = c["end"] - c["start"]
        for worker in np.unique(pid[mask]):
            of_worker = mask & (pid == worker)
            busy = np.bincount(
                self.step[of_worker], weights=duration[of_worker], minlength=self.num_steps
            )
            out = np.maximum(out, busy[self.measured.start : self.measured.stop])
        return out * 1000.0

    def write_jsonl(self, path: Path, steps_written: int) -> int:
        """Write the spans of the first measured steps as one JSON line each."""
        c = self.columns
        first = self.measured.start
        chosen = np.flatnonzero((self.step >= first) & (self.step < first + steps_written))
        chosen = chosen[np.argsort(c["start"][chosen])]
        with open(path, "w") as handle:
            for i in chosen:
                handle.write(
                    json.dumps(
                        {
                            "id": int(c["id"][i]),
                            "name": self.names[c["name"][i]],
                            "start": c["start"][i],
                            "end": c["end"][i],
                            "parent": int(c["parent"][i]),
                            "pid": int(c["id"][i] // _ID_SPACE),
                            "epoch": int(self.step[i]),
                            "self": self.self_time[i],
                            "value": c["value"][i],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(chosen)
