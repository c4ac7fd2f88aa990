"""The epoch-executor abstraction of the parallel runtime.

An :class:`EpochExecutor` owns the "answering epoch" dataflow of
:class:`~repro.core.system.PrivApproxSystem`: have every subscribed client
answer (sample -> SQL -> randomize -> encrypt), move the resulting shares
into the proxy brokers, and drain the proxy streams into the aggregator.
The system delegates :meth:`run_epoch` to whichever executor its
:class:`~repro.core.system.SystemConfig` selected and keeps everything else
(historical recording, result delivery, feedback re-tuning) executor-agnostic.

An epoch context carries one :class:`QueryContext` per *concurrent* query:
all of them are served from a single answering pass over the clients (each
client answers every query it subscribes to in one go, sharing the local
table scan), while transmission and ingestion stay per query — every query
has its own channel topics, its own aggregator and its own consumers, so the
tenants are isolated end-to-end.  A single-query epoch is the one-element
case of the same flow.  The context's ``late`` set is the epoch's deadline:
every executor reads that one immutable set, drops those clients' answers
before transmission and returns the drops per query with the outcome.

Two runtimes ship:

* :class:`~repro.runtime.serial.SerialExecutor` — the reference
  implementation: one in-order loop over clients, one transmit per client,
  one ingest per query through the aggregator's one ingest path.  This is
  the frozen oracle every other configuration must match byte-for-byte.
* :class:`~repro.runtime.engine.StagedEpochEngine` — one staged dataflow
  (plan -> answer -> transmit -> ingest -> finalize) whose answer stage is
  run by a stage driver named ``"scheduling/transport"``: *scheduling*
  decides where and when shards answer (caller thread, a thread pool
  collected in completion order, pinned long-lived workers), *transport*
  decides how client state reaches them (shared objects, or
  :mod:`repro.runtime.wire` frames in sealed envelopes to workers spawned
  on loopback or launched on other hosts).  :data:`DRIVER_COMBOS` lists the
  four supported pairs and :func:`make_executor` is the one way to build
  them.

Because every client draw is a keyed function of (client, query, epoch)
(:mod:`repro.core.seeding`), the work is embarrassingly parallel and the
merged outcome is independent of shard count and worker scheduling; the
equivalence test suite pins this property down.
See ``docs/ARCHITECTURE.md`` for the driver matrix and the
seeded-equivalence contract each combination must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # imported lazily to keep repro.core <-> repro.runtime acyclic
    from repro.core.aggregator import Aggregator
    from repro.core.client import Client
    from repro.core.proxy import ProxyNetwork
    from repro.core.query import Query
    from repro.pubsub import Consumer
    from repro.runtime.engine import StageDriver


@dataclass(frozen=True)
class QueryContext:
    """One query's slice of an epoch: its aggregator and relay consumers.

    ``consumers`` holds one consumer per proxy on the query's channel topic
    (``proxy-<i>-q-<query id>``), the only topics any executor relays on:
    :class:`~repro.runtime.serial.SerialExecutor` drains them once per epoch,
    the staged engine polls them after relaying each shard.  They belong to
    the deployment, so their offsets persist across epochs and executors.
    """

    query_id: str
    aggregator: "Aggregator"
    consumers: Sequence["Consumer"]


@dataclass(frozen=True)
class EpochContext:
    """Everything an executor needs to run one epoch.

    ``clients`` is the system's *live* client list, authoritative for tables
    and subscriptions; answering changes no client state, so nothing ever
    has to be written back into it.  ``queries`` holds one
    :class:`QueryContext` per concurrent query served by this epoch's single
    answering pass.

    ``late`` is the epoch's deadline: the ids of the clients whose answers
    miss it.  A late client still flips its sampling coins, exactly as if it
    had not been late, but its responses never reach the proxies,
    and each query's outcome lists the late participants it dropped.  The
    set is decided from modeled latency, never wall-clock
    (:func:`repro.runtime.scenario.late_clients_for`), so every executor
    drops the same answers; an id that names no client drops nothing.
    """

    clients: list["Client"]
    proxies: "ProxyNetwork"
    queries: Sequence[QueryContext]
    late: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("an epoch needs at least one query context")
        object.__setattr__(self, "queries", tuple(self.queries))

    @property
    def query_ids(self) -> list[str]:
        return [query.query_id for query in self.queries]


@dataclass(frozen=True)
class QueryEpochOutcome:
    """One query's share of an executed epoch.

    ``blocks`` holds the query's participating responses as
    :class:`~repro.core.client.ResponseBlock` s in client order (one per
    shard with participants, merged in shard order; the serial reference
    builds one for the whole epoch); ``window_results`` holds the window
    results the query's aggregator emitted while ingesting the epoch.
    ``late_drops`` names the participants whose answers the epoch dropped
    because they were in ``EpochContext.late``, sorted — empty when nobody
    was late.
    """

    query_id: str
    blocks: tuple
    window_results: tuple
    late_drops: tuple = ()

    @property
    def num_participants(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def responses(self):
        """The blocks' rows as a lazy sequence of ``ClientResponse`` views
        (:class:`~repro.core.client.ResponseLog`), for evaluation."""
        from repro.core.client import ResponseLog

        return ResponseLog(self.query_id, self.blocks)


@dataclass(frozen=True)
class EpochOutcome:
    """What one executed epoch produced: ``per_query`` is aligned with the
    context's ``queries``."""

    per_query: tuple[QueryEpochOutcome, ...]


# -- the driver registry ------------------------------------------------------
#
# Every parallel executor is a StagedEpochEngine (repro.runtime.engine)
# configured with one stage driver, named by its scheduling and transport.
# SystemConfig validation, the CLI choices, make_executor and the CI smoke
# matrix all read this single source; a pair not listed here does not exist.

#: The registered (scheduling, transport) combinations, each backed by a
#: shipped driver.  Every combo satisfies the seeded-equivalence contract
#: against SerialExecutor.
DRIVER_COMBOS = (
    ("inline", "in-process"),
    ("pipelined-overlap", "in-process"),
    ("pinned-worker", "framed-wire-local"),
    ("pinned-worker", "sealed-tcp-remote"),
)

#: ``"scheduling/transport"`` spelling -> combo, for every registered combo.
DRIVER_SPELLINGS = {
    f"{scheduling}/{transport}": (scheduling, transport)
    for scheduling, transport in DRIVER_COMBOS
}

#: Every name make_executor accepts; SystemConfig validation and the CLI
#: choices import this single source.  ``serial`` is the lone special name:
#: SerialExecutor is the frozen engine-free reference.
EXECUTOR_KINDS = ("serial",) + tuple(DRIVER_SPELLINGS)

def validate_driver_combo(scheduling: str, transport: str) -> tuple[str, str]:
    """Check one (scheduling, transport) pair against the registry.

    Raises ``ValueError`` listing :data:`EXECUTOR_KINDS` for any pair not in
    :data:`DRIVER_COMBOS`; returns the pair unchanged so callers can
    validate-and-keep in one step.
    """
    if (scheduling, transport) not in DRIVER_COMBOS:
        raise ValueError(
            f"unknown executor {scheduling + '/' + transport!r} "
            f"(expected one of {EXECUTOR_KINDS})"
        )
    return scheduling, transport


def validate_executor_options(
    name: str,
    remote_workers: Sequence[str] | None = None,
    key_file: str | None = None,
) -> None:
    """Check an executor name against its remote-worker options.

    The transport axis of the spelling decides: ``*/sealed-tcp-remote``
    needs ``host:port`` worker addresses plus a key file, every other name
    refuses both.  Raises ``ValueError``; ``SystemConfig`` and
    :func:`make_executor` call this, the CLI converts it to ``SystemExit``.
    """
    if name not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {name!r} (expected one of {EXECUTOR_KINDS})"
        )
    remote_transport = (
        name != "serial" and DRIVER_SPELLINGS[name][1] == "sealed-tcp-remote"
    )
    if remote_workers is None:
        if remote_transport:
            raise ValueError(
                f"executor {name!r} needs remote worker addresses "
                "(host:port,... plus a key file; see docs/OPERATIONS.md)"
            )
        if key_file is not None:
            raise ValueError("a key file only applies with remote worker addresses")
        return
    if not remote_transport:
        raise ValueError(
            f"remote worker addresses require a */sealed-tcp-remote executor "
            f"(got {name!r})"
        )
    if not remote_workers:
        raise ValueError("remote workers must name at least one host:port address")
    if key_file is None:
        raise ValueError(
            "remote worker addresses require a key file (one hex HMAC key "
            "per line; see docs/OPERATIONS.md)"
        )
    from repro.runtime.remote import parse_address

    for address in remote_workers:
        parse_address(address)  # raises ValueError on malformed input


def cli_smoke_matrix() -> tuple[str, ...]:
    """The ``--executor`` spellings CI smoke-tests on a single host.

    Serial plus every registered combo that runs without separately
    launched TCP workers — sealed-TCP spellings are exercised by the
    dedicated remote smoke (``tools/remote_smoke.py``) instead.  Adding a
    combo to :data:`DRIVER_COMBOS` automatically adds its smoke gate.
    """
    return ("serial",) + tuple(
        f"{scheduling}/{transport}"
        for scheduling, transport in DRIVER_COMBOS
        if transport != "sealed-tcp-remote"
    )


class EpochExecutor:
    """Base class for epoch execution strategies.

    An executor must satisfy the *seeded-equivalence contract* (documented in
    ``docs/ARCHITECTURE.md``): for a seeded system, :meth:`run_epoch` must
    produce the same participating responses in client order and byte-identical
    window results as :class:`~repro.runtime.serial.SerialExecutor`, for any
    internal parallelism or batching configuration.
    """

    def run_epoch(self, context: EpochContext, epoch: int) -> EpochOutcome:
        """Answer, transmit and ingest one epoch; return the merged outcome."""
        raise NotImplementedError

    def truth_scan_caches(
        self, clients: list["Client"], query: "Query"
    ) -> list[dict | None] | None:
        """Per-client scan caches for the ground truth of one query.

        One entry per client, aligned with ``clients``: the ``scan_cache``
        its :meth:`Client.truthful_answer
        <repro.core.client.Client.truthful_answer>` reads, read off the
        arenas this executor answers from.  ``None`` here: a client
        answering alone already answers from its own one-slot arena.
        """
        return None

    def close(self) -> None:
        """Release worker pools or other resources (idempotent no-op here)."""


def _driver_factories() -> dict[tuple[str, str], Callable[..., "StageDriver"]]:
    """Combo -> ``factory(addresses, keys)`` for its driver.

    One entry per :data:`DRIVER_COMBOS` pair (a tier-1 test pins the key
    sets equal).  Built on demand because the driver modules import this
    one; ``addresses``/``keys`` are ``None`` for the single-host transports.
    """
    from repro.runtime.affinity import ResidentDriver
    from repro.runtime.engine import InlineDriver, OverlapThreadDriver

    return {
        ("inline", "in-process"): lambda *_: InlineDriver(),
        ("pipelined-overlap", "in-process"): lambda *_: OverlapThreadDriver(),
        ("pinned-worker", "framed-wire-local"): ResidentDriver,
        ("pinned-worker", "sealed-tcp-remote"): ResidentDriver,
    }


def make_executor(
    name: str,
    workers: int = 4,
    shards: int | None = None,
    remote_workers: Sequence[str] | None = None,
    key_file: str | None = None,
) -> EpochExecutor:
    """Build an executor from configuration values.

    Parameters
    ----------
    name:
        ``"serial"`` (the reference loop) or a ``"scheduling/transport"``
        driver spelling such as ``"pinned-worker/framed-wire-local"``
        (see :data:`EXECUTOR_KINDS` and :data:`DRIVER_COMBOS`); every
        spelling returns a plain
        :class:`~repro.runtime.engine.StagedEpochEngine`.
    workers:
        Worker pool size (threads or pinned worker processes, as the
        scheduling axis says).
    shards:
        Shard count; ``None`` means one shard per worker.
    remote_workers:
        ``host:port`` addresses of separately launched TCP workers
        (:mod:`repro.runtime.remote`), required by — and only valid with —
        the ``sealed-tcp-remote`` transport.  The pool size is the number
        of addresses; ``workers`` is ignored.
    key_file:
        Path to the pre-shared HMAC keys for ``remote_workers`` — one hex
        key per line (line *i* keys worker *i*), or a single shared key.
    """
    validate_executor_options(name, remote_workers, key_file)
    if name == "serial":
        from repro.runtime.serial import SerialExecutor

        return SerialExecutor()
    from repro.runtime.engine import StagedEpochEngine

    addresses = keys = None
    if remote_workers is not None:
        from repro.runtime.remote import keys_for_workers, load_keys, parse_address

        addresses = [parse_address(address) for address in remote_workers]
        keys = keys_for_workers(load_keys(key_file), len(addresses))
        workers = len(addresses)
    driver = _driver_factories()[DRIVER_SPELLINGS[name]](addresses, keys)
    return StagedEpochEngine(driver, num_workers=workers, num_shards=shards)
