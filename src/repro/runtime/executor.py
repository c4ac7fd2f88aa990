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
tenants are isolated end-to-end.  Single-query epochs are the one-element
case and keep the legacy shared proxy topics.

Two runtimes ship:

* :class:`~repro.runtime.serial.SerialExecutor` — the reference
  implementation: one in-order loop over clients, one transmit per client,
  per-record ingestion.  This is exactly the pre-runtime behavior, and the
  frozen oracle every other configuration must match byte-for-byte.
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

Because every client draws from its own seeded RNG and keystream, the work is
embarrassingly parallel and the merged outcome is independent of shard count
and worker scheduling; the equivalence test suite pins this property down.
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
    from repro.pubsub import Consumer
    from repro.runtime.engine import StageDriver


@dataclass(frozen=True)
class QueryContext:
    """One query's slice of an epoch: its aggregator, consumers and channel.

    ``channel`` names the per-query topic scope on the proxies
    (:meth:`~repro.core.proxy.ProxyNetwork.transmit` and friends); ``None``
    keeps the legacy shared topics, which is correct only while a single
    query is in flight.  Multi-query epochs set ``channel=query_id`` so each
    aggregator only ever polls its own query's records.

    ``consumers`` subscribe to the per-share channel topics and are read by
    :class:`~repro.runtime.serial.SerialExecutor` only: the staged engine
    relays shard batch records and polls its own shard-topic consumers
    (scoped by the same ``channel``).
    """

    query_id: str
    aggregator: "Aggregator"
    consumers: Sequence["Consumer"]
    channel: str | None = None


class EpochContext:
    """Everything an executor needs to run one epoch.

    ``clients`` is the system's *live* client list: executors that move
    client state to other processes must write the advanced state back into
    it so later epochs continue the same RNG streams.  ``queries`` holds one
    :class:`QueryContext` per concurrent query served by this epoch's single
    answering pass; the single-query constructor keywords (``aggregator``,
    ``consumers``, ``query_id``) remain as a convenience and build a
    one-element ``queries`` tuple.
    """

    def __init__(
        self,
        clients: list["Client"],
        proxies: "ProxyNetwork",
        queries: Sequence[QueryContext] | None = None,
        *,
        aggregator: "Aggregator | None" = None,
        consumers: Sequence["Consumer"] | None = None,
        query_id: str | None = None,
        deadline=None,
    ):
        if queries is None:
            if aggregator is None or consumers is None or query_id is None:
                raise ValueError(
                    "EpochContext needs either queries=[QueryContext, ...] or "
                    "the single-query aggregator/consumers/query_id trio"
                )
            queries = (
                QueryContext(
                    query_id=query_id, aggregator=aggregator, consumers=consumers
                ),
            )
        elif aggregator is not None or consumers is not None or query_id is not None:
            raise ValueError(
                "pass either queries= or the single-query trio, not both"
            )
        if not queries:
            raise ValueError("an epoch needs at least one query context")
        self.clients = clients
        self.proxies = proxies
        self.queries = tuple(queries)
        # Optional epoch-deadline gate (duck-typed; see
        # repro.runtime.scenario.EpochDeadline).  Executors consult it at
        # the transmit boundary: ``should_drop(response)`` decides and
        # records, ``drops_for(query_id)`` reports.  A response whose client
        # the gate marks late advanced its RNG streams but is never
        # transmitted, and the drop is recorded per query.  Because the gate
        # decides from modeled latency, never wall-clock, every executor
        # drops the same answers — and a gate that also offers the optional
        # ``is_late(client_id)`` lets the staged engine know the late set
        # before the answer stage, so in-process drivers only *draw* those
        # answers (a LateAnswer marker) instead of building them.
        self.deadline = deadline

    @property
    def query_ids(self) -> list[str]:
        return [query.query_id for query in self.queries]

    # -- single-query conveniences (tests and legacy callers) ---------------

    def _single(self) -> QueryContext:
        if len(self.queries) != 1:
            raise ValueError(
                "this EpochContext carries multiple queries; use .queries"
            )
        return self.queries[0]

    @property
    def query_id(self) -> str:
        return self._single().query_id

    @property
    def aggregator(self) -> "Aggregator":
        return self._single().aggregator

    @property
    def consumers(self) -> Sequence["Consumer"]:
        return self._single().consumers


@dataclass(frozen=True)
class QueryEpochOutcome:
    """One query's share of an executed epoch.

    ``responses`` holds the query's participating responses in client order
    (the deterministic merge of per-shard logs); ``window_results`` holds the
    window results the query's aggregator emitted while ingesting the epoch.
    ``late_drops`` names the clients whose answers the epoch's deadline gate
    dropped for this query, sorted — empty when no deadline was armed.
    """

    query_id: str
    responses: tuple
    window_results: tuple
    late_drops: tuple = ()

    @property
    def num_participants(self) -> int:
        return len(self.responses)


@dataclass(frozen=True)
class EpochOutcome:
    """What one executed epoch produced, per query.

    ``per_query`` is aligned with the context's ``queries``.  The
    ``responses`` / ``window_results`` / ``num_participants`` accessors keep
    the single-query view for callers that ran a one-query epoch.
    """

    per_query: tuple[QueryEpochOutcome, ...]

    def _single(self) -> QueryEpochOutcome:
        if len(self.per_query) != 1:
            raise ValueError("this outcome covers multiple queries; use .per_query")
        return self.per_query[0]

    @property
    def responses(self) -> tuple:
        return self._single().responses

    @property
    def window_results(self) -> tuple:
        return self._single().window_results

    @property
    def num_participants(self) -> int:
        return self._single().num_participants


def apply_deadline(deadline, responses_per_query: list[list]) -> list[list]:
    """Filter late clients' responses out of one shard's answer lists.

    The shared deadline hook for the shard-shaped executors: called on each
    shard's per-query response lists before they are transmitted, so a late
    answer never reaches the proxies (it still advanced the client's RNG
    streams exactly as under the serial reference — built in full, or drawn
    and standing in the list as a ``LateAnswer`` marker).  Thread-safe
    as long as the gate's ``should_drop`` is (the scenario layer's gate
    locks); a ``None`` deadline passes everything through untouched.
    """
    if deadline is None:
        return responses_per_query
    return [
        [response for response in responses if not deadline.should_drop(response)]
        for responses in responses_per_query
    ]


def late_drops_for(context: EpochContext, query_id: str) -> tuple:
    """One query's recorded deadline drops, or ``()`` without a gate."""
    if context.deadline is None:
        return ()
    return context.deadline.drops_for(query_id)


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

#: Epochs between refreshes of the parent's authoritative state copy under
#: ``pinned-worker`` scheduling (``0`` = only on demand/shutdown).
DEFAULT_CHECKPOINT_EVERY = 4


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

    def close(self) -> None:
        """Release worker pools or other resources (idempotent no-op here)."""


def _driver_factories() -> dict[tuple[str, str], Callable[..., "StageDriver"]]:
    """Combo -> ``factory(checkpoint_every, addresses, keys)`` for its driver.

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
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
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
    checkpoint_every:
        ``pinned-worker`` scheduling only: refresh the parent's copy of the
        resident RNG/keystream state every this many epochs per shard (``0``
        = only on subscription changes, a new deployment and shutdown).
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
    driver = _driver_factories()[DRIVER_SPELLINGS[name]](
        checkpoint_every, addresses, keys
    )
    return StagedEpochEngine(driver, num_workers=workers, num_shards=shards)
