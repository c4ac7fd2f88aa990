"""Deterministic scenario sweeps: churn, heavy tails, byzantine injection, deadlines.

The executors are proven equivalent on well-behaved populations; this module
drives them through hostile ones.  A :class:`ScenarioSpec` describes one
environment — per-epoch client join/leave churn, Zipf-skewed participation and
table sizes, duplicate/byzantine answer injection, and an epoch deadline
checked against the :mod:`repro.netsim` latency models — and
:func:`build_plan` expands it into a fully deterministic epoch-by-epoch plan:
same seed, same plan, on every machine and under every executor.

Determinism is the load-bearing property.  The seeded-equivalence contract
demands byte-identical results from every executor, so nothing in a scenario
may depend on wall-clock or scheduling:

* **Churn** is modeled as subscription churn over a fixed client universe.
  The population list never changes shape (client identity and order is what
  aligns shard merges with the serial reference); a client that "leaves"
  unsubscribes from every query and becomes draw-for-draw indistinguishable
  from an absent device, a client that "joins" re-subscribes.  Under
  ``pinned-worker`` scheduling these edits flow to the pinned workers as
  :class:`~repro.runtime.wire.ClientDelta` subscribe/unsubscribe entries
  inside per-epoch ``ShardDelta`` frames; every other executor sees them as
  plain population edits on the live client list.
* **Deadlines** are enforced against *modeled* client latency —
  :class:`~repro.netsim.devices.DeviceProfile` pipeline cost for the client's
  table size plus :class:`~repro.netsim.network.NetworkModel` transfer time
  plus seeded jitter — never against real elapsed time.  An epoch's deadline
  is therefore just a set of client ids, :func:`late_clients_for`, which the
  runner hands every executor as ``EpochContext.late``: each drops exactly
  the same answers (a late participant flipped its coin — and was built in
  full by a pinned worker — but never arrived) and reports the drops per
  query.
* **Byzantine injection** publishes forged answers straight onto the proxy
  topics before the epoch runs.  Forged tokens are unique per injection and
  repeated ``copies`` times, so admission control admits exactly one copy and
  rejects the rest as duplicates — an order-free outcome, which is what keeps
  the admitted answer multiset (and hence every estimate) identical across
  executors regardless of shard arrival order.

:func:`run_scenario` executes a spec end-to-end on one executor and returns a
:class:`ScenarioRun` with per-epoch metrics (wall-clock, wire bytes, late
drops, admission rejections) plus a digest over the response log, window
results and drop ledger — two runs agree on the digest iff they agreed on
every observable byte.  ``benchmarks/run_scenarios.py`` sweeps a seeded grid
of specs across ``serial`` and every single-host driver combo and asserts
exactly that.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from dataclasses import dataclass, fields
from typing import Sequence

from repro.netsim.devices import DeviceKind, DeviceProfile, OperationKind
from repro.netsim.network import NetworkModel

# The client answering pipeline whose device cost the deadline model charges
# per local row (Table 3: SQLite read dominates, so cost scales with rows).
_ANSWER_PIPELINE = (
    OperationKind.SQLITE_READ,
    OperationKind.RANDOMIZED_RESPONSE,
    OperationKind.XOR_ENCRYPTION,
)

_DEVICE_PROFILES = {
    DeviceKind.PHONE.value: DeviceProfile.phone(),
    DeviceKind.LAPTOP.value: DeviceProfile.laptop(),
    DeviceKind.SERVER.value: DeviceProfile.server(),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One hostile environment, fully determined by its fields.

    ``num_clients`` is the client *universe*; ``initial_active_fraction`` of
    it starts subscribed.  ``join_rate`` / ``leave_rate`` are per-epoch
    fractions of the universe that (re)subscribe / unsubscribe, drawn without
    replacement and weighted toward the tail of the Zipf ranking — heavy
    clients are stable, light clients churn.  ``zipf_exponent`` skews both
    the churn weighting and the per-client table sizes (0 = uniform).

    ``duplicate_rate`` injects that fraction of the active population as
    forged byzantine answers per epoch, each transmitted
    ``duplicate_copies`` times (one copy is admitted and poisons the
    estimate; the rest are rejected as duplicates — both effects are
    recorded).  ``deadline_seconds`` drops answers whose modeled client
    latency (device pipeline + network transfer at
    ``bandwidth_bytes_per_sec`` + up to ``jitter_seconds`` of seeded jitter)
    exceeds it; ``None`` disables the deadline.
    """

    name: str
    seed: int
    num_clients: int
    num_epochs: int
    num_queries: int = 1
    initial_active_fraction: float = 1.0
    join_rate: float = 0.0
    leave_rate: float = 0.0
    zipf_exponent: float = 0.0
    max_rows_per_client: int = 3
    duplicate_rate: float = 0.0
    duplicate_copies: int = 2
    deadline_seconds: float | None = None
    jitter_seconds: float = 0.0
    bandwidth_bytes_per_sec: float = 125_000_000.0
    sampling_fraction: float = 0.8
    p: float = 0.9
    q: float = 0.5

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be positive")
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be positive")
        if self.num_queries < 1:
            raise ValueError("num_queries must be positive")
        if not 0.0 <= self.initial_active_fraction <= 1.0:
            raise ValueError("initial_active_fraction must lie in [0, 1]")
        if not 0.0 <= self.join_rate <= 1.0 or not 0.0 <= self.leave_rate <= 1.0:
            raise ValueError("join_rate and leave_rate must lie in [0, 1]")
        if self.zipf_exponent < 0.0:
            raise ValueError("zipf_exponent must be non-negative")
        if self.max_rows_per_client < 1:
            raise ValueError("max_rows_per_client must be positive")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must lie in [0, 1]")
        if self.duplicate_copies < 1:
            raise ValueError("duplicate_copies must be positive")
        if self.deadline_seconds is not None and self.deadline_seconds < 0.0:
            raise ValueError("deadline_seconds must be non-negative")
        if self.jitter_seconds < 0.0:
            raise ValueError("jitter_seconds must be non-negative")
        if self.bandwidth_bytes_per_sec <= 0.0:
            raise ValueError("bandwidth must be positive")

    def to_dict(self) -> dict:
        """A JSON-serializable form; :meth:`from_dict` inverts it exactly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        return cls(**data)


@dataclass(frozen=True)
class InjectionPlan:
    """One forged byzantine answer: a private seed and how often it is sent."""

    seed: int
    copies: int


@dataclass(frozen=True)
class EpochPlan:
    """The churn and injections applied before one epoch runs.

    ``joins`` / ``leaves`` are the client indices whose subscriptions flip
    this epoch; ``active`` is the full resulting roster (sorted), which is
    what the runner feeds to
    :meth:`~repro.core.system.PrivApproxSystem.set_active_clients`.
    """

    epoch: int
    joins: tuple[int, ...]
    leaves: tuple[int, ...]
    active: tuple[int, ...]
    injections: tuple[InjectionPlan, ...]


@dataclass(frozen=True)
class ScenarioPlan:
    """A spec expanded into per-client and per-epoch decisions."""

    spec: ScenarioSpec
    rows_per_client: tuple[int, ...]
    devices: tuple[str, ...]
    initial_active: tuple[int, ...]
    epochs: tuple[EpochPlan, ...]


def _zipf_weights(num_clients: int, exponent: float) -> list[float]:
    """Rank-based Zipf weights: client 0 is the heaviest, the tail thins out."""
    return [1.0 / float(rank + 1) ** exponent for rank in range(num_clients)]


def _weighted_pick(
    rng: random.Random, items: Sequence[int], weights: Sequence[float], count: int
) -> tuple[int, ...]:
    """Deterministic weighted sampling without replacement (Efraimidis-Spirakis).

    Draws one uniform variate per candidate in a fixed order, so the outcome
    depends only on the RNG state and the candidate list — never on set
    iteration order or hashing.
    """
    if count <= 0 or not items:
        return ()
    keyed = [
        (rng.random() ** (1.0 / weight), item)
        for item, weight in zip(items, weights)
    ]
    keyed.sort(reverse=True)
    return tuple(sorted(item for _, item in keyed[:count]))


def build_plan(spec: ScenarioSpec) -> ScenarioPlan:
    """Expand a spec into its deterministic epoch-by-epoch plan.

    Same spec, same plan — including after a :meth:`ScenarioSpec.to_dict`
    round trip — which is what the property tests pin down.
    """
    rng = random.Random(spec.seed)
    n = spec.num_clients
    weights = _zipf_weights(n, spec.zipf_exponent)
    top = weights[0]
    # Table sizes follow the same skew: the head hoards rows, the tail is thin.
    rows = tuple(
        1 + round((spec.max_rows_per_client - 1) * weight / top) for weight in weights
    )
    # Device classes by rank: a few servers at the head, laptops in the
    # middle, phones in the long tail (phones are what blow deadlines).
    devices = []
    for index in range(n):
        position = index / n
        if position < 0.1:
            devices.append(DeviceKind.SERVER.value)
        elif position < 0.4:
            devices.append(DeviceKind.LAPTOP.value)
        else:
            devices.append(DeviceKind.PHONE.value)
    initial_count = round(spec.initial_active_fraction * n)
    initial_active = _weighted_pick(rng, range(n), weights, initial_count)

    active = set(initial_active)
    epochs = []
    # Churn propensity is the *inverse* of weight: rank r churns with weight
    # r+1, so heavy hitters stay and the tail flaps.
    churn_weight = [float(index + 1) for index in range(n)]
    for epoch in range(spec.num_epochs):
        stayers = sorted(active)
        leaves = _weighted_pick(
            rng,
            stayers,
            [churn_weight[index] for index in stayers],
            min(len(stayers), round(spec.leave_rate * n)),
        )
        joiners = sorted(set(range(n)) - active)
        joins = _weighted_pick(
            rng,
            joiners,
            [churn_weight[index] for index in joiners],
            min(len(joiners), round(spec.join_rate * n)),
        )
        active -= set(leaves)
        active |= set(joins)
        injections = tuple(
            InjectionPlan(seed=rng.randrange(2**31), copies=spec.duplicate_copies)
            for _ in range(round(spec.duplicate_rate * len(active)))
        )
        epochs.append(
            EpochPlan(
                epoch=epoch,
                joins=joins,
                leaves=leaves,
                active=tuple(sorted(active)),
                injections=injections,
            )
        )
    return ScenarioPlan(
        spec=spec,
        rows_per_client=rows,
        devices=tuple(devices),
        initial_active=initial_active,
        epochs=tuple(epochs),
    )


# -- deadline model ----------------------------------------------------------


def client_latency_seconds(
    plan: ScenarioPlan,
    index: int,
    epoch: int,
    network: NetworkModel | None = None,
    answer_bits: int = 16,
) -> float:
    """Modeled seconds for one client's answer to reach the proxies.

    Device pipeline cost (per local row for the SQLite scan, once for
    randomization and encryption), plus the network model's transfer and
    processing latency for a single answer, plus seeded per-(client, epoch)
    jitter.  A pure function of the plan — identical in every process, which
    is what lets every executor agree on who was late.
    """
    spec = plan.spec
    device = _DEVICE_PROFILES[plan.devices[index]]
    compute = plan.rows_per_client[index] * device.seconds_per_op(
        OperationKind.SQLITE_READ
    )
    compute += device.seconds_per_op(OperationKind.RANDOMIZED_RESPONSE)
    compute += device.seconds_per_op(OperationKind.XOR_ENCRYPTION)
    if network is None:
        network = NetworkModel(bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec)
    transfer = network.latency(
        num_answers_total=1, sampling_fraction=1.0, answer_bits=answer_bits
    ).total_seconds
    jitter = 0.0
    if spec.jitter_seconds > 0.0:
        jitter_rng = random.Random(spec.seed * 1_000_003 + epoch * 8191 + index)
        jitter = jitter_rng.random() * spec.jitter_seconds
    return compute + transfer + jitter


def late_clients_for(
    plan: ScenarioPlan, epoch: int, network: NetworkModel | None = None
) -> frozenset[str]:
    """The ids of the clients whose modeled answer misses one epoch's deadline.

    Empty when the spec arms no deadline.  A pure function of the plan, so
    every executor that is handed it drops the same answers.
    """
    spec = plan.spec
    if spec.deadline_seconds is None:
        return frozenset()
    if network is None:
        network = NetworkModel(bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec)
    return frozenset(
        f"client-{index:06d}"
        for index in range(spec.num_clients)
        if client_latency_seconds(plan, index, epoch, network) > spec.deadline_seconds
    )


# -- scenario execution ------------------------------------------------------


@dataclass(frozen=True)
class EpochStats:
    """What one scenario epoch cost and dropped."""

    epoch: int
    active_clients: int
    joins: int
    leaves: int
    responses: int
    wall_seconds: float
    wire_bytes: int
    late_clients: tuple[str, ...]
    duplicates_rejected: int
    invalid_answers: int
    answers_admitted: int

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "active_clients": self.active_clients,
            "joins": self.joins,
            "leaves": self.leaves,
            "responses": self.responses,
            "wall_seconds": self.wall_seconds,
            "wire_bytes": self.wire_bytes,
            "late_dropped": len(self.late_clients),
            "duplicates_rejected": self.duplicates_rejected,
            "invalid_answers": self.invalid_answers,
            "answers_admitted": self.answers_admitted,
        }


@dataclass(frozen=True)
class ScenarioRun:
    """One scenario executed end-to-end on one executor."""

    spec: ScenarioSpec
    executor_label: str
    digest: str
    epochs: tuple[EpochStats, ...]
    mean_accuracy_loss: float | None

    @property
    def total_wall_seconds(self) -> float:
        return sum(stats.wall_seconds for stats in self.epochs)

    @property
    def total_wire_bytes(self) -> int:
        return sum(stats.wire_bytes for stats in self.epochs)

    @property
    def total_late_dropped(self) -> int:
        return sum(len(stats.late_clients) for stats in self.epochs)

    @property
    def total_rejections(self) -> int:
        return sum(
            stats.duplicates_rejected + stats.invalid_answers for stats in self.epochs
        )

    def to_dict(self) -> dict:
        return {
            "executor": self.executor_label,
            "digest": self.digest,
            "wall_seconds": self.total_wall_seconds,
            "wire_bytes": self.total_wire_bytes,
            "late_dropped": self.total_late_dropped,
            "admission_rejections": self.total_rejections,
            "mean_accuracy_loss": self.mean_accuracy_loss,
            "epochs": [stats.to_dict() for stats in self.epochs],
        }


def _serialize_window_results(results) -> bytes:
    out = bytearray()
    for result in results:
        out += struct.pack(
            ">ddqq",
            result.window.start,
            result.window.end,
            result.num_answers,
            result.population,
        )
        for bucket in result.histogram.buckets:
            out += struct.pack(
                ">qdd", bucket.bucket_index, bucket.estimate, bucket.error_bound
            )
    return bytes(out)


def _digest_update_responses(digest, blocks) -> None:
    """Hash response blocks (a system's ``responses_log``, or an outcome's
    ``blocks``) row by row, in order.

    A row's bytes are its UTF-8 client id, its ``>q`` epoch, its truthful
    then its randomized bits as 0/1 bytes, then its slice of each payload
    column.  Each bit column is unpacked once per block, and a block's
    stream goes to the hash in one update.
    """
    for block in blocks:
        epoch, width, payloads = struct.pack(">q", block.epoch), block.width, block.payloads
        rows = zip(
            block.client_ids,
            block.bit_rows(block.truthful_bits),
            block.bit_rows(block.randomized_bits),
        )
        stream = []
        for row, (client_id, truthful, randomized) in enumerate(rows):
            stream += (client_id.encode("utf-8"), epoch, truthful, randomized)
            stream += [payload[row * width : (row + 1) * width] for payload in payloads]
        digest.update(b"".join(stream))


def _inject_byzantine_answers(system, plan: ScenarioPlan, epoch_plan: EpochPlan) -> None:
    """Publish this epoch's forged answers onto the proxy topics.

    Each injection is a structurally valid answer under a forged (unique)
    participation token, sent ``copies`` times with distinct message ids so
    every copy decrypts: admission admits the first and rejects the rest as
    duplicates.  The records go on the query's channel topics, where every
    executor ingests: they sit at earlier offsets than the epoch's real
    shares, so the engine's first emit or the serial reference's single poll
    ingests them, and the admitted multiset is order-free.
    """
    from repro.core.encryption import AnswerCodec
    from repro.core.query import QueryAnswer
    from repro.crypto.prng import KeystreamGenerator

    if not epoch_plan.injections:
        return
    codec = AnswerCodec()
    epoch = epoch_plan.epoch
    for query_index, query_id in enumerate(system.query_ids()):
        query = system.query_for(query_id)
        for injection in epoch_plan.injections:
            forge_rng = random.Random(injection.seed * 131 + query_index)
            bits = tuple(
                1 if forge_rng.random() < 0.5 else 0 for _ in range(query.num_buckets)
            )
            label = f"byz-{epoch}-{injection.seed:08x}-{query_index}"
            answer = QueryAnswer(
                query_id=query_id, bits=bits, epoch=epoch, token=label.encode("ascii")
            )
            keystream = KeystreamGenerator(
                seed=(injection.seed * 2_654_435_761 + query_index).to_bytes(
                    16, "big"
                )
            )
            for copy in range(injection.copies):
                encrypted = codec.encrypt(
                    answer,
                    num_proxies=system.config.num_proxies,
                    keystream=keystream,
                    message_id=f"{label}-copy-{copy}",
                )
                system.proxies.transmit(list(encrypted.shares), channel=query_id)


def run_scenario(
    spec: ScenarioSpec,
    *,
    executor: str = "serial",
    workers: int = 2,
    shards: int | None = None,
    remote_workers: Sequence[str] | None = None,
    key_file: str | None = None,
) -> ScenarioRun:
    """Execute one scenario end-to-end on one executor configuration.

    Every run of the same spec applies the identical churn roster, deadline
    late-set and injections (all derived from :func:`build_plan`), so two
    runs on different executors must agree on the returned ``digest`` — the
    cross-executor assertion ``benchmarks/run_scenarios.py`` enforces.

    ``remote_workers`` runs the shards on separately launched TCP workers
    (:mod:`repro.runtime.remote`; requires a ``*/sealed-tcp-remote``
    ``executor`` and a ``key_file`` of pre-shared HMAC keys) — the digest
    contract is unchanged: a remote run must agree byte-for-byte with a
    serial one.
    """
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

    plan = build_plan(spec)
    network = NetworkModel(bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec)
    config = SystemConfig(
        num_clients=spec.num_clients,
        seed=spec.seed,
        executor=executor,
        executor_workers=workers,
        executor_shards=shards,
        executor_remote_workers=(
            tuple(remote_workers) if remote_workers is not None else None
        ),
        executor_key_file=key_file,
    )
    system = PrivApproxSystem(config)
    data_rng = random.Random(spec.seed * 7919 + 1)
    system.provision_clients(
        [("value", "REAL")],
        lambda i: [
            {"value": data_rng.uniform(0.0, 8.0)}
            for _ in range(plan.rows_per_client[i])
        ],
    )
    analyst = Analyst(f"scenario-{spec.name}")
    params = ExecutionParameters(
        sampling_fraction=spec.sampling_fraction, p=spec.p, q=spec.q
    )
    query_ids = []
    for query_index in range(spec.num_queries):
        query = analyst.create_query(
            "SELECT value FROM private_data",
            AnswerSpec(
                buckets=RangeBuckets.uniform(
                    0.0, 8.0, 3 + query_index, open_ended=True
                ),
                value_column="value",
            ),
            frequency_seconds=60.0,
            window_seconds=60.0,
            slide_seconds=60.0,
        )
        system.submit_query(analyst, query, QueryBudget(), parameters=params)
        query_ids.append(query.query_id)

    system.set_active_clients(plan.initial_active)
    epoch_stats: list[EpochStats] = []
    exact_by_epoch: list[dict[str, list[int]]] = []
    rejections_seen = 0
    invalid_seen = 0
    admitted_seen = 0
    try:
        for epoch_plan in plan.epochs:
            epoch = epoch_plan.epoch
            system.set_active_clients(epoch_plan.active)
            system.late_clients = late_clients_for(plan, epoch, network)
            _inject_byzantine_answers(system, plan, epoch_plan)
            exact_by_epoch.append(
                {query_id: system.exact_bucket_counts(query_id) for query_id in query_ids}
            )
            bytes_before = system.proxies.total_bytes_relayed()
            started = time.perf_counter()
            reports = system.run_epoch_all(epoch)
            wall = time.perf_counter() - started
            wire = system.proxies.total_bytes_relayed() - bytes_before
            executor_wire = getattr(system.executor, "epoch_wire_bytes", None)
            if executor_wire is not None:
                wire += executor_wire.get(epoch, 0)
            late: list[str] = []
            for report in reports.values():
                late.extend(report.late_drops)
            rejections = sum(
                system.aggregator_for(query_id).rejected_duplicates
                for query_id in query_ids
            )
            invalid = sum(
                system.aggregator_for(query_id).invalid_answers
                for query_id in query_ids
            )
            admitted = sum(
                system.aggregator_for(query_id).answers_processed
                for query_id in query_ids
            )
            epoch_stats.append(
                EpochStats(
                    epoch=epoch,
                    active_clients=len(epoch_plan.active),
                    joins=len(epoch_plan.joins),
                    leaves=len(epoch_plan.leaves),
                    responses=sum(r.num_participants for r in reports.values()),
                    wall_seconds=wall,
                    wire_bytes=wire,
                    late_clients=tuple(sorted(late)),
                    duplicates_rejected=rejections - rejections_seen,
                    invalid_answers=invalid - invalid_seen,
                    answers_admitted=admitted - admitted_seen,
                )
            )
            rejections_seen, invalid_seen, admitted_seen = rejections, invalid, admitted
        for query_id in query_ids:
            system.flush(query_id)
    finally:
        system.close()

    digest = hashlib.sha256()
    losses: list[float] = []
    frequency = 60.0
    for query_id in query_ids:
        _digest_update_responses(digest, system.responses_log(query_id))
        results = analyst.results_for(query_id)
        digest.update(_serialize_window_results(results))
        for result in results:
            result_epoch = int(result.window.start // frequency)
            if not 0 <= result_epoch < len(exact_by_epoch):
                continue
            exact = exact_by_epoch[result_epoch][query_id]
            if sum(exact) == 0:
                continue
            losses.append(
                histogram_accuracy_loss(exact, result.histogram.estimates())
            )
    for stats in epoch_stats:
        for client_id in stats.late_clients:
            digest.update(client_id.encode("utf-8"))

    return ScenarioRun(
        spec=spec,
        executor_label=executor,
        digest=digest.hexdigest(),
        epochs=tuple(epoch_stats),
        mean_accuracy_loss=(sum(losses) / len(losses)) if losses else None,
    )


# -- the seeded scenario grid ------------------------------------------------


def scenario_grid(grid: str = "full") -> list[ScenarioSpec]:
    """The named, seeded scenario grid the sweep driver and CLI run.

    ``full`` crosses churn x skew x duplicates x deadlines (plus the hostile
    corner cases); ``smoke`` is the four-spec subset CI runs on every push.
    """
    base = dict(num_epochs=3, num_queries=1, sampling_fraction=0.8, p=0.9, q=0.5)
    specs = [
        ScenarioSpec(name="steady-state", seed=9001, num_clients=40, **base),
        ScenarioSpec(
            name="churn-mild", seed=9002, num_clients=40,
            initial_active_fraction=0.8, join_rate=0.1, leave_rate=0.1, **base,
        ),
        ScenarioSpec(
            name="churn-heavy", seed=9003, num_clients=48,
            initial_active_fraction=0.6, join_rate=0.3, leave_rate=0.3, **base,
        ),
        ScenarioSpec(
            name="zipf-tables", seed=9004, num_clients=40,
            zipf_exponent=1.2, max_rows_per_client=6, **base,
        ),
        ScenarioSpec(
            name="zipf-churn", seed=9005, num_clients=48,
            zipf_exponent=1.1, initial_active_fraction=0.7,
            join_rate=0.2, leave_rate=0.2, **base,
        ),
        ScenarioSpec(
            name="byzantine-dupes", seed=9006, num_clients=40,
            duplicate_rate=0.2, duplicate_copies=3, **base,
        ),
        ScenarioSpec(
            name="byzantine-churn", seed=9007, num_clients=40,
            duplicate_rate=0.15, duplicate_copies=2,
            initial_active_fraction=0.8, join_rate=0.15, leave_rate=0.15, **base,
        ),
        ScenarioSpec(
            name="deadline-loose", seed=9008, num_clients=40,
            deadline_seconds=0.5, jitter_seconds=0.05, **base,
        ),
        ScenarioSpec(
            name="deadline-tight", seed=9009, num_clients=40,
            deadline_seconds=0.004, jitter_seconds=0.002, **base,
        ),
        ScenarioSpec(
            name="deadline-slow-net", seed=9010, num_clients=40,
            deadline_seconds=0.01, bandwidth_bytes_per_sec=4_000.0, **base,
        ),
        ScenarioSpec(
            name="kitchen-sink", seed=9011, num_clients=48,
            zipf_exponent=1.0, initial_active_fraction=0.7,
            join_rate=0.2, leave_rate=0.2, duplicate_rate=0.1,
            deadline_seconds=0.02, jitter_seconds=0.03, **base,
        ),
        ScenarioSpec(
            name="flash-crowd", seed=9012, num_clients=60, num_epochs=4,
            num_queries=2, initial_active_fraction=0.2, join_rate=0.4,
            leave_rate=0.05, sampling_fraction=0.8, p=0.9, q=0.5,
        ),
        ScenarioSpec(
            name="mass-exodus", seed=9013, num_clients=60, num_epochs=4,
            num_queries=1, initial_active_fraction=1.0, join_rate=0.0,
            leave_rate=0.45, sampling_fraction=0.8, p=0.9, q=0.5,
        ),
        ScenarioSpec(
            name="ghost-town", seed=9014, num_clients=24,
            initial_active_fraction=0.0, **base,
        ),
    ]
    if grid == "full":
        return specs
    if grid == "smoke":
        keep = {"churn-mild", "byzantine-dupes", "deadline-tight", "kitchen-sink"}
        return [spec for spec in specs if spec.name in keep]
    raise ValueError(f"unknown grid {grid!r} (expected 'full' or 'smoke')")


def find_scenario(name: str) -> ScenarioSpec:
    """Look a grid scenario up by name (CLI ``simulate --scenario``)."""
    for spec in scenario_grid("full"):
        if spec.name == name:
            return spec
    names = ", ".join(spec.name for spec in scenario_grid("full"))
    raise KeyError(f"unknown scenario {name!r}; available: {names}")
