"""Parallel epoch runtimes for the PrivApprox deployment.

The paper's architecture is horizontally scalable by construction — clients
answer independently, proxies only relay, the aggregator joins per-``MID`` —
and this package gives the in-process simulation the same shape.  Two
runtimes exist:

* :class:`SerialExecutor` — the in-order reference loop (the executable
  specification every other configuration must match byte-for-byte);
* :class:`~repro.runtime.engine.StagedEpochEngine` — one staged epoch
  dataflow (plan → answer → transmit → ingest → finalize) parameterized by
  a pluggable :class:`~repro.runtime.engine.StageDriver` named by its
  *scheduling* and *transport*: ``inline/in-process``,
  ``pipelined-overlap/in-process``, and ``pinned-worker`` over sealed
  loopback workers it spawns (``framed-wire-local``) or over separately
  launched ones (``sealed-tcp-remote``).
  :data:`~repro.runtime.executor.DRIVER_COMBOS` is the registry of the four
  supported combinations.

:func:`make_executor` builds either from a name: ``"serial"`` or a
``"scheduling/transport"`` spelling.

See ``docs/ARCHITECTURE.md`` for the staged engine and the driver matrix,
and the seeded-equivalence contract; ``README.md`` ("Runtime
architecture") covers executor and worker-count selection from the CLI.
"""

from repro.runtime.affinity import (
    ResidentDriver,
    ResidentShardCache,
    ResidentWorkerError,
    serve_resident_frame,
)
from repro.runtime.remote import (
    LocalWorkerTransport,
    RemoteProtocolError,
    RemoteWorkerServer,
    RemoteWorkerTransport,
    RemoteWorkerUnavailable,
    load_keys,
    parse_address,
    spawn_local_worker,
)
from repro.runtime.engine import (
    EpochHandle,
    InlineDriver,
    OverlapThreadDriver,
    StageDriver,
    StageMetrics,
    StagedEpochEngine,
    answer_shard,
)
from repro.runtime.executor import (
    DRIVER_COMBOS,
    DRIVER_SPELLINGS,
    EXECUTOR_KINDS,
    EpochContext,
    EpochExecutor,
    EpochOutcome,
    QueryContext,
    QueryEpochOutcome,
    cli_smoke_matrix,
    make_executor,
    validate_driver_combo,
    validate_executor_options,
)
from repro.runtime.scenario import (
    EpochPlan,
    EpochStats,
    InjectionPlan,
    ScenarioPlan,
    ScenarioRun,
    ScenarioSpec,
    build_plan,
    client_latency_seconds,
    find_scenario,
    late_clients_for,
    run_scenario,
    scenario_grid,
)
from repro.runtime.serial import SerialExecutor
from repro.runtime.sharding import Shard, plan_shards, shard_span
from repro.runtime.wire import (
    ClientDelta,
    ShardAck,
    ShardBootstrap,
    ShardDelta,
    WireError,
    decode_frame,
    decode_shard_ack,
    decode_shard_bootstrap,
    decode_shard_delta,
    encode_shard_ack,
    encode_shard_bootstrap,
    encode_shard_delta,
)

__all__ = [
    "DRIVER_COMBOS",
    "DRIVER_SPELLINGS",
    "EXECUTOR_KINDS",
    "ClientDelta",
    "EpochContext",
    "EpochExecutor",
    "EpochHandle",
    "EpochOutcome",
    "EpochPlan",
    "EpochStats",
    "InjectionPlan",
    "InlineDriver",
    "LocalWorkerTransport",
    "OverlapThreadDriver",
    "QueryContext",
    "QueryEpochOutcome",
    "RemoteProtocolError",
    "RemoteWorkerServer",
    "RemoteWorkerTransport",
    "RemoteWorkerUnavailable",
    "ResidentDriver",
    "ScenarioPlan",
    "ScenarioRun",
    "ScenarioSpec",
    "ResidentShardCache",
    "ResidentWorkerError",
    "SerialExecutor",
    "Shard",
    "StageDriver",
    "StageMetrics",
    "StagedEpochEngine",
    "ShardAck",
    "ShardBootstrap",
    "ShardDelta",
    "WireError",
    "answer_shard",
    "build_plan",
    "cli_smoke_matrix",
    "client_latency_seconds",
    "decode_frame",
    "decode_shard_ack",
    "decode_shard_bootstrap",
    "decode_shard_delta",
    "encode_shard_ack",
    "encode_shard_bootstrap",
    "encode_shard_delta",
    "find_scenario",
    "late_clients_for",
    "load_keys",
    "make_executor",
    "parse_address",
    "plan_shards",
    "run_scenario",
    "scenario_grid",
    "serve_resident_frame",
    "shard_span",
    "spawn_local_worker",
    "validate_driver_combo",
    "validate_executor_options",
]
