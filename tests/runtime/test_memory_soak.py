"""The coordinator keeps what a window needs: a soak on GC-tracked objects.

The number of objects the cyclic collector tracks is deterministic (no RSS,
no timing), so it can gate retention in tier-1.  Each run is warmed up for
15 epochs and measured again at epoch 60.  While the response log held a
``ClientResponse`` per answer and relay partitions kept every record, each
epoch left several objects per answer behind (≈ 230-310 per epoch at 40
clients).  What may still grow, by design, is a handful per epoch: the
analyst's ``WindowResult`` (with its ``HistogramResult``, ``Window`` and one
``BucketEstimate`` per bucket), the engine's ``StageMetrics`` and, in
scenario runs, the scenario's own per-epoch stats.
"""

from __future__ import annotations

import gc
import random
import threading

import pytest

from repro.core import (
    Analyst,
    AnswerSpec,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    SystemConfig,
)
from repro.runtime.executor import DRIVER_SPELLINGS
from repro.runtime.remote import RemoteWorkerServer
from repro.runtime.scenario import ScenarioSpec, run_scenario

WARM_UP_EPOCH = 15
LAST_EPOCH = 60
#: Tracked objects an epoch may leave behind: the window results of one
#: 4-bucket query (8), the engine's stage metrics (3) and the scenario's
#: per-epoch stats, with room to spare — and well under one per answer.
PER_EPOCH_ALLOWANCE = 20
MAX_GROWTH = (LAST_EPOCH - WARM_UP_EPOCH) * PER_EPOCH_ALLOWANCE
NUM_CLIENTS = 40
KEY = bytes.fromhex("cd" * 32)


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def assert_bounded(counts: dict[int, int]) -> None:
    growth = counts[LAST_EPOCH] - counts[WARM_UP_EPOCH]
    assert growth <= MAX_GROWTH, (
        f"{growth} more tracked objects at epoch {LAST_EPOCH} than at epoch "
        f"{WARM_UP_EPOCH} (allowed {MAX_GROWTH}): something keeps per-answer state"
    )


def build_system(executor: str, **options) -> tuple[PrivApproxSystem, str]:
    if executor != "serial":
        options = {"executor_workers": 2, "executor_shards": 4, **options}
    system = PrivApproxSystem(
        SystemConfig(num_clients=NUM_CLIENTS, seed=5, executor=executor, **options)
    )
    rng = random.Random(5)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": rng.uniform(0.0, 8.0)}]
    )
    analyst = Analyst("soak")
    query = analyst.create_query(
        "SELECT value FROM private_data",
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, 4, open_ended=True),
            value_column="value",
        ),
        frequency_seconds=60.0,
        window_seconds=60.0,
        slide_seconds=60.0,
    )
    system.submit_query(
        analyst,
        query,
        QueryBudget(),
        parameters=ExecutionParameters(sampling_fraction=1.0, p=0.9, q=0.5),
    )
    return system, query.query_id


def soak(system: PrivApproxSystem) -> dict[int, int]:
    counts = {}
    try:
        for epoch in range(LAST_EPOCH + 1):
            system.run_epoch_all(epoch)
            if epoch in (WARM_UP_EPOCH, LAST_EPOCH):
                counts[epoch] = tracked_objects()
    finally:
        system.close()
    return counts


@pytest.mark.parametrize(
    "executor",
    ["serial", *(s for s in DRIVER_SPELLINGS if not s.endswith("sealed-tcp-remote"))],
)
def test_retained_objects_stay_bounded(executor):
    system, query_id = build_system(executor)
    assert_bounded(soak(system))
    assert len(system.responses_log(query_id)) == NUM_CLIENTS * (LAST_EPOCH + 1)


def test_retained_objects_stay_bounded_on_sealed_tcp_workers(tmp_path):
    servers = [RemoteWorkerServer("127.0.0.1", 0, KEY) for _ in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    key_file = tmp_path / "workers.keys"
    key_file.write_text(KEY.hex() + "\n")
    try:
        system, _ = build_system(
            "pinned-worker/sealed-tcp-remote",
            executor_remote_workers=tuple(
                f"{host}:{port}" for host, port in (s.address for s in servers)
            ),
            executor_key_file=str(key_file),
        )
        assert_bounded(soak(system))
    finally:
        for server in servers:
            server.stop()


def test_retained_objects_stay_bounded_under_churn_and_duplicates(monkeypatch):
    counts = {}
    run_epoch_all = PrivApproxSystem.run_epoch_all

    def counted(self, epoch, query_ids=None):
        reports = run_epoch_all(self, epoch, query_ids)
        if epoch in (WARM_UP_EPOCH, LAST_EPOCH):
            counts[epoch] = tracked_objects()
        return reports

    monkeypatch.setattr(PrivApproxSystem, "run_epoch_all", counted)
    spec = ScenarioSpec(
        name="soak-churn-duplicates",
        seed=17,
        num_clients=NUM_CLIENTS,
        num_epochs=LAST_EPOCH + 1,
        initial_active_fraction=0.8,
        join_rate=0.1,
        leave_rate=0.1,
        duplicate_rate=0.1,
    )
    run = run_scenario(spec, executor="pipelined-overlap/in-process", shards=4)
    assert sum(stats.duplicates_rejected for stats in run.epochs) > 0
    assert_bounded(counts)
