#!/usr/bin/env python
"""Memory soak: the coordinator's retained state must not grow per answer.

Runs one 500-client query for 200 epochs on the serial reference,
``inline/in-process`` and ``pinned-worker/framed-wire-local``, and asks the
ground truth (``exact_bucket_counts``) after every epoch, as the benchmark's
churn and append workloads do.  At epochs 50 and 200 it collects garbage and
prints the number of GC-tracked objects and the ``tracemalloc`` traced size,
then the retained KB per epoch between the two.

It fails when tracked objects grow by more than ``MAX_GROWTH`` between
epochs 50 and 200 — an object count is deterministic, so this never depends
on timing or on the host.  What may still grow is a few objects per epoch:
the analyst's window results and the engine's per-epoch stage metrics.  A
response log or relay partition that kept its records would add several
objects per answer, thousands per epoch, and a ground truth that kept
state per ask would add some every epoch.

It also prints the response log's bytes per answer and fails when the log
holds more bytes than the packed layout (``core.client.pack_blocks``) needs
for the answers it logged: one entry header per epoch, and per answer the
client id with its length, the MID, two bit rows of ``⌈bits / 8⌉`` bytes
and one payload per proxy.  That size is a count too, not a measurement.
Run from the repository root:

    python tools/memory_soak.py [executor ...]
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (  # noqa: E402
    Analyst,
    AnswerCodec,
    AnswerSpec,
    ExecutionParameters,
    PrivApproxSystem,
    QueryBudget,
    RangeBuckets,
    SystemConfig,
)
from repro.core.admission import PARTICIPATION_TOKEN_LENGTH  # noqa: E402
from repro.core.client import _BLOCK_HEADER  # noqa: E402
from repro.crypto.xor import MID_BYTES  # noqa: E402

DEFAULT_EXECUTORS = ["serial", "inline/in-process", "pinned-worker/framed-wire-local"]
NUM_CLIENTS = 500
NUM_PROXIES = 2
NUM_BITS = 9  # 8 buckets on [0, 8) and the open-ended one
CHECKPOINTS = (50, 200)
#: Tracked objects the 150 epochs between the checkpoints may add: 20 per
#: epoch, against ≈ 3,500 per epoch when every response was kept.
MAX_GROWTH = 20 * (CHECKPOINTS[1] - CHECKPOINTS[0])


def build(executor: str) -> tuple[PrivApproxSystem, str]:
    options = {} if executor == "serial" else {"executor_workers": 2, "executor_shards": 4}
    system = PrivApproxSystem(
        SystemConfig(
            num_clients=NUM_CLIENTS,
            num_proxies=NUM_PROXIES,
            seed=7,
            executor=executor,
            **options,
        )
    )
    rng = random.Random(7)
    system.provision_clients(
        [("value", "REAL")], lambda i: [{"value": rng.gammavariate(2.0, 1.0)}]
    )
    analyst = Analyst("memory-soak")
    query = analyst.create_query(
        "SELECT value FROM private_data",
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, 8, open_ended=True),
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
    assert query.num_buckets == NUM_BITS
    return system, query.query_id


def packed_log_bytes(system: PrivApproxSystem, query_id: str, epochs: int) -> int:
    """What the packed layout needs for ``epochs`` epochs in which every
    client answered ``query_id`` (sampling fraction 1): one entry per epoch."""
    stride = (NUM_BITS + 7) // 8
    width = (
        len(AnswerCodec.prefix(query_id, 0, NUM_BITS, PARTICIPATION_TOKEN_LENGTH))
        + PARTICIPATION_TOKEN_LENGTH
        + stride
    )
    ids = sum(2 + len(client.config.client_id.encode("utf-8")) for client in system.clients)
    per_row = MID_BYTES + 2 * stride + NUM_PROXIES * width
    return epochs * (_BLOCK_HEADER.size + ids + NUM_CLIENTS * per_row)


def soak(executor: str) -> bool:
    """Run one executor; print its checkpoints and return whether it is bounded."""
    tracemalloc.start()
    system, query_id = build(executor)
    readings = {}
    try:
        for epoch in range(1, CHECKPOINTS[-1] + 1):
            system.run_epoch_all(epoch)
            system.exact_bucket_counts(query_id)
            if epoch in CHECKPOINTS:
                gc.collect()
                readings[epoch] = (len(gc.get_objects()), tracemalloc.get_traced_memory()[0])
                objects, traced = readings[epoch]
                print(f"{executor:34s} epoch {epoch:3d}: {objects:8d} tracked objects, "
                      f"{traced / 1024:9.0f} KB traced")
    finally:
        system.close()
        tracemalloc.stop()
    (first_objects, first_traced), (last_objects, last_traced) = (
        readings[epoch] for epoch in CHECKPOINTS
    )
    epochs = CHECKPOINTS[1] - CHECKPOINTS[0]
    growth = last_objects - first_objects
    print(f"{executor:34s} retained per epoch: {growth / epochs:.1f} objects, "
          f"{(last_traced - first_traced) / 1024 / epochs:.1f} KB "
          f"(object growth {growth}, allowed {MAX_GROWTH})")
    answers = sum(len(block) for block in system.responses_log(query_id))
    logged = sum(map(len, system._responses_log[query_id]))
    packed = packed_log_bytes(system, query_id, CHECKPOINTS[-1])
    print(f"{executor:34s} response log: {logged / answers:.2f} B per answer "
          f"over {answers} answers (packed layout: {packed / answers:.2f} B)")
    return growth <= MAX_GROWTH and logged <= packed


def main(argv: list[str]) -> int:
    failed = [executor for executor in (argv or DEFAULT_EXECUTORS) if not soak(executor)]
    for executor in failed:
        print(f"FAIL: {executor} retains objects or log bytes beyond the allowance",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
