"""Runtime scaling: the pipelined epoch executor vs. serial.

Not a paper figure but an acceptance benchmark for the parallel epoch
runtimes (``repro.runtime``) on a 1000-client deployment with a
deliberately compute-heavy answering stage (64 readings per client, a WHERE
filter, a 64-bucket answer vector — the shape of the paper's case-study
queries rather than a toy one-row probe).  A second acceptance claim covers
multi-query epochs: serving four concurrent queries from one shared
answering pass (``run_epoch_all``) must beat running four single-query
epochs, because the shared pass walks the client population once and reuses
one local table scan across the co-subscribed queries.

Single-query claim: the pipelined executor must at least match the serial
reference — on a single-core box the win comes from per-shard batched broker
publishes and the grouped aggregator join, on a multi-core box shard
answering parallelizes on top.  (The pinned-worker runtime's cost is
measured by ``benchmarks/epoch_profile``'s ``stream-append`` workload.)

Timing assertions use **medians over the timed epochs** and re-measure up to
``MEASURE_ROUNDS`` times (best-of-medians) with a small tolerance factor, so
a one-off scheduler hiccup on a loaded CI runner cannot fail the suite.  All
measured rows are also written to ``results/BENCH_runtime_scaling.json`` so
CI can archive timing trajectories across commits.

The XOR benchmarks record the speedup of the word-vectorized keystream
application over the byte-at-a-time scalar reference.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

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
from repro.crypto.prng import KeystreamGenerator
from repro.crypto.xor import xor_bytes, xor_bytes_scalar

NUM_CLIENTS = 1_000
NUM_ROWS_PER_CLIENT = 64
NUM_BUCKETS = 64
TIMED_EPOCHS = 5
MEASURE_ROUNDS = 3  # best-of-3 medians before a timing assertion may fail
TOLERANCE = 1.05  # allowance for timer noise on loaded CI runners
SEED = 7
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The report keeps short labels; this is the driver combo behind them.
PIPELINED = "pipelined-overlap/in-process"


def build_system(executor: str, workers: int = 4, shards: int | None = None):
    system = PrivApproxSystem(
        SystemConfig(
            num_clients=NUM_CLIENTS,
            seed=SEED,
            executor=executor,
            executor_workers=workers,
            executor_shards=shards,
        )
    )
    rng = random.Random(SEED)
    system.provision_clients(
        [("value", "REAL")],
        lambda i: [
            {"value": rng.gammavariate(2.0, 1.0)} for _ in range(NUM_ROWS_PER_CLIENT)
        ],
    )
    analyst = Analyst("runtime-scaling")
    query = analyst.create_query(
        "SELECT value FROM private_data WHERE value > 0.5",
        AnswerSpec(
            buckets=RangeBuckets.uniform(0.0, 8.0, NUM_BUCKETS, open_ended=True),
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
        parameters=ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.6),
    )
    return system, query.query_id


def measure_epoch_seconds(
    executor: str, workers: int = 4, shards: int | None = None
) -> dict:
    """Epoch wall-clock stats over TIMED_EPOCHS epochs (1 warmup)."""
    system, query_id = build_system(executor, workers=workers, shards=shards)
    system.run_epoch(query_id, 0)  # warmup: pools, worker imports
    times = []
    for epoch in range(1, TIMED_EPOCHS + 1):
        start = time.perf_counter()
        system.run_epoch(query_id, epoch)
        times.append(time.perf_counter() - start)
    system.close()
    return {
        "best": min(times),
        "median": statistics.median(times),
        "mean": sum(times) / len(times),
    }


def assert_faster(
    fast_name: str,
    slow_name: str,
    fast_config: dict,
    slow_config: dict,
    fast_stats: dict,
    slow_stats: dict,
    tolerance: float = TOLERANCE,
    measure=None,
) -> None:
    """Assert median(fast) < median(slow) * tolerance, best-of-MEASURE_ROUNDS.

    The first round reuses the stats already measured for the report; only
    when the comparison fails are both sides re-measured (up to two more
    rounds) and the best medians compared — a loaded-runner hiccup has to
    repeat three times to fail the suite.  ``measure`` defaults to the
    single-query :func:`measure_epoch_seconds`; the multi-query assertion
    passes its own measurement function.
    """
    if measure is None:
        measure = measure_epoch_seconds
    fast_medians = [fast_stats["median"]]
    slow_medians = [slow_stats["median"]]
    for _ in range(MEASURE_ROUNDS - 1):
        if min(fast_medians) < min(slow_medians) * tolerance:
            break
        fast_medians.append(measure(**fast_config)["median"])
        slow_medians.append(measure(**slow_config)["median"])
    fast_best = min(fast_medians)
    slow_best = min(slow_medians)
    assert fast_best < slow_best * tolerance, (
        f"{fast_name} median epoch {fast_best * 1e3:.1f} ms did not beat "
        f"{slow_name} {slow_best * 1e3:.1f} ms (tolerance x{tolerance}) after "
        f"{len(fast_medians)} measurement round(s)"
    )


def test_parallel_executors_beat_serial_on_1000_clients(report):
    cpu_count = os.cpu_count() or 1
    configs = [
        ("serial", {"executor": "serial"}),
        ("pipelined w2", {"executor": PIPELINED, "workers": 2}),
        ("pipelined w4", {"executor": PIPELINED, "workers": 4}),
        ("pipelined w4 s16", {"executor": PIPELINED, "workers": 4, "shards": 16}),
    ]
    stats = {name: measure_epoch_seconds(**config) for name, config in configs}
    serial_median = stats["serial"]["median"]

    rows = []
    json_rows = []
    for name, config in configs:
        entry = stats[name]
        rows.append(
            [
                name,
                entry["best"] * 1e3,
                entry["median"] * 1e3,
                entry["mean"] * 1e3,
                serial_median / entry["median"],
            ]
        )
        json_rows.append(
            {
                "config": name,
                "executor": config["executor"],
                "workers": config.get("workers"),
                "shards": config.get("shards"),
                "best_ms": entry["best"] * 1e3,
                "median_ms": entry["median"] * 1e3,
                "mean_ms": entry["mean"] * 1e3,
            }
        )

    # Persist the trajectory JSON before asserting anything, so CI archives
    # the numbers even for a failing run.
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_runtime_scaling.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "benchmark": "runtime_scaling",
                "num_clients": NUM_CLIENTS,
                "rows_per_client": NUM_ROWS_PER_CLIENT,
                "num_buckets": NUM_BUCKETS,
                "timed_epochs": TIMED_EPOCHS,
                "cpu_count": cpu_count,
                "rows": json_rows,
            },
            handle,
            indent=2,
        )

    report.title(
        f"Epoch runtime scaling ({NUM_CLIENTS} clients x {NUM_ROWS_PER_CLIENT} rows, "
        f"s=0.9, {NUM_BUCKETS} buckets, {cpu_count} core(s))"
    )
    report.table(
        ["configuration", "best epoch (ms)", "median (ms)", "mean (ms)", "speedup"],
        rows,
    )
    report.note(
        "Pipelined wins even on one core: it relays each shard as one batch "
        "record per proxy and ingests it with one grouped MID join, cutting "
        "per-answer broker/aggregator overhead; results are byte-identical "
        "to serial (see tests/runtime/)."
    )
    report.note("")

    # Acceptance (medians, best-of-3 rounds, tolerance for CI noise):
    # pipelined(w4) at least matches serial.
    assert_faster(
        "pipelined w4",
        "serial",
        {"executor": PIPELINED, "workers": 4},
        {"executor": "serial"},
        stats["pipelined w4"],
        stats["serial"],
    )


def test_staged_engine_overhead_vs_serial(report):
    """The engine's staging machinery must cost ~nothing per epoch.

    ``inline/in-process`` is the staged engine's degenerate configuration:
    one shard answered on the caller thread — the same work as the serial
    reference, plus every piece of engine machinery (plan stage, driver
    dispatch, emit/gate path, StageMetrics, finalize).  If collapsing the
    executor zoo into the engine had added per-epoch overhead, this is where
    it would be nakedly visible, with no pool speedup to hide behind.  The
    engine's per-shard batched transmit and grouped MID join mean it should
    in fact *win*; the assertion grants a small tolerance only for timer
    noise.  (``BENCH_runtime_scaling.json`` keeps its original row set —
    this gate is reported, not archived.)
    """
    serial_stats = measure_epoch_seconds("serial")
    engine_stats = measure_epoch_seconds("inline/in-process", workers=1, shards=1)
    report.title(f"Staged engine overhead ({NUM_CLIENTS} clients, inline driver)")
    report.table(
        ["configuration", "best epoch (ms)", "median (ms)", "mean (ms)"],
        [
            ["serial", *(serial_stats[k] * 1e3 for k in ("best", "median", "mean"))],
            [
                "inline/in-process",
                *(engine_stats[k] * 1e3 for k in ("best", "median", "mean")),
            ],
        ],
    )
    assert_faster(
        "inline engine",
        "serial",
        {"executor": "inline/in-process", "workers": 1, "shards": 1},
        {"executor": "serial"},
        engine_stats,
        serial_stats,
        tolerance=1.10,
    )


# -- multi-query epochs ------------------------------------------------------

MULTI_QUERY_CLIENTS = 400
MULTI_NUM_QUERIES = 4


def build_multi_query_system(executor: str, workers: int = 4):
    """A deployment with MULTI_NUM_QUERIES concurrent queries over one stream.

    Every query runs the same SQL (so the shared answering pass can reuse one
    local table scan) against its own aggregator, channel topics and privacy
    accounting — the many-analysts scenario of the paper.
    """
    system = PrivApproxSystem(
        SystemConfig(
            num_clients=MULTI_QUERY_CLIENTS,
            seed=SEED,
            executor=executor,
            executor_workers=workers,
        )
    )
    rng = random.Random(SEED)
    system.provision_clients(
        [("value", "REAL")],
        lambda i: [
            {"value": rng.gammavariate(2.0, 1.0)} for _ in range(NUM_ROWS_PER_CLIENT)
        ],
    )
    analyst = Analyst("runtime-scaling-multi")
    query_ids = []
    for _ in range(MULTI_NUM_QUERIES):
        query = analyst.create_query(
            "SELECT value FROM private_data WHERE value > 0.5",
            AnswerSpec(
                buckets=RangeBuckets.uniform(0.0, 8.0, NUM_BUCKETS, open_ended=True),
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
            parameters=ExecutionParameters(sampling_fraction=0.9, p=0.9, q=0.6),
        )
        query_ids.append(query.query_id)
    return system, query_ids


def measure_multi_query_epoch_seconds(
    shared: bool, executor: str = PIPELINED, workers: int = 4
) -> dict:
    """Wall-clock stats for serving all queries for one epoch (1 warmup).

    ``shared=True`` times one ``run_epoch_all`` pass; ``shared=False`` times
    the sequential baseline — one full single-query epoch per query.
    """
    system, query_ids = build_multi_query_system(executor, workers=workers)

    def run(epoch: int) -> None:
        if shared:
            system.run_epoch_all(epoch)
        else:
            for query_id in query_ids:
                system.run_epoch(query_id, epoch)

    run(0)  # warmup: pools, topics
    times = []
    for epoch in range(1, TIMED_EPOCHS + 1):
        start = time.perf_counter()
        run(epoch)
        times.append(time.perf_counter() - start)
    system.close()
    return {
        "best": min(times),
        "median": statistics.median(times),
        "mean": sum(times) / len(times),
    }


def test_multi_query_shared_pass_beats_sequential_epochs(report):
    """One run_epoch_all pass serving 4 queries vs. 4 run_epoch passes.

    The shared pass walks the client population once, reuses one local table
    scan for all co-subscribed queries and still keeps per-query channels,
    aggregators and RNG streams — so it must beat the sequential baseline
    (median, best-of-3 rounds, the suite's usual tolerance).
    """
    configs = {
        "shared pass (run_epoch_all)": {"shared": True},
        "4 single-query epochs": {"shared": False},
    }
    stats = {
        name: measure_multi_query_epoch_seconds(**config)
        for name, config in configs.items()
    }
    sequential_median = stats["4 single-query epochs"]["median"]

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_multi_query.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "benchmark": "multi_query_epochs",
                "num_clients": MULTI_QUERY_CLIENTS,
                "num_queries": MULTI_NUM_QUERIES,
                "rows_per_client": NUM_ROWS_PER_CLIENT,
                "num_buckets": NUM_BUCKETS,
                "timed_epochs": TIMED_EPOCHS,
                "rows": [
                    {
                        "config": name,
                        "best_ms": entry["best"] * 1e3,
                        "median_ms": entry["median"] * 1e3,
                        "mean_ms": entry["mean"] * 1e3,
                    }
                    for name, entry in stats.items()
                ],
            },
            handle,
            indent=2,
        )

    report.title(
        f"Multi-query epochs ({MULTI_QUERY_CLIENTS} clients x "
        f"{NUM_ROWS_PER_CLIENT} rows, {MULTI_NUM_QUERIES} queries, pipelined w4)"
    )
    report.table(
        ["configuration", "best epoch (ms)", "median (ms)", "mean (ms)", "speedup"],
        [
            [
                name,
                entry["best"] * 1e3,
                entry["median"] * 1e3,
                entry["mean"] * 1e3,
                sequential_median / entry["median"],
            ]
            for name, entry in stats.items()
        ],
    )
    report.note(
        "run_epoch_all answers all co-subscribed queries from one pass over "
        "the clients (one shared table scan, per-query RNG streams and "
        "channel topics); the sequential baseline repeats the full "
        "sample -> SQL -> randomize -> encrypt -> transmit -> ingest "
        "pipeline per query.  Results are byte-identical either way "
        "(tests/runtime/test_executor_equivalence.py)."
    )
    report.note("")

    assert_faster(
        "shared pass (run_epoch_all)",
        "4 single-query epochs",
        configs["shared pass (run_epoch_all)"],
        configs["4 single-query epochs"],
        stats["shared pass (run_epoch_all)"],
        stats["4 single-query epochs"],
        measure=measure_multi_query_epoch_seconds,
    )


MESSAGE_SIZE = 64 * 1024


@pytest.fixture(scope="module")
def xor_operands():
    keystream = KeystreamGenerator(seed=b"runtime-scaling")
    return keystream.next_bytes(MESSAGE_SIZE), keystream.next_bytes(MESSAGE_SIZE)


@pytest.mark.benchmark(group="runtime-xor")
def test_xor_keystream_vectorized(benchmark, xor_operands):
    message, key = xor_operands
    result = benchmark(xor_bytes, message, key)
    assert xor_bytes(result, key) == message


@pytest.mark.benchmark(group="runtime-xor")
def test_xor_keystream_scalar_reference(benchmark, xor_operands):
    message, key = xor_operands
    result = benchmark(xor_bytes_scalar, message, key)
    assert result == xor_bytes(message, key)


def test_vectorized_xor_speedup():
    """The word-vectorized XOR must beat the scalar reference (guard).

    The per-implementation timings live in the pytest-benchmark group
    ``runtime-xor`` above; the epoch-runtime report file carries the
    deployment-level numbers.  Best-of-repeats keeps this robust on loaded
    runners; the margin is an order of magnitude, so no tolerance is needed.
    """
    keystream = KeystreamGenerator(seed=b"xor-speedup")
    message = keystream.next_bytes(MESSAGE_SIZE)
    key = keystream.next_bytes(MESSAGE_SIZE)

    def time_fn(fn, repeats):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn(message, key)
            best = min(best, time.perf_counter() - start)
        return best

    scalar = time_fn(xor_bytes_scalar, repeats=5)
    vectorized = time_fn(xor_bytes, repeats=20)
    assert vectorized < scalar, (
        f"vectorized XOR ({vectorized * 1e6:.0f} us) must beat the scalar "
        f"reference ({scalar * 1e6:.0f} us) on {MESSAGE_SIZE // 1024} KiB"
    )
