"""Answer-stage timing: compiled columnar path vs the row-scan reference.

The acceptance benchmark for the compiled columnar answer path
(``repro.sqldb.columnar`` / ``repro.sqldb.compile``): 1000 client
databases of 256 rows each answer the same analyst SELECT, once with
``force_scan`` pinning the frozen row-scan interpreter and once on the
default compiled path, across a selectivity sweep (~1%, 10%, 50%, 100% of
rows matching).  The claim under test: **>= 3x speedup on the selective
predicate** (the range probe is one comprehension over a typed column
instead of interpreting the WHERE AST over 256 row dicts per client), with
results byte-identical to the scan on every database.

Steady-state is what matters — a deployment builds each client's columnar
store once, then reuses it across every epoch — so the compiled path is
timed after a warm-up pass; the cold first pass (store build) is
reported separately in the JSON artifact.  Timings are best-of-N to keep a
loaded CI runner from failing the suite; all rows land in
``results/BENCH_answer_path.json`` for the non-blocking benchmarks job to
archive.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.sqldb import Database

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

NUM_CLIENTS = 1_000
ROWS_PER_CLIENT = 256
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 3.0

# rank is uniform in [0, 1000): BETWEEN 0 AND K-1 matches ~K/1000 of rows.
SELECTIVITY_SWEEP = [
    ("1%", "SELECT value FROM private_data WHERE rank BETWEEN 0 AND 9"),
    ("10%", "SELECT value FROM private_data WHERE rank BETWEEN 0 AND 99"),
    ("50%", "SELECT value FROM private_data WHERE rank BETWEEN 0 AND 499"),
    ("100%", "SELECT value FROM private_data"),
]
SELECTIVE_LABEL = "1%"


def _build_population(seed: int = 20260808) -> list[Database]:
    rng = random.Random(seed)
    databases = []
    for _ in range(NUM_CLIENTS):
        db = Database()
        db.create_table(
            "private_data", [("value", "REAL"), ("rank", "INTEGER"), ("tag", "TEXT")]
        )
        db.insert_rows(
            "private_data",
            [
                {
                    "value": rng.uniform(0.0, 8.0),
                    "rank": rng.randrange(1000),
                    "tag": rng.choice(["phone", "laptop", "server"]),
                }
                for _ in range(ROWS_PER_CLIENT)
            ],
        )
        databases.append(db)
    return databases


def _answer_pass(databases: list[Database], sql: str) -> int:
    """One answer stage: every client runs the query; returns total rows."""
    total = 0
    for db in databases:
        total += len(db.query(sql).rows)
    return total


def _time_pass(databases: list[Database], sql: str) -> float:
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        _answer_pass(databases, sql)
        best = min(best, time.perf_counter() - start)
    return best


def test_answer_path_speedup(report):
    databases = _build_population()

    # Cold pass: first compiled query pays the columnar store build.
    cold_start = time.perf_counter()
    _answer_pass(databases, SELECTIVITY_SWEEP[0][1])
    cold_seconds = time.perf_counter() - cold_start

    json_rows = []
    speedups = {}
    for label, sql in SELECTIVITY_SWEEP:
        for db in databases:
            db.force_scan = True
        scan_rows = _answer_pass(databases, sql)  # warm caches symmetrically
        scan_seconds = _time_pass(databases, sql)
        for db in databases:
            db.force_scan = False
        compiled_rows = _answer_pass(databases, sql)
        compiled_seconds = _time_pass(databases, sql)
        # The escape hatch must stay semantically invisible.
        assert compiled_rows == scan_rows
        speedup = scan_seconds / compiled_seconds
        speedups[label] = speedup
        json_rows.append(
            {
                "selectivity": label,
                "sql": sql,
                "scan_ms": scan_seconds * 1e3,
                "compiled_ms": compiled_seconds * 1e3,
                "speedup": speedup,
                "matched_rows": scan_rows,
            }
        )

    # Persist before asserting so CI archives numbers even for a failing run.
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_answer_path.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "benchmark": "answer_path",
                "num_clients": NUM_CLIENTS,
                "rows_per_client": ROWS_PER_CLIENT,
                "timing_rounds": TIMING_ROUNDS,
                "cold_build_ms": cold_seconds * 1e3,
                "speedup_floor": SPEEDUP_FLOOR,
                "rows": json_rows,
            },
            handle,
            indent=2,
        )

    report.title(
        f"Answer stage: compiled columnar vs row scan "
        f"({NUM_CLIENTS} clients x {ROWS_PER_CLIENT} rows)"
    )
    report.table(
        ["selectivity", "scan ms", "compiled ms", "speedup"],
        [
            [row["selectivity"], row["scan_ms"], row["compiled_ms"], row["speedup"]]
            for row in json_rows
        ],
    )
    report.note(f"cold store build pass: {cold_seconds * 1e3:.1f} ms")

    assert speedups[SELECTIVE_LABEL] >= SPEEDUP_FLOOR, (
        f"selective predicate speedup {speedups[SELECTIVE_LABEL]:.2f}x "
        f"is below the {SPEEDUP_FLOOR}x acceptance floor"
    )
    # Even the full scan-equivalent workload must not regress: the columnar
    # path still avoids per-row dicts and per-call parsing.
    assert speedups["100%"] >= 1.0


# -- shard-wide arena vs per-client compiled ----------------------------------
#
# The PR-10 acceptance benchmark: one ShardArena concatenating every client
# in a shard answers the selective analyst SELECT with a single probe plus
# span-table splitting, against the same clients each probing their own
# one-slot arena.  Swept at 10^2..10^4 clients per shard; the claim under test
# is **>= 3x median speedup at 10^4 clients/shard**.  Results append into
# BENCH_answer_path.json next to the per-client-vs-scan rows (read-modify-
# write, so either test can run alone without clobbering the other).

ARENA_SWEEP_SIZES = [100, 1_000, 10_000]
ARENA_ROWS_PER_CLIENT = 32
ARENA_TIMING_ROUNDS = 5
ARENA_SPEEDUP_FLOOR = 3.0
ARENA_SQL = "SELECT value FROM private_data WHERE rank BETWEEN 0 AND 9"


def _build_shard(num_clients: int, seed: int = 20260808) -> list[Database]:
    rng = random.Random(seed)
    databases = []
    for _ in range(num_clients):
        db = Database()
        db.create_table(
            "private_data", [("value", "REAL"), ("rank", "INTEGER"), ("tag", "TEXT")]
        )
        db.insert_rows(
            "private_data",
            [
                {
                    "value": rng.uniform(0.0, 8.0),
                    "rank": rng.randrange(1000),
                    "tag": rng.choice(["phone", "laptop", "server"]),
                }
                for _ in range(ARENA_ROWS_PER_CLIENT)
            ],
        )
        databases.append(db)
    return databases


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def test_arena_vs_per_client_sweep(report):
    from repro.sqldb import ShardArena, arena_select_per_client

    json_rows = []
    speedups = {}
    for num_clients in ARENA_SWEEP_SIZES:
        databases = _build_shard(num_clients)
        arena = ShardArena(databases)

        # Warm both paths: the one-slot arenas and the shard arena.
        per_client_results = [db.query(ARENA_SQL).rows for db in databases]
        arena_build_start = time.perf_counter()
        arena_results = arena_select_per_client(arena, ARENA_SQL)
        arena_build_ms = (time.perf_counter() - arena_build_start) * 1e3
        assert arena_results is not None
        assert [outcome.rows for outcome in arena_results] == per_client_results

        per_client_samples = []
        arena_samples = []
        for _ in range(ARENA_TIMING_ROUNDS):
            start = time.perf_counter()
            for db in databases:
                db.query(ARENA_SQL)
            per_client_samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            arena_select_per_client(arena, ARENA_SQL)
            arena_samples.append(time.perf_counter() - start)

        per_client_ms = _median(per_client_samples) * 1e3
        arena_ms = _median(arena_samples) * 1e3
        speedup = per_client_ms / arena_ms
        speedups[num_clients] = speedup
        json_rows.append(
            {
                "clients_per_shard": num_clients,
                "rows_per_client": ARENA_ROWS_PER_CLIENT,
                "sql": ARENA_SQL,
                "per_client_ms": per_client_ms,
                "arena_ms": arena_ms,
                "arena_cold_probe_ms": arena_build_ms,
                "speedup": speedup,
            }
        )

    # Read-modify-write: the per-client-vs-scan test owns the other keys.
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_answer_path.json")
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    data["arena_vs_per_client"] = {
        "timing_rounds": ARENA_TIMING_ROUNDS,
        "speedup_floor": ARENA_SPEEDUP_FLOOR,
        "rows": json_rows,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)

    report.title(
        f"Answer stage: shard arena vs per-client columnar "
        f"({ARENA_ROWS_PER_CLIENT} rows/client, ~1% selectivity)"
    )
    report.table(
        ["clients/shard", "per-client ms", "arena ms", "speedup"],
        [
            [
                row["clients_per_shard"],
                row["per_client_ms"],
                row["arena_ms"],
                row["speedup"],
            ]
            for row in json_rows
        ],
    )

    assert speedups[10_000] >= ARENA_SPEEDUP_FLOOR, (
        f"arena speedup {speedups[10_000]:.2f}x at 10^4 clients/shard "
        f"is below the {ARENA_SPEEDUP_FLOOR}x acceptance floor"
    )
