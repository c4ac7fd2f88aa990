"""Answer-stage timing: the standing answer's matching pass vs the row scan.

The acceptance benchmark for the compiled columnar answer path
(``repro.sqldb.columnar`` / ``repro.sqldb.compile``): 1000 client
databases of 256 rows each answer the same analyst SELECT, once on the
row scan (``Database.query``, the frozen reference interpreter) and once
as a client's standing answer first computes it — one
``CompiledSelect.matching_ids_per_client`` pass over the database's
one-slot arena table — across a selectivity sweep (~1%, 10%, 50%, 100%
of rows matching).  The claim under test: **>= 3x speedup on the
selective predicate** (the range probe is one comprehension over a typed
column instead of interpreting the WHERE AST over 256 row dicts per
client), with each database's matched rows identical to the scan's.

Steady-state is what matters — a deployment builds each client's columnar
store once, then reuses it across every epoch — so the matching pass is
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

from repro.sqldb import Database, ShardArena, arena_select_per_client, plan_for
from repro.sqldb.parser import parse_statement

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


TABLE = "private_data"


def _plan(sql: str, table):
    return plan_for(parse_statement(sql), table.columns)


def _scan_pass(databases: list[Database], sql: str) -> int:
    """One answer stage on the row scan: every client runs the query;
    returns total rows."""
    total = 0
    for db in databases:
        total += len(db.query(sql).rows)
    return total


def _matching_pass(databases: list[Database], sql: str) -> int:
    """One answer stage as each standing answer's first pass computes it:
    one matching pass per client over its one-slot arena table; returns
    total matched rows."""
    plan = _plan(sql, databases[0].table(TABLE))
    total = 0
    for db in databases:
        (ids,) = plan.matching_ids_per_client(db.arena.table(TABLE))
        total += len(ids)
    return total


def _matched_values(table, ids) -> list:
    column = table.column("value")
    return [column[row_id] for row_id in ids]


def _time_pass(answer_pass, databases: list[Database], sql: str) -> float:
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        answer_pass(databases, sql)
        best = min(best, time.perf_counter() - start)
    return best


def test_answer_path_speedup(report):
    databases = _build_population()

    # Cold pass: the first matching pass pays the columnar store build.
    cold_start = time.perf_counter()
    _matching_pass(databases, SELECTIVITY_SWEEP[0][1])
    cold_seconds = time.perf_counter() - cold_start

    json_rows = []
    speedups = {}
    for label, sql in SELECTIVITY_SWEEP:
        # Each database's matched rows are exactly the scan's.
        plan = _plan(sql, databases[0].table(TABLE))
        for db in databases:
            table = db.arena.table(TABLE)
            (ids,) = plan.matching_ids_per_client(table)
            assert _matched_values(table, ids) == [row[0] for row in db.query(sql).rows]
        scan_rows = _scan_pass(databases, sql)  # warm caches symmetrically
        scan_seconds = _time_pass(_scan_pass, databases, sql)
        compiled_rows = _matching_pass(databases, sql)
        compiled_seconds = _time_pass(_matching_pass, databases, sql)
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
        f"Answer stage: standing answer's matching pass vs row scan "
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
    # Even the full scan-equivalent workload must not regress: the matching
    # pass still avoids per-row dicts and per-call parsing.
    assert speedups["100%"] >= 1.0


# -- shard-wide arena vs per-client compiled ----------------------------------
#
# The shard arena's acceptance benchmark: one ShardArena concatenating every
# client in a shard runs the selective analyst SELECT's matching pass once,
# a single probe plus span-table splitting, against the same clients each
# running it over their own one-slot arena.  Both are timed bare and as
# the running system asks for them, each standing answer's first ask (the
# pass plus the per-ask statement lookup, plan lookup and finish, paid once
# per shard or once per client).  Swept at 10^2..10^4 clients per shard;
# the claim under test is **>= 3x median speedup of the first asks at 10^4
# clients/shard**.  The bare passes read the same probe over the same rows,
# so their ratio is reported, not gated.  Results append into
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


def _first_asks(arenas) -> tuple[float, list]:
    """Each arena's first standing ask (its one matching pass from row 0 plus
    the finish), timed together; the arenas' tables are built beforehand."""
    for arena in arenas:
        arena.table(TABLE)
    start = time.perf_counter()
    outcomes = [arena_select_per_client(arena, ARENA_SQL) for arena in arenas]
    return time.perf_counter() - start, outcomes


def test_arena_vs_per_client_sweep(report):
    json_rows = []
    speedups = {}
    for num_clients in ARENA_SWEEP_SIZES:
        databases = _build_shard(num_clients)

        # Warm both paths: the one-slot arenas and the shard arena.  The
        # shard's matching pass selects exactly each client's own.
        tables = [db.arena.table(TABLE) for db in databases]
        plan = _plan(ARENA_SQL, tables[0])
        per_client_results = [
            _matched_values(table, plan.matching_ids_per_client(table)[0]) for table in tables
        ]
        arena_build_start = time.perf_counter()
        shard = ShardArena(databases).table(TABLE)
        arena_results = plan.matching_ids_per_client(shard)
        arena_build_ms = (time.perf_counter() - arena_build_start) * 1e3
        assert [_matched_values(shard, ids) for ids in arena_results] == per_client_results

        # The bare passes: the same probe over the same rows, once or per client.
        pass_samples = {"per_client": [], "arena": []}
        for _ in range(ARENA_TIMING_ROUNDS):
            start = time.perf_counter()
            for table in tables:
                plan.matching_ids_per_client(table)
            pass_samples["per_client"].append(time.perf_counter() - start)
            start = time.perf_counter()
            plan.matching_ids_per_client(shard)
            pass_samples["arena"].append(time.perf_counter() - start)

        # The passes as the running system asks for them: each standing
        # answer's first ask, over fresh arenas every round.
        per_client_samples = []
        arena_samples = []
        for _ in range(ARENA_TIMING_ROUNDS):
            seconds, per_client = _first_asks([ShardArena([db]) for db in databases])
            per_client_samples.append(seconds)
            seconds, (in_shard,) = _first_asks([ShardArena(databases)])
            arena_samples.append(seconds)
            assert [o.rows for o in in_shard] == [o.rows for (o,) in per_client]

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
                "per_client_pass_ms": _median(pass_samples["per_client"]) * 1e3,
                "arena_pass_ms": _median(pass_samples["arena"]) * 1e3,
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
        f"Answer stage: shard matching pass vs per-client passes "
        f"({ARENA_ROWS_PER_CLIENT} rows/client, ~1% selectivity)"
    )
    report.table(
        [
            "clients/shard",
            "per-client first asks ms",
            "shard first ask ms",
            "speedup",
            "per-client passes ms",
            "shard pass ms",
        ],
        [
            [
                row["clients_per_shard"],
                row["per_client_ms"],
                row["arena_ms"],
                row["speedup"],
                row["per_client_pass_ms"],
                row["arena_pass_ms"],
            ]
            for row in json_rows
        ],
    )

    assert speedups[10_000] >= ARENA_SPEEDUP_FLOOR, (
        f"arena speedup {speedups[10_000]:.2f}x at 10^4 clients/shard "
        f"is below the {ARENA_SPEEDUP_FLOOR}x acceptance floor"
    )
