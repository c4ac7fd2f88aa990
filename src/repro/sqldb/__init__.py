"""A miniature in-memory SQL database, standing in for SQLite at the clients.

PrivApprox clients store their private data locally in SQLite and execute the
analyst's SQL query against it (Section 5, "Clients").  A client only
*reads* its data with that query, so the one statement this package parses
is a read:

* ``SELECT cols FROM name [WHERE predicate] [GROUP BY cols]
  [ORDER BY col [DESC]] [LIMIT n]`` with ``COUNT/SUM/AVG/MIN/MAX``
  aggregates, ``AND``/``OR``/``NOT`` and the usual comparison operators.

Any other statement is a :class:`ParseError` before a table is touched.
Tables are provisioned through the API instead —
:meth:`Database.create_table` and :meth:`Database.insert_rows`.

The engine is deliberately small but fully functional and tested; its purpose
is to let the client-side "query answering" module run real SQL over local
rows, and to let Table 3's "database read" cost be measured on a real code
path rather than a stub.

SELECTs run on an index-backed columnar fast path by default — typed
parallel arrays (:mod:`repro.sqldb.columnar`) with hash/B+Tree indexes
(:mod:`repro.sqldb.indexes`) probed by compiled predicates
(:mod:`repro.sqldb.compile`).  The original row-scan interpreter remains
the frozen reference; set ``SQLDB_FORCE_SCAN=1`` to pin it.  There is one
columnar layout: a :class:`~repro.sqldb.columnar.ShardArena` concatenates
every co-schema client in a shard into one :class:`ArenaTable` per table
so the runtime can answer a whole shard with a single probe
(:func:`~repro.sqldb.engine.arena_select_per_client`), and a database
answering on its own does the same over its one-slot arena
(:attr:`Database.arena`).  ``SQLDB_FORCE_PER_CLIENT=1`` turns shard
arenas off — every client answers on its one-slot arena — as the middle
rung of the differential ladder.  A PrivApprox client answers
with its *latest* matching reading, so the runtime asks that function
for the latest-row form (``latest=True``): per member, the same error or
the same columns over at most the last row of ``member.query(sql)`` —
found without materialising the rows before it.
"""

from repro.sqldb.columnar import ArenaTable, ColumnVector, ShardArena
from repro.sqldb.compile import CompiledSelect, CompileFallback, plan_for
from repro.sqldb.engine import (
    ARENA_FALLBACK,
    Database,
    arena_answering_enabled,
    arena_select_per_client,
    cached_shard_arena,
    per_client_forced,
)
from repro.sqldb.errors import ExecutionError, ParseError, SchemaError, SqlError
from repro.sqldb.indexes import BPlusTreeIndex, HashIndex
from repro.sqldb.table import Column, Table

__all__ = [
    "Database",
    "Table",
    "Column",
    "ColumnVector",
    "ArenaTable",
    "ShardArena",
    "ARENA_FALLBACK",
    "arena_select_per_client",
    "arena_answering_enabled",
    "cached_shard_arena",
    "per_client_forced",
    "HashIndex",
    "BPlusTreeIndex",
    "CompiledSelect",
    "CompileFallback",
    "plan_for",
    "SqlError",
    "ParseError",
    "SchemaError",
    "ExecutionError",
]
