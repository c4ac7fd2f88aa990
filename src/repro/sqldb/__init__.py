"""A miniature in-memory SQL database, standing in for SQLite at the clients.

PrivApprox clients store their private data locally in SQLite and execute the
analyst's SQL query against it (Section 5, "Clients").  A client only
*reads* its data with that query, and answers with its latest matching
row, so the one statement this package parses is that read:

* ``SELECT cols | * FROM name [WHERE predicate]``, each projected name
  optionally ``AS``-aliased, with ``AND``/``OR``/``NOT``, ``BETWEEN``,
  ``IN``, ``IS [NOT] NULL``, ``LIKE`` and the usual comparison operators.

Any other statement is a :class:`ParseError` before a table is touched —
an aggregate, ``GROUP BY``, ``ORDER BY`` or ``LIMIT`` too, named in the
message: no client answer reads what they compute.
Tables are provisioned through the API instead —
:meth:`Database.create_table` and :meth:`Database.insert_rows`.

The engine is deliberately small but fully functional and tested; its purpose
is to let the client-side "query answering" module run real SQL over local
rows, and to let Table 3's "database read" cost be measured on a real code
path rather than a stub.

:meth:`Database.query` is the row-scan interpreter, the frozen reference
that answers every statement.  A PrivApprox client answers with its
*latest* matching reading, so it reads through the one compiled answer,
:func:`~repro.sqldb.engine.arena_select_per_client`: each asked member's
standing latest row, per member the same error as ``member.query(sql)``
or its columns over at most its last row.  It runs on typed parallel
arrays (:mod:`repro.sqldb.columnar`), each probe one pass over its column,
filtered by compiled predicates (:mod:`repro.sqldb.compile`), and keeps the
answer standing, so later asks fold in only the rows appended since.
There is one columnar layout: a :class:`~repro.sqldb.columnar.ShardArena`
concatenates every co-schema client in a shard into one
:class:`ArenaTable` per table so the runtime answers a whole shard with a
single probe, and a client answering on its own asks its database's
one-slot arena (:attr:`Database.arena`).  A statement naming a table or a
projected column the arena lacks is answered by ``Database.query``, which
raises the error.  ``SQLDB_FORCE_SCAN=1`` turns the compiled answer off,
so every client answers on the row scan and no arena is built.
"""

from repro.sqldb.columnar import ArenaTable, ColumnVector, ShardArena
from repro.sqldb.compile import CompiledSelect, CompileFallback, plan_for
from repro.sqldb.engine import (
    ARENA_FALLBACK,
    Database,
    arena_select_per_client,
    cached_shard_arena,
    scan_forced,
)
from repro.sqldb.errors import ExecutionError, ParseError, SchemaError, SqlError
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
    "cached_shard_arena",
    "scan_forced",
    "CompiledSelect",
    "CompileFallback",
    "plan_for",
    "SqlError",
    "ParseError",
    "SchemaError",
    "ExecutionError",
]
