"""Stdlib ``sqlite3`` as the reference for the engine's SQL semantics.

:func:`assert_matches_sqlite` runs one statement over the same rows on
``sqlite3`` and on one of the paths a SELECT can take here, and asserts
the two answer alike, row for row:

* ``"row-scan"`` — a lone database pinned to the row-scan reference;
* ``"compiled"`` — a lone database on its default path (its one-slot
  arena for a plain projection, the row scan for anything else);
* ``"shard-arena"`` — a shard of two members (the rows split in half)
  answering as the runtime asks them: one :func:`arena_select_per_client`
  pass, every member the arena does not answer running ``Database.query``.

Rows go in through :meth:`Database.insert_rows`, so a ``NaN`` is stored as
NULL on both sides.  The table is ``t``.
"""

import math
import sqlite3

from repro.sqldb import ARENA_FALLBACK, Database, ShardArena, arena_select_per_client

PATHS = ("row-scan", "compiled", "shard-arena")


def sqlite_rows(schema, rows, sql: str) -> list[tuple]:
    """``sql``'s rows on ``sqlite3`` over a table ``t`` of ``schema``."""
    connection = sqlite3.connect(":memory:")
    try:
        declared = ", ".join(f"{name} {sql_type}" for name, sql_type in schema)
        connection.execute(f"CREATE TABLE t ({declared})")
        marks = ", ".join("?" * len(schema))
        connection.executemany(f"INSERT INTO t VALUES ({marks})", rows)
        return connection.execute(sql).fetchall()
    finally:
        connection.close()


def database(schema, rows, force_scan: bool = False) -> Database:
    db = Database()
    db.force_scan = force_scan
    db.create_table("t", list(schema))
    names = [name for name, _ in schema]
    db.insert_rows("t", [dict(zip(names, row)) for row in rows])
    return db


def members_of(rows, path: str) -> list[list]:
    """The row sets ``path`` answers over: one database, or two members."""
    if path != "shard-arena":
        return [list(rows)]
    half = len(rows) // 2
    return [list(rows[:half]), list(rows[half:])]


def answers(schema, rows, sql: str, path: str) -> list[list[tuple]]:
    """Each member's result rows for ``sql`` on ``path``."""
    members = [database(schema, m, path == "row-scan") for m in members_of(rows, path)]
    if path != "shard-arena":
        return [members[0].query(sql).rows]
    outcomes = arena_select_per_client(ShardArena(members), sql)
    if outcomes is None:  # not compiled: every member answers itself
        outcomes = [ARENA_FALLBACK] * len(members)
    results = []
    for member, outcome in zip(members, outcomes, strict=True):
        if isinstance(outcome, BaseException):
            raise outcome
        results.append(member.query(sql) if outcome is ARENA_FALLBACK else outcome)
    return [result.rows for result in results]


def assert_matches_sqlite(schema, rows, sql: str, path: str) -> None:
    """``path`` answers ``sql`` as ``sqlite3`` does; a NaN in a result fails."""
    got = answers(schema, rows, sql, path)
    expected = [sqlite_rows(schema, member, sql) for member in members_of(rows, path)]
    assert [[tuple(row) for row in member] for member in got] == expected, (sql, path)
    assert not any(
        isinstance(value, float) and math.isnan(value)
        for member in got
        for row in member
        for value in row
    ), (sql, path)
