"""Stdlib ``sqlite3`` as the reference for the engine's SQL semantics.

:func:`assert_matches_sqlite` runs one statement over the same rows on
``sqlite3`` and on one of the paths a SELECT can take here, and asserts
the two answer alike, row for row and column name for column name (names
compare case-folded: SQLite leaves an unaliased column's name unspecified,
and 3.40 reports the declared spelling where the engine keeps the name as
written):

* ``"row-scan"`` — ``Database.query`` on a lone database;
* ``"compiled"`` — a lone database's one-slot arena, as a client answering
  alone reads it (:func:`~tests.sqldb.compiled_path.compiled_query`: the
  matching pass's rows, its standing answer checked to be their last), the
  row scan for a statement the arena does not answer;
* ``"shard-arena"`` — a shard of two members (the rows split in half)
  answering as the runtime asks them: one :func:`arena_select_per_client`
  pass (:func:`~tests.sqldb.compiled_path.compiled_outcomes`), every
  member the arena does not answer running ``Database.query``.

Rows go in through :meth:`Database.insert_rows`, so a ``NaN`` is stored as
NULL on both sides.  The table is ``t``.
"""

import math
import sqlite3

from repro.sqldb import ARENA_FALLBACK, Database, ShardArena
from repro.sqldb.engine import ResultSet
from tests.sqldb.compiled_path import compiled_outcomes, compiled_query

PATHS = ("row-scan", "compiled", "shard-arena")


def sqlite_result(schema, rows, sql: str) -> tuple[list[str], list[tuple]]:
    """``sql``'s column names and rows on ``sqlite3`` over a table ``t`` of
    ``schema``."""
    connection = sqlite3.connect(":memory:")
    try:
        declared = ", ".join(f"{name} {sql_type}" for name, sql_type in schema)
        connection.execute(f"CREATE TABLE t ({declared})")
        marks = ", ".join("?" * len(schema))
        connection.executemany(f"INSERT INTO t VALUES ({marks})", rows)
        cursor = connection.execute(sql)
        return [column[0] for column in cursor.description], cursor.fetchall()
    finally:
        connection.close()


def sqlite_rows(schema, rows, sql: str) -> list[tuple]:
    """``sql``'s rows on ``sqlite3`` over a table ``t`` of ``schema``."""
    return sqlite_result(schema, rows, sql)[1]


def database(schema, rows) -> Database:
    db = Database()
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


def results(schema, rows, sql: str, path: str) -> list[ResultSet]:
    """Each member's result set for ``sql`` on ``path``."""
    members = [database(schema, m) for m in members_of(rows, path)]
    if path == "row-scan":
        return [members[0].query(sql)]
    if path == "compiled":
        return [compiled_query(members[0], sql)]
    outcomes = compiled_outcomes(ShardArena(members), sql)
    if outcomes is None:  # not compiled: every member answers itself
        outcomes = [ARENA_FALLBACK] * len(members)
    got = []
    for member, outcome in zip(members, outcomes, strict=True):
        if isinstance(outcome, BaseException):
            raise outcome
        got.append(member.query(sql) if outcome is ARENA_FALLBACK else outcome)
    return got


def answers(schema, rows, sql: str, path: str) -> list[list[tuple]]:
    """Each member's result rows for ``sql`` on ``path``."""
    return [result.rows for result in results(schema, rows, sql, path)]


def assert_matches_sqlite(schema, rows, sql: str, path: str) -> None:
    """``path`` answers ``sql`` as ``sqlite3`` does, column names included; a
    NaN in a result fails."""
    got = [_folded(result.columns, result.rows) for result in results(schema, rows, sql, path)]
    expected = [
        _folded(*sqlite_result(schema, member, sql)) for member in members_of(rows, path)
    ]
    assert got == expected, (sql, path)
    assert not any(
        isinstance(value, float) and math.isnan(value)
        for _, member in got
        for row in member
        for value in row
    ), (sql, path)


def _folded(columns, rows) -> tuple[list[str], list[tuple]]:
    return [name.lower() for name in columns], [tuple(row) for row in rows]
