"""A ``NaN`` is stored as NULL, as SQLite stores it.

SQLite has no NaN value: binding one stores NULL, whatever the column's
type.  So ``IS NULL`` finds the row, ``LIKE 'nan'`` does not, and ``COUNT`` /
``SUM`` / ``AVG`` skip it.  Each statement runs on the compiled path, the
forced row scan and a shard arena, and is checked against stdlib ``sqlite3``
over the same rows.
"""

import math
import sqlite3

import pytest

from repro.sqldb import Database, ShardArena, arena_select_per_client

NAN = float("nan")

#: Two members' ``(id, x)`` rows; member 0 is also the lone database.
MEMBERS = [
    [(0, 1.5), (1, NAN), (2, None), (3, -2.0)],
    [(4, NAN), (5, 0.25)],
]

STATEMENTS = [
    "SELECT id FROM t WHERE x IS NULL",
    "SELECT id FROM t WHERE x IS NOT NULL",
    "SELECT id FROM t WHERE x LIKE 'nan'",
    "SELECT id FROM t WHERE x LIKE '%'",
    "SELECT id, x FROM t",
    "SELECT COUNT(x) FROM t",
    "SELECT COUNT(*) FROM t",
    "SELECT SUM(x) FROM t",
    "SELECT AVG(x) FROM t",
]

#: ``(id, x)`` rows with a NaN bound to a non-REAL ``x``; the TEXT rows also
#: hold the string ``'nan'``, which stays a string.
OTHER_TYPES = {
    "INTEGER": [(0, 3), (1, NAN), (2, None), (3, -7)],
    "BOOLEAN": [(0, True), (1, NAN), (2, None), (3, False)],
    "TEXT": [(0, "a"), (1, NAN), (2, None), (3, "nan")],
}

OTHER_STATEMENTS = [
    "SELECT id FROM t WHERE x IS NULL",
    "SELECT id FROM t WHERE x IS NOT NULL",
    "SELECT id FROM t WHERE x LIKE 'nan'",
    "SELECT id, x FROM t",
    "SELECT COUNT(x) FROM t",
]


def _sqlite_rows(rows, sql: str, sql_type: str = "REAL") -> list:
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute(f"CREATE TABLE t (id INTEGER, x {sql_type})")
        connection.executemany("INSERT INTO t VALUES (?, ?)", rows)
        return connection.execute(sql).fetchall()
    finally:
        connection.close()


def _database(rows, force_scan: bool = False, sql_type: str = "REAL") -> Database:
    db = Database()
    db.force_scan = force_scan
    db.create_table("t", [("id", "INTEGER"), ("x", sql_type)])
    db.insert_rows("t", [{"id": i, "x": x} for i, x in rows])
    return db


def _same(ours, expected) -> bool:
    """Row-for-row equality; a NaN would fail it, as it should."""
    return [tuple(row) for row in ours] == expected and not any(
        isinstance(value, float) and math.isnan(value) for row in ours for value in row
    )


@pytest.mark.parametrize("force_scan", [False, True], ids=["compiled", "row-scan"])
@pytest.mark.parametrize("sql", STATEMENTS)
def test_database_matches_sqlite(sql, force_scan):
    result = _database(MEMBERS[0], force_scan).query(sql)
    assert _same(result.rows, _sqlite_rows(MEMBERS[0], sql)), result.rows


@pytest.mark.parametrize("sql", STATEMENTS)
def test_shard_arena_matches_sqlite(sql):
    arena = ShardArena([_database(rows) for rows in MEMBERS])
    outcomes = arena_select_per_client(arena, sql)
    assert outcomes is not None
    for rows, outcome in zip(MEMBERS, outcomes, strict=True):
        assert _same(outcome.rows, _sqlite_rows(rows, sql)), outcome


def test_nan_is_stored_as_null():
    assert _database([(0, NAN)]).table("t").rows == [(0, None)]


@pytest.mark.parametrize("path", ["compiled", "row-scan", "shard-arena"])
@pytest.mark.parametrize("sql_type", sorted(OTHER_TYPES))
def test_nan_in_other_column_types_matches_sqlite(sql_type, path):
    """A NaN bound to an INTEGER, BOOLEAN or TEXT column is NULL too, not
    ``True``, the string ``'nan'`` or a conversion error."""
    rows = OTHER_TYPES[sql_type]
    for sql in OTHER_STATEMENTS:
        if path == "shard-arena":
            members = [rows[:2], rows[2:]]
            arena = ShardArena([_database(m, sql_type=sql_type) for m in members])
            outcomes = arena_select_per_client(arena, sql)
            assert outcomes is not None
            for member, outcome in zip(members, outcomes, strict=True):
                expected = _sqlite_rows(member, sql, sql_type)
                assert _same(outcome.rows, expected), (sql, outcome)
        else:
            db = _database(rows, path == "row-scan", sql_type)
            result = db.query(sql)
            assert _same(result.rows, _sqlite_rows(rows, sql, sql_type)), (sql, result.rows)
