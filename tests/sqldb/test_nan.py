"""A ``NaN`` is stored as NULL, as SQLite stores it.

SQLite has no NaN value: binding one stores NULL, whatever the column's
type.  So ``IS NULL`` finds the row, ``LIKE 'nan'`` does not, a comparison,
``BETWEEN`` or ``IN`` over it keeps no row, and a projection reads it back
as NULL.  (``NOT`` is left out: the engine's is two-valued, a deliberate
deviation pinned in ``tests/sqldb/test_between.py``.)  Each statement runs on a one-slot arena, the row
scan and a shard arena, and is checked against stdlib ``sqlite3`` over the
same rows.
"""

import pytest

from tests.sqldb.sqlite_reference import PATHS, assert_matches_sqlite, database

NAN = float("nan")

#: ``(id, x)`` rows; a shard arena splits them into two members, each
#: holding a NaN.
SCHEMA = [("id", "INTEGER"), ("x", "REAL")]
ROWS = [(0, 1.5), (1, NAN), (2, None), (3, -2.0), (4, NAN), (5, 0.25)]

STATEMENTS = [
    "SELECT id FROM t WHERE x IS NULL",
    "SELECT id FROM t WHERE x IS NOT NULL",
    "SELECT id FROM t WHERE x LIKE 'nan'",
    "SELECT id FROM t WHERE x LIKE '%'",
    "SELECT id, x FROM t",
    "SELECT id FROM t WHERE x > 0",
    "SELECT id FROM t WHERE x <> 1.5",
    "SELECT id FROM t WHERE x >= -2 AND x <= 1.5",
    "SELECT id FROM t WHERE x BETWEEN -3 AND 2",
    "SELECT id FROM t WHERE x IN (1.5, 0.25) OR x IS NULL",
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
]


@pytest.mark.parametrize("path", ["compiled", "row-scan"])
@pytest.mark.parametrize("sql", STATEMENTS)
def test_database_matches_sqlite(sql, path):
    assert_matches_sqlite(SCHEMA, ROWS, sql, path)


@pytest.mark.parametrize("sql", STATEMENTS)
def test_shard_arena_matches_sqlite(sql):
    """Each member holds a NaN, and the arena answers every member."""
    assert_matches_sqlite(SCHEMA, ROWS, sql, "shard-arena")


def test_nan_is_stored_as_null():
    assert database(SCHEMA, [(0, NAN)]).table("t").rows == [(0, None)]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("sql_type", sorted(OTHER_TYPES))
def test_nan_in_other_column_types_matches_sqlite(sql_type, path):
    """A NaN bound to an INTEGER, BOOLEAN or TEXT column is NULL too, not
    ``True``, the string ``'nan'`` or a conversion error."""
    schema = [("id", "INTEGER"), ("x", sql_type)]
    for sql in OTHER_STATEMENTS:
        assert_matches_sqlite(schema, OTHER_TYPES[sql_type], sql, path)
