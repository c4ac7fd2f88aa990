"""``BETWEEN`` with a NULL bound matches no row, as in SQLite.

``x BETWEEN low AND high`` is ``x >= low AND x <= high``: a NULL on either
side makes it NULL, never true.  Each statement runs on the row scan, the
compiled path and a shard arena against stdlib ``sqlite3``; a NULL bound
used to raise ``TypeError`` on the first two.  The bounds are literals or
columns, the BETWEEN leads (a probe unless a bound is NULL) or follows a
probe (the residual), and the rows hold NULLs too.  ``NOT BETWEEN`` is left
out of that comparison: the engine's ``NOT`` is two-valued, SQLite's is
not — a deliberate deviation (``docs/ARCHITECTURE.md``), pinned below.
"""

import pytest

from tests.sqldb.sqlite_reference import PATHS, answers, assert_matches_sqlite, sqlite_rows

SCHEMA = [("id", "INTEGER"), ("x", "REAL"), ("lo", "REAL"), ("hi", "INTEGER")]
ROWS = [
    (0, 1.5, 0.0, 2),
    (1, None, 1.0, 9),
    (2, 4.0, None, 5),
    (3, -2.0, -3.0, None),
    (4, 7.25, 7.0, 8),
    (5, 3.0, None, None),
]

STATEMENTS = [
    "SELECT id FROM t WHERE x BETWEEN NULL AND 5",
    "SELECT id FROM t WHERE x BETWEEN 1 AND NULL",
    "SELECT id FROM t WHERE x BETWEEN NULL AND NULL",
    "SELECT id FROM t WHERE x BETWEEN 0 AND 5",
    "SELECT id, x FROM t WHERE x BETWEEN lo AND hi",
    "SELECT id FROM t WHERE id >= 0 AND x BETWEEN NULL AND 5",
    "SELECT id FROM t WHERE id >= 1 AND x BETWEEN lo AND 10",
    "SELECT id FROM t WHERE x BETWEEN NULL AND 5 OR id = 4",
]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("sql", STATEMENTS)
def test_between_matches_sqlite(sql, path):
    assert_matches_sqlite(SCHEMA, ROWS, sql, path)


@pytest.mark.parametrize("path", PATHS)
def test_not_is_two_valued_unlike_sqlite(path):
    """``NOT`` of a NULL predicate is true here and NULL in SQLite: over
    rows ``(0, 1.0), (1, NULL), (2, 7.0)`` every path returns ids 0, 1 and
    2, where ``sqlite3`` returns id 2 only."""
    schema = [("id", "INTEGER"), ("x", "REAL")]
    rows = [(0, 1.0), (1, None), (2, 7.0)]
    sql = "SELECT id FROM t WHERE NOT x BETWEEN NULL AND 5"
    got = answers(schema, rows, sql, path)
    assert [row for member in got for row in member] == [(0,), (1,), (2,)]
    assert sqlite_rows(schema, rows, sql) == [(2,)]
