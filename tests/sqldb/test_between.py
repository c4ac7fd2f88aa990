"""``BETWEEN`` with a NULL bound matches no row, as in SQLite.

``x BETWEEN low AND high`` is ``x >= low AND x <= high``: a NULL on either
side makes it NULL, never true.  Each statement runs on the row scan, the
compiled path and a shard arena against stdlib ``sqlite3``; a NULL bound
used to raise ``TypeError`` on the first two.  The bounds are literals or
columns, the BETWEEN leads (a probe unless a bound is NULL) or follows a
probe (the residual), and the rows hold NULLs too.  ``NOT BETWEEN`` is left
out: the engine's ``NOT`` is two-valued, SQLite's is not.
"""

import pytest

from tests.sqldb.sqlite_reference import PATHS, assert_matches_sqlite

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
