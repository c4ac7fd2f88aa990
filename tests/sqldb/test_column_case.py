"""Column names resolve case-insensitively everywhere in a SELECT, as in SQLite.

WHERE always did; the row scan now resolves projected, grouped, ordered-on
and aggregated names the same way, once per statement through
``Table.column_index``, and refuses an unknown one with ``SchemaError``.
Each statement runs on every path and is checked against stdlib ``sqlite3``
over the same rows (a shard arena splits them into two members).
"""

import sqlite3

import pytest

from repro.sqldb.errors import SchemaError
from tests.sqldb.sqlite_reference import PATHS, assert_matches_sqlite, database

SCHEMA = [("id", "INTEGER"), ("x", "REAL")]
# Out of order within each half, so an ORDER BY that does not sort shows.
ROWS = [(0, 3.0), (1, 1.0), (2, 2.0), (3, 0.5)]

STATEMENTS = [
    "SELECT SUM(X), COUNT(X), MAX(X) FROM t",
    "SELECT MIN(X), AVG(x) FROM t WHERE ID >= 1",
    "SELECT id FROM t ORDER BY X",
    "SELECT ID, x FROM t ORDER BY X DESC",
    "SELECT X, COUNT(*) FROM t GROUP BY X",
    "SELECT x, SUM(Id) FROM t GROUP BY X",
    "SELECT ID FROM t",
    "SELECT ID, X FROM t WHERE x > 1.5",
]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("sql", STATEMENTS)
def test_column_names_resolve_as_in_sqlite(sql, path):
    assert_matches_sqlite(SCHEMA, ROWS, sql, path)


# ORDER BY names an output alias before a table column, as in SQLite: the
# second statement's ``x`` is the alias of ``id``, not the column ``x``.
ORDER_BY_ALIAS = [
    "SELECT x AS v FROM t ORDER BY v",
    "SELECT x AS id, id AS x FROM t ORDER BY x",
    "SELECT x AS v FROM t ORDER BY V DESC",
    "SELECT id AS v, x AS v FROM t ORDER BY v",
    "SELECT id AS X FROM t ORDER BY x LIMIT 2",
]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("sql", ORDER_BY_ALIAS)
def test_order_by_reads_the_output_aliases_first(sql, path):
    assert_matches_sqlite(SCHEMA, ROWS, sql, path)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT SUM(nope) FROM t",
        "SELECT COUNT(nope) FROM t",
        "SELECT id FROM t ORDER BY nope",
        "SELECT COUNT(*) FROM t GROUP BY nope",
    ],
)
def test_an_unknown_name_is_refused_as_in_sqlite(sql):
    with pytest.raises(SchemaError, match="no column nope"):
        database(SCHEMA, ROWS).query(sql)
    with pytest.raises(SchemaError, match="no column nope"):
        database(SCHEMA, []).query(sql)  # refused even when nothing matches
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (id INTEGER, x REAL)")
        with pytest.raises(sqlite3.OperationalError, match="no such column"):
            connection.execute(sql)
    finally:
        connection.close()
