"""Column names resolve case-insensitively everywhere in a SELECT, as in SQLite.

WHERE always did; a projected name resolves the same way, on the row scan
once per statement through ``Table.column_index`` and on the compiled
paths through the plan's schema view, and the output column keeps the name
as written.  An unknown projected name is refused with ``SchemaError``, and
so is a table whose names differ only in case.
Each statement runs on every path and is checked against stdlib
``sqlite3`` over the same rows, column names included (a shard arena
splits them into two members).
"""

import sqlite3

import pytest

from repro.sqldb.errors import SchemaError
from tests.sqldb.sqlite_reference import (
    PATHS,
    assert_matches_sqlite,
    database,
    results,
    sqlite_result,
)

SCHEMA = [("id", "INTEGER"), ("x", "REAL")]
ROWS = [(0, 3.0), (1, 1.0), (2, 2.0), (3, 0.5)]

STATEMENTS = [
    "SELECT ID FROM t",
    "SELECT ID, X FROM t WHERE x > 1.5",
    "SELECT Id AS v, X FROM t WHERE ID >= 1",
    "SELECT x AS id, ID AS x FROM t WHERE X < 2.5",
    "SELECT * FROM t WHERE X < 2",
    "SELECT X, x, ID FROM t WHERE Id IN (1, 3)",
    "SELECT iD AS ID FROM t WHERE x BETWEEN 1 AND 3",
    "SELECT * FROM t WHERE NOT X >= 1",
]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("sql", STATEMENTS)
def test_column_names_resolve_as_in_sqlite(sql, path):
    assert_matches_sqlite(SCHEMA, ROWS, sql, path)


@pytest.mark.parametrize("path", PATHS)
def test_an_output_column_keeps_the_name_as_written(path):
    for result in results(SCHEMA, ROWS, "SELECT ID, x AS V, X FROM t WHERE id > 0", path):
        assert result.columns == ["ID", "V", "X"]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "sql",
    ["SELECT nope FROM t", "SELECT id, nope FROM t", "SELECT nope AS id FROM t WHERE x > 9"],
)
def test_an_unknown_name_is_refused_as_in_sqlite(sql, path):
    with pytest.raises(SchemaError, match="no column nope"):
        results(SCHEMA, ROWS, sql, path)
    with pytest.raises(SchemaError, match="no column nope"):
        results(SCHEMA, [], sql, path)  # refused even when nothing matches
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (id INTEGER, x REAL)")
        with pytest.raises(sqlite3.OperationalError, match="no such column"):
            connection.execute(sql)
    finally:
        connection.close()


@pytest.mark.parametrize(
    "schema",
    [
        [("Ab", "REAL"), ("aB", "REAL")],
        [("id", "INTEGER"), ("x", "REAL"), ("X", "INTEGER")],
        [("id", "INTEGER"), ("id", "INTEGER")],
    ],
    ids=["mixed-case", "third-column", "exact"],
)
def test_names_differing_only_in_case_are_refused_as_in_sqlite(schema):
    """A name resolves case-insensitively, so two columns it could name are
    one name declared twice: refused, as ``sqlite3`` refuses the table."""
    with pytest.raises(sqlite3.OperationalError, match="duplicate column name"):
        sqlite_result(schema, [], "SELECT * FROM t")
    with pytest.raises(SchemaError, match=f"duplicate column name in table t: {schema[-1][0]}"):
        database(schema, [])


def test_distinct_names_still_make_a_table():
    schema = [("ab", "REAL"), ("abc", "REAL")]
    assert sqlite_result(schema, [(1.0, 2.0)], "SELECT AB, ABC FROM t")[1] == [(1.0, 2.0)]
    assert database(schema, [(1.0, 2.0)]).query("SELECT AB, ABC FROM t").rows == [(1.0, 2.0)]
