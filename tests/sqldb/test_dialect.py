"""The dialect is what a client reads: ``SELECT cols | * FROM t [WHERE pred]``.

A client answers with its latest matching row (``Client._latest_value``
reads ``rows[-1]`` of a projection), so no client answer can use an
aggregate or a clause that groups, orders or cuts the rows.  The parser
refuses each one with a :class:`ParseError` that names it, before a table
or an arena is read, on every path a SELECT takes
(``tests/sqldb/sqlite_reference.py``), although ``sqlite3`` runs them all.
"""

import pytest

from repro.sqldb import ShardArena, arena_select_per_client
from repro.sqldb.errors import ParseError
from repro.sqldb.parser import parse_statement
from tests.sqldb.sqlite_reference import PATHS, database, results, sqlite_rows

SCHEMA = [("id", "INTEGER"), ("x", "REAL")]
ROWS = [(0, 3.0), (1, 1.0), (2, 2.0), (3, 0.5)]

#: One statement per refused clause, keyed by the name the error gives it.
REFUSED = {
    "aggregate": "SELECT COUNT(*) FROM t",
    "GROUP BY": "SELECT id FROM t GROUP BY id",
    "ORDER BY": "SELECT id FROM t WHERE x > 1 ORDER BY x DESC",
    "LIMIT": "SELECT id FROM t LIMIT 1",
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("clause", list(REFUSED))
def test_a_clause_no_client_reads_is_refused_by_name(clause, path):
    sql = REFUSED[clause]
    assert sqlite_rows(SCHEMA, ROWS, sql)  # valid SQL, outside the dialect
    with pytest.raises(ParseError, match=f"^{clause} .*is not supported"):
        parse_statement(sql)
    with pytest.raises(ParseError, match=f"^{clause} "):
        results(SCHEMA, ROWS, sql, path)


@pytest.mark.parametrize("path", PATHS)
def test_a_grouped_ordered_aggregate_is_refused(path):
    """The row scan answered this in group-key order where ``sqlite3`` sorts
    it descending; it is refused now, at its first refused item."""
    sql = "SELECT id, SUM(x) FROM t GROUP BY id ORDER BY id DESC"
    assert sqlite_rows(SCHEMA, ROWS, sql) == [(3, 0.5), (2, 2.0), (1, 1.0), (0, 3.0)]
    with pytest.raises(ParseError, match="^aggregate SUM"):
        results(SCHEMA, ROWS, sql, path)


def test_a_refused_statement_builds_no_arena_table():
    db = database(SCHEMA, ROWS)
    arena = ShardArena([db])
    for sql in REFUSED.values():
        assert arena_select_per_client(arena, sql) is None
    assert arena.arena_stats() == {}

