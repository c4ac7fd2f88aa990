"""Tests for the SQL execution engine."""

import pytest

from repro.sqldb import Database, ParseError, SchemaError


@pytest.fixture
def rides_db() -> Database:
    db = Database()
    db.create_table(
        "rides",
        [("distance", "REAL"), ("fare", "REAL"), ("borough", "TEXT"), ("city", "TEXT")],
    )
    rows = [
        (0.8, 5.0, "Manhattan", "New York"),
        (1.5, 8.5, "Brooklyn", "New York"),
        (2.4, 11.0, "Manhattan", "New York"),
        (5.9, 22.0, "Queens", "New York"),
        (12.3, 45.0, "Queens", "New York"),
        (3.1, 13.0, "Manhattan", "Boston"),
    ]
    db.insert_rows(
        "rides",
        [dict(zip(("distance", "fare", "borough", "city"), row)) for row in rows],
    )
    return db


class TestSchemaAndInsert:
    def test_create_and_list_tables(self):
        db = Database()
        db.create_table("t", [("a", "INTEGER")])
        assert db.table_names() == ["t"]

    def test_duplicate_create_rejected(self):
        db = Database()
        db.create_table("t", [("a", "INTEGER")])
        with pytest.raises(SchemaError):
            db.create_table("t", [("a", "INTEGER")])

    def test_drop_table(self):
        db = Database()
        db.create_table("t", [("a", "INTEGER")])
        db.drop_table("t")
        assert db.table_names() == []

    def test_missing_column_is_null(self):
        db = Database()
        db.create_table("t", [("a", "INTEGER"), ("b", "TEXT")])
        db.insert_rows("t", [{"b": "only-b"}])
        assert db.query("SELECT * FROM t").rows == [(None, "only-b")]

    def test_insert_rows_bulk(self):
        db = Database()
        db.create_table("t", [("a", "INTEGER")])
        assert db.insert_rows("t", [{"a": 1}, {"a": 2}, {"a": 3}]) == 3
        assert len(db.query("SELECT a FROM t")) == 3

    def test_unknown_table_rejected(self):
        with pytest.raises(SchemaError):
            Database().query("SELECT * FROM nothing")


class TestOnlySelectRuns:
    """A client runs the analyst's SQL against its private tables, so
    ``query`` must refuse anything but a SELECT before touching them."""

    @pytest.mark.parametrize(
        "sql",
        [
            "DELETE FROM rides",
            "DROP TABLE rides",
            "INSERT INTO rides VALUES (1, 1, 'a', 'b')",
            "CREATE TABLE other (a INTEGER)",
            "INSERT INTO rides (fare, city) VALUES (1.0, 'x')",
            "DELETE FROM rides WHERE borough = 'Queens'",
            "delete from rides",
        ],
        ids=[
            "delete", "drop", "insert", "create",
            "insert-with-columns", "delete-with-where", "lowercase-delete",
        ],
    )
    @pytest.mark.parametrize("force_scan", ["0", "1"], ids=["compiled", "scan"])
    def test_other_statements_raise_before_touching_a_table(
        self, rides_db, sql, force_scan, monkeypatch
    ):
        monkeypatch.setenv("SQLDB_FORCE_SCAN", force_scan)
        before = list(rides_db.table("rides").rows)
        with pytest.raises(ParseError, match="unsupported statement"):
            rides_db.query(sql)
        assert rides_db.table_names() == ["rides"]
        assert list(rides_db.table("rides").rows) == before

    @pytest.mark.parametrize("force_scan", ["0", "1"], ids=["compiled", "scan"])
    def test_a_write_after_a_select_is_refused(self, rides_db, force_scan, monkeypatch):
        monkeypatch.setenv("SQLDB_FORCE_SCAN", force_scan)
        with pytest.raises(ParseError, match="trailing tokens"):
            rides_db.query("SELECT * FROM rides; DELETE FROM rides")
        assert len(rides_db.table("rides")) == 6

    @pytest.mark.parametrize("force_scan", ["0", "1"], ids=["compiled", "scan"])
    def test_a_refused_write_leaves_the_next_select_whole(
        self, rides_db, force_scan, monkeypatch
    ):
        """The refusal is raised before any plan or columnar state is
        touched, so the same database answers its next SELECT in full."""
        monkeypatch.setenv("SQLDB_FORCE_SCAN", force_scan)
        expected = rides_db.query("SELECT borough, fare FROM rides WHERE fare > 10").rows
        with pytest.raises(ParseError):
            rides_db.query("DELETE FROM rides WHERE fare > 10")
        assert rides_db.query("SELECT borough, fare FROM rides WHERE fare > 10").rows == expected
        assert len(rides_db.query("SELECT fare FROM rides")) == 6


class TestSelect:
    def test_select_star(self, rides_db):
        result = rides_db.query("SELECT * FROM rides")
        assert len(result) == 6
        assert result.columns == ["distance", "fare", "borough", "city"]

    def test_projection(self, rides_db):
        result = rides_db.query("SELECT distance FROM rides")
        assert result.columns == ["distance"]
        assert len(result.rows) == 6

    def test_where_equality(self, rides_db):
        result = rides_db.query("SELECT distance FROM rides WHERE city = 'New York'")
        assert len(result) == 5

    def test_where_numeric_comparison(self, rides_db):
        result = rides_db.query("SELECT distance FROM rides WHERE distance >= 2.4")
        assert sorted(value for (value,) in result.rows) == [2.4, 3.1, 5.9, 12.3]

    def test_where_and(self, rides_db):
        result = rides_db.query(
            "SELECT fare FROM rides WHERE city = 'New York' AND borough = 'Manhattan'"
        )
        assert len(result) == 2

    def test_where_or(self, rides_db):
        result = rides_db.query(
            "SELECT fare FROM rides WHERE borough = 'Queens' OR borough = 'Brooklyn'"
        )
        assert len(result) == 3

    def test_where_not(self, rides_db):
        result = rides_db.query("SELECT fare FROM rides WHERE NOT city = 'New York'")
        assert len(result) == 1

    def test_where_between(self, rides_db):
        result = rides_db.query("SELECT distance FROM rides WHERE distance BETWEEN 1 AND 3")
        assert sorted(value for (value,) in result.rows) == [1.5, 2.4]

    def test_where_in(self, rides_db):
        result = rides_db.query("SELECT fare FROM rides WHERE borough IN ('Bronx', 'Queens')")
        assert len(result) == 2

    def test_where_like(self, rides_db):
        result = rides_db.query("SELECT fare FROM rides WHERE city LIKE 'New%'")
        assert len(result) == 5

    def test_alias(self, rides_db):
        result = rides_db.query("SELECT distance AS miles FROM rides")
        assert result.columns == ["miles"]

    def test_where_on_missing_rows_returns_empty(self, rides_db):
        result = rides_db.query("SELECT distance FROM rides WHERE city = 'Paris'")
        assert len(result) == 0


class TestResultSet:
    def test_rows_are_tuples_in_table_order(self, rides_db):
        result = rides_db.query("SELECT borough FROM rides WHERE fare < 10")
        assert result.rows == [("Manhattan",), ("Brooklyn",)]
