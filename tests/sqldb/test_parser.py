"""Tests for the recursive-descent SQL parser."""

import pytest

from repro.sqldb import ast
from repro.sqldb.errors import ParseError
from repro.sqldb.parser import parse_statement


class TestSelectParsing:
    def test_select_star(self):
        stmt = parse_statement("SELECT * FROM rides")
        assert isinstance(stmt, ast.SelectStatement)
        assert stmt.select_star
        assert stmt.table == "rides"

    def test_select_columns(self):
        stmt = parse_statement("SELECT distance, fare FROM rides")
        assert [item.column for item in stmt.items] == ["distance", "fare"]

    def test_select_with_alias(self):
        stmt = parse_statement("SELECT distance AS miles FROM rides")
        assert stmt.items[0].alias == "miles"

    def test_where_comparison(self):
        stmt = parse_statement("SELECT speed FROM vehicle WHERE location = 'SF'")
        assert isinstance(stmt.where, ast.Comparison)
        assert stmt.where.operator == "="

    def test_where_and_or(self):
        stmt = parse_statement("SELECT a FROM t WHERE x = 1 AND y = 2 OR z = 3")
        # OR binds loosest: (x=1 AND y=2) OR z=3
        assert isinstance(stmt.where, ast.BooleanOp)
        assert stmt.where.operator == "OR"
        assert isinstance(stmt.where.left, ast.BooleanOp)
        assert stmt.where.left.operator == "AND"

    def test_where_parentheses_override(self):
        stmt = parse_statement("SELECT a FROM t WHERE x = 1 AND (y = 2 OR z = 3)")
        assert stmt.where.operator == "AND"
        assert isinstance(stmt.where.right, ast.BooleanOp)
        assert stmt.where.right.operator == "OR"

    def test_where_not(self):
        stmt = parse_statement("SELECT a FROM t WHERE NOT x = 1")
        assert isinstance(stmt.where, ast.NotOp)

    def test_where_between(self):
        stmt = parse_statement("SELECT a FROM t WHERE x BETWEEN 1 AND 5")
        assert isinstance(stmt.where, ast.BetweenOp)

    def test_where_in(self):
        stmt = parse_statement("SELECT a FROM t WHERE city IN ('NYC', 'SF')")
        assert isinstance(stmt.where, ast.InOp)
        assert stmt.where.choices == ("NYC", "SF")

    def test_literal_kinds(self):
        stmt = parse_statement("SELECT a FROM t WHERE x IN (1, 'a', 2.5, NULL, TRUE)")
        assert stmt.where.choices == (1, "a", 2.5, None, True)

    def test_where_is_null(self):
        stmt = parse_statement("SELECT a FROM t WHERE x IS NULL")
        assert isinstance(stmt.where, ast.IsNullOp)
        assert not stmt.where.negated

    def test_where_is_not_null(self):
        stmt = parse_statement("SELECT a FROM t WHERE x IS NOT NULL")
        assert stmt.where.negated

    def test_where_like(self):
        stmt = parse_statement("SELECT a FROM t WHERE name LIKE 'taxi-%'")
        assert isinstance(stmt.where, ast.LikeOp)
        assert stmt.where.pattern == "taxi-%"

    def test_aggregates(self):
        stmt = parse_statement("SELECT COUNT(*), SUM(fare), AVG(distance) FROM rides")
        functions = [item.function for item in stmt.items]
        assert functions == ["COUNT", "SUM", "AVG"]
        assert stmt.items[0].argument is None
        assert stmt.items[1].argument == "fare"

    def test_aggregate_star_only_for_count(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT SUM(*) FROM rides")

    def test_group_by(self):
        stmt = parse_statement("SELECT borough, COUNT(*) FROM rides GROUP BY borough")
        assert stmt.group_by == ("borough",)

    def test_order_by_desc(self):
        stmt = parse_statement("SELECT a FROM t ORDER BY a DESC")
        assert stmt.order_by.column == "a"
        assert stmt.order_by.descending

    def test_order_by_asc_default(self):
        stmt = parse_statement("SELECT a FROM t ORDER BY a")
        assert not stmt.order_by.descending

    def test_limit(self):
        stmt = parse_statement("SELECT a FROM t LIMIT 10")
        assert stmt.limit == 10

    def test_limit_requires_number(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t LIMIT x")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t extra tokens")

    def test_trailing_semicolon_allowed(self):
        stmt = parse_statement("SELECT a FROM t;")
        assert stmt.table == "t"


class TestOtherStatements:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (1, 'a', 2.5, NULL, TRUE)",
            "CREATE TABLE rides (distance REAL, city TEXT, fare REAL)",
            "DELETE FROM t WHERE x < 0",
            "DROP TABLE t",
            "INSERT INTO t (a, b) VALUES (1, 'x')",
            "DELETE FROM t",
        ],
        ids=["insert", "create", "delete", "drop", "insert-with-columns", "delete-all"],
    )
    def test_only_select_parses(self, sql):
        with pytest.raises(ParseError, match="unsupported statement"):
            parse_statement(sql)

    @pytest.mark.parametrize(
        "sql",
        ["SELECT a FROM t; DELETE FROM t", "SELECT a FROM t DROP TABLE t"],
        ids=["after-semicolon", "run-on"],
    )
    def test_a_second_statement_after_a_select_is_refused(self, sql):
        with pytest.raises(ParseError, match="trailing tokens"):
            parse_statement(sql)

    def test_unsupported_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("UPDATE t SET x = 1")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a WHERE x = 1")
