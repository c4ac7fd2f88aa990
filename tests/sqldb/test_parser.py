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

    def test_aliases_on_some_items(self):
        stmt = parse_statement("SELECT a AS x, b, c AS y FROM t")
        assert [(item.column, item.alias) for item in stmt.items] == [
            ("a", "x"),
            ("b", None),
            ("c", "y"),
        ]

    def test_keywords_are_case_insensitive(self):
        stmt = parse_statement("select a as b from t where x is not null")
        assert stmt.items[0].alias == "b"
        assert stmt.where.negated

    @pytest.mark.parametrize("op", ["=", "<>", "!=", "<", "<=", ">", ">="])
    def test_comparison_operators(self, op):
        stmt = parse_statement(f"SELECT a FROM t WHERE x {op} 1")
        assert stmt.where.operator == op
        assert stmt.where.right.value == 1

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

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("SELECT a FROM t WHERE", "expected a literal"),
            ("SELECT a FROM t WHERE x LIKE 5", "LIKE expects a string pattern"),
            ("SELECT a FROM t WHERE x IN (y)", "expected a literal"),
        ],
        ids=["empty-where", "like-non-string", "in-column"],
    )
    def test_malformed_predicate_rejected(self, sql, message):
        with pytest.raises(ParseError, match=message):
            parse_statement(sql)

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
