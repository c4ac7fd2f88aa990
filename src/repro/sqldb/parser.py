"""Recursive-descent SQL parser for the mini SQL engine."""

from __future__ import annotations

from functools import lru_cache

from repro.sqldb import ast
from repro.sqldb.errors import ParseError
from repro.sqldb.lexer import Token, TokenType, tokenize

_AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


class Parser:
    """Parses a single SELECT statement into an AST node."""

    def __init__(self, sql: str):
        self._sql = sql
        self._tokens = tokenize(sql)
        self._pos = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._advance()
        if not token.matches_keyword(keyword):
            raise ParseError(f"expected {keyword}, got {token.value!r} in: {self._sql}")
        return token

    def _expect_punct(self, punct: str) -> Token:
        token = self._advance()
        if token.type is not TokenType.PUNCT or token.value != punct:
            raise ParseError(f"expected {punct!r}, got {token.value!r} in: {self._sql}")
        return token

    def _accept_keyword(self, keyword: str) -> bool:
        if self._peek().matches_keyword(keyword):
            self._advance()
            return True
        return False

    def _accept_punct(self, punct: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == punct:
            self._advance()
            return True
        return False

    def _expect_identifier(self) -> str:
        token = self._advance()
        if token.type is not TokenType.IDENTIFIER:
            raise ParseError(f"expected identifier, got {token.value!r} in: {self._sql}")
        return token.value

    # -- entry point --------------------------------------------------------

    def parse(self) -> ast.SelectStatement:
        """Parse the statement; a SELECT is the only statement accepted.

        Anything else raises :class:`ParseError` here, before a caller
        can touch a table with it.
        """
        if not self._peek().matches_keyword("SELECT"):
            raise ParseError(f"unsupported statement: {self._sql}")
        statement = self._parse_select()
        self._accept_punct(";")
        if self._peek().type is not TokenType.EOF:
            raise ParseError(f"trailing tokens after statement: {self._sql}")
        return statement

    # -- statements ---------------------------------------------------------

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        select_star = False
        items: list = []
        if self._peek().type is TokenType.STAR:
            self._advance()
            select_star = True
        else:
            items.append(self._parse_select_item())
            while self._accept_punct(","):
                items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        table = self._expect_identifier()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        group_by: list[str] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expect_identifier())
            while self._accept_punct(","):
                group_by.append(self._expect_identifier())
        order_by = None
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            column = self._expect_identifier()
            descending = False
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
            order_by = ast.OrderBy(column=column, descending=descending)
        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._advance()
            if token.type is not TokenType.NUMBER:
                raise ParseError(f"LIMIT expects a number, got {token.value!r}")
            limit = int(float(token.value))
        return ast.SelectStatement(
            table=table,
            items=tuple(items),
            where=where,
            group_by=tuple(group_by),
            order_by=order_by,
            limit=limit,
            select_star=select_star,
        )

    def _parse_select_item(self):
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in _AGGREGATE_FUNCTIONS:
            function = self._advance().value
            self._expect_punct("(")
            if self._peek().type is TokenType.STAR:
                self._advance()
                argument = None
                if function != "COUNT":
                    raise ParseError(f"{function}(*) is not supported")
            else:
                argument = self._expect_identifier()
            self._expect_punct(")")
            alias = self._parse_optional_alias()
            return ast.Aggregate(function=function, argument=argument, alias=alias)
        column = self._expect_identifier()
        alias = self._parse_optional_alias()
        return ast.SelectItem(column=column, alias=alias)

    def _parse_optional_alias(self) -> str | None:
        if self._accept_keyword("AS"):
            return self._expect_identifier()
        return None

    # -- expressions ----------------------------------------------------------

    def _parse_expression(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self._accept_keyword("OR"):
            right = self._parse_and()
            left = ast.BooleanOp(operator="OR", left=left, right=right)
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self._accept_keyword("AND"):
            right = self._parse_not()
            left = ast.BooleanOp(operator="AND", left=left, right=right)
        return left

    def _parse_not(self):
        if self._accept_keyword("NOT"):
            return ast.NotOp(operand=self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self):
        if self._accept_punct("("):
            inner = self._parse_expression()
            self._expect_punct(")")
            return inner
        operand = self._parse_operand()
        token = self._peek()
        if token.matches_keyword("BETWEEN"):
            self._advance()
            low = self._parse_operand()
            self._expect_keyword("AND")
            high = self._parse_operand()
            return ast.BetweenOp(operand=operand, low=low, high=high)
        if token.matches_keyword("IN"):
            self._advance()
            self._expect_punct("(")
            choices = [self._parse_literal_value()]
            while self._accept_punct(","):
                choices.append(self._parse_literal_value())
            self._expect_punct(")")
            return ast.InOp(operand=operand, choices=tuple(choices))
        if token.matches_keyword("IS"):
            self._advance()
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNullOp(operand=operand, negated=negated)
        if token.matches_keyword("LIKE"):
            self._advance()
            pattern_token = self._advance()
            if pattern_token.type is not TokenType.STRING:
                raise ParseError("LIKE expects a string pattern")
            return ast.LikeOp(operand=operand, pattern=pattern_token.value)
        if token.type is TokenType.OPERATOR:
            operator = self._advance().value
            right = self._parse_operand()
            return ast.Comparison(left=operand, operator=operator, right=right)
        raise ParseError(f"expected a predicate at {token.value!r} in: {self._sql}")

    def _parse_operand(self):
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return ast.ColumnRef(name=token.value)
        return ast.Literal(value=self._parse_literal_value())

    def _parse_literal_value(self):
        token = self._advance()
        if token.type is TokenType.NUMBER:
            text = token.value
            is_float = "." in text or "e" in text or "E" in text
            return float(text) if is_float else int(text)
        if token.type is TokenType.STRING:
            return token.value
        if token.matches_keyword("NULL"):
            return None
        if token.matches_keyword("TRUE"):
            return True
        if token.matches_keyword("FALSE"):
            return False
        raise ParseError(f"expected a literal, got {token.value!r} in: {self._sql}")


def parse_statement(sql: str) -> ast.SelectStatement:
    """Parse one SELECT statement string into its AST node."""
    return Parser(sql).parse()


@lru_cache(maxsize=256)
def parse_statement_cached(sql: str) -> ast.SelectStatement:
    """Memoized :func:`parse_statement` for the compiled answer path.

    AST nodes are frozen dataclasses, so a cached statement is safe to
    share across every client database in the process (and it doubles as
    the plan-cache key in :mod:`repro.sqldb.compile`).  The forced-scan
    reference path deliberately keeps calling :func:`parse_statement`:
    its per-call cost profile stays frozen alongside its semantics.
    """
    return parse_statement(sql)
