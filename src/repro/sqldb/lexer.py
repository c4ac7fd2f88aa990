"""SQL tokenizer for the mini SQL engine."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.sqldb.errors import ParseError

# The parser only accepts SELECT; the other statements' keywords stay
# reserved so that every SELECT tokenizes as before (a column named
# ``drop`` is still refused).
KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO", "VALUES",
    "CREATE", "TABLE", "ORDER", "BY", "ASC", "DESC", "LIMIT", "GROUP",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "AS", "BETWEEN", "IN", "LIKE",
    "IS", "NULL", "TRUE", "FALSE", "DELETE", "DROP",
}


class TokenType(Enum):
    KEYWORD = auto()
    IDENTIFIER = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCT = auto()
    STAR = auto()
    EOF = auto()


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def matches_keyword(self, keyword: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == keyword.upper()


_OPERATORS = ["<=", ">=", "<>", "!=", "=", "<", ">"]
_PUNCTUATION = "(),;."


def tokenize(sql: str) -> list[Token]:
    """Tokenize a SQL statement into a flat list of tokens ending with EOF."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'" or ch == '"':
            end = sql.find(ch, i + 1)
            if end == -1:
                raise ParseError(f"unterminated string literal at position {i}")
            tokens.append(Token(TokenType.STRING, sql[i + 1:end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and sql[i + 1].isdigit() and _number_context(tokens)):
            j = i + 1
            while j < n and (sql[j].isdigit() or sql[j] == "."):
                j += 1
            # Scientific notation: 1.5e-3, 2E+10, 7e5.
            if j < n and sql[j] in "eE":
                k = j + 1
                if k < n and sql[k] in "+-":
                    k += 1
                if k < n and sql[k].isdigit():
                    while k < n and sql[k].isdigit():
                        k += 1
                    j = k
            tokens.append(Token(TokenType.NUMBER, sql[i:j], i))
            i = j
            continue
        matched_op = None
        for op in _OPERATORS:
            if sql.startswith(op, i):
                matched_op = op
                break
        if matched_op:
            tokens.append(Token(TokenType.OPERATOR, matched_op, i))
            i += len(matched_op)
            continue
        if ch == "*":
            tokens.append(Token(TokenType.STAR, "*", i))
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _number_context(tokens: list[Token]) -> bool:
    """A leading '-' starts a number only if the previous token is not a value."""
    if not tokens:
        return True
    prev = tokens[-1]
    return prev.type in (TokenType.OPERATOR, TokenType.PUNCT, TokenType.KEYWORD)
