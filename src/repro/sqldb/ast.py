"""Abstract syntax tree node definitions for the mini SQL engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ColumnRef:
    """Reference to a column by name."""

    name: str


@dataclass(frozen=True)
class Literal:
    """A literal value (number, string, boolean or NULL)."""

    value: Any


@dataclass(frozen=True)
class Comparison:
    """A binary comparison, e.g. ``speed >= 10``."""

    left: "Expression"
    operator: str
    right: "Expression"


@dataclass(frozen=True)
class BooleanOp:
    """AND / OR over two sub-expressions."""

    operator: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class NotOp:
    """Logical negation."""

    operand: "Expression"


@dataclass(frozen=True)
class BetweenOp:
    """``expr BETWEEN low AND high`` (inclusive on both ends)."""

    operand: "Expression"
    low: "Expression"
    high: "Expression"


@dataclass(frozen=True)
class InOp:
    """``expr IN (v1, v2, ...)``."""

    operand: "Expression"
    choices: tuple


@dataclass(frozen=True)
class IsNullOp:
    """``expr IS [NOT] NULL``."""

    operand: "Expression"
    negated: bool = False


@dataclass(frozen=True)
class LikeOp:
    """``expr LIKE pattern`` with ``%`` and ``_`` wildcards, ASCII
    case-insensitive (:func:`repro.sqldb.compile.like_matcher`)."""

    operand: "Expression"
    pattern: str


Expression = Any  # union of the node classes above


@dataclass(frozen=True)
class SelectItem:
    """A plain projected column, optionally aliased."""

    column: str
    alias: str | None = None


@dataclass(frozen=True)
class SelectStatement:
    """Parsed ``SELECT cols | * FROM table [WHERE predicate]``."""

    table: str
    items: tuple  # of SelectItem; empty for ``*``
    where: Expression | None = None
    select_star: bool = False
