"""Predicate compiler: lowers a SELECT's WHERE clause once per process.

The row-scan engine re-walks the WHERE AST per row per query per client
(:func:`repro.sqldb.engine._evaluate`); a deployment answering N clients
× Q queries per epoch pays that interpretation N×Q times for the same
statement.  This module lowers each statement *once* into a
:class:`CompiledSelect` — a column probe plus a residual closure —
cached globally by ``(statement, schema)``, so every client sharing a
schema (all of them, in a PrivApprox deployment) reuses one compilation.
This is the same batch-vs-scalar-reference discipline used for the block
builder (``ResponseBlock.build``, pinned row by row to the per-answer
``AnswerCodec.encrypt``) and ``join_shares_batch``: the scan engine stays
the frozen reference, and the differential suite proves the compiled path
equal row-for-row.

**What compiles.**  Every statement the parser accepts — ``SELECT cols |
* FROM t [WHERE ...]``, the one shape a client asks — whose projected
names the schema holds.  A projected name resolves case-insensitively,
as WHERE's names do (:class:`_SchemaView`), and the output column keeps
the name as written.  A name the schema lacks raises
:class:`CompileFallback` (cached like a plan, once per ``(statement,
schema)``) and the row scan raises its ``SchemaError``, so the compiled
path never mirrors the scan's projection errors.

**Probe selection.**  The WHERE clause is split into its top-level AND
conjuncts (the parser builds left-deep trees, so conjunct order equals
the scan engine's short-circuit evaluation order).  Only the *first*
conjunct may become a probe: the scan engine stops evaluating a
row at its first false conjunct, so skipping later conjuncts for rows
the probe rejects is exactly what the reference does — whereas probing a
*later* conjunct would skip evaluations the reference performs (and
with them any per-row errors it would raise).  A probe is one
comprehension over the column's
:class:`~repro.sqldb.columnar.ColumnVector` that skips NULL, compares
with the literal and returns the matching row ids in ascending order:

* ``col = literal`` / ``literal = col`` → a point
* ``col IN (...)`` → a non-NULL ``value in choices``, as under the scan
  engine (a NULL row never matches)
* ``col < | <= | > | >= literal`` and ``col BETWEEN lit AND lit`` → a
  range

A probe is compiled only when every literal orders against the column's
declared type.  A mismatched literal falls through to the residual
closure, which returns what the reference returns: no rows for ``=`` and
``IN``, and the same ``TypeError`` for an ordering.  A column whose rows
skipped ingest coercion may still raise ``TypeError`` inside the probe;
the pass then tests the probe conjunct row by row instead.

Everything else — the remaining conjuncts, or the whole clause when the
first conjunct is not probeable — compiles to nested closures over the
columnar arrays with *identical* semantics to the scan evaluator,
``NULL`` propagation, unknown-column errors and all.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.sqldb import ast
from repro.sqldb.errors import ExecutionError

if TYPE_CHECKING:
    from repro.sqldb.columnar import ArenaTable


class CompileFallback(Exception):
    """The statement cannot be compiled; the caller must use the row scan."""


_COMPARISONS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@functools.lru_cache(maxsize=256)
def like_matcher(pattern: str) -> Callable[[str], Any]:
    """SQLite's ``LIKE`` for one pattern, as a compiled regex's ``fullmatch``.

    ``%`` matches any run of characters (newlines included) and ``_`` any
    one character; every other character matches itself, ``*``, ``?`` and
    ``[`` included.  ASCII letters match either case, every other character
    only itself — SQLite's default, the same on every platform.  The row
    scan and the compiled path both call this, so they cannot drift apart.
    """
    regex = "".join(
        ".*" if char == "%" else "." if char == "_" else re.escape(char) for char in pattern
    )
    return re.compile(regex, re.DOTALL | re.IGNORECASE | re.ASCII).fullmatch


def like_text(value: Any) -> str:
    """A non-NULL value as the text SQLite's ``LIKE`` matches it against.

    TEXT is itself, a BOOLEAN reads ``1`` / ``0`` and an INTEGER its
    decimal digits.  A REAL takes SQLite's ``%!.15g`` form: 15 significant
    digits, always a decimal point (``1.0``, ``1.0e+16``), ``0.0`` for
    either zero and ``Inf`` / ``-Inf`` past the range.  The last digit is
    rounded correctly here; SQLite rounds in its platform's ``long
    double``, so when the digits past the 15th are (within that error) a
    tie, its last digit may differ.  The row scan and the compiled path
    both call this before :func:`like_matcher`.
    """
    if type(value) is str:
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if not isinstance(value, float) or math.isnan(value):
        return str(value)
    if value == 0:
        return "0.0"
    if math.isinf(value):
        return "Inf" if value > 0 else "-Inf"
    mantissa, exponent_mark, exponent = f"{value:.15g}".partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    return mantissa + exponent_mark + exponent


# Operator flips for ``literal op column`` probes: ``5 < x`` is ``x > 5``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!=", "<>": "<>"}

_NUMERIC_TYPES = frozenset({"INTEGER", "INT", "REAL", "FLOAT", "DOUBLE", "BOOLEAN", "BOOL"})
_TEXT_TYPES = frozenset({"TEXT", "VARCHAR"})

# fn(arrays, row_id) -> value, the compiled form of one AST expression.
ValueFn = Callable[[dict, int], Any]


class _SchemaView:
    """Column resolution for one schema, mirroring the scan engine's rules:
    a name resolves case-insensitively (a table's names are unique that
    way, as in SQLite) to the column's declared name."""

    def __init__(self, schema: Sequence[tuple[str, str]]):
        self.names = [name for name, _ in schema]
        self.types = {name: sql_type for name, sql_type in schema}
        self._lowered = {name.lower(): name for name in self.names}

    def resolve(self, name: str) -> str | None:
        """Storage name for a projected or WHERE name, or None when unknown."""
        return self._lowered.get(name.lower())

    def sql_type(self, storage_name: str) -> str:
        return self.types[storage_name].upper()


def _literal_comparable(sql_type: str, value: Any) -> bool:
    """Whether ``value`` orders against every value of the column.

    The one gate for every probe: a probe compares the column's values
    with the literal in one comprehension, in place of the scan engine's
    per-row evaluation, so the column's declared type and the literal must
    order under Python without a ``TypeError``.  NaN literals cannot be
    produced by the SQL lexer.
    """
    if sql_type in _NUMERIC_TYPES:
        return isinstance(value, (int, float))
    if sql_type in _TEXT_TYPES:
        return isinstance(value, str)
    return False


# -- expression lowering -------------------------------------------------------


def _unknown_column(name: str) -> ValueFn:
    def raise_unknown(arrays: dict, row_id: int) -> Any:
        raise ExecutionError(f"unknown column in expression: {name}")

    return raise_unknown


def _compile_value(node: Any, schema: _SchemaView) -> ValueFn:
    """Lower one expression node into a closure over the columnar arrays.

    Each closure reproduces :func:`repro.sqldb.engine._evaluate_value` on
    one row exactly — including evaluation order, NULL propagation, and
    errors raised mid-row — with the row dict replaced by positional
    reads from the parallel arrays.
    """
    if isinstance(node, ast.Literal):
        value = node.value
        return lambda arrays, row_id: value
    if isinstance(node, ast.ColumnRef):
        storage = schema.resolve(node.name)
        if storage is None:
            return _unknown_column(node.name)
        return lambda arrays, row_id: arrays[storage][row_id]
    if isinstance(node, ast.Comparison):
        compare = _COMPARISONS[node.operator]
        left = _compile_value(node.left, schema)
        right = _compile_value(node.right, schema)

        def compiled_comparison(arrays: dict, row_id: int) -> bool:
            left_value = left(arrays, row_id)
            right_value = right(arrays, row_id)
            if left_value is None or right_value is None:
                return False
            return compare(left_value, right_value)

        return compiled_comparison
    if isinstance(node, ast.BooleanOp):
        left = _compile_value(node.left, schema)
        right = _compile_value(node.right, schema)
        if node.operator == "AND":
            return lambda arrays, row_id: (
                bool(left(arrays, row_id)) and bool(right(arrays, row_id))
            )
        return lambda arrays, row_id: (
            bool(left(arrays, row_id)) or bool(right(arrays, row_id))
        )
    if isinstance(node, ast.NotOp):
        operand = _compile_value(node.operand, schema)
        return lambda arrays, row_id: not bool(operand(arrays, row_id))
    if isinstance(node, ast.BetweenOp):
        value_fn = _compile_value(node.operand, schema)
        low_fn = _compile_value(node.low, schema)
        high_fn = _compile_value(node.high, schema)

        def compiled_between(arrays: dict, row_id: int) -> bool:
            # Evaluation order matches the scan engine: operand, low,
            # high are all evaluated before the NULL check, so an
            # unknown-column error in a bound surfaces even for NULL rows.
            value = value_fn(arrays, row_id)
            low = low_fn(arrays, row_id)
            high = high_fn(arrays, row_id)
            if value is None or low is None or high is None:
                return False
            return low <= value <= high

        return compiled_between
    if isinstance(node, ast.InOp):
        value_fn = _compile_value(node.operand, schema)
        choices = node.choices

        def compiled_in(arrays: dict, row_id: int) -> bool:
            value = value_fn(arrays, row_id)
            return value is not None and value in choices

        return compiled_in
    if isinstance(node, ast.IsNullOp):
        value_fn = _compile_value(node.operand, schema)
        if node.negated:
            return lambda arrays, row_id: value_fn(arrays, row_id) is not None
        return lambda arrays, row_id: value_fn(arrays, row_id) is None
    # The parser makes no other node: what is left is LIKE.
    value_fn = _compile_value(node.operand, schema)
    match = like_matcher(node.pattern)

    def compiled_like(arrays: dict, row_id: int) -> bool:
        value = value_fn(arrays, row_id)
        if value is None:
            return False
        return match(like_text(value)) is not None

    return compiled_like


# -- column probes ------------------------------------------------------------


class _EmptyProbe:
    """A probe that can never match (e.g. ``col = NULL``)."""

    def ids(self, arena: "ArenaTable") -> list[int]:
        return []

    def describe(self) -> str:
        return "empty"


class _InProbe:
    """``col IN (...)``: the rows whose non-NULL value is in the choices, as
    the scan engine selects them (a NULL row never matches, a ``NULL``
    choice matches nothing)."""

    def __init__(self, column: str, choices: tuple):
        self.column = column
        self.choices = choices

    def ids(self, arena: "ArenaTable") -> list[int]:
        choices = self.choices
        return [
            row_id
            for row_id, value in enumerate(arena.column(self.column))
            if value is not None and value in choices
        ]

    def describe(self) -> str:
        return f"probe-in({self.column})"


class _RangeProbe:
    """``col op literal`` (``=``, ``<``, ``<=``, ``>``, ``>=``) or ``col
    BETWEEN low AND high``.

    NULL rows never match, and NaN rows fail every comparison, as under the
    scan engine.
    """

    def __init__(self, column: str, op: str, low: Any, high: Any = None):
        self.column = column
        self.op = op
        self.low = low
        self.high = high

    def ids(self, arena: "ArenaTable") -> list[int]:
        values = enumerate(arena.column(self.column))
        op, low = self.op, self.low
        if op == "=":
            return [i for i, v in values if v is not None and v == low]
        if op == "<":
            return [i for i, v in values if v is not None and v < low]
        if op == "<=":
            return [i for i, v in values if v is not None and v <= low]
        if op == ">":
            return [i for i, v in values if v is not None and v > low]
        if op == ">=":
            return [i for i, v in values if v is not None and v >= low]
        high = self.high
        return [i for i, v in values if v is not None and low <= v <= high]

    def describe(self) -> str:
        kind = "eq" if self.op == "=" else "range"
        return f"probe-{kind}({self.column})"


def _split_conjuncts(node: Any) -> list:
    """Flatten a left-deep AND tree into scan-evaluation order."""
    if isinstance(node, ast.BooleanOp) and node.operator == "AND":
        return _split_conjuncts(node.left) + _split_conjuncts(node.right)
    return [node]


def _column_and_literal(node: ast.Comparison, schema: _SchemaView):
    """Match ``col op literal`` or ``literal op col`` (operator flipped)."""
    if isinstance(node.left, ast.ColumnRef) and isinstance(node.right, ast.Literal):
        storage = schema.resolve(node.left.name)
        if storage is not None:
            return storage, node.operator, node.right.value
    if isinstance(node.left, ast.Literal) and isinstance(node.right, ast.ColumnRef):
        storage = schema.resolve(node.right.name)
        if storage is not None:
            return storage, _FLIPPED[node.operator], node.left.value
    return None


def _probe_for(conjunct: Any, schema: _SchemaView):
    """A column probe equivalent to the conjunct, or None.

    Soundness bar: the probe must select *exactly* the rows on which the
    scan engine evaluates the conjunct truthy, and the scan evaluation of
    this conjunct must be exception-free on every coerced row (a probe
    that raises ``TypeError`` hands the rows back to that evaluation).
    """
    if isinstance(conjunct, ast.Comparison):
        match = _column_and_literal(conjunct, schema)
        if match is None:
            return None
        column, op, value = match
        if op == "=" and value is None:
            return _EmptyProbe()  # NULL = NULL is false under _compare
        if not _literal_comparable(schema.sql_type(column), value):
            return None
        if op in ("!=", "<>"):
            return None  # matches nearly every row: nothing to narrow
        return _RangeProbe(column, op, value)
    if isinstance(conjunct, ast.BetweenOp):
        if not (
            isinstance(conjunct.operand, ast.ColumnRef)
            and isinstance(conjunct.low, ast.Literal)
            and isinstance(conjunct.high, ast.Literal)
        ):
            return None
        storage = schema.resolve(conjunct.operand.name)
        if storage is None:
            return None
        sql_type = schema.sql_type(storage)
        low, high = conjunct.low.value, conjunct.high.value
        if not (
            _literal_comparable(sql_type, low) and _literal_comparable(sql_type, high)
        ):
            return None
        # Equal bounds make a point, probed like ``=``.
        if low == high:
            return _RangeProbe(storage, "=", low)
        return _RangeProbe(storage, "between", low, high)
    if isinstance(conjunct, ast.InOp):
        if not isinstance(conjunct.operand, ast.ColumnRef):
            return None
        storage = schema.resolve(conjunct.operand.name)
        if storage is None:
            return None
        sql_type = schema.sql_type(storage)
        if not all(
            _literal_comparable(sql_type, choice)
            for choice in conjunct.choices
            if choice is not None
        ):
            return None
        return _InProbe(storage, conjunct.choices)
    return None


# -- the compiled plan --------------------------------------------------------


class CompiledSelect:
    """One statement's lowered plan, bound to a schema.

    A projected name the schema lacks raises :class:`CompileFallback` here
    (see "What compiles" above).  The plan records the result's column
    names (:attr:`columns`, as written) and the table columns they read
    (:attr:`sources`, resolved), ``*`` in schema order.

    Stateless with respect to any particular table *instance*: the plan
    captures column names and closures only, so every arena sharing the
    schema — a shard's, or a lone database's one-slot arena — evaluates
    the same plan (:class:`~repro.sqldb.columnar.ArenaTable`).
    """

    def __init__(self, statement: ast.SelectStatement, schema: _SchemaView):
        if statement.select_star:
            self.columns = self.sources = tuple(schema.names)
        else:
            self.columns = tuple(item.alias or item.column for item in statement.items)
            self.sources = tuple(schema.resolve(item.column) for item in statement.items)
            if None in self.sources:
                raise CompileFallback("a projected column is not in the schema")
        self.statement = statement
        self.schema = schema
        self.probe = None
        # The probe's conjunct as a row predicate: selects among the rows a
        # standing answer folds in (matching_ids_per_client's ``start``),
        # and every row when the probe raises ``TypeError``.
        self.probe_row: ValueFn | None = None
        self.residual: ValueFn | None = None
        where = statement.where
        if where is not None:
            conjuncts = _split_conjuncts(where)
            self.probe = _probe_for(conjuncts[0], schema)
            if self.probe is not None:
                self.probe_row = _compile_value(conjuncts[0], schema)
            rest = conjuncts[1:] if self.probe is not None else conjuncts
            if rest:
                compiled = [_compile_value(conjunct, schema) for conjunct in rest]
                if len(compiled) == 1:
                    single = compiled[0]

                    def residual(arrays: dict, row_id: int) -> bool:
                        return bool(single(arrays, row_id))

                else:

                    def residual(arrays: dict, row_id: int) -> bool:
                        # all() short-circuits left-to-right, matching the
                        # scan engine's nested-AND evaluation order.
                        return all(bool(fn(arrays, row_id)) for fn in compiled)

                self.residual = residual

    def matching_ids_per_client(self, arena, start: int = 0) -> list:
        """One pass over a whole shard's arena, split back per member slot.

        ``arena`` is an :class:`~repro.sqldb.columnar.ArenaTable`.  Returns
        one entry per member slot: a list/array of arena row ids satisfying
        WHERE (ascending — arena ids within a slot follow that member's
        local row order), an ``Exception`` the member's own evaluation
        would have raised (residual errors stay per-member: a bad row in
        one member's table must not poison its neighbors), or ``None`` for
        excluded slots (missing table / mixed schema — answered
        per-client by the caller).  Id sequences are read-only: they may
        alias the arena's span table.

        Probe semantics are exactly a member-by-member evaluation's: the
        probe selects the rows on which the first conjunct is truthy, the
        residual is then evaluated only on those rows, in each member's
        row order — so per-member results *and* per-member errors match
        what each member's own one-slot arena answers, outcome for
        outcome.

        ``start`` restricts the pass to arena rows ``start..count-1`` —
        the tail appends a standing answer folds in
        (:meth:`ArenaTable.standing_latest
        <repro.sqldb.columnar.ArenaTable.standing_latest>`).  Those rows
        are tested with the probe conjunct as a row predicate
        (:attr:`probe_row`) instead of the probe, then the residual runs on
        them exactly as above.
        """
        slot_rows = arena.slot_rows
        arrays = arena.arrays()
        probed = None
        # slot -> (row id, exception) of the slot's first row whose probe
        # conjunct raised: the member's own scan dies there, for itself only.
        raised: dict[int, tuple[int, Exception]] = {}
        if self.probe is not None and not start:
            try:
                probed = self.probe.ids(arena)
            except TypeError:
                # Rows that skipped ingest coercion (``Table.append_rows``
                # takes them as given) can leave values that do not order
                # against the literal: test the probe conjunct row by row, as
                # the scan does, so the error stays with its own member.
                pass
        if probed is not None:
            if len(slot_rows) == 1:  # a one-slot arena: every probed id is its own
                buckets = [None if slot_rows[0] is None else probed]
            else:
                row_slot = arena.row_slot
                buckets = [None if ids is None else [] for ids in slot_rows]
                for row_id in probed:
                    buckets[row_slot[row_id]].append(row_id)
        elif start or self.probe is not None:
            probe_row = self.probe_row
            row_slot = arena.row_slot
            appended: dict[int, list[int]] = {}
            for row_id in range(start, arena.count):
                try:
                    if probe_row is not None and not probe_row(arrays, row_id):
                        continue
                except Exception as exc:  # noqa: BLE001 — error parity is the contract
                    raised.setdefault(row_slot[row_id], (row_id, exc))
                    continue
                appended.setdefault(row_slot[row_id], []).append(row_id)
            for slot, (row_id, _) in raised.items():
                appended[slot] = [early for early in appended.get(slot, ()) if early < row_id]
            buckets = [
                ids if ids is None else appended.get(slot, ())
                for slot, ids in enumerate(slot_rows)
            ]
        else:
            # Every member's candidates are all of its own rows (read-only
            # aliases of the arena's span table).
            buckets = list(slot_rows)
        residual = self.residual
        if residual is not None:
            buckets = [
                ids if not ids else _filter_residual(residual, arrays, ids) for ids in buckets
            ]
        for slot, (_, exc) in raised.items():
            # The residual's error on an earlier row comes first in the scan.
            if buckets[slot] is not None and not isinstance(buckets[slot], Exception):
                buckets[slot] = exc
        return buckets

    def describe(self) -> str:
        """Human-readable plan shape (tests and debugging)."""
        if self.statement.where is None:
            return "all"
        parts = []
        if self.probe is not None:
            parts.append(self.probe.describe())
        if self.residual is not None:
            parts.append("residual")
        return "+".join(parts) if parts else "all"


def _filter_residual(residual: ValueFn, arrays: dict, row_ids):
    """Filter one member's candidate ids through the residual closure.

    Returns the surviving ids, or the first exception the residual raised —
    the same exception, at the same row, that the member's own row scan
    would surface (it dies at its first error too).
    """
    try:
        return [row_id for row_id in row_ids if residual(arrays, row_id)]
    except Exception as exc:  # noqa: BLE001 — error parity is the contract
        return exc


# One plan per (statement, schema) per process.  Bounded LRU: a runaway
# workload (the fuzz suite generates thousands of distinct statements)
# must not grow the cache without limit, but eviction is oldest-first —
# the hot steady-state plans (a handful of statements shared by every
# client, and shard-wide by the arena path) survive any number of cold
# compilations.  The lock makes lookup/insert safe under the
# pipelined-overlap/in-process scheduler, whose answer tasks compile from
# pool threads.
_PLAN_CACHE: OrderedDict = OrderedDict()
_PLAN_CACHE_MAX = 512
_PLAN_CACHE_LOCK = threading.Lock()
_FALLBACK = object()


def schema_signature(columns) -> tuple:
    """Hashable schema identity: ordered (name, declared type) pairs."""
    return tuple((column.name, column.sql_type.upper()) for column in columns)


def _store_plan(key, value) -> None:
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE[key] = value
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)


def plan_for(statement: ast.SelectStatement, columns) -> CompiledSelect:
    """The cached compiled plan for a statement against a schema.

    Raises :class:`CompileFallback` when the statement cannot be
    compiled (the negative result is cached too, and kept warm by the
    same LRU discipline).  Compilation happens outside the lock — two
    threads racing on a cold key may both compile, and the last insert
    wins; plans are stateless, so either copy is correct.
    """
    key = (statement, schema_signature(columns))
    with _PLAN_CACHE_LOCK:
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            _PLAN_CACHE.move_to_end(key)
    if cached is _FALLBACK:
        raise CompileFallback("statement previously failed to compile")
    if cached is not None:
        return cached
    schema = _SchemaView([(column.name, column.sql_type) for column in columns])
    try:
        plan = CompiledSelect(statement, schema)
    except CompileFallback:
        _store_plan(key, _FALLBACK)
        raise
    _store_plan(key, plan)
    return plan
