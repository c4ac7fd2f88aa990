"""Execution engine for the mini SQL database.

The one statement is ``SELECT cols | * FROM t [WHERE predicate]``, and two
paths share its semantics:

* the **row scan** (:meth:`Database.query`) — the frozen reference: the
  WHERE AST interpreted per row dict, then the projection; and
* the **compiled columnar** path (:func:`arena_select_per_client`) — column
  probes plus closures from :mod:`repro.sqldb.compile` evaluated over an
  :class:`~repro.sqldb.columnar.ArenaTable`, a whole shard's or a lone
  database's one-slot arena.  It answers one question, the one a client
  asks: each asked slot's standing latest row, and one routine
  (:func:`_projection`) builds every result it returns.

A client reads through the compiled path and goes to the row scan for what
it does not answer (a missing table or projected column);
``SQLDB_FORCE_SCAN=1`` in the environment sends it straight to the row
scan, which pins the reference.  The differential suite in
``tests/sqldb/test_engine_properties.py`` holds the compiled path's match
set to the row scan's rows and its standing answer to their last row.
"""

from __future__ import annotations

import os
import weakref
from typing import Any

from repro.sqldb import ast
from repro.sqldb.columnar import ShardArena
from repro.sqldb.compile import CompileFallback, like_matcher, like_text, plan_for
from repro.sqldb.errors import ExecutionError, SchemaError
from repro.sqldb.parser import parse_statement, parse_statement_cached
from repro.sqldb.table import Column, Table, tick


def _env_flag(name: str) -> bool:
    """Whether an environment switch is set (checked per call, never cached,
    so tests and operators can flip it mid-process)."""
    return os.environ.get(name, "") not in ("", "0", "false", "False")


def per_client_forced() -> bool:
    """Whether ``SQLDB_FORCE_PER_CLIENT`` pins the per-client compiled path.

    The middle oracle of the differential ladder: shard arenas are
    disabled, but each client still answers on the compiled columnar path,
    over its own one-slot arena (``SQLDB_FORCE_SCAN`` pins the row-scan
    reference below both).
    """
    return _env_flag("SQLDB_FORCE_PER_CLIENT")


def scan_forced() -> bool:
    """Whether ``SQLDB_FORCE_SCAN`` pins the row-scan reference: no arena is
    built or asked, and every client answers on :meth:`Database.query`."""
    return _env_flag("SQLDB_FORCE_SCAN")


def arena_answering_enabled() -> bool:
    """Whether the shard-wide arena answer path may be used at all."""
    return not per_client_forced() and not scan_forced()


def cached_shard_arena(
    cache: dict[int, ShardArena], shard_index: int, databases: list[Database]
) -> ShardArena | None:
    """The arena ``cache`` holds for one shard, rebuilt when it went stale.

    The one arena cache rule: when arena answering is disabled or the shard
    has no databases, the cached arena is dropped and ``None`` returned;
    otherwise the cached arena is reused while it ``matches`` the databases
    (member identity — a new deployment or a replaced member rebuilds) and
    keeps syncing incrementally as rows are appended.
    """
    if not databases or not arena_answering_enabled():
        cache.pop(shard_index, None)
        return None
    arena = cache.get(shard_index)
    if arena is None or not arena.matches(databases):
        arena = ShardArena(databases)
        cache[shard_index] = arena
    return arena


#: Slot-level fallback marker from :func:`arena_select_per_client`: this
#: member must answer the statement itself (missing table or mixed schema).
ARENA_FALLBACK = object()


class ResultSet:
    """Result of a SELECT: ordered column names plus a list of row tuples."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Database:
    """An in-memory SQL database holding a set of named tables."""

    def __init__(self, name: str = "local"):
        self.name = name
        self._tables: dict[str, Table] = {}
        self._arena: ShardArena | None = None

    # -- schema management ---------------------------------------------------

    def create_table(self, name: str, columns: list[tuple[str, str]]) -> Table:
        """Create a table from (column name, SQL type) pairs."""
        if name in self._tables:
            raise SchemaError(f"table {name} already exists")
        table = Table(name=name, columns=[Column(n, t) for n, t in columns])
        self._tables[name] = table
        tick()
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"table {name} does not exist")
        del self._tables[name]
        tick()

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise SchemaError(f"table {name} does not exist")
        return self._tables[name]

    def get_table(self, name: str) -> Table | None:
        """The named table, or ``None`` when absent (no exception).

        The shard-arena builder (:mod:`repro.sqldb.columnar`) probes many
        member databases for the same table name; members without it are
        excluded rather than erroring.
        """
        return self._tables.get(name)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def insert_rows(self, table_name: str, records: list[dict[str, Any]]) -> int:
        """Bulk-insert dictionaries into a table; returns the number inserted.

        One :meth:`Table.insert_records` call: converters are resolved once
        and the converted rows join the table in a single append, which a
        live columnar copy folds in incrementally (no rebuild).  A record
        with a bad value or an unknown column raises
        :class:`~repro.sqldb.errors.SchemaError`; the records before it
        stay inserted.
        """
        self.table(table_name).insert_records(records)
        return len(records)

    @property
    def arena(self) -> ShardArena:
        """This database's one-slot arena, the columnar copy a client's
        standing answers read (built on first use; its tables build on
        first ask).  :meth:`query` never touches it.

        The arena holds a weak proxy of the database, so the two form no
        reference cycle and a dropped database is freed at once.
        """
        if self._arena is None:
            self._arena = ShardArena([weakref.proxy(self)])
        return self._arena

    def sync_columnar(self) -> None:
        """Incrementally sync every columnar table already built.

        Tables never asked for are skipped — they stay lazy until first
        asked.  A client syncs its arena itself before it asks
        (:meth:`repro.core.client.Client.answer`); this stays as the one
        entry point a test or a profiler (``benchmarks/epoch_profile/tracer.py``
        traces it as ``sqldb.columnar.sync``) calls to sync a database on
        its own.
        """
        if self._arena is not None:
            self._arena.sync()

    # -- statement execution ---------------------------------------------------

    def query(self, sql: str) -> ResultSet:
        """Run one SELECT on the row scan and return its result set.

        The parser accepts nothing but a SELECT, so any other statement
        raises :class:`~repro.sqldb.errors.ParseError` before a table is
        touched.  The parse is cached unless ``SQLDB_FORCE_SCAN`` is set.
        No arena is built, synced or asked.
        """
        if scan_forced():
            statement = parse_statement(sql)
        else:
            statement = parse_statement_cached(sql)
        return self._execute_select(statement)

    # -- SELECT ------------------------------------------------------------------

    def _execute_select(self, stmt: ast.SelectStatement) -> ResultSet:
        """The frozen row-scan reference: one dict per row, AST walked per row.

        The WHERE filter runs first, then every projected name resolves once
        through :meth:`Table.column_index`, case-insensitively, as WHERE's
        names and SQLite's do (an unknown one raises
        :class:`~repro.sqldb.errors.SchemaError`, matched rows or not), and
        the matching rows are projected in table order.  An output column
        keeps its name as written, or its alias.
        """
        table = self.table(stmt.table)
        rows = [row for row in table.scan() if _evaluate(stmt.where, row)]
        names = table.column_names
        if stmt.select_star:
            out_columns = sources = names
        else:
            out_columns = [item.alias or item.column for item in stmt.items]
            sources = [names[table.column_index(item.column)] for item in stmt.items]
        return ResultSet(
            columns=out_columns, rows=[tuple(row[c] for c in sources) for row in rows]
        )


# -- expression evaluation ------------------------------------------------------


def _evaluate(expression, row: dict[str, Any]) -> bool:
    """Evaluate a WHERE expression against one row (None means 'match all')."""
    if expression is None:
        return True
    return bool(_evaluate_value(expression, row))


def _evaluate_value(node, row: dict[str, Any]):
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.ColumnRef):
        if node.name not in row:
            lowered = {k.lower(): v for k, v in row.items()}
            if node.name.lower() in lowered:
                return lowered[node.name.lower()]
            raise ExecutionError(f"unknown column in expression: {node.name}")
        return row[node.name]
    if isinstance(node, ast.Comparison):
        left = _evaluate_value(node.left, row)
        right = _evaluate_value(node.right, row)
        return _compare(left, node.operator, right)
    if isinstance(node, ast.BooleanOp):
        if node.operator == "AND":
            return _evaluate(node.left, row) and _evaluate(node.right, row)
        return _evaluate(node.left, row) or _evaluate(node.right, row)
    if isinstance(node, ast.NotOp):
        return not _evaluate(node.operand, row)
    if isinstance(node, ast.BetweenOp):
        value = _evaluate_value(node.operand, row)
        low = _evaluate_value(node.low, row)
        high = _evaluate_value(node.high, row)
        if value is None or low is None or high is None:
            return False
        return low <= value <= high
    if isinstance(node, ast.InOp):
        value = _evaluate_value(node.operand, row)
        return value is not None and value in node.choices
    if isinstance(node, ast.IsNullOp):
        value = _evaluate_value(node.operand, row)
        return (value is not None) if node.negated else (value is None)
    if isinstance(node, ast.LikeOp):
        value = _evaluate_value(node.operand, row)
        if value is None:
            return False
        return like_matcher(node.pattern)(like_text(value)) is not None
    raise ExecutionError(f"unsupported expression node: {type(node).__name__}")


def _compare(left, operator: str, right) -> bool:
    if left is None or right is None:
        return False
    if operator == "=":
        return left == right
    if operator in ("!=", "<>"):
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise ExecutionError(f"unsupported comparison operator: {operator}")


def arena_select_per_client(arena, sql: str, slots=None):
    """Each asked member's standing latest row for one SELECT, in one pass.

    The one compiled answer, and what every client read asks: a shard's
    answer pass over the shard's :class:`~repro.sqldb.columnar.ShardArena`,
    a client answering alone over its database's one-slot arena
    (:attr:`Database.arena`).  It reads the arena as last synced: a caller
    whose members' tables changed calls :meth:`ShardArena.sync
    <repro.sqldb.columnar.ShardArena.sync>` first, once for any number of
    asks.  Returns a list aligned with ``arena.databases`` where each entry
    is one of:

    * a :class:`ResultSet` — the columns of ``member.query(sql)`` over at
      most its last row (``rows == member.query(sql).rows[-1:]``), all a
      client reads of its result (the paper's "latest reading");
    * an :class:`Exception` instance — the error ``member.query(sql)``
      raises (equal by type and message);
    * :data:`ARENA_FALLBACK` — this member must answer itself (its table
      is missing or schema-mismatched against the arena), or it was not
      asked for, or ``SQLDB_FORCE_SCAN`` is set (read before any arena
      table is built, so the oracle mirrors nothing).

    ``slots`` (an iterable of slot indices, ascending) restricts the
    answer to those members — the epoch's participants: every other
    entry is :data:`ARENA_FALLBACK` and is never finished.

    Returns ``None`` for statement-level fallbacks (SQL that the parser
    refuses, no member defines the table, or a projected name the
    schema lacks): the caller must let every member answer itself on the
    row scan, which raises the error.
    Draw-neutral by construction — SQL evaluation consumes no
    randomness, so hoisting it shard-wide cannot shift any client's RNG
    or keystream state.

    It is a *standing* answer: the arena table keeps each slot's latest
    matching row id per plan (:meth:`ArenaTable.standing_latest
    <repro.sqldb.columnar.ArenaTable.standing_latest>`) and folds in only
    the rows appended since the last ask.  A slot's one-row outcome is
    kept with its standing row id and handed out again, the same object,
    until the id moves; an exception outcome is never kept.  Outcomes are
    read-only: empty slots share one outcome, and the outcomes of one ask
    share their column list and outlive it.
    """
    try:
        statement = parse_statement_cached(sql)
    except Exception:  # noqa: BLE001 - parse errors fall back per client
        return None
    outcomes: list = [ARENA_FALLBACK] * len(arena.databases)
    # The switch is read once per statement (never cached across statements),
    # before an arena table or a standing answer is built or folded.
    if scan_forced():
        return outcomes
    table = arena.table(statement.table)
    if table is None:
        return None
    try:
        plan = plan_for(statement, table.columns)
    except CompileFallback:
        return None
    asked = range(len(outcomes)) if slots is None else slots
    if not asked:
        return outcomes
    standing, finished = table.standing_latest(plan)
    project = None  # bound on first use: not when every slot holds a kept outcome
    for slot in asked:
        outcome = finished[slot]
        if outcome is None:
            row_id = standing[slot]
            if row_id is None:
                continue
            if isinstance(row_id, BaseException):
                # Handed out afresh: a raise must not grow a held traceback.
                outcome = row_id.with_traceback(None)
            else:
                project = project or _projection(plan, table)
                outcome = project(row_id)
                if row_id >= 0:
                    finished[slot] = outcome
        outcomes[slot] = outcome
    return outcomes


def _projection(plan, table):
    """The one routine that builds a compiled :class:`ResultSet`.

    Returns ``project(row_id)``: the plan's result columns over the arena
    row at ``row_id`` — a standing slot's latest row — or, for ``-1``, the
    empty outcome every non-matching slot of one ask shares.  The outcomes
    of one call share a column list.
    """
    columns = list(plan.columns)
    vectors = [table.column(name) for name in plan.sources]
    empty = ResultSet(columns, [])

    def project(row_id: int) -> ResultSet:
        if row_id < 0:
            return empty
        return ResultSet(columns, [tuple(vector[row_id] for vector in vectors)])

    return project
