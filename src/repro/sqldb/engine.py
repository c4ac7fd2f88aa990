"""Execution engine for the mini SQL database.

Two SELECT paths share one semantics:

* the **row scan** (:meth:`Database._execute_select_scan`) — the frozen
  reference, interpreting the WHERE AST per row dict; and
* the **compiled columnar** path (:func:`_select_per_slot`) — index probes
  plus closures from :mod:`repro.sqldb.compile` evaluated over an
  :class:`~repro.sqldb.columnar.ArenaTable`: a whole shard's
  (:func:`arena_select_per_client`) or a lone database's one-slot arena
  (:meth:`Database.query`).

The compiled path is the default; ``SQLDB_FORCE_SCAN=1`` in the
environment (or ``Database.force_scan = True``) pins the reference, and
statements the compiler cannot lower fall back to it automatically.  The
differential suite in ``tests/sqldb/test_engine_properties.py`` holds the
two paths row-for-row equal.
"""

from __future__ import annotations

import fnmatch
import os
import weakref
from typing import Any

from repro.sqldb import ast
from repro.sqldb.columnar import ShardArena
from repro.sqldb.compile import CompileFallback, plan_for
from repro.sqldb.errors import ExecutionError, SchemaError
from repro.sqldb.parser import parse_statement, parse_statement_cached
from repro.sqldb.table import Column, Table


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


def arena_answering_enabled() -> bool:
    """Whether the shard-wide arena answer path may be used at all."""
    return not per_client_forced() and not _env_flag("SQLDB_FORCE_SCAN")


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
#: member must answer the statement itself (missing table, mixed schema,
#: or a per-database ``force_scan`` pin).
ARENA_FALLBACK = object()


class ResultSet:
    """Result of a SELECT: ordered column names plus a list of row tuples."""

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = columns
        self.rows = rows

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() requires a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ExecutionError(f"result has no column {name}")
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Database:
    """An in-memory SQL database holding a set of named tables."""

    def __init__(self, name: str = "local"):
        self.name = name
        self._tables: dict[str, Table] = {}
        # Pins the row-scan reference path for this database regardless of
        # the SQLDB_FORCE_SCAN environment switch.
        self.force_scan = False
        self._arena: ShardArena | None = None

    # -- schema management ---------------------------------------------------

    def create_table(self, name: str, columns: list[tuple[str, str]]) -> Table:
        """Create a table from (column name, SQL type) pairs."""
        if name in self._tables:
            raise SchemaError(f"table {name} already exists")
        table = Table(name=name, columns=[Column(n, t) for n, t in columns])
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"table {name} does not exist")
        del self._tables[name]

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
        """This database's one-slot arena, the columnar copy its compiled
        SELECTs read (built on first use; its tables build on first query).

        The arena holds a weak proxy of the database, so the two form no
        reference cycle and a dropped database is freed at once.
        """
        if self._arena is None:
            self._arena = ShardArena([weakref.proxy(self)])
        return self._arena

    def sync_columnar(self) -> None:
        """Incrementally sync every columnar table already built.

        Tables never queried are skipped — they stay lazy until first
        queried.  The resident runtime calls this after applying each
        ``ShardDelta`` so index maintenance happens at ingest time, off
        the answer critical path.
        """
        if self._arena is not None:
            self._arena.sync()

    def _scan_forced(self) -> bool:
        """Whether the row-scan reference path is pinned.

        Checked per statement (not cached) so tests and operators can
        flip ``SQLDB_FORCE_SCAN`` mid-process; any value other than
        empty/``0``/``false`` pins the scan.
        """
        if self.force_scan:
            return True
        return _env_flag("SQLDB_FORCE_SCAN")

    # -- statement execution ---------------------------------------------------

    def query(self, sql: str) -> ResultSet:
        """Run one SELECT and return its result set.

        The parser accepts nothing but a SELECT, so any other statement
        raises :class:`~repro.sqldb.errors.ParseError` before a table is
        touched.
        """
        scan_forced = self._scan_forced()
        if scan_forced:
            statement = parse_statement(sql)
        else:
            statement = parse_statement_cached(sql)
        return self._execute_select(statement, scan_forced)

    # -- SELECT ------------------------------------------------------------------

    def _execute_select(self, stmt: ast.SelectStatement, scan_forced: bool) -> ResultSet:
        table = self.table(stmt.table)
        if not scan_forced:
            outcomes = _select_per_slot(self.arena, stmt, scan_forced=False)
            # None: the compiler cannot lower the statement; ARENA_FALLBACK:
            # a force_scan pin.  Both answer on the row scan.
            if outcomes is not None and outcomes[0] is not ARENA_FALLBACK:
                (outcome,) = outcomes
                if isinstance(outcome, BaseException):
                    raise outcome
                return outcome
        return self._execute_select_scan(stmt, table)

    def _execute_select_scan(self, stmt: ast.SelectStatement, table: Table) -> ResultSet:
        """The frozen row-scan reference: one dict per row, AST walked per row."""
        rows = [row for row in table.scan() if _evaluate(stmt.where, row)]

        if stmt.group_by:
            return self._execute_grouped(stmt, rows)

        has_aggregate = any(isinstance(item, ast.Aggregate) for item in stmt.items)
        if has_aggregate:
            if any(isinstance(item, ast.SelectItem) for item in stmt.items):
                raise ExecutionError(
                    "mixing plain columns and aggregates requires GROUP BY"
                )
            columns = [_aggregate_label(item) for item in stmt.items]
            values = tuple(_compute_aggregate(item, rows) for item in stmt.items)
            return ResultSet(columns=columns, rows=[values])

        if stmt.select_star:
            out_columns = table.column_names
            projected = [tuple(row[c] for c in out_columns) for row in rows]
        else:
            out_columns = [item.alias or item.column for item in stmt.items]
            source_columns = [item.column for item in stmt.items]
            for column in source_columns:
                table.column_index(column)  # validate existence
            projected = [tuple(row[c] for c in source_columns) for row in rows]

        if stmt.order_by is not None:
            order_column = stmt.order_by.column
            if stmt.select_star or order_column in out_columns:
                sort_key_rows = list(zip(projected, rows))
                sort_key_rows.sort(
                    key=lambda pair: _sort_key(pair[1][order_column]),
                    reverse=stmt.order_by.descending,
                )
                projected = [pair[0] for pair in sort_key_rows]
            else:
                pairs = sorted(
                    zip(projected, rows),
                    key=lambda pair: _sort_key(pair[1].get(order_column)),
                    reverse=stmt.order_by.descending,
                )
                projected = [pair[0] for pair in pairs]

        if stmt.limit is not None:
            projected = projected[: stmt.limit]
        return ResultSet(columns=out_columns, rows=projected)

    def _execute_grouped(self, stmt: ast.SelectStatement, rows: list[dict]) -> ResultSet:
        groups: dict[tuple, list[dict]] = {}
        for row in rows:
            key = tuple(row.get(col) for col in stmt.group_by)
            groups.setdefault(key, []).append(row)

        out_columns: list[str] = []
        for item in stmt.items:
            if isinstance(item, ast.SelectItem):
                if item.column not in stmt.group_by:
                    raise ExecutionError(
                        f"column {item.column} must appear in GROUP BY"
                    )
                out_columns.append(item.alias or item.column)
            else:
                out_columns.append(_aggregate_label(item))

        result_rows: list[tuple] = []
        for key in sorted(groups, key=lambda k: tuple(_sort_key(v) for v in k)):
            group_rows = groups[key]
            values = []
            for item in stmt.items:
                if isinstance(item, ast.SelectItem):
                    values.append(key[stmt.group_by.index(item.column)])
                else:
                    values.append(_compute_aggregate(item, group_rows))
            result_rows.append(tuple(values))
        if stmt.limit is not None:
            result_rows = result_rows[: stmt.limit]
        return ResultSet(columns=out_columns, rows=result_rows)


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
        if value is None:
            return False
        return low <= value <= high
    if isinstance(node, ast.InOp):
        value = _evaluate_value(node.operand, row)
        return value in node.choices
    if isinstance(node, ast.IsNullOp):
        value = _evaluate_value(node.operand, row)
        return (value is not None) if node.negated else (value is None)
    if isinstance(node, ast.LikeOp):
        value = _evaluate_value(node.operand, row)
        if value is None:
            return False
        pattern = node.pattern.replace("%", "*").replace("_", "?")
        return fnmatch.fnmatch(str(value), pattern)
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


def _sort_key(value):
    """Ordering key that tolerates None and mixed numeric values."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def _aggregate_label(item: ast.Aggregate) -> str:
    if item.alias:
        return item.alias
    argument = item.argument if item.argument is not None else "*"
    return f"{item.function.lower()}({argument})"


def _compute_aggregate_columnar(item: ast.Aggregate, arena, ids) -> Any:
    """:func:`_compute_aggregate` over an arena and matching row ids.

    Mirrors the reference exactly: the argument column is read by exact
    name (``row.get`` semantics — an unknown or case-mismatched column
    yields ``None`` for every row, so COUNT gives 0 and the rest give
    ``None``), values are consumed in row order, and AVG is ``sum/len``
    for float-identical results.
    """
    if item.function == "COUNT" and item.argument is None:
        return len(ids)
    argument = item.argument
    if argument is None or not arena.has_column(argument):
        return 0 if item.function == "COUNT" else None
    values = [value for value in arena.column(argument).take(ids) if value is not None]
    if item.function == "COUNT":
        return len(values)
    if not values:
        return None
    if item.function == "SUM":
        return sum(values)
    if item.function == "AVG":
        return sum(values) / len(values)
    if item.function == "MIN":
        return min(values)
    if item.function == "MAX":
        return max(values)
    raise ExecutionError(f"unsupported aggregate: {item.function}")


def _compute_aggregate(item: ast.Aggregate, rows: list[dict]):
    if item.function == "COUNT":
        if item.argument is None:
            return len(rows)
        return sum(1 for row in rows if row.get(item.argument) is not None)
    values = [row.get(item.argument) for row in rows if row.get(item.argument) is not None]
    if not values:
        return None
    if item.function == "SUM":
        return sum(values)
    if item.function == "AVG":
        return sum(values) / len(values)
    if item.function == "MIN":
        return min(values)
    if item.function == "MAX":
        return max(values)
    raise ExecutionError(f"unsupported aggregate: {item.function}")


def _finish_compiled_select(stmt: ast.SelectStatement, arena, ids) -> ResultSet:
    """Turn matching row ids into a :class:`ResultSet` for a compiled SELECT.

    ``arena`` is the :class:`~repro.sqldb.columnar.ArenaTable` the ids
    address (a shard's, or a lone database's one-slot arena, whose ids are
    the table's own row ids).  Every branch mirrors
    :meth:`Database._execute_select_scan` exactly — including its error
    behavior: projection and ORDER BY read columns by *exact* name from
    the row dict (``KeyError`` when absent and rows matched), after
    case-insensitive validation via ``column_index`` (``SchemaError``
    takes precedence); aggregates and GROUP BY use ``row.get`` (missing
    column → ``None``).
    """
    if stmt.group_by:
        return _grouped_compiled(stmt, arena, ids)

    has_aggregate = any(isinstance(item, ast.Aggregate) for item in stmt.items)
    if has_aggregate:
        if any(isinstance(item, ast.SelectItem) for item in stmt.items):
            raise ExecutionError(
                "mixing plain columns and aggregates requires GROUP BY"
            )
        columns = [_aggregate_label(item) for item in stmt.items]
        values = tuple(
            _compute_aggregate_columnar(item, arena, ids) for item in stmt.items
        )
        return ResultSet(columns=columns, rows=[values])

    if stmt.select_star:
        out_columns = source_columns = arena.column_names
    else:
        out_columns = [item.alias or item.column for item in stmt.items]
        source_columns = [item.column for item in stmt.items]
        for column in source_columns:
            arena.column_index(column)  # validate existence
    projected = []
    if ids:
        for column in source_columns:
            if not arena.has_column(column):
                raise KeyError(column)  # exact-name row access, as the scan does
        # Gathered a column at a time, then zipped into row tuples.
        columns = [arena.column(column).take(ids) for column in source_columns]
        projected = list(zip(*columns)) if columns else [()] * len(ids)

    if stmt.order_by is not None:
        order_column = stmt.order_by.column
        if stmt.select_star or order_column in out_columns:
            if projected and not arena.has_column(order_column):
                raise KeyError(order_column)
            if projected:
                order_vector = arena.column(order_column)
                pairs = sorted(
                    zip(projected, ids),
                    key=lambda pair: _sort_key(order_vector[pair[1]]),
                    reverse=stmt.order_by.descending,
                )
                projected = [pair[0] for pair in pairs]
        else:
            order_vector = (
                arena.column(order_column) if arena.has_column(order_column) else None
            )
            pairs = sorted(
                zip(projected, ids),
                key=lambda pair: _sort_key(
                    order_vector[pair[1]] if order_vector is not None else None
                ),
                reverse=stmt.order_by.descending,
            )
            projected = [pair[0] for pair in pairs]

    if stmt.limit is not None:
        projected = projected[: stmt.limit]
    return ResultSet(columns=out_columns, rows=projected)


def _grouped_compiled(stmt: ast.SelectStatement, arena, ids) -> ResultSet:
    group_vectors = [
        arena.column(column) if arena.has_column(column) else None
        for column in stmt.group_by
    ]
    groups: dict[tuple, list[int]] = {}
    for row_id in ids:
        key = tuple(
            vector[row_id] if vector is not None else None
            for vector in group_vectors
        )
        groups.setdefault(key, []).append(row_id)

    out_columns: list[str] = []
    for item in stmt.items:
        if isinstance(item, ast.SelectItem):
            if item.column not in stmt.group_by:
                raise ExecutionError(
                    f"column {item.column} must appear in GROUP BY"
                )
            out_columns.append(item.alias or item.column)
        else:
            out_columns.append(_aggregate_label(item))

    result_rows: list[tuple] = []
    for key in sorted(groups, key=lambda k: tuple(_sort_key(v) for v in k)):
        group_ids = groups[key]
        values = []
        for item in stmt.items:
            if isinstance(item, ast.SelectItem):
                values.append(key[stmt.group_by.index(item.column)])
            else:
                values.append(_compute_aggregate_columnar(item, arena, group_ids))
        result_rows.append(tuple(values))
    if stmt.limit is not None:
        result_rows = result_rows[: stmt.limit]
    return ResultSet(columns=out_columns, rows=result_rows)


#: Lazily-computed shared-empty-outcome marker in :func:`_select_per_slot`.
_UNSET = object()


def arena_select_per_client(arena, sql: str, latest: bool = False, slots=None):
    """Answer one SELECT for every member of a shard in a single pass.

    Probes the shard's :class:`~repro.sqldb.columnar.ShardArena` once and
    splits the matching arena row ids back into per-member outcomes via
    the span table.  Returns a list aligned with ``arena.databases``
    where each entry is one of:

    * a :class:`ResultSet` — the member's answer, identical (row-for-row
      and error-for-error) to what ``member.query(sql)`` would produce;
    * an :class:`Exception` instance — the error that member's own
      evaluation would raise (residual-predicate errors are captured per
      slot; finishing errors likewise);
    * :data:`ARENA_FALLBACK` — this member must answer itself (its table
      is missing or schema-mismatched against the arena, or the database
      pins ``force_scan``), or it was not asked for.

    ``slots`` (an iterable of slot indices, ascending) restricts the
    answer to those members — the epoch's participants: every other
    entry is :data:`ARENA_FALLBACK` and is never finished.

    Returns ``None`` for statement-level fallbacks (SQL that does not
    parse as a SELECT, no member defines the table, or the compiler cannot
    lower the statement): the caller must let every member answer
    itself.  Draw-neutral by construction — SQL evaluation consumes no
    randomness, so hoisting it shard-wide cannot shift any client's RNG
    or keystream state.

    ``latest=True`` is what the epoch's answer pass asks for (a client
    reads only whether anything matched and the last matching row):
    fallback markers and exceptions are exactly the full form's, and
    every :class:`ResultSet` has the full form's ``columns`` and
    ``rows == full.rows[-1:]``.  A plain projection (no aggregate, GROUP
    BY, ORDER BY or LIMIT) is a *standing* answer: the arena table keeps
    each slot's latest matching row id per plan
    (:meth:`ArenaTable.standing_latest
    <repro.sqldb.columnar.ArenaTable.standing_latest>`) and folds in only
    the rows appended since the last ask, and the statement-level half of
    the projection runs once.  Any other shape runs the full finisher and
    keeps its last row.  Outcomes are read-only: empty slots share one
    outcome, one-row outcomes share their column list.
    """
    try:
        statement = parse_statement_cached(sql)
    except Exception:  # noqa: BLE001 - parse errors fall back per client
        return None
    # The switch is read once per statement (never cached across statements).
    return _select_per_slot(
        arena, statement, _env_flag("SQLDB_FORCE_SCAN"), latest, slots
    )


def _select_per_slot(
    arena,
    statement: ast.SelectStatement,
    scan_forced: bool,
    latest: bool = False,
    slots=None,
):
    """:func:`arena_select_per_client` after parsing: one compiled SELECT
    over a :class:`~repro.sqldb.columnar.ShardArena`, one outcome per slot.

    The one compiled dispatcher: a shard answers through it, and so does a
    lone database over its one-slot arena (:meth:`Database.query`).
    ``scan_forced`` (the ``SQLDB_FORCE_SCAN`` switch) and a member's own
    ``force_scan`` pin mark slots :data:`ARENA_FALLBACK` before anything is
    probed or a standing answer is built or folded.  Returns ``None`` when
    no member defines the table or the compiler cannot lower the statement.
    """
    table = arena.table(statement.table)
    if table is None:
        return None
    try:
        plan = plan_for(statement, table.columns)
    except CompileFallback:
        return None

    databases = arena.databases
    outcomes: list = [ARENA_FALLBACK] * len(databases)
    if scan_forced:
        return outcomes
    asked = [
        slot
        for slot in (range(len(databases)) if slots is None else slots)
        if not databases[slot].force_scan
    ]
    if not asked:
        return outcomes
    empty_outcome = _UNSET
    if latest and _is_plain_projection(statement):
        standing = table.standing_latest(plan)
        finish_row = _one_row_finisher(statement, table)
        for slot in asked:
            row_id = standing[slot]
            if row_id is None:
                continue
            if isinstance(row_id, BaseException):
                # Handed out afresh: a raise must not grow a held traceback.
                outcomes[slot] = row_id.with_traceback(None)
            elif row_id < 0:
                if empty_outcome is _UNSET:
                    empty_outcome = _finish_outcome(statement, table, ())
                outcomes[slot] = empty_outcome
            elif finish_row is not None:
                outcomes[slot] = finish_row(row_id)
            else:
                outcomes[slot] = _finish_outcome(statement, table, [row_id])
        return outcomes

    ids_per_slot = plan.matching_ids_per_client(table)
    for slot in asked:
        ids = ids_per_slot[slot]
        if ids is None:
            continue
        if isinstance(ids, BaseException):
            outcomes[slot] = ids
            continue
        if len(ids) == 0:
            # The empty-ids outcome is a pure function of (statement,
            # arena schema): compute it once and share it across every
            # empty member — decisive at sparse selectivities.
            if empty_outcome is _UNSET:
                empty_outcome = _finish_outcome(statement, table, ())
            outcomes[slot] = empty_outcome
            continue
        outcome = _finish_outcome(statement, table, ids)
        if latest and isinstance(outcome, ResultSet):
            outcome.rows = outcome.rows[-1:]
        outcomes[slot] = outcome
    return outcomes


def _is_plain_projection(stmt: ast.SelectStatement) -> bool:
    """Whether a SELECT's last result row is its last matching table row."""
    return (
        not stmt.group_by
        and stmt.order_by is None
        and stmt.limit is None
        and not any(isinstance(item, ast.Aggregate) for item in stmt.items)
    )


def _one_row_finisher(stmt: ast.SelectStatement, table):
    """The statement-level half of finishing a plain projection, done once.

    Returns ``finish(row_id) -> ResultSet`` building a member's one-row
    result, or ``None`` when a projected column does not resolve by exact
    name: the error such a statement raises depends on whether the slot
    matched, so :func:`_finish_compiled_select` keeps deciding it per slot.
    """
    if stmt.select_star:
        out_columns = table.column_names
        source_columns = out_columns
    else:
        out_columns = [item.alias or item.column for item in stmt.items]
        source_columns = [item.column for item in stmt.items]
    if not all(table.has_column(column) for column in source_columns):
        return None
    vectors = [table.column(column) for column in source_columns]
    return lambda row_id: ResultSet(
        out_columns, [tuple(vector[row_id] for vector in vectors)]
    )


def _finish_outcome(stmt: ast.SelectStatement, table, ids):
    """Finish one member's result, capturing the error instead of raising."""
    try:
        return _finish_compiled_select(stmt, table, ids)
    except Exception as exc:  # noqa: BLE001 - outcome parity with per-client
        return exc
