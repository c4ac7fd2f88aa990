"""Columnar table layout backing the compiled answer path.

The row-scan engine materializes one dict per row per query
(:meth:`repro.sqldb.table.Table.scan`); at 10⁵–10⁶ clients × multi-query
epochs that dict churn dominates the answer stage.  An
:class:`ArenaTable` keeps one table name as typed parallel arrays — one
:class:`ColumnVector` per column — that a compiled probe reads in one
pass over one column.

**One layout for a shard and for a client.**  A PrivApprox shard holds
many co-schema clients answering the *same* statements, so probing 10⁴
tiny per-client copies would run 10⁴ identical probes.  A
:class:`ShardArena` therefore concatenates one table name across every
member database into a single :class:`ArenaTable`, with a ``row_slot``
column (arena row id → member slot) and a per-slot row-span table
(``slot_rows``);
:meth:`CompiledSelect.matching_ids_per_client
<repro.sqldb.compile.CompiledSelect.matching_ids_per_client>` probes the
arena once and splits the matches back per client.  A client answering
on its own (:meth:`repro.core.client.Client.answer`) reads the same
structure with one slot: its database's lazily built one-slot
:class:`ShardArena` (:attr:`repro.sqldb.engine.Database.arena`), where
arena row ids are the table's own row ids.  :meth:`Database.query
<repro.sqldb.engine.Database.query>` is the row scan and reads no arena.
Members whose table is missing or whose schema differs from the adopted
signature are *excluded* (their span is ``None``) and answer per-client.

**Incremental by construction.**  Per member, the arena records the
table object, its row list (by identity), the list's in-place mutation
counter (``Table.rows`` is a ``_RowList`` that counts every non-append
edit) and how many rows it was built from.  :meth:`ArenaTable.sync` is
O(1) when no table changed anywhere since it last ran (the change clock,
:func:`repro.sqldb.table.change_clock`, reads the same tick), appends only
the new tails when rows were appended (the only mutation the streaming
ingest and the resident runtime's :class:`~repro.runtime.wire.ShardDelta`
frames ever perform), and rebuilds from scratch when a row list shrank,
was rebound, had existing rows edited in place, or its table was dropped
and recreated.  Both grow a column at a time: the new rows are transposed
once and each vector takes one :meth:`ColumnVector.extend`.  Standing
answers ride along the arena: each table keeps, per compiled plan, every
slot's latest matching row id, the row count it covers and the finished
one-row outcome built for that id (:meth:`ArenaTable.standing_latest`) —
the latest-row answer a standing query asks for every epoch.  Every ask
runs one matching pass from that count: the first from row 0, later ones
over only the rows appended since, so a probe reads each row once.  A
rebuild drops the answers, and the next ask fills them afresh.  An LRU at
the plan cache's size bounds them.

**Typed arrays.**  INTEGER columns live in ``array('q')`` and REAL
columns in ``array('d')`` while their values fit (no NULLs, no
out-of-range ints); a column silently *demotes* to a plain Python list
the first time a value cannot be stored natively.  Reads are
value-identical either way — ``array('d')`` round-trips any Python float
and ``array('q')`` any 64-bit int — which the differential suite
(:mod:`tests.sqldb.test_engine_properties`) relies on.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Any, Iterator, Sequence

from repro.sqldb.compile import _PLAN_CACHE_MAX, schema_signature
from repro.sqldb.errors import SchemaError
from repro.sqldb.table import change_clock

# SQL type → array.array typecode for the native fast path.  TEXT and
# BOOLEAN stay as lists: strings have no fixed-width typecode, and a
# BOOLEAN read back from a numeric array would be ``1``, not ``True`` —
# value-equal but not identical to what the row-scan engine projects.
_TYPECODES = {
    "INTEGER": "q",
    "INT": "q",
    "REAL": "d",
    "FLOAT": "d",
    "DOUBLE": "d",
}


class ColumnVector:
    """One column's values: a typed array while possible, a list after demotion.

    Supports exactly the operations the compiled path needs — append,
    extend, subscript, iteration, length — so swapping the backing storage is
    invisible to callers.  Native storage demands the exact Python type
    (``int`` for ``'q'``, ``float`` for ``'d'``): ``array`` would happily
    coerce ``True`` to ``1`` or ``3`` to ``3.0``, and a coerced read-back
    would no longer be identical to what the row-scan engine projects.
    """

    __slots__ = ("_data", "_pytype", "typed")

    def __init__(self, sql_type: str):
        typecode = _TYPECODES.get(sql_type.upper())
        self.typed = typecode is not None
        self._pytype = int if typecode == "q" else float
        self._data: Any = array(typecode) if self.typed else []

    def append(self, value: Any) -> None:
        if self.typed:
            if type(value) is self._pytype:
                try:
                    self._data.append(value)
                    return
                except OverflowError:  # an int outside 64 bits
                    pass
            # NULL, a foreign type, or an overflow: demote to a plain list.
            self._data = list(self._data)
            self.typed = False
        self._data.append(value)

    def extend(self, values: Sequence[Any]) -> None:
        """Append a batch: one type check, then one ``array.extend``.

        A batch the typed array cannot take whole (NULL, a foreign type,
        an out-of-range int) goes value by value through :meth:`append`,
        so demotion happens exactly where it would row by row.
        """
        if self.typed and {self._pytype}.issuperset(map(type, values)):
            mark = len(self._data)
            try:
                self._data.extend(values)
                return
            except OverflowError:  # not atomic: undo the partial extend
                del self._data[mark:]
        if self.typed:
            for value in values:
                self.append(value)
        else:
            self._data.extend(values)

    def __getitem__(self, index: int) -> Any:
        return self._data[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


# Excluded-slot source sentinel: the slot had no table when last examined.
_EXCLUDED_EMPTY = ("x", None)


class ArenaTable:
    """One table name concatenated across every member database.

    Offers the surface the compiled SELECT path reads (``columns`` /
    ``count`` / ``column`` / ``arrays``), so one probe and one
    projection serve a whole shard and a lone database (a one-slot arena)
    alike.

    The schema is *adopted* from the first member that has the table;
    members whose table matches the adopted signature are **included**
    (their rows live in the arena, their span in :attr:`slot_rows`),
    everyone else is **excluded** (``slot_rows[slot] is None`` — the
    caller answers those members per-client).  Per-member tail appends
    (the only mutation ``ShardDelta`` frames perform) extend the vectors
    and the span table in place; everything else — a replaced or mutated
    row list, a dropped/recreated table, a table appearing on a previously
    excluded member — rebuilds the whole arena.
    """

    __slots__ = (
        "name",
        "_databases",
        "columns",
        "_signature",
        "_vectors",
        "_count",
        "row_slot",
        "slot_rows",
        "_sources",
        "_standing",
        "_synced_at",
        "rebuilds",
        "appended_rows",
    )

    def __init__(self, name: str, databases: list):
        self.name = name
        self._databases = databases
        # Observability: the maintenance tests pin that append streams
        # never trigger a rebuild.
        self.rebuilds = 0
        self.appended_rows = 0
        self._rebuild()

    # -- maintenance ---------------------------------------------------------

    def _rebuild(self) -> None:
        self._synced_at = change_clock()
        adopted = None
        for db in self._databases:
            table = db.get_table(self.name)
            if table is not None:
                adopted = table
                break
        self.columns = None if adopted is None else list(adopted.columns)
        self._signature = None if adopted is None else schema_signature(adopted.columns)
        self._vectors = {c.name: ColumnVector(c.sql_type) for c in self.columns or ()}
        self.row_slot = array("q")
        self.slot_rows: list = [None] * len(self._databases)
        self._sources: list = [_EXCLUDED_EMPTY] * len(self._databases)
        self._standing: OrderedDict = OrderedDict()
        self._count = 0
        self.rebuilds += 1
        if self.columns is None:
            return
        for slot, db in enumerate(self._databases):
            table = db.get_table(self.name)
            if table is None:
                continue
            if schema_signature(table.columns) != self._signature:
                self._sources[slot] = ("x", table)
                continue
            rows = table.rows
            self.slot_rows[slot] = array("q")
            self._sources[slot] = [table, rows, getattr(rows, "mutations", 0), 0]
            self._append_slot(slot, rows, 0)

    def sync(self) -> None:
        """Bring the arena up to date with every member's table.

        O(1) when no table changed anywhere since the last sync: the change
        clock (:func:`repro.sqldb.table.change_clock`) still reads the tick
        it read then.  Otherwise one pass over the members detects any
        structural change — a member's table replaced, its row list
        rebound/shrunk/edited in place, or a table with the adopted
        signature appearing on an excluded member — and rebuilds the whole
        arena; only when no member changed structurally are the grown
        members' tail appends folded in incrementally.
        """
        clock = change_clock()
        if clock == self._synced_at:
            return
        name = self.name
        grown = []
        for slot, (db, source) in enumerate(zip(self._databases, self._sources)):
            table = db.get_table(name)
            if isinstance(source, list):
                rows = table.rows if table is source[0] else None
                if (
                    rows is not source[1]
                    or getattr(rows, "mutations", 0) != source[2]
                    or len(rows) < source[3]
                ):
                    self._rebuild()
                    return
                if len(rows) > source[3]:
                    grown.append(slot)
            else:
                if table is source[1]:
                    continue
                if table is None:
                    self._sources[slot] = _EXCLUDED_EMPTY
                    continue
                if (
                    self.columns is None
                    or schema_signature(table.columns) == self._signature
                ):
                    self._rebuild()
                    return
                self._sources[slot] = ("x", table)
        for slot in grown:
            source = self._sources[slot]
            self._append_slot(slot, source[1], source[3])
        self._synced_at = clock

    def _append_slot(self, slot: int, rows: list, start: int) -> None:
        """Append a member's rows from ``start`` on, a column at a time.

        ``_vectors`` is in schema order, so the transposed rows pair up
        with it, and each vector grows by one ``extend``.
        """
        new = rows[start:]
        if new:
            columns = list(zip(*new))
            if len(columns) < len(self._vectors):  # a short row: refuse before anything grows
                raise SchemaError(
                    f"expected rows of {len(self._vectors)} values, one has {len(columns)}"
                )
            for vector, values in zip(self._vectors.values(), columns):
                vector.extend(values)
        first_id = self._count
        self.row_slot.extend([slot] * len(new))
        self.slot_rows[slot].extend(range(first_id, first_id + len(new)))
        self.appended_rows += len(new)
        self._count = first_id + len(new)
        self._sources[slot][3] = len(rows)

    # -- standing answers ------------------------------------------------------

    def standing_latest(self, plan) -> tuple[list, list]:
        """``plan``'s latest-row answer per slot, kept across asks.

        One entry per slot: the slot's latest matching arena row id, ``-1``
        when nothing matches, the exception the slot raises, or ``None``
        for an excluded slot.  The answer remembers the row count it
        covers, and each ask folds in one
        :meth:`~repro.sqldb.compile.CompiledSelect.matching_ids_per_client`
        pass started from that count: the first ask starts at 0 (through
        the plan's probe, when it has one), later asks read only the rows
        appended since, so a standing query over unchanged tables costs
        nothing per ask.  Arena ids ascend within a slot, so a slot's last
        new match is its latest; a slot's error stays, since the first error
        in row order wins and every new row comes after it.  A rebuild drops
        every answer, and at most ``_PLAN_CACHE_MAX`` plans keep one (least
        recently asked goes first).

        Returns ``(latest, finished)``.  ``latest`` is read-only to callers.
        ``finished`` is one slot per member for the caller's finished
        outcome of ``latest[slot]``: it starts ``None`` and goes back to
        ``None`` whenever the slot's latest row id moves, so whatever the
        caller stores there is handed out again only while the id is
        unchanged, and it goes with the answer on a rebuild or an eviction.
        """
        standing = self._standing
        entry = standing.get(plan)
        if entry is None:
            latest = [None if ids is None else -1 for ids in self.slot_rows]
            entry = standing[plan] = [latest, 0, [None] * len(latest)]
            if len(standing) > _PLAN_CACHE_MAX:
                standing.popitem(last=False)
        else:
            standing.move_to_end(plan)
        latest, start, finished = entry
        if start < self._count:
            # A pass that raises leaves the count behind; the next ask retries.
            for slot, ids in enumerate(plan.matching_ids_per_client(self, start)):
                if not ids or isinstance(latest[slot], BaseException):
                    continue
                latest[slot] = ids if isinstance(ids, BaseException) else ids[-1]
                finished[slot] = None
            entry[1] = self._count
        return latest, finished

    # -- what the compiled path reads ------------------------------------------

    @property
    def count(self) -> int:
        """Number of rows currently mirrored, across every included slot."""
        return self._count

    def column(self, name: str) -> ColumnVector:
        """The parallel array of one column (exact name)."""
        return self._vectors[name]

    def arrays(self) -> dict[str, ColumnVector]:
        """Column name → vector, the namespace compiled closures evaluate in."""
        return self._vectors

    def stats(self) -> dict[str, int]:
        """Observability: the torture suite pins that churn and
        ``ShardDelta`` append streams never trigger spurious rebuilds."""
        return {
            "rebuilds": self.rebuilds,
            "appended_rows": self.appended_rows,
            "span_rows": self._count,
            "included_slots": sum(1 for ids in self.slot_rows if ids is not None),
            "standing_plans": len(self._standing),
        }


class ShardArena:
    """Per-shard arena registry: one :class:`ArenaTable` per table name.

    Bound to a fixed member-database list (one per client slot, in shard
    order); :meth:`matches` lets a caller verify a cached arena still
    describes the exact databases it is about to answer for.  Tables are
    built lazily on first use and synced incrementally by :meth:`sync`,
    which the owner calls once before a pass of asks: the shard answer pass
    once per shard per epoch
    (:func:`~repro.runtime.engine.shard_outcomes`), a client answering
    alone once per statement.  Asking reads the arena as last synced — client
    SQL only reads, so nothing changes a member's tables within one pass.
    A database answering on its own holds a one-slot arena over itself
    (:attr:`repro.sqldb.engine.Database.arena`).
    """

    def __init__(self, databases: list):
        self._databases = list(databases)
        self._tables: dict[str, ArenaTable] = {}

    @property
    def databases(self) -> list:
        return self._databases

    def matches(self, databases: list) -> bool:
        """Whether this arena was built over exactly these database objects."""
        if len(databases) != len(self._databases):
            return False
        return all(a is b for a, b in zip(databases, self._databases))

    def table(self, name: str) -> ArenaTable | None:
        """The arena for one table name as of the last :meth:`sync` (built
        here on first ask), or ``None`` when no member has the table (the
        statement falls back per-client)."""
        arena = self._tables.get(name)
        if arena is None:
            arena = self._tables[name] = ArenaTable(name, self._databases)
        return None if arena.columns is None else arena

    def sync(self) -> None:
        """Sync every table built so far; tables never asked for stay lazy."""
        for arena in self._tables.values():
            arena.sync()

    def arena_stats(self) -> dict[str, dict[str, int]]:
        """Table name → :meth:`ArenaTable.stats`, for tests and operators."""
        return {name: arena.stats() for name, arena in self._tables.items()}
