"""Columnar table layout backing the compiled answer path.

The row-scan engine materializes one dict per row per query
(:meth:`repro.sqldb.table.Table.scan`); at 10⁵–10⁶ clients × multi-query
epochs that dict churn dominates the answer stage.  An
:class:`ArenaTable` keeps one table name as typed parallel arrays — one
:class:`ColumnVector` per column — plus on-demand secondary indexes
(:mod:`repro.sqldb.indexes`) on predicate columns.

**One layout for a shard and for a client.**  A PrivApprox shard holds
many co-schema clients answering the *same* statements, so probing 10⁴
tiny per-client copies would run 10⁴ identical probes.  A
:class:`ShardArena` therefore concatenates one table name across every
member database into a single :class:`ArenaTable`, with a ``row_slot``
column (arena row id → member slot) and a per-slot row-span table
(``slot_rows``), and builds hash/B+Tree indexes once per shard;
:meth:`CompiledSelect.matching_ids_per_client
<repro.sqldb.compile.CompiledSelect.matching_ids_per_client>` probes the
arena once and splits the matches back per client.  A database answering
on its own (:meth:`repro.sqldb.engine.Database.query`) is the same
structure with one slot: its lazily built one-slot :class:`ShardArena`,
where arena row ids are the table's own row ids.  Members whose table is
missing or whose schema differs from the adopted signature are
*excluded* (their span is ``None``) and answer per-client.

**Incremental by construction.**  Per member, the arena records the
table object, its row list (by identity), the list's in-place mutation
counter (``Table.rows`` is a ``_RowList`` that counts every non-append
edit) and how many rows it was built from.  :meth:`ArenaTable.sync` is
O(members) when nothing changed, appends only the new tails when rows
were appended (the only mutation the streaming ingest and the resident
runtime's :class:`~repro.runtime.wire.ShardDelta` frames ever perform),
and rebuilds from scratch when a row list shrank, was rebound,
had existing rows edited in place, or its table was dropped and
recreated.  Both grow a column at a time: the new rows are transposed
once and each vector takes one :meth:`ColumnVector.extend`.  Secondary
indexes ride along: appends insert the new rows into every live index,
row by row; rebuilds drop them, and the next probe bulk-loads them from
the whole column.  Standing answers ride along the same way: each table
keeps, per compiled plan, every slot's latest matching row id and the row
count it covers (:meth:`ArenaTable.standing_latest`) — the latest-row
answer a standing query asks for every epoch.  Every ask runs one matching
pass from that count: the first from row 0 through the index, later ones
over only the rows appended since.  A rebuild drops the answers, and the
next ask fills them afresh.  An LRU at the plan cache's size bounds them.

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
from repro.sqldb.indexes import BPlusTreeIndex, HashIndex

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

    def take(self, row_ids) -> list:
        """The values at ``row_ids``, in that order."""
        data = self._data
        return [data[row_id] for row_id in row_ids]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


# Excluded-slot source sentinel: the slot had no table when last examined.
_EXCLUDED_EMPTY = ("x", None)


class ArenaTable:
    """One table name concatenated across every member database.

    Duck-types as the *table* (``column_names`` / ``column_index``) and
    offers the probe surface (``count`` / ``column`` / ``arrays`` /
    ``hash_index`` / ``tree_index``) the compiled SELECT path reads, so one
    probe and one result finisher serve a whole shard and a lone database
    (a one-slot arena) alike.

    The schema is *adopted* from the first member that has the table;
    members whose table matches the adopted signature are **included**
    (their rows live in the arena, their span in :attr:`slot_rows`),
    everyone else is **excluded** (``slot_rows[slot] is None`` — the
    caller answers those members per-client).  Per-member tail appends
    (the only mutation ``ShardDelta`` frames perform) extend the vectors,
    the span table and any live indexes in place; everything else — a
    replaced or mutated row list, a dropped/recreated table, a table
    appearing on a previously excluded member — rebuilds the whole arena
    and drops its indexes to be lazily rebuilt on the next probe.
    """

    __slots__ = (
        "name",
        "_databases",
        "columns",
        "_signature",
        "_colindex",
        "_vectors",
        "_hash",
        "_trees",
        "_count",
        "row_slot",
        "slot_rows",
        "_sources",
        "_standing",
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
        adopted = None
        for db in self._databases:
            table = db.get_table(self.name)
            if table is not None:
                adopted = table
                break
        self.columns = None if adopted is None else list(adopted.columns)
        self._signature = None if adopted is None else schema_signature(adopted.columns)
        names = [] if self.columns is None else [c.name for c in self.columns]
        types = [] if self.columns is None else [c.sql_type for c in self.columns]
        self._colindex = {name: i for i, name in enumerate(names)}
        self._vectors = {n: ColumnVector(t) for n, t in zip(names, types)}
        self.row_slot = array("q")
        self.slot_rows: list = [None] * len(self._databases)
        self._sources: list = [_EXCLUDED_EMPTY] * len(self._databases)
        self._hash: dict[str, HashIndex] = {}
        self._trees: dict[str, BPlusTreeIndex] = {}
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

        One pass over the members detects any structural change — a
        member's table replaced, its row list rebound/shrunk/edited in
        place, or a table with the adopted signature appearing on an
        excluded member — and rebuilds the whole arena; only when no member
        changed structurally are the grown members' tail appends folded in
        incrementally.
        """
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

    def _append_slot(self, slot: int, rows: list, start: int) -> None:
        new = rows[start:]
        first_id = self._count
        self._extend(new, first_id)
        self.row_slot.extend([slot] * len(new))
        self.slot_rows[slot].extend(range(first_id, first_id + len(new)))
        self.appended_rows += len(new)
        self._count = first_id + len(new)
        self._sources[slot][3] = len(rows)

    def _extend(self, rows: list, first_id: int) -> None:
        """Append ``rows`` (schema-width tuples) column by column.

        ``_vectors`` is in schema order, so the transposed rows pair up
        with it.  Each vector grows by one ``extend``; only then are its
        new values folded, row id by row id, into the indexes already
        live on that column (absent indexes stay absent until a probe
        bulk-loads them from the grown vectors).
        """
        if not rows:
            return
        columns = list(zip(*rows))
        if len(columns) < len(self._vectors):  # a short row: refuse before anything grows
            raise SchemaError(
                f"expected rows of {len(self._vectors)} values, one has {len(columns)}"
            )
        for (name, vector), values in zip(self._vectors.items(), columns):
            vector.extend(values)
            hash_index = self._hash.get(name)
            tree = self._trees.get(name)
            if hash_index is None and tree is None:
                continue
            for row_id, value in enumerate(values, first_id):
                if hash_index is not None:
                    hash_index.insert(value, row_id)
                if tree is not None:
                    tree.insert(value, row_id)

    # -- standing answers ------------------------------------------------------

    def standing_latest(self, plan) -> list:
        """``plan``'s latest-row answer per slot, kept across asks.

        One entry per slot: the slot's latest matching arena row id, ``-1``
        when nothing matches, the exception the slot raises, or ``None``
        for an excluded slot.  The answer remembers the row count it
        covers, and each ask folds in one
        :meth:`~repro.sqldb.compile.CompiledSelect.matching_ids_per_client`
        pass started from that count: the first ask starts at 0 (through
        the index when the plan has a probe), later asks read only the rows
        appended since, so a standing query over unchanged tables costs
        nothing per ask.  Arena ids ascend within a slot, so a slot's last
        new match is its latest; a slot's error stays, since the first error
        in row order wins and every new row comes after it.  A rebuild drops
        every answer, and at most ``_PLAN_CACHE_MAX`` plans keep one (least
        recently asked goes first).  The list is read-only to callers.
        """
        standing = self._standing
        entry = standing.get(plan)
        if entry is None:
            latest = [None if ids is None else -1 for ids in self.slot_rows]
            entry = standing[plan] = [latest, 0]
            if len(standing) > _PLAN_CACHE_MAX:
                standing.popitem(last=False)
        else:
            standing.move_to_end(plan)
        latest, start = entry
        if start < self._count:
            # A pass that raises leaves the count behind; the next ask retries.
            for slot, ids in enumerate(plan.matching_ids_per_client(self, start)):
                if not ids or isinstance(latest[slot], BaseException):
                    continue
                latest[slot] = ids if isinstance(ids, BaseException) else ids[-1]
            entry[1] = self._count
        return latest

    # -- probe surface (the selecting half of the compiled path) -------------

    @property
    def count(self) -> int:
        """Number of rows currently mirrored, across every included slot."""
        return self._count

    def column(self, name: str) -> ColumnVector:
        """The parallel array of one column (exact name)."""
        return self._vectors[name]

    def has_column(self, name: str) -> bool:
        return name in self._vectors

    def arrays(self) -> dict[str, ColumnVector]:
        """Column name → vector, the namespace compiled closures evaluate in."""
        return self._vectors

    def hash_index(self, name: str) -> HashIndex:
        """The column's hash index, bulk-loaded from its vector on first use."""
        index = self._hash.get(name)
        if index is None:
            index = self._hash[name] = HashIndex.from_column(self._vectors[name])
        return index

    def tree_index(self, name: str) -> BPlusTreeIndex:
        """The column's B+Tree index, bulk-loaded from its vector on first use."""
        tree = self._trees.get(name)
        if tree is None:
            tree = self._trees[name] = BPlusTreeIndex.from_column(self._vectors[name])
        return tree

    def index_stats(self) -> dict[str, tuple[int, int]]:
        """Column → (hash entries, tree size); observability for tests."""
        out: dict[str, tuple[int, int]] = {}
        for name in self._vectors:
            hash_index = self._hash.get(name)
            tree = self._trees.get(name)
            if hash_index is not None or tree is not None:
                out[name] = (
                    len(hash_index) if hash_index is not None else 0,
                    len(tree) if tree is not None else 0,
                )
        return out

    # -- table duck-typing (the finishing half of the compiled path) ---------

    @property
    def column_names(self) -> list[str]:
        return [] if self.columns is None else [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        """Index of a column by name — same resolution (and same error
        message) as :meth:`repro.sqldb.table.Table.column_index`."""
        if name in self._colindex:
            return self._colindex[name]
        lowered = {k.lower(): v for k, v in self._colindex.items()}
        if name.lower() in lowered:
            return lowered[name.lower()]
        raise SchemaError(f"table {self.name} has no column {name}")

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
    built lazily on first use and synced incrementally on every
    subsequent use.  A database answering on its own holds a one-slot
    arena over itself (:attr:`repro.sqldb.engine.Database.arena`).
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
        """The synced arena for one table name, or ``None`` when no member
        has the table (the statement falls back per-client)."""
        arena = self._tables.get(name)
        if arena is None:
            arena = ArenaTable(name, self._databases)
            self._tables[name] = arena
        else:
            arena.sync()
        if arena.columns is None:
            return None
        return arena

    def sync(self) -> None:
        """Sync every table built so far; tables never asked for stay lazy."""
        for arena in self._tables.values():
            arena.sync()

    def arena_stats(self) -> dict[str, dict[str, int]]:
        """Table name → :meth:`ArenaTable.stats`, for tests and operators."""
        return {name: arena.stats() for name, arena in self._tables.items()}
