"""Table and column definitions for the mini SQL engine."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.sqldb.errors import SchemaError

# SQL type name -> python conversion callable.
_TYPE_CONVERTERS = {
    "INTEGER": int,
    "INT": int,
    "REAL": float,
    "FLOAT": float,
    "DOUBLE": float,
    "TEXT": str,
    "VARCHAR": str,
    "BOOLEAN": bool,
    "BOOL": bool,
}


@dataclass(frozen=True)
class Column:
    """A column definition: a name and a declared SQL type."""

    name: str
    sql_type: str = "TEXT"

    def __post_init__(self) -> None:
        if self.sql_type.upper() not in _TYPE_CONVERTERS:
            raise SchemaError(f"unsupported column type: {self.sql_type}")

    def conversion_error(self, value: Any) -> SchemaError:
        """The error for a value this column's type cannot hold."""
        return SchemaError(
            f"cannot convert {value!r} to {self.sql_type} for column {self.name}"
        )


# The change clock: every change to a table's rows (append, in-place
# edit, rebinding ``Table.rows``) or to which tables a database holds sets
# it to a fresh tick *after* the change, so a columnar copy that reads the
# tick it read before its last sync has seen every change
# (:meth:`~repro.sqldb.columnar.ArenaTable.sync`).  Ticks are unique, so
# two changes racing to set it cannot leave a tick an earlier reader holds.
_TICKS = itertools.count(1)
_clock = next(_TICKS)


def change_clock() -> int:
    """The current tick."""
    return _clock


def tick() -> None:
    """Record that a table's rows, or a database's tables, just changed."""
    global _clock
    _clock = next(_TICKS)


class _RowList(list):
    """Row storage that makes every change visible to the columnar copy.

    Every change ticks the change clock (:func:`tick`).  Pure appends
    (``append``/``extend``/``+=``) are told apart from the rest by the
    length alone; any operation that edits, reorders, or removes existing
    rows also bumps ``mutations``, which
    :meth:`~repro.sqldb.columnar.ArenaTable.sync` reads to know its
    arrays are stale and must rebuild.
    """

    def __init__(self, iterable=()):
        super().__init__(iterable)
        self.mutations = 0

    def _edited(self) -> None:
        self.mutations += 1
        tick()

    def append(self, value):
        super().append(value)
        tick()

    def extend(self, values):
        super().extend(values)
        tick()

    def __iadd__(self, values):
        super().__iadd__(values)
        tick()
        return self

    def __imul__(self, count):
        super().__imul__(count)
        self._edited()  # an in-place repeat, or a clear at count <= 0
        return self

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self._edited()

    def __delitem__(self, index):
        super().__delitem__(index)
        self._edited()

    def insert(self, index, value):
        super().insert(index, value)
        self._edited()

    def pop(self, index=-1):
        value = super().pop(index)
        self._edited()
        return value

    def remove(self, value):
        super().remove(value)
        self._edited()

    def sort(self, **kwargs):
        super().sort(**kwargs)
        self._edited()

    def reverse(self):
        super().reverse()
        self._edited()

    def clear(self):
        super().clear()
        self._edited()


@dataclass
class Table:
    """An in-memory table: an ordered schema plus a list of row tuples."""

    name: str
    columns: list[Column]
    rows: list[tuple] = field(default_factory=list)

    def __setattr__(self, name: str, value: Any) -> None:
        # Every row-list ever bound to the table is wrapped, so later
        # in-place edits (``table.rows[0] = ...``) are observable by the
        # columnar copy's sync no matter how the list arrived.
        if name == "rows" and not isinstance(value, _RowList):
            value = _RowList(value)
        super().__setattr__(name, value)
        if name == "rows":
            tick()

    def __post_init__(self) -> None:
        # Names are unique case-insensitively, as in SQLite: a name then
        # resolves to one column whichever case it is written in.
        self._lowered: dict[str, int] = {}
        for index, column in enumerate(self.columns):
            if self._lowered.setdefault(column.name.lower(), index) != index:
                raise SchemaError(
                    f"duplicate column name in table {self.name}: {column.name}"
                )
        self._index = {c.name: i for i, c in enumerate(self.columns)}

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        """Index of a column by name (case-insensitive)."""
        index = self._lowered.get(name.lower())
        if index is None:
            raise SchemaError(f"table {self.name} has no column {name}")
        return index

    def insert_records(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Insert one row per column-name → value mapping, in order.

        Each record is coerced column by column in schema order (a
        missing column is NULL, and so is a ``NaN`` in a column of any
        type, as SQLite binds it), then checked for unknown columns; the
        first record that fails raises :class:`SchemaError` and the
        records before it stay inserted.  The converters are resolved
        once per call and the converted rows join the table in one
        ``extend``, an append the columnar copy folds in incrementally.
        """
        columns = [
            (column.name, _TYPE_CONVERTERS[column.sql_type.upper()], column)
            for column in self.columns
        ]
        known = self._index.keys()
        converted: list[tuple] = []
        try:
            for record in records:
                row = []
                for name, converter, column in columns:
                    value = record.get(name)
                    if value != value:  # NaN: SQLite binds it as NULL
                        value = None
                    elif value is not None:
                        try:
                            value = converter(value)
                        except (TypeError, ValueError) as exc:
                            raise column.conversion_error(value) from exc
                    row.append(value)
                if not known >= record.keys():
                    raise SchemaError(
                        f"unknown columns in INSERT: {sorted(record.keys() - known)}"
                    )
                converted.append(tuple(row))
        finally:
            self.rows.extend(converted)

    def append_rows(self, rows: list[tuple]) -> None:
        """Extend the row list with already-coerced tuples, in place.

        The single bulk-append entry point for snapshot restore and
        :class:`~repro.runtime.wire.ShardDelta` streams.  Every row must
        have one value per column; otherwise :class:`SchemaError` is
        raised and nothing is appended.  Appending in place (rather than
        rebinding ``self.rows``) is what lets the columnar copy
        recognize the mutation as an incremental append instead of a
        rebuild.
        """
        width = len(self.columns)
        for row in rows:
            if len(row) != width:
                raise SchemaError(
                    f"table {self.name} expects {width} values, got {len(row)}"
                )
        self.rows.extend(rows)

    def scan(
        self, columns: list[str] | None = None
    ) -> Iterator[dict[str, Any]] | Iterator[tuple]:
        """Yield every row as a column-name → value dict.

        With ``columns``, yield a plain tuple of just those columns per
        row instead — no per-row dict is materialized, which matters
        when a caller reads one column from a large table (the
        allocation regression test in ``tests/sqldb`` pins this).
        """
        if columns is not None:
            indices = [self.column_index(name) for name in columns]
            if len(indices) == 1:
                index = indices[0]
                for row in self.rows:
                    yield (row[index],)
            else:
                for row in self.rows:
                    yield tuple(row[i] for i in indices)
            return
        names = self.column_names
        for row in self.rows:
            yield dict(zip(names, row))

    def __len__(self) -> int:
        return len(self.rows)
