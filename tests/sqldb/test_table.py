"""Tests for table and column definitions."""

import pytest

from repro.sqldb import Database
from repro.sqldb.errors import SchemaError
from repro.sqldb.table import Column, Table


class TestColumn:
    @pytest.mark.parametrize(
        "sql_type, value, stored",
        [
            ("INTEGER", "5", 5),
            ("REAL", "2.5", 2.5),
            ("TEXT", 10, "10"),
            ("INTEGER", None, None),
            ("integer", "7", 7),
        ],
        ids=["integer", "real", "text", "none-passes-through", "case-insensitive-type"],
    )
    def test_insert_coerces_to_the_column_type(self, sql_type, value, stored):
        table = Table(name="t", columns=[Column("x", sql_type)])
        table.insert_records([{"x": value}])
        assert table.rows == [(stored,)]

    def test_unsupported_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "BLOB")

    def test_bad_value_rejected(self):
        table = Table(name="t", columns=[Column("x", "INTEGER")])
        with pytest.raises(SchemaError, match="cannot convert"):
            table.insert_records([{"x": "not-a-number"}])


class TestTable:
    def _table(self) -> Table:
        return Table(name="t", columns=[Column("a", "INTEGER"), Column("b", "TEXT")])

    def test_append_rows_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            self._table().append_rows([(1,)])

    def test_append_rows_is_all_or_nothing(self):
        table = self._table()
        with pytest.raises(SchemaError, match="expects 2 values, got 1"):
            table.append_rows([(1, "x"), (2,)])
        assert table.rows == []

    def test_insert_records_stores_values_in_schema_order(self):
        table = self._table()
        table.insert_records([{"b": "x", "a": 1}, {"b": "y"}])
        assert table.rows == [(1, "x"), (None, "y")]

    def test_insert_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            self._table().insert_records([{"zzz": 1}])

    def test_insert_records_coerces_to_column_types(self):
        table = self._table()
        table.insert_records([{"a": "3", "b": 9}])
        assert table.rows == [(3, "9")]

    def test_scan_yields_dicts(self):
        table = self._table()
        table.append_rows([(1, "x"), (2, "y")])
        assert list(table.scan()) == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_column_index_case_insensitive(self):
        table = self._table()
        assert table.column_index("A") == 0

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            self._table().column_index("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(name="t", columns=[Column("a"), Column("a")])

    def test_len(self):
        table = self._table()
        assert len(table) == 0
        table.append_rows([(1, "x")])
        assert len(table) == 1


class TestInsertRecords:
    """Bulk ingest (one insert_records call) must behave exactly like a
    loop of one-record calls: same rows, same first error, same prefix."""

    def _table(self) -> Table:
        return Table(name="t", columns=[Column("a", "INTEGER"), Column("b", "TEXT")])

    def _ingest(self, records, bulk):
        """(table, the SchemaError raised or None) after ingesting ``records``."""
        table = self._table()
        try:
            if bulk:
                table.insert_records(records)
            else:
                for record in records:
                    table.insert_records([record])
        except SchemaError as exc:
            return table, exc
        return table, None

    @pytest.mark.parametrize(
        "bad",
        [
            {"a": "x", "b": 1},
            {"a": 1, "zzz": 2},
            {"zzz": 2, "a": "x"},  # conversion runs before the unknown-column check
            {"a": [1]},
        ],
        ids=["bad-value", "unknown-column", "both", "type-error"],
    )
    def test_failure_mid_batch_matches_the_per_record_loop(self, bad):
        records = [{"a": 1, "b": "x"}, {"a": "2"}, bad, {"a": 4, "b": "y"}]
        bulk, bulk_error = self._ingest(records, bulk=True)
        loop, loop_error = self._ingest(records, bulk=False)
        assert bulk_error is not None and loop_error is not None
        assert str(bulk_error) == str(loop_error)
        assert bulk.rows == loop.rows == [(1, "x"), (2, None)]
        assert bulk.rows.mutations == 0

    def test_missing_keys_become_null(self):
        records = [{"a": 1}, {"b": 7}, {}, {"a": None, "b": None}]
        bulk, error = self._ingest(records, bulk=True)
        assert error is None
        assert bulk.rows == [(1, None), (None, "7"), (None, None), (None, None)]
        assert bulk.rows == self._ingest(records, bulk=False)[0].rows
        assert bulk.rows.mutations == 0

    def test_error_messages(self):
        table = self._table()
        with pytest.raises(SchemaError, match=r"cannot convert 'x' to INTEGER for column a"):
            table.insert_records([{"a": "x"}])
        with pytest.raises(SchemaError, match=r"unknown columns in INSERT: \['y', 'z'\]"):
            table.insert_records([{"z": 1, "y": 2}])
        assert table.rows == []

    def test_ingest_into_a_live_arena_is_an_append(self):
        db = Database()
        table = db.create_table("t", [("a", "INTEGER"), ("b", "TEXT")])
        table.insert_records([{"a": i, "b": str(i % 3)} for i in range(50)])
        store = db.arena.table("t")
        store.hash_index("b")
        store.tree_index("a")
        table.insert_records([{"a": i, "b": str(i % 3)} for i in range(50, 80)])
        assert db.arena.table("t") is store
        assert store.rebuilds == 1 and store.appended_rows == 80 and store.count == 80
        assert store.hash_index("b").lookup("1") == list(range(1, 80, 3))
        assert store.tree_index("a").range_ids(45, 55) == list(range(45, 56))
