"""Unit tests for the columnar layout: typed vectors, one-slot and
shard-wide arena sync, index maintenance, and the Table.scan projection
fast path."""

import pytest

from repro.sqldb import ColumnVector, Database
from repro.sqldb.errors import SchemaError


def _make_db(rows=200):
    db = Database()
    db.create_table("t", [("x", "INTEGER"), ("y", "REAL"), ("tag", "TEXT")])
    db.insert_rows(
        "t",
        [{"x": i % 10, "y": float(i), "tag": "even" if i % 2 == 0 else "odd"} for i in range(rows)],
    )
    return db


class TestColumnVector:
    def test_integer_stays_typed(self):
        vector = ColumnVector("INTEGER")
        for value in [1, -5, 2**62]:
            vector.append(value)
        assert vector.typed
        assert list(vector) == [1, -5, 2**62]
        assert vector[1] == -5

    def test_null_demotes_to_list(self):
        vector = ColumnVector("INTEGER")
        vector.append(7)
        vector.append(None)
        vector.append(8)
        assert not vector.typed
        assert list(vector) == [7, None, 8]

    def test_bool_does_not_coerce_into_integer_array(self):
        # array('q') would store True as 1; the read-back must stay True
        # to match what the row-scan engine projects.
        vector = ColumnVector("INTEGER")
        vector.append(3)
        vector.append(True)
        assert not vector.typed
        assert vector[1] is True

    def test_int_does_not_coerce_into_real_array(self):
        vector = ColumnVector("REAL")
        vector.append(1.5)
        vector.append(3)
        assert not vector.typed
        assert vector[1] == 3 and type(vector[1]) is int

    def test_oversized_int_demotes(self):
        vector = ColumnVector("INTEGER")
        vector.append(1)
        vector.append(2**70)
        assert not vector.typed
        assert vector[1] == 2**70

    def test_text_and_boolean_are_plain_lists(self):
        assert not ColumnVector("TEXT").typed
        assert not ColumnVector("BOOLEAN").typed

    @pytest.mark.parametrize(
        "sql_type, head, batch",
        [
            ("INTEGER", [1], [2, 3, 4]),
            ("INTEGER", [1], [2, None, 4]),
            ("INTEGER", [1], [2, True, 4]),
            ("INTEGER", [1], [2, 2**70, 4]),  # array.extend fails after appending 2
            ("INTEGER", [None], [2, 3]),
            ("REAL", [0.5], [1.5, 3, -0.0]),
            ("REAL", [], [1.5, float("nan")]),
            ("TEXT", ["a"], ["b", None]),
        ],
    )
    def test_extend_equals_appending_one_by_one(self, sql_type, head, batch):
        by_value, batched = ColumnVector(sql_type), ColumnVector(sql_type)
        for value in head:
            by_value.append(value)
            batched.append(value)
        for value in batch:
            by_value.append(value)
        batched.extend(tuple(batch))
        assert batched.typed == by_value.typed
        assert [(type(v), repr(v)) for v in batched] == [(type(v), repr(v)) for v in by_value]


def _own(db, name="t"):
    """The database's own one-slot arena table, synced (what its SELECTs read)."""
    return db.arena.table(name)


class TestOneSlotArenaSync:
    """A lone database answers over a one-slot arena: the same sync rules as a
    shard's, pinned on the sequences a client's table goes through."""

    def test_sync_is_noop_when_clean(self):
        db = _make_db()
        store = _own(db)
        assert store.rebuilds == 1
        before = store.appended_rows
        db.sync_columnar()
        db.sync_columnar()
        assert store.rebuilds == 1 and store.appended_rows == before

    def test_append_rows_extends_incrementally(self):
        db = _make_db()
        table = db.table("t")
        store = _own(db)
        table.append_rows([(1, 2.0, "a"), (2, 3.0, "bb")])
        assert _own(db) is store  # fetching syncs
        assert store.rebuilds == 1
        assert store.count == len(table.rows) == 202
        assert store.column("tag")[201] == "bb"
        assert list(store.slot_rows[0]) == list(range(202))  # arena ids = row ids

    def test_rebound_rows_trigger_rebuild(self):
        db = _make_db()
        table = db.table("t")
        store = _own(db)
        assert store.rebuilds == 1
        table.rows = [row for row in table.rows if not row[0] < 5]
        store = _own(db)
        assert store.rebuilds == 2
        assert store.count == len(table.rows)

    def test_in_place_row_edit_triggers_rebuild(self):
        """Regression: a same-length in-place edit (``rows[0] = ...``, as the
        resident runtime's parent-side mutation tests perform between epochs)
        must not be answered from stale columnar arrays or indexes."""
        db = _make_db()
        table = db.table("t")
        store = _own(db)
        store.hash_index("x")
        table.rows[0] = (999, -1.0, "edited")
        store = _own(db)
        assert store.rebuilds == 2
        assert store.column("x")[0] == 999
        assert store.index_stats() == {}  # stale indexes dropped
        assert store.hash_index("x").lookup(999) == [0]
        assert db.query("SELECT tag FROM t WHERE x = 999").rows == [("edited",)]

    def test_row_removal_triggers_rebuild(self):
        db = _make_db()
        table = db.table("t")
        _own(db)
        del table.rows[3]
        table.rows.pop()
        store = _own(db)
        assert store.rebuilds >= 2
        assert store.count == len(table.rows) == 198

    def test_drop_and_recreate_rebuilds_on_the_new_schema(self):
        db = _make_db()
        store = _own(db)
        store.hash_index("x")
        db.drop_table("t")
        db.create_table("t", [("x", "TEXT")])
        db.insert_rows("t", [{"x": "a"}, {"x": "b"}, {"x": "a"}])
        store = _own(db)
        assert store.rebuilds == 2
        assert store.column_names == ["x"] and store.count == 3
        assert store.index_stats() == {}
        assert db.query("SELECT COUNT(*) FROM t WHERE x = 'a'").scalar() == 2

    def test_append_maintains_live_indexes(self):
        db = _make_db()
        table = db.table("t")
        store = _own(db)
        hash_index = store.hash_index("x")
        tree = store.tree_index("x")
        hits_before = len(hash_index.lookup(3))
        table.append_rows([(3, 0.0, "a")])
        db.sync_columnar()
        assert len(store.hash_index("x").lookup(3)) == hits_before + 1
        assert store.hash_index("x") is hash_index  # maintained, not rebuilt
        assert store.tree_index("x") is tree
        tree.check_invariants()
        assert store.tree_index("x").range_ids(3, 3, True, True)[-1] == 200

    def test_rebuild_drops_indexes(self):
        db = _make_db()
        store = _own(db)
        store.hash_index("x")
        assert "x" in store.index_stats()
        table = db.table("t")
        table.rows = [row for row in table.rows if row[0] != 0]
        db.sync_columnar()
        assert store.index_stats() == {}  # lazily rebuilt on next probe
        assert store.hash_index("x").lookup(0) == []

    @pytest.mark.parametrize("force_scan", ["0", "1"])
    def test_short_row_is_refused_before_anything_grows(self, force_scan, monkeypatch):
        """A row narrower than the schema used to pass ``append_rows``: the
        compiled path then died inside the arena with its vectors half
        grown, while the forced scan failed differently.  Now both refuse
        the whole batch up front and keep answering from the old rows."""
        monkeypatch.setenv("SQLDB_FORCE_SCAN", force_scan)
        db = Database()
        db.create_table("t", [("value", "REAL"), ("zone", "INTEGER")])
        db.insert_rows("t", [{"value": float(i), "zone": i % 3} for i in range(9)])
        table = db.table("t")
        store = _own(db)
        store.hash_index("zone")  # live: an append must fold into it
        sql = "SELECT value FROM t WHERE zone = 1"
        before = db.query(sql).rows
        with pytest.raises(SchemaError, match="expects 2 values, got 1"):
            table.append_rows([(9.0, 1), (5.0,)])
        assert len(table.rows) == 9 and table.rows.mutations == 0
        assert db.query(sql).rows == before == [(1.0,), (4.0,), (7.0,)]
        assert _own(db) is store
        assert (store.count, store.rebuilds, store.appended_rows) == (9, 1, 9)
        assert [len(store.column(name)) for name in ("value", "zone")] == [9, 9]

    def test_store_refuses_a_short_row_it_did_not_see_checked(self):
        db = _make_db(rows=4)
        table = db.table("t")
        store = _own(db)
        table.rows.append((1, 2.0))  # bypasses Table.append_rows
        with pytest.raises(SchemaError):
            db.sync_columnar()
        assert [len(store.column(name)) for name in ("x", "y", "tag")] == [4, 4, 4]
        assert store.count == 4

    def test_database_sync_columnar_skips_lazy_tables(self):
        db = _make_db()
        db.create_table("untouched", [("a", "INTEGER")])
        db.sync_columnar()  # must not build an arena table for 'untouched'
        assert db.arena.arena_stats() == {}
        store = _own(db)
        db.table("t").append_rows([(1, 1.0, "a")])
        db.sync_columnar()
        assert store.count == 201
        assert set(db.arena.arena_stats()) == {"t"}

    def test_no_reference_cycle_with_the_database(self):
        """The arena holds a weak proxy of its database: dropping the last
        reference frees the database at once, with no collector pass."""
        import gc
        import weakref

        db = _make_db(rows=8)
        db.query("SELECT x FROM t WHERE x = 3")
        alive = weakref.ref(db)
        gc.disable()
        try:
            del db
            assert alive() is None
        finally:
            gc.enable()


class TestScanProjection:
    def test_projected_scan_returns_column_tuples(self):
        table = _make_db(rows=6).table("t")
        assert list(table.scan(columns=["x"])) == [(r[0],) for r in table.rows]
        assert list(table.scan(columns=["tag", "x"])) == [
            (r[2], r[0]) for r in table.rows
        ]
        # Case-insensitive resolution, same as column_index.
        assert list(table.scan(columns=["TAG"]))[0] == ("even",)

    def test_projected_scan_allocates_no_row_dicts(self, monkeypatch):
        """Regression: Table.scan used to build one dict per row no matter
        how little of the row the caller consumed.  Pin the dict allocation
        count by shadowing ``dict`` in the table module: the full scan pays
        one per row, the projected scan pays zero."""
        import repro.sqldb.table as table_module

        counter = {"dicts": 0}

        class CountingDict(dict):
            def __init__(self, *args, **kwargs):
                counter["dicts"] += 1
                super().__init__(*args, **kwargs)

        # Module-global shadows the builtin inside Table.scan.
        monkeypatch.setattr(table_module, "dict", CountingDict, raising=False)
        table = _make_db(rows=500).table("t")

        counter["dicts"] = 0
        full = list(table.scan())
        assert counter["dicts"] == 500  # the old path: one dict per row
        assert len(full) == 500

        counter["dicts"] = 0
        projected = list(table.scan(columns=["x"]))
        assert counter["dicts"] == 0  # projection materializes tuples only
        assert len(projected) == 500


def _arena_row(arena_table, arena_id):
    return tuple(arena_table.column(name)[arena_id] for name in arena_table.column_names)


class TestShardArena:
    def _shard(self, sizes=(3, 5, 2)):
        from repro.sqldb import ShardArena

        members = [_make_db(rows=size) for size in sizes]
        return members, ShardArena(members)

    def test_concatenates_members_in_slot_order(self):
        members, arena = self._shard()
        table = arena.table("t")
        assert table.count == 10
        assert list(table.row_slot) == [0] * 3 + [1] * 5 + [2] * 2
        # Each slot's span lists its own rows in local order.
        for slot, member in enumerate(members):
            local_rows = member.table("t").rows
            for local_id, arena_id in enumerate(table.slot_rows[slot]):
                assert _arena_row(table, arena_id) == tuple(local_rows[local_id])

    def test_initial_build_counts_as_one_rebuild(self):
        _, arena = self._shard()
        stats = arena.table("t").stats()
        assert stats["rebuilds"] == 1
        assert stats["appended_rows"] == 10
        assert stats["span_rows"] == 10
        assert stats["included_slots"] == 3

    def test_appends_sync_in_place_without_rebuild(self):
        members, arena = self._shard()
        table = arena.table("t")
        members[1].insert_rows("t", [{"x": 77, "y": 7.0, "tag": "odd"}])
        table = arena.table("t")  # re-fetch syncs
        stats = table.stats()
        assert stats["rebuilds"] == 1  # no spurious rebuild
        assert stats["appended_rows"] == 11
        assert stats["span_rows"] == 11
        # The new row landed at the arena tail, mapped to slot 1.
        assert table.row_slot[-1] == 1
        assert _arena_row(table, 10) == (77, 7.0, "odd")

    def test_live_indexes_are_maintained_on_append(self):
        members, arena = self._shard()
        table = arena.table("t")
        hash_index = table.hash_index("x")
        tree_index = table.tree_index("y")
        members[2].insert_rows("t", [{"x": 0, "y": 99.5, "tag": "even"}])
        synced = arena.table("t")
        assert synced.hash_index("x") is hash_index  # maintained, not rebuilt
        assert 10 in hash_index.lookup(0)
        assert 10 in tree_index.range_ids(99.0, 100.0)
        assert synced.stats()["rebuilds"] == 1

    def test_in_place_member_edit_triggers_rebuild(self):
        members, arena = self._shard()
        arena.table("t")
        table = members[0].table("t")
        table.rows = [row for row in table.rows if row[0] != 1]
        stats = arena.table("t").stats()
        assert stats["rebuilds"] == 2
        assert stats["span_rows"] == 9

    def test_mismatched_schema_member_is_excluded(self):
        from repro.sqldb import Database, ShardArena

        members = [_make_db(rows=2)]
        odd = Database()
        odd.create_table("t", [("x", "TEXT")])
        odd.insert_rows("t", [{"x": "zz"}])
        members.append(odd)
        arena = ShardArena(members)
        table = arena.table("t")
        assert table.count == 2
        assert table.slot_rows[1] is None  # excluded: answers itself
        assert table.stats()["included_slots"] == 1

    def test_member_missing_the_table_is_excluded_until_created(self):
        from repro.sqldb import Database, ShardArena

        members = [_make_db(rows=2), Database()]
        arena = ShardArena(members)
        table = arena.table("t")
        assert table.slot_rows[1] is None
        members[1].create_table("t", [("x", "INTEGER"), ("y", "REAL"), ("tag", "TEXT")])
        members[1].insert_rows("t", [{"x": 5, "y": 0.5, "tag": "odd"}])
        table = arena.table("t")  # sync notices the new table and rebuilds
        assert table.slot_rows[1] is not None
        assert table.count == 3

    def test_matches_is_identity_based(self):
        members, arena = self._shard()
        assert arena.matches(members)
        assert not arena.matches(list(reversed(members)))
        assert not arena.matches(members[:-1])
        replaced = members[:-1] + [_make_db(rows=2)]
        assert not arena.matches(replaced)

    def test_arena_stats_reports_every_cached_table(self):
        _, arena = self._shard()
        arena.table("t")
        stats = arena.arena_stats()
        assert "t" in stats
        assert stats["t"]["rebuilds"] == 1
