"""Unit tests for the predicate compiler: probe selection, soundness
gates, plan caching, and the SQLDB_FORCE_SCAN escape hatch."""

import pytest

from repro.sqldb import ARENA_FALLBACK, CompileFallback, Database, arena_select_per_client, plan_for
from repro.sqldb.parser import parse_statement
from tests.sqldb.compiled_path import compiled_query


def _db():
    db = Database()
    db.create_table(
        "t", [("x", "INTEGER"), ("y", "REAL"), ("tag", "TEXT"), ("ok", "BOOLEAN")]
    )
    db.insert_rows(
        "t",
        [
            {"x": 1, "y": 1.0, "tag": "a", "ok": True},
            {"x": 2, "y": None, "tag": "bb", "ok": False},
            {"x": 2, "y": 3.5, "tag": None, "ok": True},
            {"x": 9, "y": -1.0, "tag": "ccc", "ok": None},
        ],
    )
    return db


def _plan(db, sql):
    return plan_for(parse_statement(sql), db.table("t").columns)


class TestProbeSelection:
    @pytest.mark.parametrize(
        ("sql", "expected"),
        [
            ("SELECT * FROM t", "all"),
            ("SELECT * FROM t WHERE x = 2", "probe-eq(x)"),
            ("SELECT * FROM t WHERE 2 = x", "probe-eq(x)"),
            ("SELECT * FROM t WHERE tag IN ('a', 'bb')", "probe-in(tag)"),
            ("SELECT * FROM t WHERE x BETWEEN 1 AND 5", "probe-range(x)"),
            ("SELECT * FROM t WHERE x > 3", "probe-range(x)"),
            ("SELECT * FROM t WHERE 3 > x", "probe-range(x)"),
            ("SELECT * FROM t WHERE tag < 'm'", "probe-range(tag)"),
            ("SELECT * FROM t WHERE x = 2 AND y > 0", "probe-eq(x)+residual"),
            ("SELECT * FROM t WHERE x != 2", "residual"),
            ("SELECT * FROM t WHERE x IS NULL", "residual"),
            ("SELECT * FROM t WHERE x = NULL", "empty"),
        ],
    )
    def test_plan_shapes(self, sql, expected):
        assert _plan(_db(), sql).describe() == expected

    def test_only_first_conjunct_probes(self):
        # The scan engine short-circuits conjuncts left to right; probing a
        # later conjunct would skip evaluations (and errors) the reference
        # performs, so only the leading conjunct may be probed.
        db = _db()
        assert _plan(db, "SELECT * FROM t WHERE y IS NULL AND x = 2").describe() == (
            "residual"
        )
        assert _plan(db, "SELECT * FROM t WHERE x = 2 AND y IS NULL").describe() == (
            "probe-eq(x)+residual"
        )

    def test_every_probe_requires_type_compatible_literal(self):
        # TEXT < 5 raises TypeError row by row under the scan engine; the
        # residual path must be the one to reproduce that, so no probe.
        db = _db()
        assert _plan(db, "SELECT * FROM t WHERE tag < 5").describe() == "residual"
        assert _plan(db, "SELECT * FROM t WHERE x < 'm'").describe() == "residual"
        # Equality and IN never raise, but the one probe gate admits only
        # literals that order against the column's type, so they fall to
        # the residual too, which matches nothing as the scan does.
        assert _plan(db, "SELECT * FROM t WHERE x = 'm'").describe() == "residual"
        assert _plan(db, "SELECT * FROM t WHERE x IN (1, 'm')").describe() == "residual"
        assert _plan(db, "SELECT * FROM t WHERE x IN (1, NULL)").describe() == "probe-in(x)"
        assert compiled_query(db, "SELECT x FROM t WHERE x = 'm'").rows == []
        assert compiled_query(db, "SELECT x FROM t WHERE x IN (2, 'm')").rows == [(2,), (2,)]

    def test_unknown_probe_column_falls_to_residual(self):
        assert _plan(_db(), "SELECT * FROM t WHERE nope = 1").describe() == "residual"

    def test_case_insensitive_probe_column(self):
        assert _plan(_db(), "SELECT * FROM t WHERE X = 2").describe() == "probe-eq(x)"


class TestProbeResults:
    def test_null_equality_probe_matches_nothing(self):
        db = _db()
        for answer in (compiled_query, Database.query):
            assert len(answer(db, "SELECT x FROM t WHERE tag = NULL")) == 0

    def test_in_with_null_choice_matches_no_null_row(self):
        # A NULL operand is never IN the choices, a NULL choice included.
        db = _db()
        for answer in (compiled_query, Database.query):
            result = answer(db, "SELECT x FROM t WHERE tag IN (NULL, 'a')")
            assert [value for (value,) in result.rows] == [1]

    def test_matching_ids_are_row_ordered(self):
        db = _db()
        plan = _plan(db, "SELECT * FROM t WHERE x = 2")
        (ids,) = plan.matching_ids_per_client(db.arena.table("t"))
        assert list(ids) == [1, 2]


class TestPlanCache:
    def test_same_statement_and_schema_share_a_plan(self):
        db = _db()
        first = _plan(db, "SELECT * FROM t WHERE x = 2")
        second = _plan(db, "SELECT  *  FROM t WHERE x = 2")  # same AST
        assert first is second

    def test_different_schema_gets_a_different_plan(self):
        db = _db()
        other = Database()
        other.create_table("t", [("x", "TEXT")])
        statement = parse_statement("SELECT * FROM t WHERE x = 'a'")
        assert plan_for(statement, db.table("t").columns) is not plan_for(
            statement, other.table("t").columns
        )

    def test_fallback_is_raised_and_cached(self):
        # A projected name the schema lacks is the one statement that falls back.
        statement = parse_statement("SELECT missing FROM t WHERE x = 1")
        columns = _db().table("t").columns
        for _ in range(2):  # second hit comes from the cached fallback
            with pytest.raises(CompileFallback):
                plan_for(statement, columns)


class TestPlanCacheLRU:
    """Regression tests for LRU eviction: the old cache evicted by wholesale
    ``clear()`` at capacity, throwing away every hot plan."""

    def _fill_past_capacity(self, db, hot_sql, touch_hot):
        from repro.sqldb import compile as compile_mod

        hot = _plan(db, hot_sql)
        for i in range(compile_mod._PLAN_CACHE_MAX):
            _plan(db, f"SELECT * FROM t WHERE x = {i}")
            if touch_hot:
                _plan(db, hot_sql)
        return hot

    def test_hot_plan_survives_cache_pressure(self):
        # 512 cold compilations used to clear() the whole cache; under LRU
        # the re-touched hot plan must come back as the very same object.
        db = _db()
        hot_sql = "SELECT * FROM t WHERE tag = 'a'"
        hot = self._fill_past_capacity(db, hot_sql, touch_hot=True)
        assert _plan(db, hot_sql) is hot

    def test_untouched_plan_is_evicted_oldest_first(self):
        db = _db()
        cold_sql = "SELECT * FROM t WHERE tag = 'bb'"
        cold = self._fill_past_capacity(db, cold_sql, touch_hot=False)
        assert _plan(db, cold_sql) is not cold

    def test_cache_never_exceeds_capacity(self):
        from repro.sqldb import compile as compile_mod

        db = _db()
        for i in range(compile_mod._PLAN_CACHE_MAX + 64):
            _plan(db, f"SELECT * FROM t WHERE x > {i}")
        assert len(compile_mod._PLAN_CACHE) <= compile_mod._PLAN_CACHE_MAX

    def test_fallback_entries_survive_as_lru_citizens(self):
        # A cached negative entry must behave like any other: re-raised on
        # hit, evictable under pressure without corrupting the cache.
        statement = parse_statement("SELECT missing FROM t WHERE x = 1")
        db = _db()
        columns = db.table("t").columns
        with pytest.raises(CompileFallback):
            plan_for(statement, columns)
        for i in range(16):
            _plan(db, f"SELECT * FROM t WHERE y > {i}.5")
        with pytest.raises(CompileFallback):
            plan_for(statement, columns)

    def test_concurrent_lookup_insert_is_safe(self):
        # The pipelined-overlap/in-process scheduler compiles from pool
        # threads; hammer the cache from several threads at once and
        # require every thread to resolve every statement to the same plan.
        import threading

        db = _db()
        sqls = [f"SELECT * FROM t WHERE x = {i}" for i in range(32)]
        statements = [parse_statement(sql) for sql in sqls]
        columns = db.table("t").columns
        errors = []
        results = [dict() for _ in range(8)]

        def worker(slot):
            try:
                for _ in range(20):
                    for index, statement in enumerate(statements):
                        results[slot][index] = plan_for(statement, columns)
            except Exception as exc:  # noqa: BLE001 - surfaced via the list
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for index in range(len(statements)):
            plans = {id(result[index]) for result in results}
            assert len(plans) == 1  # every thread saw one shared plan


class TestForceScan:
    SQL = "SELECT x FROM t WHERE x = 2"

    def test_env_var_pins_the_scan_path(self, monkeypatch):
        db = _db()
        monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
        assert [value for (value,) in db.query(self.SQL).rows] == [2, 2]
        # The reference path must not have built a columnar copy...
        assert db._arena is None
        # ...and the compiled answer leaves every member to it.
        assert arena_select_per_client(db.arena, self.SQL) == [ARENA_FALLBACK]

    @pytest.mark.parametrize("value", ["", "0", "false", "False"])
    def test_falsey_env_values_keep_the_compiled_path(self, value, monkeypatch):
        db = _db()
        monkeypatch.setenv("SQLDB_FORCE_SCAN", value)
        (outcome,) = arena_select_per_client(db.arena, self.SQL)
        assert outcome is not ARENA_FALLBACK and outcome.rows == [(2,)]

    @pytest.mark.parametrize(
        "sql", [SQL, "SELECT * FROM t", "SELECT X AS v, tag FROM t WHERE y IS NULL"]
    )
    def test_query_never_builds_syncs_or_asks_an_arena(self, sql, monkeypatch):
        monkeypatch.delenv("SQLDB_FORCE_SCAN", raising=False)
        db = _db()
        db.query(sql)
        assert db._arena is None
        arena = db.arena  # built by hand: a query still leaves it untouched
        db.insert_rows("t", [{"x": 2}])
        assert db.query(sql).rows
        assert arena.arena_stats() == {}

    def test_both_paths_agree_mid_process_flip(self, monkeypatch):
        db = _db()
        for sql in ("SELECT * FROM t WHERE x >= 2", "SELECT Tag, X FROM t WHERE x >= 2"):
            monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
            scanned = compiled_query(db, sql).rows
            monkeypatch.setenv("SQLDB_FORCE_SCAN", "0")
            compiled = compiled_query(db, sql).rows
            assert scanned == compiled
