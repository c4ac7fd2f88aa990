"""The latest-row form of the shard-wide answer pass.

``arena_select_per_client(arena, sql, latest=True)`` is what the epoch
runtime asks for: per member, the full form's error or fallback marker,
else the full form's columns over only its last row.  These tests pin
which route each statement shape takes, that every route equals the
row-scan reference's ``rows[-1:]``, that early exit happens only behind
the compile-time totality gate, and that the work per slot stays O(1)-ish
(the differential fuzzer in ``test_engine_properties.py`` carries the
same comparison over random schemas).
"""

import pytest

from repro.sqldb import (
    ARENA_FALLBACK,
    Database,
    ShardArena,
    arena_select_per_client,
    plan_for,
)
from repro.sqldb.engine import _is_plain_projection
from repro.sqldb.parser import parse_statement

TABLE = "private_data"


def _database(columns, rows, force_scan=False) -> Database:
    db = Database()
    db.force_scan = force_scan
    db.create_table(TABLE, list(columns))
    db.table(TABLE).append_rows(rows)
    return db


def _shard(columns, members):
    """Arena members in table order, plus a row-scan twin of each."""
    databases = [_database(columns, rows) for rows in members.values()]
    references = [_database(columns, rows, force_scan=True) for rows in members.values()]
    return databases, references


def _reference_outcome(reference: Database, sql: str):
    try:
        result = reference.query(sql)
    except Exception as exc:  # noqa: BLE001 — parity includes error behavior
        return ("error", type(exc).__name__, str(exc))
    return ("rows", result.columns, result.rows[-1:])


def _arena_outcome(entry):
    if isinstance(entry, BaseException):
        return ("error", type(entry).__name__, str(entry))
    return ("rows", entry.columns, entry.rows)


def _route(sql: str, columns) -> tuple[str, str]:
    """(plan shape, route) as the latest-row form dispatches on them."""
    statement = parse_statement(sql)
    plan = plan_for(statement, columns)
    if not _is_plain_projection(statement):
        route = "full-finish"
    elif statement.where is None:
        route = "span-tail"
    elif plan.probe is not None and plan.residual is None:
        route = "probe-max"
    elif plan.probe is not None and plan.residual_total:
        route = "tail-walk"
    else:
        route = "every-candidate"
    return plan.describe(), route


class TestRouteTable:
    def test_every_statement_takes_its_route(self, latest_row_cases):
        columns, statements, _ = latest_row_cases
        schema = _database(columns, []).table(TABLE).columns
        got = [(sql, *_route(sql, schema)) for sql, _, _ in statements]
        assert got == list(statements)
        routes = {route for _, _, route in statements}
        assert routes == {
            "span-tail",
            "probe-max",
            "tail-walk",
            "every-candidate",
            "full-finish",
        }

    def test_totality_reuses_the_probe_soundness_bar(self, latest_row_cases):
        columns, _, _ = latest_row_cases
        schema = _database(columns, []).table(TABLE).columns

        def total(where: str) -> bool:
            return plan_for(
                parse_statement(f"SELECT value FROM {TABLE} WHERE {where}"), schema
            ).residual_total

        assert total("zone = 1 AND value < 1.0")
        assert total("zone = 1 AND 1.0 > value AND tag = 'a' AND zone IN (1, NULL)")
        assert total("zone = 1 AND tag BETWEEN 'a' AND 'b'")
        assert total("zone = NULL AND value = 'text'")  # equality never raises
        # Anything a probe would refuse keeps the walk exhaustive.
        assert not total("zone = 1 AND value < 'a'")  # literal not comparable
        assert not total("zone = 1 AND tag BETWEEN 1 AND 'b'")
        assert not total("zone = 1 AND value != 1.0")
        assert not total("zone = 1 AND value IS NULL")
        assert not total("zone = 1 AND NOT value < 1.0")
        assert not total("zone = 1 AND value < zone")
        assert not total("zone = 1 AND value < 1.0 AND nope = 1")
        assert not total("value < 1.0 OR zone = 1")  # no probe, never total
        assert not total("zone = 1")  # no residual at all

    def test_latest_row_equals_scan_reference_last_row(self, latest_row_cases):
        columns, statements, members = latest_row_cases
        databases, references = _shard(columns, members)
        arena = ShardArena(databases)
        raised = set()
        for sql, _, _ in statements:
            outcomes = arena_select_per_client(arena, sql, latest=True)
            full = arena_select_per_client(arena, sql)
            assert len(outcomes) == len(databases)
            for name, entry, full_entry, reference in zip(
                members, outcomes, full, references
            ):
                assert entry is not ARENA_FALLBACK
                expected = _reference_outcome(reference, sql)
                assert _arena_outcome(entry) == expected, (sql, name)
                if expected[0] == "error":
                    raised.add((sql, name))
                    # ...and it is the full form's error, not merely a similar one.
                    assert _arena_outcome(full_entry)[:1] == ("error",)
                else:
                    assert len(entry.rows) <= 1
                    assert entry.rows == full_entry.rows[-1:]
        # The totality gate's witnesses: the reference raises for exactly the
        # member holding a non-NULL tag among its candidates, though a later
        # candidate matches; its neighbours answer normally.
        gate = f"SELECT value FROM {TABLE} WHERE zone = 1 AND (value > 3.0 OR tag < 5)"
        assert {name for sql, name in raised if sql == gate} == {"text-tag"}
        ungated = f"SELECT value FROM {TABLE} WHERE value > 3.0 OR tag < 5"
        assert {name for sql, name in raised if sql == ungated} == {
            "text-tag",
            "null-value",
            "late-tag",
        }

    def test_fallback_members_keep_their_marker(self, latest_row_cases):
        columns, statements, members = latest_row_cases
        databases, _ = _shard(columns, members)
        odd = _database([*columns, ("extra", "REAL")], [(1.0, 1, None, 2.0)])
        pinned = _database(columns, members["plain"], force_scan=True)
        shard = [databases[0], odd, pinned, *databases[1:]]
        arena = ShardArena(shard)
        for sql, _, _ in statements:
            outcomes = arena_select_per_client(arena, sql, latest=True)
            full = arena_select_per_client(arena, sql)
            assert [o is ARENA_FALLBACK for o in outcomes] == [
                o is ARENA_FALLBACK for o in full
            ]
            assert outcomes[1] is ARENA_FALLBACK and outcomes[2] is ARENA_FALLBACK
            assert outcomes[0] is not ARENA_FALLBACK


class TestTailAppends:
    """Arena ids ascend within a slot across ``ShardDelta``-style appends,
    which is what makes "maximum id" mean "last row"."""

    @pytest.mark.parametrize(
        "where",
        [
            "",
            " WHERE zone = 1",
            " WHERE value > 2.0",
            " WHERE zone IN (1, 2) AND value < 10.0",
            " WHERE zone = 1 AND value != 2.0",
        ],
        ids=["span-tail", "hash-probe", "tree-probe", "tail-walk", "every-candidate"],
    )
    @pytest.mark.parametrize("one_slot", [False, True], ids=["shard", "one-slot"])
    def test_appended_row_becomes_the_answer_without_a_rebuild(
        self, latest_row_cases, where, one_slot
    ):
        columns, _, members = latest_row_cases
        databases, _ = _shard(columns, members)
        if one_slot:  # the first member's own arena, the one its SELECTs read
            databases = databases[:1]
            arena = databases[0].arena
        else:
            arena = ShardArena(databases)
        sql = f"SELECT value, tag FROM {TABLE}{where}"
        before = arena_select_per_client(arena, sql, latest=True)
        assert before[0].rows != [(7.5, "new")]
        # Slot 0's new row lands at the arena tail, past every other slot's ids.
        databases[0].table(TABLE).append_rows([(7.5, 1, "new")])
        after = arena_select_per_client(arena, sql, latest=True)
        assert after[0].rows == [(7.5, "new")]
        for slot in range(1, len(databases)):
            assert _arena_outcome(after[slot]) == _arena_outcome(before[slot])
        assert arena.arena_stats()[TABLE]["rebuilds"] == 1
        assert arena.arena_stats()[TABLE]["appended_rows"] == sum(
            len(db.table(TABLE)) for db in databases
        )


class TestWorkPerSlot:
    """The pin that keeps the gain from silently regressing."""

    def _counted(self, monkeypatch, arena, sql):
        table = arena.table(TABLE)
        plan = plan_for(parse_statement(sql), table.columns)
        candidates: dict[int, list[int]] = {}
        for row_id in plan.probe.ids(table):
            candidates.setdefault(table.row_slot[row_id], []).append(row_id)
        arrays = table.arrays()
        residual = plan.residual
        truthy = {
            slot: [row_id for row_id in ids if residual(arrays, row_id)]
            for slot, ids in candidates.items()
        }
        evaluated: dict[int, list[int]] = {}

        def counting(arrays, row_id):
            evaluated.setdefault(table.row_slot[row_id], []).append(row_id)
            return residual(arrays, row_id)

        monkeypatch.setattr(plan, "residual", counting)
        ids_per_slot = plan.matching_ids_per_client(table, latest=True)
        return candidates, truthy, evaluated, ids_per_slot

    def test_total_residual_stops_at_each_slots_last_match(
        self, monkeypatch, latest_row_cases
    ):
        columns, _, members = latest_row_cases
        databases, _ = _shard(columns, members)
        arena = ShardArena(databases)
        sql = f"SELECT value FROM {TABLE} WHERE zone IN (1, 2) AND value < 1.0"
        candidates, truthy, evaluated, ids_per_slot = self._counted(
            monkeypatch, arena, sql
        )
        assert any(truthy.values()) and candidates
        for slot, ids in candidates.items():
            if truthy[slot]:
                after_last_match = [i for i in ids if i > truthy[slot][-1]]
                assert len(evaluated[slot]) == len(after_last_match) + 1
                assert list(ids_per_slot[slot]) == truthy[slot][-1:]
            else:
                assert sorted(evaluated[slot]) == ids
                assert len(ids_per_slot[slot]) == 0
        # "plain" has two candidates after its last match: the walk saw three.
        assert len(evaluated[0]) == 3 < len(candidates[0])

    def test_non_total_residual_evaluates_every_candidate_in_row_order(
        self, monkeypatch, latest_row_cases
    ):
        columns, _, members = latest_row_cases
        databases, _ = _shard(columns, members)
        arena = ShardArena(databases)
        sql = f"SELECT value FROM {TABLE} WHERE zone = 1 AND value != 2.0"
        candidates, truthy, evaluated, ids_per_slot = self._counted(
            monkeypatch, arena, sql
        )
        assert evaluated == candidates
        for slot, ids in truthy.items():
            assert list(ids_per_slot[slot]) == ids[-1:]

    def test_force_scan_switch_is_read_once_per_statement(
        self, monkeypatch, latest_row_cases
    ):
        """One environment read per call (not one per slot), still never
        cached across calls."""
        import os

        columns, _, members = latest_row_cases
        databases, _ = _shard(columns, members)
        arena = ShardArena(databases)
        sql = f"SELECT value FROM {TABLE} WHERE zone = 1"
        reads = []

        class CountingEnviron(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        monkeypatch.setattr(os, "environ", CountingEnviron(os.environ))
        outcomes = arena_select_per_client(arena, sql, latest=True)
        assert reads.count("SQLDB_FORCE_SCAN") == 1
        assert all(o is not ARENA_FALLBACK for o in outcomes)
        os.environ["SQLDB_FORCE_SCAN"] = "1"
        outcomes = arena_select_per_client(arena, sql, latest=True)
        assert all(o is ARENA_FALLBACK for o in outcomes)
        assert reads.count("SQLDB_FORCE_SCAN") == 2
