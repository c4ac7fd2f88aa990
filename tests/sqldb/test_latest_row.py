"""The standing answer, the one thing the compiled path computes.

``arena_select_per_client(arena, sql)`` is what every client read asks
for: per member, the row scan's error, or the columns of
``member.query(sql)`` over only its last row, or a fallback marker for a
member the arena does not answer.  These tests pin
which route each statement takes (the standing answer for every one whose
projected names the schema holds, or ``None`` for one it lacks, whose
members' row scans raise), that the standing answer equals the row-scan reference's
``rows[-1:]``, that the one matching pass evaluates
every candidate in row order, and that a standing answer filled at once
equals one folded forward over tail appends (the differential fuzzer in
``test_engine_properties.py`` carries the same comparison over random
schemas).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sqldb import (
    ARENA_FALLBACK,
    CompileFallback,
    Database,
    ShardArena,
    arena_select_per_client,
    plan_for,
)
from repro.sqldb.engine import ResultSet
from repro.sqldb.parser import parse_statement
from tests.conftest import LATEST_ROW_COLUMNS, LATEST_ROW_MEMBERS, LATEST_ROW_STATEMENTS
from tests.sqldb.compiled_path import compiled_outcomes

TABLE = "private_data"


def _database(columns, rows) -> Database:
    db = Database()
    db.create_table(TABLE, list(columns))
    db.table(TABLE).append_rows(rows)
    return db


def _shard(columns, members):
    """Arena members in table order, plus a row-scan twin of each."""
    databases = [_database(columns, rows) for rows in members.values()]
    references = [_database(columns, rows) for rows in members.values()]
    return databases, references


def _reference_outcome(reference: Database, sql: str, latest: bool = True):
    try:
        result = reference.query(sql)
    except Exception as exc:  # noqa: BLE001 — parity includes error behavior
        return ("error", type(exc).__name__, str(exc))
    return ("rows", result.columns, result.rows[-1:] if latest else result.rows)


def _arena_outcome(entry):
    if isinstance(entry, BaseException):
        return ("error", type(entry).__name__, str(entry))
    return ("rows", entry.columns, entry.rows)


def _route(sql: str, columns) -> tuple[str | None, str]:
    """(plan shape, route) as the standing answer dispatches on them."""
    try:
        plan = plan_for(parse_statement(sql), columns)
    except CompileFallback:
        return None, "fallback"
    return plan.describe(), "standing"


class TestRouteTable:
    def test_every_statement_takes_its_route(self, latest_row_cases):
        columns, statements, _ = latest_row_cases
        schema = _database(columns, []).table(TABLE).columns
        got = [(sql, *_route(sql, schema)) for sql, _, _ in statements]
        assert got == list(statements)
        routes = {route for _, _, route in statements}
        assert routes == {"standing", "fallback"}

    def test_a_fallback_statement_is_asked_of_no_arena(self, monkeypatch, latest_row_cases):
        """An arena, a shard's or a database's own, answers a statement that
        does not compile with ``None``, and asking runs no matching pass and
        builds no standing answer: each member answers on the row scan."""
        from repro.sqldb import compile as compile_module

        columns, statements, members = latest_row_cases
        databases, references = _shard(columns, members)
        arena = ShardArena(databases)
        passes = []
        matching = compile_module.CompiledSelect.matching_ids_per_client

        def counting_pass(self, table, start=0):
            passes.append(start)
            return matching(self, table, start)

        monkeypatch.setattr(
            compile_module.CompiledSelect, "matching_ids_per_client", counting_pass
        )
        fallbacks = [sql for sql, _, route in statements if route == "fallback"]
        for sql in fallbacks:
            for asked in (arena, *(db.arena for db in databases)):
                assert arena_select_per_client(asked, sql) is None, sql
            for db, reference in zip(databases, references):
                assert _reference_outcome(db, sql) == _reference_outcome(reference, sql)
        for asked in (arena, *(db.arena for db in databases)):
            assert asked.arena_stats()[TABLE]["standing_plans"] == 0
        assert passes == []

    def test_a_case_twisted_projection_answers_on_the_arena(self, latest_row_cases):
        """``SELECT Value`` resolves as WHERE's names do, so it compiles and
        the arena answers every member like ``SELECT value``, matched or not,
        under the name as written, as the row scan does."""
        columns, _, members = latest_row_cases
        databases, _ = _shard(columns, members)
        twisted = f"SELECT Value FROM {TABLE} WHERE zone = 1"
        declared = f"SELECT value FROM {TABLE} WHERE zone = 1"
        assert (twisted, "probe-eq(zone)", "standing") in LATEST_ROW_STATEMENTS
        arena = ShardArena(databases)
        outcomes = arena_select_per_client(arena, twisted)
        for db, outcome, same in zip(
            databases, outcomes, arena_select_per_client(arena, declared)
        ):
            assert outcome.columns == db.query(twisted).columns == ["Value"]
            assert outcome.rows == same.rows == db.query(declared).rows[-1:]

    def test_latest_row_equals_scan_reference_last_row(self, latest_row_cases):
        columns, statements, members = latest_row_cases
        databases, references = _shard(columns, members)
        arena = ShardArena(databases)
        raised = set()
        for sql, _, route in statements:
            if route == "fallback":
                continue
            outcomes = arena_select_per_client(arena, sql)
            full = compiled_outcomes(arena, sql)
            assert len(outcomes) == len(databases)
            for name, entry, full_entry, reference in zip(
                members, outcomes, full, references
            ):
                assert entry is not ARENA_FALLBACK
                expected = _reference_outcome(reference, sql)
                assert _arena_outcome(entry) == expected, (sql, name)
                if expected[0] == "error":
                    raised.add((sql, name))
                    # ...and it is the matching pass's error, not merely a similar one.
                    assert _arena_outcome(full_entry)[:1] == ("error",)
                else:
                    assert len(entry.rows) <= 1
                    assert entry.rows == full_entry.rows[-1:]
        # Witnesses that no candidate is skipped: the reference raises for
        # exactly the member holding a non-NULL tag among its candidates,
        # though a later candidate matches; its neighbours answer normally.
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
        shard = [databases[0], odd, Database(), *databases[1:]]  # mixed schema, no table
        arena = ShardArena(shard)
        for sql, _, route in statements:
            outcomes = arena_select_per_client(arena, sql)
            full = compiled_outcomes(arena, sql)
            if route == "fallback":
                assert outcomes is full is None
                continue
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
        ids=["no-where", "eq-probe", "range-probe", "probe+residual", "probe+ne-residual"],
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
        before = arena_select_per_client(arena, sql)
        assert before[0].rows != [(7.5, "new")]
        # Slot 0's new row lands at the arena tail, past every other slot's ids.
        databases[0].table(TABLE).append_rows([(7.5, 1, "new")])
        arena.sync()
        after = arena_select_per_client(arena, sql)
        assert after[0].rows == [(7.5, "new")]
        for slot in range(1, len(databases)):
            assert _arena_outcome(after[slot]) == _arena_outcome(before[slot])
        assert arena.arena_stats()[TABLE]["rebuilds"] == 1
        assert arena.arena_stats()[TABLE]["appended_rows"] == sum(
            len(db.table(TABLE)) for db in databases
        )


def _residual_statements():
    return [
        sql
        for sql, shape, route in LATEST_ROW_STATEMENTS
        if route == "standing" and shape.endswith("residual")
    ]


class TestWorkPerSlot:
    """What the one matching pass evaluates, slot by slot."""

    @pytest.mark.parametrize("sql", _residual_statements())
    # 9: past the first member's rows, as if the rest had been appended.
    @pytest.mark.parametrize("start", [0, 9], ids=["fill", "fold"])
    def test_every_residual_evaluates_every_candidate_in_row_order(
        self, monkeypatch, latest_row_cases, sql, start
    ):
        """No early exit, total residual or not: per slot the residual runs
        on each candidate in row order up to the slot's first error, from
        the column probe at ``start=0`` and from the probe conjunct as a row
        predicate over rows ``start..`` otherwise."""
        columns, _, members = latest_row_cases
        databases, _ = _shard(columns, members)
        table = ShardArena(databases).table(TABLE)
        plan = plan_for(parse_statement(sql), table.columns)
        arrays = table.arrays()
        if start:
            candidate_ids = [
                row_id
                for row_id in range(start, table.count)
                if plan.probe_row is None or plan.probe_row(arrays, row_id)
            ]
        elif plan.probe is not None:
            candidate_ids = plan.probe.ids(table)
        else:
            candidate_ids = range(table.count)
        residual = plan.residual
        expected: dict[int, list[int]] = {}
        outcome: dict[int, object] = {}
        for row_id in candidate_ids:
            slot = table.row_slot[row_id]
            if isinstance(outcome.get(slot), BaseException):
                continue
            expected.setdefault(slot, []).append(row_id)
            survivors = outcome.setdefault(slot, [])
            try:
                if residual(arrays, row_id):
                    survivors.append(row_id)
            except Exception as exc:  # noqa: BLE001 — the slot's first error
                outcome[slot] = exc
        evaluated: dict[int, list[int]] = {}

        def counting(arrays, row_id):
            evaluated.setdefault(table.row_slot[row_id], []).append(row_id)
            return residual(arrays, row_id)

        monkeypatch.setattr(plan, "residual", counting)
        ids_per_slot = plan.matching_ids_per_client(table, start)
        assert evaluated == expected
        for slot, ids in enumerate(ids_per_slot):
            want = outcome.get(slot, [])
            if isinstance(want, BaseException):
                assert (type(ids), str(ids)) == (type(want), str(want)), (sql, slot)
            else:
                assert list(ids) == want, (sql, slot)

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
        outcomes = arena_select_per_client(arena, sql)
        assert reads.count("SQLDB_FORCE_SCAN") == 1
        assert all(o is not ARENA_FALLBACK for o in outcomes)
        os.environ["SQLDB_FORCE_SCAN"] = "1"
        outcomes = arena_select_per_client(arena, sql)
        assert all(o is ARENA_FALLBACK for o in outcomes)
        assert reads.count("SQLDB_FORCE_SCAN") == 2


# -- standing answers ----------------------------------------------------------


def _plain_statements(statements):
    """The statements the standing answer serves: every one that compiles."""
    return [sql for sql, _, route in statements if route == "standing"]


def _outcome(entry):
    if entry is ARENA_FALLBACK:
        return ("fallback",)
    return _arena_outcome(entry)


class TestStandingAnswers:
    """A compiled statement's standing answer comes from state the arena
    table keeps per plan: filled once, folded forward on tail appends."""

    def test_tail_appends_fold_without_a_probe(self, monkeypatch, latest_row_cases):
        from repro.sqldb import compile as compile_module

        columns, statements, members = latest_row_cases
        databases, references = _shard(columns, members)
        arena = ShardArena(databases)
        plain = _plain_statements(statements)
        for sql in plain:
            arena_select_per_client(arena, sql)
        covered = arena.table(TABLE).count
        probes, starts = [], []
        for probe_class in (
            compile_module._EmptyProbe,
            compile_module._InProbe,
            compile_module._RangeProbe,
        ):

            def counting_ids(self, table, ids=probe_class.ids):
                probes.append(self.describe())
                return ids(self, table)

            monkeypatch.setattr(probe_class, "ids", counting_ids)
        matching = compile_module.CompiledSelect.matching_ids_per_client

        def counting_pass(self, table, start=0):
            starts.append(start)
            return matching(self, table, start)

        monkeypatch.setattr(
            compile_module.CompiledSelect, "matching_ids_per_client", counting_pass
        )
        for slot in (0, 1, 3, 0):
            for db in (databases[slot], references[slot]):
                db.table(TABLE).append_rows([(2.8, 1, None), (6.0, 1, None), (1.5, 2, "abc")])
        arena.sync()
        for sql in plain:
            outcomes = arena_select_per_client(arena, sql)
            for name, entry, reference in zip(members, outcomes, references):
                assert _arena_outcome(entry) == _reference_outcome(reference, sql), (
                    sql,
                    name,
                )
        # Every fold is one pass from the count the answer covered; none
        # runs a column probe.
        assert probes == []
        assert starts == [covered] * len(plain)
        stats = arena.arena_stats()[TABLE]
        assert stats["rebuilds"] == 1
        assert stats["standing_plans"] == len(plain)

    def test_a_standing_fold_probes_nothing_and_a_full_ask_probes_the_grown_column(
        self, monkeypatch, latest_row_cases
    ):
        """What a stream of appends costs: the first standing ask probes each
        plan's column once, the standing answers fold the tail rows in
        without probing again, and only a matching pass from row 0 probes
        the whole grown column — selecting the row scan's rows."""
        from repro.sqldb import compile as compile_module

        columns, statements, members = latest_row_cases
        databases, _ = _shard(columns, members)
        arena = ShardArena(databases)
        plain = _plain_statements(statements)
        probes = []
        for probe_class in (compile_module._InProbe, compile_module._RangeProbe):

            def counting_ids(self, table, ids=probe_class.ids):
                probes.append(table.count)
                return ids(self, table)

            monkeypatch.setattr(probe_class, "ids", counting_ids)
        for sql in plain:
            arena_select_per_client(arena, sql)
        table = arena.table(TABLE)
        covered = table.count
        assert probes and set(probes) == {covered}
        probed_plans = len(probes)
        for db in databases:
            db.table(TABLE).append_rows([(2.8, 1, None), (1.5, 2, "abc")])
        arena.sync()
        for sql in plain:
            arena_select_per_client(arena, sql)
        assert len(probes) == probed_plans
        answers = {sql: compiled_outcomes(arena, sql) for sql in plain}
        assert probes[probed_plans:] == [table.count] * probed_plans
        assert table.count == covered + 2 * len(databases)
        assert table.stats()["rebuilds"] == 1
        monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
        for sql, outcomes in answers.items():
            for db, entry in zip(databases, outcomes):
                assert _arena_outcome(entry) == _reference_outcome(db, sql, False), sql

    def test_a_rebuild_drops_every_standing_answer(self, latest_row_cases):
        columns, statements, members = latest_row_cases
        databases, references = _shard(columns, members)
        arena = ShardArena(databases)
        plain = _plain_statements(statements)
        for sql in plain:
            arena_select_per_client(arena, sql)
        assert arena.arena_stats()[TABLE]["standing_plans"] == len(plain)
        for db in (databases[2], references[2]):
            db.table(TABLE).rows[0] = (9.9, 1, None)  # an in-place edit
        arena.sync()
        sql = plain[1]
        outcomes = arena_select_per_client(arena, sql)
        stats = arena.arena_stats()[TABLE]
        assert (stats["rebuilds"], stats["standing_plans"]) == (2, 1)
        assert [_arena_outcome(o) for o in outcomes] == [
            _reference_outcome(reference, sql) for reference in references
        ]

    def test_distinct_statements_never_grow_the_state_past_the_plan_cache(self):
        """A fuzz-style stream of distinct statements: the per-table state is
        an LRU at the plan cache's size, so a statement asked every time
        keeps its answer while cold ones are evicted oldest-first."""
        from repro.sqldb.compile import _PLAN_CACHE_MAX

        db = _database([("value", "REAL")], [(float(i),) for i in range(8)])
        arena = ShardArena([db])
        hot = f"SELECT value FROM {TABLE} WHERE value < 3.0"
        table = arena.table(TABLE)
        for i in range(_PLAN_CACHE_MAX + 40):
            (cold,) = arena_select_per_client(
                arena, f"SELECT value FROM {TABLE} WHERE value > {i}.5"
            )
            assert cold.rows == ([(7.0,)] if i < 7 else [])
            (warm,) = arena_select_per_client(arena, hot)
            assert warm.rows == [(2.0,)]
            assert table.stats()["standing_plans"] <= _PLAN_CACHE_MAX
        assert table.stats()["standing_plans"] == _PLAN_CACHE_MAX
        hot_plan = plan_for(parse_statement(hot), table.columns)
        assert hot_plan in table._standing

    def test_the_oracle_path_builds_no_standing_state(self, monkeypatch, latest_row_cases):
        columns, statements, members = latest_row_cases
        databases, _ = _shard(columns, members)
        arena = ShardArena(databases)
        plain = _plain_statements(statements)
        monkeypatch.setenv("SQLDB_FORCE_SCAN", "1")
        for sql in plain:
            outcomes = arena_select_per_client(arena, sql)
            assert all(o is ARENA_FALLBACK for o in outcomes)
        assert arena.arena_stats() == {}  # no arena table is even built
        monkeypatch.delenv("SQLDB_FORCE_SCAN")
        # Asking no member builds nothing either.
        for sql in plain:
            outcomes = arena_select_per_client(arena, sql, slots=[])
            assert all(o is ARENA_FALLBACK for o in outcomes)
        assert arena.arena_stats()[TABLE]["standing_plans"] == 0
        outcomes = arena_select_per_client(arena, plain[0], slots=[1])
        assert [o is ARENA_FALLBACK for o in outcomes] == [True, False] + [True] * (
            len(databases) - 2
        )
        assert arena.arena_stats()[TABLE]["standing_plans"] == 1

    def test_unasked_slots_are_never_finished(self, monkeypatch, latest_row_cases):
        from repro.sqldb import engine

        columns, _, members = latest_row_cases
        databases, _ = _shard(columns, members)
        arena = ShardArena(databases)
        finished = []
        projection = engine._projection

        def counting_projection(plan, table):
            project = projection(plan, table)

            def counted(row_id):
                finished.append(row_id)
                return project(row_id)

            return counted

        monkeypatch.setattr(engine, "_projection", counting_projection)
        sql = f"SELECT value FROM {TABLE}"
        outcomes = arena_select_per_client(arena, sql, slots=[1])
        assert [o is ARENA_FALLBACK for o in outcomes] == [
            slot != 1 for slot in range(len(databases))
        ]
        assert finished == [arena.table(TABLE).slot_rows[1][-1]]


class TestStandingOutcomes:
    """A slot's finished one-row outcome is kept with its standing row id:
    the same object is handed out until that id moves, and it goes with the
    standing answer on a rebuild or an eviction.  An error is never kept."""

    SQL = f"SELECT value, tag FROM {TABLE} WHERE zone = 1"

    def _ask(self, arena, sql=SQL):
        arena.sync()  # once per pass, as the shard answer pass does
        return arena_select_per_client(arena, sql)

    def _arena(self, latest_row_cases):
        columns, _, members = latest_row_cases
        databases, _ = _shard(columns, members)
        return databases, ShardArena(databases)

    def test_unchanged_epochs_hand_out_the_same_object(self, latest_row_cases):
        _, arena = self._arena(latest_row_cases)
        first = self._ask(arena)
        one_row = [slot for slot, o in enumerate(first) if len(o.rows) == 1]
        assert one_row
        for _ in range(3):
            again = self._ask(arena)
            assert all(again[slot] is first[slot] for slot in one_row)

    def test_a_tail_append_that_moves_the_latest_match_replaces_it(self, latest_row_cases):
        databases, arena = self._arena(latest_row_cases)
        before = self._ask(arena)
        databases[0].table(TABLE).append_rows([(7.5, 1, "new")])  # matches
        databases[1].table(TABLE).append_rows([(7.5, 9, "off")])  # does not
        after = self._ask(arena)
        assert after[0] is not before[0] and after[0].rows == [(7.5, "new")]
        assert after[1] is before[1]
        assert self._ask(arena)[0] is after[0]

    def test_a_rebuild_drops_it(self, latest_row_cases):
        databases, arena = self._arena(latest_row_cases)
        before = self._ask(arena)
        rows = databases[2].table(TABLE).rows
        rows[0] = rows[0]  # an in-place edit
        after = self._ask(arena)
        assert arena.arena_stats()[TABLE]["rebuilds"] == 2
        assert [_arena_outcome(o) for o in after] == [_arena_outcome(o) for o in before]
        assert all(a is not b for a, b in zip(after, before) if len(b.rows) == 1)

    def test_an_eviction_drops_it(self):
        from repro.sqldb.compile import _PLAN_CACHE_MAX

        arena = ShardArena([_database([("value", "REAL")], [(1.0,), (2.0,)])])
        hot = f"SELECT value FROM {TABLE} WHERE value < 3.0"
        (first,) = self._ask(arena, hot)
        assert self._ask(arena, hot)[0] is first
        for i in range(_PLAN_CACHE_MAX):
            self._ask(arena, f"SELECT value FROM {TABLE} WHERE value > {i}.5")
        (again,) = self._ask(arena, hot)
        assert again is not first and again.rows == first.rows == [(2.0,)]

    @pytest.mark.parametrize(
        "sql",
        # The residual raises on "text-tag"'s rows: a standing error.
        [f"SELECT value FROM {TABLE} WHERE zone = 1 AND (value > 3.0 OR tag < 5)"],
        ids=["standing-error"],
    )
    def test_an_erroring_slot_is_never_cached(self, latest_row_cases, sql):
        _, arena = self._arena(latest_row_cases)
        first = self._ask(arena, sql)
        errors = [slot for slot, o in enumerate(first) if isinstance(o, BaseException)]
        assert errors
        table = arena.table(TABLE)
        _, finished = table.standing_latest(plan_for(parse_statement(sql), table.columns))
        assert all(finished[slot] is None for slot in errors)
        again = self._ask(arena, sql)
        assert all(isinstance(again[slot], BaseException) for slot in errors)
        # Exactly the one-row outcomes are kept.
        assert finished == [
            o if isinstance(o, ResultSet) and len(o.rows) == 1 else None for o in again
        ]


@pytest.mark.parametrize("sql", _plain_statements(LATEST_ROW_STATEMENTS))
@pytest.mark.parametrize("batch", [1, 2, 3], ids=["by-1", "by-2", "by-3"])
def test_fill_and_fold_agree(sql, batch):
    """One arena holds every member's rows at its first ask; a second gets
    them in tail batches of ``batch`` rows, asked after each batch.  The
    standing answers agree error for error, and equal the row scan's
    ``rows[-1:]``."""
    columns, members = LATEST_ROW_COLUMNS, LATEST_ROW_MEMBERS
    whole, references = _shard(columns, members)
    batched = [_database(columns, []) for _ in members]
    whole_arena, batched_arena = ShardArena(whole), ShardArena(batched)
    filled = arena_select_per_client(whole_arena, sql)
    longest = max(len(rows) for rows in members.values())
    for first in range(0, longest, batch):
        for db, rows in zip(batched, members.values()):
            db.table(TABLE).append_rows(rows[first : first + batch])
        batched_arena.sync()
        folded = arena_select_per_client(batched_arena, sql)
    assert [_arena_outcome(o) for o in folded] == [_arena_outcome(o) for o in filled]
    assert [_arena_outcome(o) for o in folded] == [
        _reference_outcome(reference, sql) for reference in references
    ]
    stats = batched_arena.arena_stats()[TABLE]
    assert (stats["rebuilds"], stats["standing_plans"]) == (1, 1)


# The fold property's inputs.  Members are LATEST_ROW_MEMBERS' six, then a
# seventh that starts with one row, one with a mismatched schema and one
# without the table.  ``tag`` holds text, so ordering it against a number raises; NULLs
# sit in every column.
_PLAIN = _plain_statements(LATEST_ROW_STATEMENTS)
_GATE = _PLAIN.index(f"SELECT value FROM {TABLE} WHERE zone = 1 AND (value > 3.0 OR tag < 5)")
_ROWS = st.tuples(
    st.one_of(st.none(), st.sampled_from([0.2, 0.5, 1.0, 2.0, 2.5, 3.3, 4.5, 6.0])),
    st.one_of(st.none(), st.sampled_from([1, 2, 3])),
    st.sampled_from([None, None, "a", "b", "abc", "x"]),
)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "append", "append", "edit", "none"]),
        st.integers(min_value=0, max_value=7),  # appended/edited: a member or the odd one
        st.lists(_ROWS, min_size=1, max_size=4),
        st.sets(st.integers(min_value=0, max_value=len(_PLAIN) - 1)),  # asked statements
        st.one_of(st.none(), st.sets(st.integers(min_value=0, max_value=8))),  # slots
    ),
    min_size=1,
    max_size=10,
)


class TestStandingFoldProperty:
    """Random interleavings of asks and tail appends: after every step each
    standing answer asked equals a fresh arena's and the row scan's
    ``rows[-1:]``, error for error, and the participant-restricted form is
    the unrestricted answer on the asked slots and a fallback marker
    elsewhere."""

    @given(steps=_STEPS)
    # "text-tag" raises on the gate statement; a later row that matches it
    # without raising must not replace the error (the first one wins).
    @example(
        steps=[
            ("none", 0, [(None, None, None)], {_GATE}, None),
            ("append", 1, [(6.0, 1, None)], {_GATE}, {1}),
        ]
    )
    @settings(max_examples=80, deadline=None)
    def test_standing_answers_equal_fresh_and_reference(self, steps):
        columns = LATEST_ROW_COLUMNS
        plain = _PLAIN
        databases = [_database(columns, rows) for rows in LATEST_ROW_MEMBERS.values()]
        seventh = _database(columns, [(1.0, 1, None)])
        odd = _database([*columns, ("extra", "REAL")], [(1.0, 1, None, 2.0)])
        databases += [seventh, odd, Database()]  # one more, mismatched, no table
        # Appends go to the seven members or the mismatched one.
        targets = [*range(6), 6, 7]
        arena = ShardArena(databases)
        for op, member, rows, asked, slots in steps:
            db = databases[targets[member]]
            table = db.table(TABLE)
            if op == "append":
                extra = (0.0,) if db is odd else ()
                table.append_rows([row + extra for row in rows])
            elif op == "edit" and len(table):
                table.rows[-1] = table.rows[0]  # in place: forces a rebuild
            arena.sync()  # once per step, as the shard answer pass does
            fresh = ShardArena(databases)
            for index in sorted(asked):
                sql = plain[index]
                if slots is not None:
                    restricted = arena_select_per_client(
                        arena, sql, slots=sorted(slots)
                    )
                outcomes = arena_select_per_client(arena, sql)
                expected = arena_select_per_client(fresh, sql)
                assert [_outcome(o) for o in outcomes] == [_outcome(o) for o in expected]
                for slot, entry in enumerate(outcomes):
                    if entry is ARENA_FALLBACK:
                        continue
                    reference = _reference_outcome(_twin(databases[slot]), sql)
                    assert _arena_outcome(entry) == reference, (sql, slot)
                if slots is not None:
                    assert [_outcome(o) for o in restricted] == [
                        _outcome(o) if slot in slots else ("fallback",)
                        for slot, o in enumerate(outcomes)
                    ]
        for stats in arena.arena_stats().values():
            assert stats["standing_plans"] <= len(plain)


def _twin(db: Database) -> Database:
    """A copy of ``db``'s table, whose row scan is the reference answer."""
    table = db.table(TABLE)
    return _database([(c.name, c.sql_type) for c in table.columns], list(table.rows))
