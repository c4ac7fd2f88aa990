"""Property-based tests for the SQL engine.

Two harnesses live here:

* hypothesis properties over a fixed two-column table (the original
  suite), and
* the seeded differential fuzzer (``TestDifferentialFuzz``) that
  generates random schemas, tables, append streams and statements of the
  client dialect (projected names in random case) and holds
  the compiled columnar path (:mod:`repro.sqldb.compile`) to the frozen
  row-scan reference — its matching pass to the scan's rows and its
  standing answer to their last row, raised errors included — plus an
  arena grown by appends answering like one rebuilt from scratch.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import CompileFallback, Database, plan_for
from repro.sqldb.parser import parse_statement
from tests.sqldb.compiled_path import compiled_outcomes, compiled_query


def _fresh_db(values):
    db = Database()
    db.create_table("t", [("x", "REAL"), ("tag", "TEXT")])
    db.insert_rows("t", [{"x": v, "tag": "even" if i % 2 == 0 else "odd"} for i, v in enumerate(values)])
    return db


values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=40,
)


class TestEngineProperties:
    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_count_matches_python(self, values):
        db = _fresh_db(values)
        assert len(db.query("SELECT x FROM t")) == len(values)

    @given(values=values_strategy, threshold=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_where_filter_matches_python(self, values, threshold):
        db = _fresh_db(values)
        result = db.query(f"SELECT x FROM t WHERE x >= {threshold!r}")
        expected = [v for v in values if v >= threshold]
        assert sorted(value for (value,) in result.rows) == sorted(expected)

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_where_partition_is_complete(self, values):
        """Rows matching a predicate plus rows matching its negation = all rows."""
        db = _fresh_db(values)
        positive = len(db.query("SELECT x FROM t WHERE x >= 0"))
        negative = len(db.query("SELECT x FROM t WHERE NOT x >= 0"))
        assert positive + negative == len(values)

    @given(values=values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_projection_keeps_row_order(self, values):
        """The last row of a projection is the last row inserted: what a
        client's latest reading reads."""
        db = _fresh_db(values)
        assert [value for (value,) in db.query("SELECT x FROM t").rows] == values


# -- seeded differential fuzzer ------------------------------------------------
#
# 40 parametrized cases x (8 base + 4 post-append) queries = ~480 seeded
# differential checks per run, deterministic under FUZZ_SEED.

FUZZ_SEED = "sqldb-diff-20260808"
FUZZ_CASES = 40

_COLUMN_TYPES = ("INTEGER", "REAL", "TEXT", "BOOLEAN")
_NAME_POOL = ["id", "x", "Val", "tag", "score", "OK", "n"]
_TEXT_VOCAB = ("a", "bb", "ccc", "even", "odd", "zz", "")
_LIKE_PATTERNS = ("b%", "%c%", "a", "_b", "%", "z_")
_OPERATORS = ("=", "!=", "<>", "<", "<=", ">", ">=")


def _fuzz_rng(case_seed: int, purpose: str) -> random.Random:
    return random.Random(f"{FUZZ_SEED}-{case_seed}-{purpose}")


def _fuzz_schema(rng: random.Random) -> list[tuple[str, str]]:
    names = _NAME_POOL[:]
    rng.shuffle(names)
    return [(name, rng.choice(_COLUMN_TYPES)) for name in names[: rng.randint(2, 5)]]


def _fuzz_value(rng: random.Random, sql_type: str):
    """A random typed value (or NULL).  NaN is deliberately excluded: its
    identity-sensitive behavior in dict keys and ``in`` makes any two ways
    of materializing the same row diverge, so it is outside the engine
    contract (the probes' NaN handling is pinned on its own in
    tests/sqldb/test_probe_scan.py)."""
    if rng.random() < 0.15:
        return None
    if sql_type == "INTEGER":
        roll = rng.random()
        if roll < 0.55:
            return rng.randint(0, 9)
        if roll < 0.92:
            return rng.randint(-(10**4), 10**4)
        return rng.choice([2**70, -(2**70)])  # forces typed-array demotion
    if sql_type == "REAL":
        if rng.random() < 0.3:
            return rng.choice([0.0, 1.5, -2.25, math.inf, -math.inf])
        return round(rng.uniform(-100.0, 100.0), 3)
    if sql_type == "TEXT":
        if rng.random() < 0.8:
            return rng.choice(_TEXT_VOCAB)
        return "".join(rng.choice("abcz") for _ in range(rng.randint(1, 5)))
    return rng.random() < 0.5


def _render_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def _fuzz_literal(rng: random.Random, sql_type: str) -> str:
    """SQL text of a random literal, usually type-matched, sometimes not."""
    roll = rng.random()
    if roll < 0.08:
        return "NULL"
    if roll < 0.2:  # mismatched type: exercises probe gating + error parity
        sql_type = rng.choice([t for t in _COLUMN_TYPES if t != sql_type])
    if sql_type == "INTEGER" and rng.random() < 0.12:
        return repr(rng.choice([-(10**6), 10**6]))  # all-match / none-match
    while True:
        value = _fuzz_value(rng, sql_type)
        if isinstance(value, float) and math.isinf(value):
            continue  # 'inf' lexes as an identifier, not a number
        return _render_literal(value)


def _fuzz_column(rng: random.Random, schema) -> tuple[str, str]:
    """A column reference (maybe case-twisted, rarely bogus) and its type."""
    name, sql_type = schema[rng.randrange(len(schema))]
    roll = rng.random()
    if roll < 0.08:
        return name.lower() if name != name.lower() else name.upper(), sql_type
    if roll < 0.11:
        return "nope", sql_type
    return name, sql_type


def _fuzz_predicate(rng: random.Random, schema, depth: int = 0) -> str:
    branch = rng.random() if depth < 2 else 1.0
    if branch < 0.12:
        return f"NOT {_fuzz_predicate(rng, schema, depth + 1)}"
    if branch < 0.32:
        op = "AND" if rng.random() < 0.6 else "OR"
        left = _fuzz_predicate(rng, schema, depth + 1)
        right = _fuzz_predicate(rng, schema, depth + 1)
        return f"({left} {op} {right})"
    column, sql_type = _fuzz_column(rng, schema)
    leaf = rng.random()
    if leaf < 0.45:
        op = rng.choice(_OPERATORS)
        literal = _fuzz_literal(rng, sql_type)
        if rng.random() < 0.2:
            return f"{literal} {op} {column}"
        return f"{column} {op} {literal}"
    if leaf < 0.6:
        low = _fuzz_literal(rng, sql_type)
        high = _fuzz_literal(rng, sql_type)
        return f"{column} BETWEEN {low} AND {high}"
    if leaf < 0.75:
        choices = ", ".join(
            _fuzz_literal(rng, sql_type) for _ in range(rng.randint(1, 4))
        )
        return f"{column} IN ({choices})"
    if leaf < 0.85:
        return f"{column} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    return f"{column} LIKE '{rng.choice(_LIKE_PATTERNS)}'"


def _fuzz_where(rng: random.Random, schema) -> str:
    if rng.random() < 0.12:
        return ""
    # Half the time lead with a probe-shaped conjunct (column op literal)
    # so the fuzzer actually walks the column probes.
    if rng.random() < 0.5:
        column, sql_type = schema[rng.randrange(len(schema))]
        kind = rng.random()
        if kind < 0.4:
            lead = f"{column} = {_fuzz_literal(rng, sql_type)}"
        elif kind < 0.65:
            lead = (
                f"{column} BETWEEN {_fuzz_literal(rng, sql_type)}"
                f" AND {_fuzz_literal(rng, sql_type)}"
            )
        elif kind < 0.85:
            op = rng.choice(("<", "<=", ">", ">="))
            lead = f"{column} {op} {_fuzz_literal(rng, sql_type)}"
        else:
            choices = ", ".join(
                _fuzz_literal(rng, sql_type) for _ in range(rng.randint(1, 3))
            )
            lead = f"{column} IN ({choices})"
        if rng.random() < 0.5:
            return f" WHERE {lead} AND {_fuzz_predicate(rng, schema, 1)}"
        return f" WHERE {lead}"
    return f" WHERE {_fuzz_predicate(rng, schema)}"


def _fuzz_select(rng: random.Random, schema) -> str:
    """A random statement of the client dialect, ``SELECT cols | * FROM t
    [WHERE pred]``: 12 % ``*``, else one to three projected names, each
    written in random case half the time, a quarter of them aliased, and
    about 3 % of them one the schema lacks.  A statement whose projected
    names the schema holds compiles; the rest reach the row scan's
    ``SchemaError``."""
    if rng.random() < 0.12:
        items = "*"
    else:
        parts = []
        for _ in range(rng.randint(1, min(3, len(schema)))):
            column = _fuzz_column(rng, schema)[0]
            if rng.random() < 0.5:
                column = "".join(rng.choice((c.lower(), c.upper())) for c in column)
            if rng.random() < 0.25:
                column += f" AS a{rng.randrange(10)}"
            parts.append(column)
        items = ", ".join(parts)
    return f"SELECT {items} FROM t{_fuzz_where(rng, schema)}"


def _fuzz_case(case_seed: int):
    """Deterministic (schema, initial rows, queries, append batches, post queries)."""
    rng = _fuzz_rng(case_seed, "case")
    schema = _fuzz_schema(rng)
    row_count = rng.choice([0, 1, 4, rng.randint(20, 80)])
    rows = [
        {name: _fuzz_value(rng, sql_type) for name, sql_type in schema}
        for _ in range(row_count)
    ]
    queries = [_fuzz_select(rng, schema) for _ in range(8)]
    batches = [
        [
            {name: _fuzz_value(rng, sql_type) for name, sql_type in schema}
            for _ in range(rng.randint(1, 12))
        ]
        for _ in range(rng.randint(1, 3))
    ]
    post_queries = [_fuzz_select(rng, schema) for _ in range(4)]
    return schema, rows, queries, batches, post_queries


def _make_db(schema, rows) -> Database:
    db = Database()
    db.create_table("t", list(schema))
    db.insert_rows("t", rows)
    return db


def _normalize(value):
    """NaN compares unequal to itself; fold it to a sentinel so two paths
    that both computed NaN (e.g. SUM over +inf and -inf) compare equal."""
    if isinstance(value, float) and math.isnan(value):
        return "<NaN>"
    return value


def _outcome(db: Database, sql: str, answer=Database.query):
    """A comparable result: (columns, rows) or the raised error, verbatim.
    ``answer`` is the row scan, or :func:`compiled_query` for what a lone
    database's one-slot arena computes."""
    try:
        result = answer(db, sql)
    except Exception as exc:  # noqa: BLE001 — parity includes error behavior
        return ("error", type(exc).__name__, str(exc))
    rows = tuple(tuple(_normalize(value) for value in row) for row in result.rows)
    return ("rows", tuple(result.columns), rows)


class TestDifferentialFuzz:
    """Compiled columnar path ≡ frozen row-scan reference, case by case."""

    @pytest.mark.parametrize("case_seed", range(FUZZ_CASES))
    def test_compiled_matches_scan(self, case_seed):
        schema, rows, queries, batches, post_queries = _fuzz_case(case_seed)
        reference = _make_db(schema, rows)
        compiled = _make_db(schema, rows)

        def check(sql):
            assert _outcome(reference, sql) == _outcome(compiled, sql, compiled_query), sql

        for sql in queries:
            check(sql)
        for batch in batches:
            reference.insert_rows("t", batch)
            compiled.insert_rows("t", batch)
            for sql in queries[:2]:
                check(sql)
        for sql in post_queries:
            check(sql)

    @pytest.mark.parametrize("case_seed", range(FUZZ_CASES))
    def test_incremental_arena_equals_rebuilt(self, case_seed):
        """After the append stream, a one-slot arena grown by appends answers
        every statement exactly like one rebuilt from scratch over the final
        rows."""
        schema, rows, queries, batches, post_queries = _fuzz_case(case_seed)
        incremental = _make_db(schema, rows)
        for sql in queries:  # builds the arena over the initial rows
            _outcome(incremental, sql, compiled_query)
        store = incremental.arena.table("t")
        rebuilds_before = store.rebuilds
        for batch in batches:
            incremental.insert_rows("t", batch)
            for sql in queries[:3]:
                _outcome(incremental, sql, compiled_query)
        rebuilt = _make_db(schema, rows)
        for batch in batches:
            rebuilt.insert_rows("t", batch)
        for sql in queries + post_queries:
            assert _outcome(incremental, sql, compiled_query) == _outcome(
                rebuilt, sql, compiled_query
            ), sql
        # Appends must have been folded in place, never via rebuild.
        assert store.rebuilds == rebuilds_before

    def test_fuzzer_exercises_column_probes(self):
        """Guard the generator itself: a healthy share of fuzzed queries must
        compile to column probes, or the differential suite would be
        silently testing only the residual path."""
        probe_kinds = {"probe-eq": 0, "probe-in": 0, "probe-range": 0, "other": 0}
        total = 0
        for case_seed in range(FUZZ_CASES):
            schema, _, queries, _, post_queries = _fuzz_case(case_seed)
            columns = _make_db(schema, []).table("t").columns
            for sql in queries + post_queries:
                try:
                    plan = plan_for(parse_statement(sql), columns)
                except Exception:  # noqa: BLE001 — fallbacks are fine here
                    continue
                total += 1
                description = plan.describe()
                for kind in ("probe-eq", "probe-in", "probe-range"):
                    if kind in description:
                        probe_kinds[kind] += 1
                        break
                else:
                    probe_kinds["other"] += 1
        assert total >= 300, "fuzzer should generate at least 300 compilable queries"
        assert probe_kinds["probe-eq"] >= 20
        assert probe_kinds["probe-in"] >= 10
        assert probe_kinds["probe-range"] >= 20

    def test_every_statement_with_known_names_compiles(self):
        """A projected name the schema lacks is the one thing that keeps a
        generated statement off the compiled path; every other one compiles,
        and its standing answer on a one-slot arena is the row scan's
        ``rows[-1:]``, errors alike.  The row scan is only the oracle."""
        compiled = unknown = 0
        for case_seed in range(FUZZ_CASES):
            schema, rows, queries, _, post_queries = _fuzz_case(case_seed)
            db = _make_db(schema, rows)
            names = {name.lower() for name, _ in schema}
            for sql in queries + post_queries:
                statement = parse_statement(sql)
                known = statement.select_star or all(
                    item.column.lower() in names for item in statement.items
                )
                try:
                    plan_for(statement, db.table("t").columns)
                except CompileFallback:
                    assert not known, sql
                    unknown += 1
                    continue
                assert known, sql
                compiled += 1
                db.arena.sync()
                (standing,) = arena_select_per_client(db.arena, sql)
                assert standing is not ARENA_FALLBACK, sql
                assert _arena_outcome(standing, db, sql) == _latest_of(_outcome(db, sql)), sql
        assert compiled >= 300 and unknown >= 1


# -- shard-arena differential axis --------------------------------------------
#
# Arena ≡ per-client-columnar ≡ row-scan, member for member, including
# errors, across append streams and membership replacement: the matching
# pass selects the scan's rows, the standing answer is their last.  Mixed-schema
# members must be flagged for per-client fallback, never silently answered.

from repro.sqldb import ARENA_FALLBACK, ShardArena, arena_select_per_client  # noqa: E402

_SHARD_MEMBERS = 4


def _arena_outcome(entry, member: Database, sql: str):
    """One member's arena outcome in `_outcome` form; fallback markers mean
    the member answers itself on its own compiled path."""
    if entry is ARENA_FALLBACK:
        return _outcome(member, sql, compiled_query)
    if isinstance(entry, BaseException):
        return ("error", type(entry).__name__, str(entry))
    rows = tuple(tuple(_normalize(value) for value in row) for row in entry.rows)
    return ("rows", tuple(entry.columns), rows)


def _member_row_subsets(rows, case_seed: int, purpose: str):
    rng = _fuzz_rng(case_seed, purpose)
    return [
        [row for row in rows if rng.random() < 0.7] for _ in range(_SHARD_MEMBERS)
    ]


def _latest_of(outcome):
    """What the standing answer owes for a full `_outcome`: the same error,
    or the same columns over only the last row."""
    if outcome[0] == "error":
        return outcome
    return ("rows", outcome[1], outcome[2][-1:])


def _assert_latest_row_form(arena, members, sql, full_outcomes, expected):
    """The standing answer against the row scan: fallback markers where the
    matching pass has them, and every other slot equal to `_latest_of` its
    expected full outcome."""
    latest = arena_select_per_client(arena, sql)
    if full_outcomes is None:
        assert latest is None, sql
        return
    for index, member in enumerate(members):
        if full_outcomes[index] is ARENA_FALLBACK:
            assert latest[index] is ARENA_FALLBACK, sql
        else:
            assert latest[index] is not ARENA_FALLBACK, sql
            got = _arena_outcome(latest[index], member, sql)
            assert got == _latest_of(expected[index]), sql


class TestArenaDifferentialFuzz:
    """Shard-wide arena answering against both frozen oracles."""

    def _check(self, arena, members, references, sql):
        outcomes = compiled_outcomes(arena, sql)
        scanned = []
        for index, (member, reference) in enumerate(zip(members, references)):
            expected = _outcome(reference, sql)  # row-scan oracle
            assert _outcome(member, sql, compiled_query) == expected, sql  # per-client
            if outcomes is None:  # statement-level fallback: answer locally
                got = _outcome(member, sql)
            else:
                got = _arena_outcome(outcomes[index], member, sql)
            assert got == expected, sql
            scanned.append(expected)
        _assert_latest_row_form(arena, members, sql, outcomes, scanned)

    @pytest.mark.parametrize("case_seed", range(FUZZ_CASES))
    def test_arena_matches_per_client_and_scan(self, case_seed):
        schema, rows, queries, batches, post_queries = _fuzz_case(case_seed)
        subsets = _member_row_subsets(rows, case_seed, "members")
        members = [_make_db(schema, subset) for subset in subsets]
        references = [_make_db(schema, subset) for subset in subsets]
        arena = ShardArena(members)
        for sql in queries:
            self._check(arena, members, references, sql)
        for batch_index, batch in enumerate(batches):
            for subset, member, reference in zip(
                _member_row_subsets(batch, case_seed, f"append-{batch_index}"),
                members,
                references,
            ):
                if subset:
                    member.insert_rows("t", subset)
                    reference.insert_rows("t", subset)
            arena.sync()  # once per pass, as the shard answer pass does
            for sql in queries[:2]:
                self._check(arena, members, references, sql)
        for sql in post_queries:
            self._check(arena, members, references, sql)

    @pytest.mark.parametrize("case_seed", range(0, FUZZ_CASES, 5))
    def test_membership_replacement_requires_rebuild(self, case_seed):
        """Churn that swaps a member database breaks identity `matches`; a
        fresh arena over the new membership answers correctly again."""
        schema, rows, queries, _, _ = _fuzz_case(case_seed)
        subsets = _member_row_subsets(rows, case_seed, "members")
        members = [_make_db(schema, subset) for subset in subsets]
        references = [_make_db(schema, subset) for subset in subsets]
        arena = ShardArena(members)
        assert arena.matches(members)
        replacement_rows = subsets[1] + subsets[0][:2]
        members[1] = _make_db(schema, replacement_rows)
        references[1] = _make_db(schema, replacement_rows)
        assert not arena.matches(members)
        rebuilt = ShardArena(members)
        for sql in queries[:4]:
            self._check(rebuilt, members, references, sql)

    def test_mixed_schema_member_falls_back_per_client(self):
        """A member whose table diverges from the arena schema must be flagged
        ARENA_FALLBACK — and stay flagged when its schema changes later —
        while co-shard members keep shard-wide answers."""
        matching = [
            _make_db([("x", "INTEGER"), ("tag", "TEXT")], rows)
            for rows in (
                [{"x": 1, "tag": "a"}, {"x": 2, "tag": "bb"}],
                [{"x": 2, "tag": "ccc"}],
            )
        ]
        odd = Database()
        odd.create_table("t", [("x", "TEXT"), ("extra", "REAL")])
        odd.insert_rows("t", [{"x": "2", "extra": 1.5}])
        members = [matching[0], odd, matching[1]]
        arena = ShardArena(members)
        sql = "SELECT x FROM t WHERE x = 2"
        outcomes = compiled_outcomes(arena, sql)
        assert outcomes is not None
        assert outcomes[1] is ARENA_FALLBACK
        for index in (0, 2):
            assert outcomes[index] is not ARENA_FALLBACK
            assert _arena_outcome(outcomes[index], members[index], sql) == _outcome(
                members[index], sql
            )
        _assert_latest_row_form(
            arena, members, sql, outcomes, [_outcome(m, sql) for m in members]
        )
        # The fallback is an answer-it-yourself marker, not a wrong answer.
        assert _arena_outcome(outcomes[1], odd, sql) == _outcome(odd, sql, compiled_query)
        # Excluded members don't poison incremental maintenance either.
        odd.insert_rows("t", [{"x": "9", "extra": 0.0}])
        matching[0].insert_rows("t", [{"x": 2, "tag": "zz"}])
        arena.sync()
        outcomes = compiled_outcomes(arena, sql)
        assert outcomes[1] is ARENA_FALLBACK
        assert _arena_outcome(outcomes[0], members[0], sql) == _outcome(
            members[0], sql, compiled_query
        )
        _assert_latest_row_form(
            arena, members, sql, outcomes, [_outcome(m, sql) for m in members]
        )

    def test_missing_table_everywhere_is_statement_level_fallback(self):
        members = [_make_db([("x", "INTEGER")], [{"x": 1}])]
        arena = ShardArena(members)
        assert arena_select_per_client(arena, "SELECT x FROM nope") is None
