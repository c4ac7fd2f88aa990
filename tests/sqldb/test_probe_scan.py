"""Unit tests for the column probes, checked against the row scan and sqlite3.

A probe is one comprehension over its column (``_RangeProbe`` for a point
``=``, a range ``<``, ``<=``, ``>``, ``>=`` or ``BETWEEN``; ``_InProbe``
for ``IN``): it skips NULL, compares with the literal and returns the
matching row ids in ascending order.  Each case here holds a probe to the
scan engine's row-by-row semantics (its own ``_compare``) over columns
with NULLs, NaNs, duplicates, TEXT and mixed int/float/bool keys, and,
where the engine's semantics are SQLite's, every path to ``sqlite3``.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import ColumnVector, Database, ShardArena, arena_select_per_client, plan_for
from repro.sqldb.compile import _InProbe, _RangeProbe
from repro.sqldb import ast
from repro.sqldb.engine import _compare, _evaluate_value
from repro.sqldb.parser import parse_statement
from tests.sqldb.compiled_path import compiled_outcomes, compiled_query
from tests.sqldb.sqlite_reference import PATHS, assert_matches_sqlite

SEED = "sqldb-probe-scan-20261019"


_DRAWS = {
    "int": lambda rng: rng.randint(0, 60),
    "bigint": lambda rng: rng.choice([-(2**70), 2**70, rng.randint(-5, 5)]),
    "float": lambda rng: round(rng.uniform(0.0, 20.0), 1),
    "bool": lambda rng: rng.random() < 0.5,
    "text": lambda rng: "".join(rng.choice("abcd") for _ in range(rng.randint(0, 3))),
    "mixed-numeric": lambda rng: rng.choice(
        [rng.randint(0, 8), float(rng.randint(0, 8)), rng.random() < 0.5, -0.0]
    ),
}
_SQL_TYPES = {
    "int": "INTEGER",
    "bigint": "INTEGER",
    "float": "REAL",
    "bool": "BOOLEAN",
    "text": "TEXT",
    "mixed-numeric": "REAL",
}
_OUTSIDE = {kind: (-(2**80), 2**80) for kind in _DRAWS}
_OUTSIDE["text"] = ("", "zzzz")
_COMPARISONS = ("=", "<", "<=", ">", ">=")


def _column(rng, kind, with_nulls, rows=300):
    """A column of one comparable family, with NULL and (numeric) NaN rows
    on request."""
    nan = None if kind == "text" else math.nan
    values = []
    for _ in range(rows):
        roll = rng.random() if with_nulls else 1.0
        values.append(None if roll < 0.05 else nan if roll < 0.08 else _DRAWS[kind](rng))
    return values


class _OneColumn:
    """The probe surface a probe reads: ``column(name)`` over one column,
    held as the arena holds it (a typed array while the values fit)."""

    def __init__(self, values, sql_type="REAL"):
        self.vector = ColumnVector(sql_type)
        self.vector.extend(values)

    def column(self, name):
        return self.vector


def _scan_ids(values, op, low, high=None):
    """Row ids the scan engine selects: its own ``_compare`` per row, and
    ``BETWEEN``'s NULL check then ``low <= value <= high``."""
    if op == "between":
        return [i for i, v in enumerate(values) if v is not None and low <= v <= high]
    return [i for i, v in enumerate(values) if _compare(v, op, low)]


def _assert_probes_match_the_scan(values, bounds, sql_type="REAL"):
    column = _OneColumn(values, sql_type)
    for low in bounds:
        for op in _COMPARISONS:
            assert _RangeProbe("x", op, low).ids(column) == _scan_ids(values, op, low), (op, low)
        for high in bounds:
            assert _RangeProbe("x", "between", low, high).ids(column) == _scan_ids(
                values, "between", low, high
            ), (low, high)


def _plan(db, sql):
    return plan_for(parse_statement(sql), db.table("t").columns)


class TestRangeProbe:
    def test_empty_and_all_null_columns(self):
        for values in ([], [None, math.nan, None]):
            column = _OneColumn(values)
            for op in _COMPARISONS:
                assert _RangeProbe("x", op, 1).ids(column) == []
            assert _RangeProbe("x", "between", 0, 9).ids(column) == []
        assert _InProbe("x", (None, 1)).ids(_OneColumn([None, math.nan, None])) == []

    def test_point_probe_keeps_row_order_across_equal_keys(self):
        # 1, 1.0 and True are equal under ==, as the scan engine compares,
        # and -0.0 equals 0.0.
        column = _OneColumn([1, 1.0, -0.0, 0.0, True, 2])
        for key in (1, 1.0, True):
            assert _RangeProbe("x", "=", key).ids(column) == [0, 1, 4]
        assert _RangeProbe("x", "=", 0).ids(column) == [2, 3]
        assert _RangeProbe("x", "=", -0.0).ids(column) == [2, 3]
        assert _RangeProbe("x", "between", -0.0, 0.0).ids(column) == [2, 3]
        assert _RangeProbe("x", ">=", 1).ids(column) == [0, 1, 4, 5]

    def test_duplicates(self):
        column = _OneColumn([5, 3, 5, 8, 3, 5, 1], "INTEGER")
        assert column.vector.typed
        assert _RangeProbe("x", "=", 5).ids(column) == [0, 2, 5]
        assert _RangeProbe("x", "=", 3).ids(column) == [1, 4]
        assert _RangeProbe("x", "=", 99).ids(column) == []
        assert _RangeProbe("x", ">", 3).ids(column) == [0, 2, 3, 5]
        assert _RangeProbe("x", "between", 5, 3).ids(column) == []  # an empty BETWEEN

    def test_text_keys(self):
        column = _OneColumn(["pear", "apple", "fig", "apple", "kiwi", "banana"], "TEXT")
        assert _RangeProbe("x", ">=", "b").ids(column) == [0, 2, 4, 5]
        assert _RangeProbe("x", "<", "k").ids(column) == [1, 2, 3, 5]
        assert _RangeProbe("x", "=", "apple").ids(column) == [1, 3]
        assert _RangeProbe("x", "between", "", "a").ids(column) == []

    def test_null_and_nan_rows_match_no_comparison(self):
        column = _OneColumn([None, math.nan, 2.0, None, -math.inf, math.inf])
        assert _RangeProbe("x", ">", -math.inf).ids(column) == [2, 5]
        assert _RangeProbe("x", "=", 2.0).ids(column) == [2]
        assert _RangeProbe("x", "<=", 0.0).ids(column) == [4]
        assert _RangeProbe("x", "between", -math.inf, math.inf).ids(column) == [2, 4, 5]
        # Not even IN (NULL, ...) selects a NULL row, as in SQLite.
        assert _InProbe("x", (None, 2.0)).ids(column) == [2]

    @pytest.mark.parametrize("with_nulls", [False, True], ids=["dense", "null-nan"])
    @pytest.mark.parametrize("kind", sorted(_DRAWS))
    def test_ranges_match_the_scan(self, kind, with_nulls):
        rng = random.Random(f"{SEED}-{kind}-{with_nulls}")
        values = _column(rng, kind, with_nulls)
        below, above = _OUTSIDE[kind]
        bounds = [below, above, *(_DRAWS[kind](rng) for _ in range(8))]
        _assert_probes_match_the_scan(values, bounds, _SQL_TYPES[kind])

    def test_uncoerced_values_raise_type_error(self):
        """The probe compares as the scan does, so a value that does not
        order against the literal raises here; the pass then falls back to
        the probe conjunct row by row (the tests at the end)."""
        column = _OneColumn([1, "a", 2], "INTEGER")
        with pytest.raises(TypeError):
            _RangeProbe("x", ">", 0).ids(column)
        assert _RangeProbe("x", "=", 1).ids(column) == [0]


class TestInProbe:
    @pytest.mark.parametrize("kind", sorted(_DRAWS))
    def test_in_probe_matches_value_in_choices(self, kind):
        """The compiler's ``IN`` probe selects what the scan engine's own
        ``IN`` selects, NULL choices included."""
        rng = random.Random(f"{SEED}-in-{kind}")
        values = _column(rng, kind, with_nulls=True)
        column = _OneColumn(values, _SQL_TYPES[kind])
        for _ in range(40):
            choices = tuple(
                None if rng.random() < 0.2 else _DRAWS[kind](rng)
                for _ in range(rng.randint(1, 4))
            )
            node = ast.InOp(operand=ast.ColumnRef("x"), choices=choices)
            expected = [
                row_id
                for row_id, value in enumerate(values)
                if _evaluate_value(node, {"x": value})
            ]
            assert _InProbe("x", choices).ids(column) == expected, choices


_LITERALS = {"int": "2", "float": "2.5", "text": "'bb'", "bool": "TRUE", "null": "NULL"}
_TYPES = {
    "INTEGER": [1, 2, None, 2, 3],
    "REAL": [2.5, None, -1.0, 2.5, 9.0],
    "TEXT": ["a", "bb", None, "bb", "c"],
    "BOOLEAN": [True, False, None, True, False],
}


@pytest.mark.parametrize("literal", sorted(_LITERALS))
@pytest.mark.parametrize("sql_type", sorted(_TYPES))
def test_probe_gate_answers_as_the_scan(sql_type, literal):
    """One gate for every probe: a literal that orders against the column's
    declared type is probed, any other falls to the residual — and either
    way ``=``, ``IN``, ``<`` and ``BETWEEN`` answer (or raise) exactly as
    the row scan does."""
    values = _TYPES[sql_type]
    text = _LITERALS[literal]
    comparable = literal != "null" and (literal == "text") == (sql_type == "TEXT")
    probed = "residual" if not comparable else None
    shapes = {
        f"c = {text}": "empty" if literal == "null" else probed or "probe-eq(c)",
        f"c IN ({text}, NULL)": "probe-in(c)" if literal == "null" else probed or "probe-in(c)",
        f"c < {text}": probed or "probe-range(c)",
        # Equal bounds make a BETWEEN a point, probed like ``=``.
        f"c BETWEEN {text} AND {text}": probed or "probe-eq(c)",
    }
    outcomes = {}
    db = Database()
    db.create_table("t", [("c", sql_type), ("n", "INTEGER")])
    db.insert_rows("t", [{"c": value, "n": i} for i, value in enumerate(values)])
    for answer in (compiled_query, Database.query):
        for where, shape in shapes.items():
            sql = f"SELECT n FROM t WHERE {where}"
            assert _plan(db, sql).describe() == shape, sql
            try:
                outcomes[answer, where] = answer(db, sql).rows
            except TypeError as exc:
                outcomes[answer, where] = ("TypeError", str(exc))
    for where in shapes:
        assert outcomes[compiled_query, where] == outcomes[Database.query, where], where


def _database(schema):
    db = Database()
    db.create_table("t", list(schema))
    return db


def _sql_literal(value):
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(abs(value)) if value == 0 else repr(value)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", ["int", "float", "bool", "text", "mixed-numeric"])
def test_probed_statements_match_sqlite(kind, path):
    """Points, ranges, ``BETWEEN`` (point bounds too) and ``IN`` without a
    NULL choice, over columns with NULL and NaN rows: the row scan, a lone
    database's probe and a shard arena's answer as ``sqlite3`` does.  (A
    NULL ``IN`` choice is left out: SQLite's ``IN`` is three-valued.)"""
    rng = random.Random(f"{SEED}-sqlite-{kind}")
    schema = [("x", _SQL_TYPES[kind]), ("n", "INTEGER")]
    rows = [(value, n) for n, value in enumerate(_column(rng, kind, True, rows=120))]
    keys = [_DRAWS[kind](rng) for _ in range(3)]
    low, high = sorted(keys[:2])
    literals = [_sql_literal(key) for key in keys]
    wheres = [f"x {op} {literals[0]}" for op in _COMPARISONS]
    wheres += [
        f"x BETWEEN {_sql_literal(low)} AND {_sql_literal(high)}",
        f"x BETWEEN {literals[2]} AND {literals[2]}",
        f"x IN ({', '.join(literals)})",
        f"x >= {literals[1]} AND n > 40",
    ]
    for where in wheres:
        sql = f"SELECT n FROM t WHERE {where}"
        if path == "compiled":
            assert _plan(_database(schema), sql).describe().startswith("probe-"), sql
        assert_matches_sqlite(schema, rows, sql, path)


@pytest.mark.parametrize("path", PATHS)
def test_in_never_matches_a_null_operand(path):
    """``x IN (...)`` on a NULL ``x`` is NULL in SQLite, so the row does not
    match, whatever the choices — as ``x = NULL`` does not here.  Probed
    (first conjunct), in the residual and under ``OR``, on every path."""
    schema = [("id", "INTEGER"), ("x", "REAL")]
    rows = [(0, 1.0), (1, None), (2, 2.0), (3, None), (4, 1.0)]
    for where in (
        "x IN (1.0, NULL)",
        "x IN (NULL)",
        "x IN (2.0)",
        "id >= 0 AND x IN (1.0, NULL)",
        "x IN (NULL) OR id = 0",
    ):
        assert_matches_sqlite(schema, rows, f"SELECT id FROM t WHERE {where}", path)


# A column's keys: numbers (ints and floats that collide, signed zeros,
# bools, NULL, NaN) or text (with NULL), never both — a column holds one
# comparable family, as its declared type and the ingest coercion ensure.
_NUMBERS = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.5, True, False]),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.none(),
    st.just(math.nan),
)
_TEXT = st.one_of(
    st.sampled_from(["", "a", "ab", "b", "ba", "zz"]), st.text(max_size=2), st.none()
)
_COLUMNS = st.one_of(st.lists(_NUMBERS, max_size=60), st.lists(_TEXT, max_size=60))


@settings(max_examples=80, deadline=None)
@given(values=_COLUMNS)
def test_every_probe_matches_the_scan(values):
    """Points and ranges at every distinct key (and past both ends) select
    what the scan engine's comparisons select, in ascending row order."""
    ordered = [key for key in values if key is not None and key == key]
    distinct = sorted(set(ordered))
    bounds = distinct[:: max(1, len(distinct) // 10)]
    if distinct and not isinstance(distinct[0], str):
        bounds += [distinct[0] - 0.5, distinct[-1] + 0.5]
    _assert_probes_match_the_scan(values, bounds)
    column = _OneColumn(values)
    for key in distinct:
        assert _RangeProbe("x", "=", key).ids(column) == [
            row_id
            for row_id, value in enumerate(values)
            if value is not None and value == key
        ]


def test_uncoerced_rows_fall_back_to_the_probe_conjunct():
    """``Table.append_rows`` takes rows as given, so a column can hold values
    that do not order against the literal.  The probe raises ``TypeError``
    then, and the pass tests the probe conjunct row by row, as the scan
    does: ``=``, ``IN`` and an ordering answer exactly as the scan."""
    outcomes = []
    db = Database()
    db.create_table("t", [("x", "INTEGER"), ("n", "INTEGER")])
    db.table("t").append_rows([(1, 0), ("a", 1), (1, 2), (None, 3)])
    for answer in (compiled_query, Database.query):
        results = []
        for sql in (
            "SELECT n FROM t WHERE x = 1",
            "SELECT n FROM t WHERE x IN (1, NULL)",
            "SELECT n FROM t WHERE x = 1 AND n > 0",
            "SELECT n FROM t WHERE x > 0",
        ):
            try:
                results.append(answer(db, sql).rows)
            except TypeError as exc:
                results.append(("TypeError", str(exc)))
        outcomes.append(results)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:3] == [[(0,), (2,)], [(0,), (2,)], [(2,)]]
    assert outcomes[0][3][0] == "TypeError"


_UNCOERCED_STATEMENTS = (
    "SELECT x FROM t WHERE x > 0",
    # The residual raises on an earlier row than the probe conjunct does.
    "SELECT x FROM t WHERE x > 0 AND n < 5",
)


def _uncoerced_database(rows):
    db = Database()
    db.create_table("t", [("x", "INTEGER"), ("n", "INTEGER")])
    db.table("t").append_rows(rows)
    return db


def _comparable(outcome, latest):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return outcome.rows[-1:] if latest else outcome.rows


def _own_scan(rows, sql, latest):
    try:
        return _comparable(_uncoerced_database(rows).query(sql), latest)
    except Exception as exc:  # noqa: BLE001 — the member's own error is the expectation
        return _comparable(exc, latest)


@pytest.mark.parametrize("latest", [False, True])
def test_an_uncoerced_member_raises_only_for_itself(latest):
    """When the probe raises, the row-by-row fallback keeps errors per
    slot: a member whose own scan raises gets that error, and its
    neighbours still get their rows — in the matching pass and in the
    standing answer taken from it."""
    members = [[(1, "b"), ("a", 0)], [(2, 1), (3, 9)], [("a", 0), (1, 0)]]
    arena = ShardArena([_uncoerced_database(rows) for rows in members])
    neighbour = {_UNCOERCED_STATEMENTS[0]: [(2,), (3,)], _UNCOERCED_STATEMENTS[1]: [(2,)]}
    for sql in _UNCOERCED_STATEMENTS:
        if latest:
            outcomes = arena_select_per_client(arena, sql)
        else:
            outcomes = compiled_outcomes(arena, sql)
        expected = [_own_scan(rows, sql, latest) for rows in members]
        assert [_comparable(o, latest) for o in outcomes] == expected, sql
        assert expected[1] == (neighbour[sql][-1:] if latest else neighbour[sql])
        assert isinstance(expected[0][0], type) and isinstance(expected[2][0], type)


def test_a_standing_fold_over_an_uncoerced_append_raises_only_for_its_member():
    """The fold over tail appends (``start > 0``) keeps errors per slot too."""
    members = [[(1, 0)], [(2, 1)]]
    databases = [_uncoerced_database(rows) for rows in members]
    arena = ShardArena(databases)
    for sql in _UNCOERCED_STATEMENTS:
        assert [o.rows for o in arena_select_per_client(arena, sql)] == [
            [(1,)],
            [(2,)],
        ]
    appended = [[("a", 0), (5, 0)], [(3, 2), (4, 9)]]
    for db, rows, tail in zip(databases, members, appended):
        db.table("t").append_rows(tail)
        rows.extend(tail)
    arena.sync()
    for sql in _UNCOERCED_STATEMENTS:
        outcomes = arena_select_per_client(arena, sql)
        expected = [_own_scan(rows, sql, True) for rows in members]
        assert [_comparable(o, True) for o in outcomes] == expected, sql
        newest = {_UNCOERCED_STATEMENTS[0]: [(4,)], _UNCOERCED_STATEMENTS[1]: [(3,)]}
        assert expected[1] == newest[sql]
        assert isinstance(expected[0][0], type)
