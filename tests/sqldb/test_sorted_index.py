"""Unit tests for the sorted column index, checked against brute force.

A :class:`~repro.sqldb.columnar.SortedIndex` answers every probe the
compiler plans: a point (``=``), a range (``<``, ``<=``, ``>``, ``>=``,
``BETWEEN``) and, through the compiler's ``IN`` probe, a union of points
plus the NULL rows.  Each case here holds the index to the scan engine's
row-by-row semantics over columns with NULLs, NaNs, duplicates, TEXT and
mixed int/float/bool keys.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import Database, ShardArena, SortedIndex, arena_select_per_client, plan_for
from repro.sqldb.compile import _InProbe
from repro.sqldb.parser import parse_statement

SEED = "sqldb-sorted-index-20261019"


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
_OUTSIDE = {kind: (-(2**80), 2**80) for kind in _DRAWS}
_OUTSIDE["text"] = ("", "zzzz")


def _column(rng, kind, with_nulls, rows=300):
    """A column of one comparable family, with NULL and NaN rows on request."""
    values = []
    for _ in range(rows):
        roll = rng.random() if with_nulls else 1.0
        values.append(None if roll < 0.05 else math.nan if roll < 0.08 else _DRAWS[kind](rng))
    return values


def _plan(db, sql):
    return plan_for(parse_statement(sql), db.table("t").columns)


def _brute_range(values, low, high, low_inclusive=True, high_inclusive=True):
    """Row ids the scan engine's comparisons select; NULL and NaN never match."""
    out = []
    for row_id, key in enumerate(values):
        if key is None or key != key:
            continue
        if low is not None and (key < low if low_inclusive else key <= low):
            continue
        if high is not None and (key > high if high_inclusive else key >= high):
            continue
        out.append(row_id)
    return out


class _OneColumn:
    """The probe surface ``_InProbe`` reads: ``index(name)`` over one column."""

    def __init__(self, values):
        self._index = SortedIndex(values)

    def index(self, name):
        return self._index


def _assert_matches_brute_force(values, bounds):
    index = SortedIndex(values)
    assert sorted(index.ids) == _brute_range(values, None, None)
    assert index.nulls == [row_id for row_id, key in enumerate(values) if key is None]
    for low in bounds:
        for high in bounds:
            for low_inclusive in (True, False):
                for high_inclusive in (True, False):
                    got = index.range_ids(low, high, low_inclusive, high_inclusive)
                    assert got == _brute_range(
                        values, low, high, low_inclusive, high_inclusive
                    ), (low, high, low_inclusive, high_inclusive)


class TestSortedIndex:
    def test_empty_and_all_null_columns(self):
        for values in ([], [None, math.nan, None]):
            index = SortedIndex(values)
            assert index.keys == [] and index.ids == []
            assert index.range_ids() == [] and index.range_ids(1, 1) == []
        assert SortedIndex([None, math.nan, None]).nulls == [0, 2]

    def test_point_probe_keeps_row_order_across_equal_keys(self):
        # 1, 1.0 and True are equal under ==, as the scan engine compares,
        # and -0.0 equals 0.0: the stable sort keeps each run in row order.
        index = SortedIndex([1, 1.0, -0.0, 0.0, True, 2])
        assert index.range_ids(1, 1) == [0, 1, 4]
        assert index.range_ids(1.0, 1.0) == index.range_ids(True, True) == [0, 1, 4]
        assert index.range_ids(0, 0) == [2, 3]
        assert index.keys == [-0.0, 0.0, 1, 1.0, True, 2]

    def test_duplicates(self):
        values = [5, 3, 5, 8, 3, 5, 1]
        index = SortedIndex(values)
        assert index.range_ids(5, 5) == [0, 2, 5]
        assert index.range_ids(3, 3) == [1, 4]
        assert index.range_ids(99, 99) == []
        assert index.keys == sorted(values)
        assert index.range_ids(3, 5, False, True) == [0, 2, 5]
        assert index.range_ids(5, 3) == []  # an empty BETWEEN

    def test_text_keys(self):
        words = ["pear", "apple", "fig", "apple", "kiwi", "banana"]
        index = SortedIndex(words)
        assert index.keys == sorted(words)
        assert index.range_ids("b", "k", True, False) == [2, 5]
        assert index.range_ids("apple", "apple") == [1, 3]
        assert index.range_ids("", "a", True, True) == []

    def test_null_rows_apart_and_nan_nowhere(self):
        values = [None, math.nan, 2.0, None, -math.inf, math.inf]
        index = SortedIndex(values)
        # NULL/NaN never satisfy a comparison under the scan engine, so no
        # range may return them; only IN (NULL, ...) reads ``nulls``.
        assert index.nulls == [0, 3]
        assert index.range_ids() == [2, 4, 5]
        assert index.range_ids(2.0, 2.0) == [2]
        assert index.range_ids(None, 0.0) == [4]

    @pytest.mark.parametrize("with_nulls", [False, True], ids=["dense", "null-nan"])
    @pytest.mark.parametrize("kind", sorted(_DRAWS))
    def test_ranges_match_brute_force(self, kind, with_nulls):
        rng = random.Random(f"{SEED}-{kind}-{with_nulls}")
        values = _column(rng, kind, with_nulls)
        below, above = _OUTSIDE[kind]
        bounds = [None, below, above, *(_DRAWS[kind](rng) for _ in range(8))]
        _assert_matches_brute_force(values, bounds)

    @pytest.mark.parametrize("kind", sorted(_DRAWS))
    def test_in_probe_matches_value_in_choices(self, kind):
        """The compiler's ``IN`` probe over the index selects what the scan
        engine's ``value in choices`` selects, NULL choices included."""
        rng = random.Random(f"{SEED}-in-{kind}")
        values = _column(rng, kind, with_nulls=True)
        column = _OneColumn(values)
        for _ in range(40):
            choices = tuple(
                None if rng.random() < 0.2 else _DRAWS[kind](rng)
                for _ in range(rng.randint(1, 4))
            )
            expected = [row_id for row_id, value in enumerate(values) if value in choices]
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
    declared type is probed on the index, any other falls to the residual —
    and either way ``=``, ``IN``, ``<`` and ``BETWEEN`` answer (or raise)
    exactly as the forced row scan does."""
    values = _TYPES[sql_type]
    text = _LITERALS[literal]
    comparable = literal != "null" and (literal == "text") == (sql_type == "TEXT")
    probed = "residual" if not comparable else None
    shapes = {
        f"c = {text}": "empty" if literal == "null" else probed or "index-eq(c)",
        f"c IN ({text}, NULL)": "index-in(c)" if literal == "null" else probed or "index-in(c)",
        f"c < {text}": probed or "index-range(c)",
        # Equal bounds make a BETWEEN a point, probed like ``=``.
        f"c BETWEEN {text} AND {text}": probed or "index-eq(c)",
    }
    outcomes = {}
    for force_scan in (False, True):
        db = Database()
        db.force_scan = force_scan
        db.create_table("t", [("c", sql_type), ("n", "INTEGER")])
        db.insert_rows("t", [{"c": value, "n": i} for i, value in enumerate(values)])
        for where, shape in shapes.items():
            sql = f"SELECT n FROM t WHERE {where}"
            assert _plan(db, sql).describe() == shape, sql
            try:
                outcomes[force_scan, where] = db.query(sql).rows
            except TypeError as exc:
                outcomes[force_scan, where] = ("TypeError", str(exc))
    for where in shapes:
        assert outcomes[False, where] == outcomes[True, where], where


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
def test_every_probe_matches_brute_force(values):
    """Points and ranges at every distinct key (and past both ends) select
    what the scan engine's comparisons select, in ascending row order."""
    ordered = [key for key in values if key is not None and key == key]
    distinct = sorted(set(ordered))
    bounds = [None, *distinct[:: max(1, len(distinct) // 10)]]
    if distinct and not isinstance(distinct[0], str):
        bounds += [distinct[0] - 0.5, distinct[-1] + 0.5]
    _assert_matches_brute_force(values, bounds)
    index = SortedIndex(values)
    for key in distinct:
        assert index.range_ids(key, key) == [
            row_id
            for row_id, value in enumerate(values)
            if value is not None and value == key
        ]


def test_uncoerced_rows_fall_back_to_the_probe_conjunct():
    """``Table.append_rows`` takes rows as given, so a column can hold values
    that do not order among themselves.  The index cannot be sorted then;
    ``=`` and ``IN`` still answer as the scan does, by testing the probe
    conjunct row by row."""
    outcomes = []
    for force_scan in (False, True):
        db = Database()
        db.force_scan = force_scan
        db.create_table("t", [("x", "INTEGER"), ("n", "INTEGER")])
        db.table("t").append_rows([(1, 0), ("a", 1), (1, 2), (None, 3)])
        outcomes.append(
            [
                db.query(sql).rows
                for sql in (
                    "SELECT n FROM t WHERE x = 1",
                    "SELECT n FROM t WHERE x IN (1, NULL)",
                    "SELECT n FROM t WHERE x = 1 AND n > 0",
                )
            ]
        )
    assert outcomes[0] == outcomes[1] == [[(0,), (2,)], [(0,), (2,), (3,)], [(2,)]]


_UNCOERCED_STATEMENTS = (
    "SELECT x FROM t WHERE x > 0",
    # The residual raises on an earlier row than the probe conjunct does.
    "SELECT x FROM t WHERE x > 0 AND n < 5",
)


def _uncoerced_database(rows, force_scan=False):
    db = Database()
    db.force_scan = force_scan
    db.create_table("t", [("x", "INTEGER"), ("n", "INTEGER")])
    db.table("t").append_rows(rows)
    return db


def _comparable(outcome, latest):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return outcome.rows[-1:] if latest else outcome.rows


def _own_scan(rows, sql, latest):
    try:
        return _comparable(_uncoerced_database(rows, force_scan=True).query(sql), latest)
    except Exception as exc:  # noqa: BLE001 — the member's own error is the expectation
        return _comparable(exc, latest)


@pytest.mark.parametrize("latest", [False, True])
def test_an_uncoerced_member_raises_only_for_itself(latest):
    """When the probe cannot order a column, the row-by-row fallback keeps
    errors per slot: a member whose own scan raises gets that error, and
    its neighbours still get their rows."""
    members = [[(1, "b"), ("a", 0)], [(2, 1), (3, 9)], [("a", 0), (1, 0)]]
    arena = ShardArena([_uncoerced_database(rows) for rows in members])
    neighbour = {_UNCOERCED_STATEMENTS[0]: [(2,), (3,)], _UNCOERCED_STATEMENTS[1]: [(2,)]}
    for sql in _UNCOERCED_STATEMENTS:
        outcomes = arena_select_per_client(arena, sql, latest=latest)
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
        assert [o.rows for o in arena_select_per_client(arena, sql, latest=True)] == [
            [(1,)],
            [(2,)],
        ]
    appended = [[("a", 0), (5, 0)], [(3, 2), (4, 9)]]
    for db, rows, tail in zip(databases, members, appended):
        db.table("t").append_rows(tail)
        rows.extend(tail)
    arena.sync()
    for sql in _UNCOERCED_STATEMENTS:
        outcomes = arena_select_per_client(arena, sql, latest=True)
        expected = [_own_scan(rows, sql, True) for rows in members]
        assert [_comparable(o, True) for o in outcomes] == expected, sql
        assert expected[1] == {_UNCOERCED_STATEMENTS[0]: [(4,)], _UNCOERCED_STATEMENTS[1]: [(3,)]}[sql]
        assert isinstance(expected[0][0], type)
