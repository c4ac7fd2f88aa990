"""``LIKE`` is SQLite's ``LIKE``, on the row scan, the compiled path and a
shard arena alike.

Only ``%`` and ``_`` are wildcards, and ASCII letters match either case
(SQLite's default, whatever the platform).  Every path is checked against
stdlib ``sqlite3`` over the same rows, NULL included: the paths share one
matcher, so comparing them with each other alone could not catch a wrong
one.
"""

import sqlite3

import pytest

from repro.sqldb.compile import like_matcher, like_text
from tests.sqldb.sqlite_reference import PATHS, answers, assert_matches_sqlite, sqlite_rows

NAMES = [
    "abc",
    "a*c",
    "a?c",
    "a[b]c",
    "ABC",
    "xyzc",
    "a\nc",
    "ac",
    "É",
    "é",
    "a%c",
    "a_c",
    None,
]

PATTERNS = [
    "a*c",
    "a?c",
    "a[b]c",
    "%C",
    "%c",
    "A_C",
    "a%",
    "%",
    "_",
    "__",
    "abc",
    "%b%",
    "a_c",
    "a%c",
    "é",
    "É",
    "[",
    ".*",
    "",
]


SCHEMA = [("id", "INTEGER"), ("name", "TEXT")]
ROWS = list(enumerate(NAMES))


def _like(pattern: str, column: str = "name") -> str:
    return f"SELECT id FROM t WHERE {column} LIKE '{pattern}'"


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_like_matches_sqlite(pattern, path):
    assert_matches_sqlite(SCHEMA, ROWS, _like(pattern), path)


def test_glob_characters_are_literals():
    """The cases the old translation got wrong: a glob-style pattern matched
    ``abc``, ``a?c`` and ``a[b]c``, and ``%C`` matched nothing on POSIX."""
    assert sqlite_rows(SCHEMA, ROWS, _like("a*c")) == [(NAMES.index("a*c"),)]
    assert sqlite_rows(SCHEMA, ROWS, _like("%C")) == [
        (index,) for index, name in enumerate(NAMES) if name and name[-1] in "cC"
    ]
    match = like_matcher("a*c")
    assert [name for name in NAMES if name and match(name)] == ["a*c"]


def test_null_never_matches():
    for path in PATHS:
        for member in answers(SCHEMA, ROWS, _like("%"), path):
            assert (NAMES.index(None),) not in member


# -- non-TEXT values: LIKE reads SQLite's text form of the value ---------------

#: ``(flag BOOLEAN, n INTEGER, x REAL)`` rows: BOOLEAN reads ``1`` / ``0``,
#: INTEGER its digits and REAL SQLite's 15-significant-digit form.
TYPED_ROWS = [
    (True, 0, 1e16),
    (False, -7, 1 / 3),
    (None, 12345678901234, 1.0),
    (True, None, -0.0),
    (False, 1, 1.5e-7),
    (True, 100, 100.0),
    (None, 10**15, 123456789.125),
    (False, 2, None),
]

TYPED_PATTERNS = [
    "1",
    "0",
    "True",
    "1.0e+16",
    "1e+16",
    "%e+16",
    "0.333333333333333",
    "%3333333333333333%",
    "1.0",
    "0.0",
    "-0.0",
    "1.5e-07",
    "100.0",
    "100",
    "-7",
    "%2345%",
    "1000000000000000",
    "123456789.125",
    "_",
    "%.0",
]


TYPED_SCHEMA = [("id", "INTEGER"), ("flag", "BOOLEAN"), ("n", "INTEGER"), ("x", "REAL")]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("column", ["flag", "n", "x"])
@pytest.mark.parametrize("pattern", TYPED_PATTERNS)
def test_like_over_non_text_matches_sqlite(pattern, column, path):
    rows = [(i, *row) for i, row in enumerate(TYPED_ROWS)]
    assert_matches_sqlite(TYPED_SCHEMA, rows, _like(pattern, column), path)


def test_like_text_is_sqlites_text_form():
    connection = sqlite3.connect(":memory:")
    try:
        for value in [True, False, 0, -7, 10**15, *(x for *_, x in TYPED_ROWS if x is not None)]:
            (expected,) = connection.execute("SELECT CAST(? AS TEXT)", (value,)).fetchone()
            assert like_text(value) == expected, value
    finally:
        connection.close()
    assert [like_text(v) for v in (1e16, 1 / 3, 1.0, -0.0)] == [
        "1.0e+16", "0.333333333333333", "1.0", "0.0",
    ]
