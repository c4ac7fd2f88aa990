"""``LIKE`` is SQLite's ``LIKE``, on the row scan and the compiled path alike.

Only ``%`` and ``_`` are wildcards, and ASCII letters match either case
(SQLite's default, whatever the platform).  Both paths are checked against
stdlib ``sqlite3`` over the same rows, NULL included: the two paths share
one matcher, so comparing them with each other alone could not catch a
wrong one.
"""

import sqlite3

import pytest

from repro.sqldb import Database
from repro.sqldb.compile import like_matcher

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


def _sqlite_matches(pattern: str) -> list:
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (id INTEGER, name TEXT)")
        connection.executemany("INSERT INTO t VALUES (?, ?)", list(enumerate(NAMES)))
        rows = connection.execute(
            "SELECT id FROM t WHERE name LIKE ? ORDER BY id", (pattern,)
        ).fetchall()
    finally:
        connection.close()
    return [row[0] for row in rows]


def _database(force_scan: bool) -> Database:
    db = Database()
    db.force_scan = force_scan
    db.create_table("t", [("id", "INTEGER"), ("name", "TEXT")])
    db.insert_rows("t", [{"id": i, "name": name} for i, name in enumerate(NAMES)])
    return db


@pytest.mark.parametrize("force_scan", [True, False], ids=["row-scan", "compiled"])
@pytest.mark.parametrize("pattern", PATTERNS)
def test_like_matches_sqlite(pattern, force_scan):
    db = _database(force_scan)
    result = db.query(f"SELECT id FROM t WHERE name LIKE '{pattern}'")
    assert [row[0] for row in result.rows] == _sqlite_matches(pattern), pattern


def test_glob_characters_are_literals():
    """The cases the old translation got wrong: a glob-style pattern matched
    ``abc``, ``a?c`` and ``a[b]c``, and ``%C`` matched nothing on POSIX."""
    assert _sqlite_matches("a*c") == [NAMES.index("a*c")]
    assert _sqlite_matches("%C") == [
        index for index, name in enumerate(NAMES) if name and name[-1] in "cC"
    ]
    match = like_matcher("a*c")
    assert [name for name in NAMES if name and match(name)] == ["a*c"]


def test_null_never_matches():
    for force_scan in (True, False):
        db = _database(force_scan)
        result = db.query("SELECT id FROM t WHERE name LIKE '%'")
        assert NAMES.index(None) not in [row[0] for row in result.rows]
