"""What the compiled path computes, in the row scan's full form.

The compiled path answers one question, each asked slot's standing latest
row (:func:`~repro.sqldb.engine.arena_select_per_client`), and takes that
row from one matching pass, :meth:`CompiledSelect.matching_ids_per_client
<repro.sqldb.compile.CompiledSelect.matching_ids_per_client>`.  The
differential suites hold both to the row scan (``Database.query``):

* :func:`compiled_outcomes` rebuilds each slot's full result from the
  matching pass, reading every matched row back from the member's own
  table, and checks on the way that the standing answer is that result's
  ``rows[-1:]`` with the same columns, or the same error;
* :func:`compiled_query` is the same for a lone database over its
  one-slot arena, whose arena row ids are the table's own row ids, with
  the row scan answering what the arena does not.
"""

import math

from repro.sqldb import ARENA_FALLBACK, arena_select_per_client, plan_for
from repro.sqldb.engine import ResultSet
from repro.sqldb.parser import parse_statement


def comparable(rows) -> list[tuple]:
    """Rows with NaN folded to a sentinel, so two reads of one NaN compare equal."""
    return [
        tuple("<NaN>" if isinstance(v, float) and math.isnan(v) else v for v in row)
        for row in rows
    ]


def compiled_outcomes(arena, sql: str, slots=None):
    """Per slot of ``arena`` (synced by the caller): :data:`ARENA_FALLBACK`,
    the exception the slot raises, or a :class:`ResultSet` over every row the
    matching pass selects for it.  ``None`` when the arena does not answer
    the statement."""
    standing = arena_select_per_client(arena, sql, slots)
    if standing is None:
        return None
    statement = parse_statement(sql)
    table = arena.table(statement.table)
    plan = plan_for(statement, table.columns)
    positions = [[c.name for c in table.columns].index(name) for name in plan.sources]
    matched = plan.matching_ids_per_client(table)
    full = []
    for slot, (outcome, ids) in enumerate(zip(standing, matched, strict=True)):
        if outcome is ARENA_FALLBACK:
            full.append(outcome)
            continue
        if isinstance(ids, BaseException):
            assert (type(outcome), str(outcome)) == (type(ids), str(ids)), (sql, slot)
            full.append(ids)
            continue
        local = {row_id: k for k, row_id in enumerate(table.slot_rows[slot])}
        member_rows = arena.databases[slot].table(statement.table).rows
        rows = [tuple(member_rows[local[i]][p] for p in positions) for i in ids]
        assert isinstance(outcome, ResultSet), (sql, slot, outcome)
        assert outcome.columns == list(plan.columns), (sql, slot)
        assert comparable(outcome.rows) == comparable(rows[-1:]), (sql, slot)
        full.append(ResultSet(list(plan.columns), rows))
    return full


def compiled_query(db, sql: str) -> ResultSet:
    """``sql`` on ``db``'s one-slot arena in full form, raising what it raises;
    ``db.query(sql)`` for what the arena does not answer."""
    arena = db.arena
    arena.sync()
    outcomes = compiled_outcomes(arena, sql)
    if outcomes is None or outcomes[0] is ARENA_FALLBACK:
        return db.query(sql)
    (outcome,) = outcomes
    if isinstance(outcome, BaseException):
        raise outcome
    name = parse_statement(sql).table
    assert list(arena.table(name).slot_rows[0]) == list(range(len(db.table(name))))
    return outcome
