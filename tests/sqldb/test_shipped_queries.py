"""Every statement the shipped code asks is in the dialect and compiles.

A client answers the analyst's query with its latest matching row, and the
dialect is that read, ``SELECT cols | * FROM t [WHERE pred]``
(``tests/sqldb/test_dialect.py``).  The code that ships asks: the case
studies' queries, the CLI's and ``run_scenario``'s ``SELECT value FROM
private_data``, the examples' and the ``epoch_profile`` workloads' queries.
Each must parse and lower to a :class:`~repro.sqldb.CompiledSelect`
against the schema its clients are provisioned with: a clause outside the
dialect fails to parse, and a projected name the schema lacks leaves the
compiled path for the row scan's ``SchemaError`` — this is where either
shows.

The statements and schemas are read from the source (string literals and
``provision_clients`` column lists), so a new or changed query is checked
without being listed here.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.datasets import ElectricityGenerator, TaxiRideGenerator
from repro.sqldb import Column, CompileFallback, plan_for
from repro.sqldb.parser import parse_statement

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ROOT / "benchmarks/epoch_profile/workloads.py"
SOURCES = [
    *sorted(ROOT.glob("examples/*.py")),
    ROOT / "src/repro/cli.py",
    ROOT / "src/repro/runtime/scenario.py",
]


def _compiles(sql: str, columns) -> bool:
    try:
        plan_for(parse_statement(sql), [Column(name, sql_type) for name, sql_type in columns])
    except CompileFallback:
        return False
    return True


def _shipped(path: Path) -> tuple[list[str], list[list]]:
    """A file's ``SELECT`` string literals, and the column lists it passes
    ``provision_clients`` as literals."""
    selects, schemas = [], []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and str(node.value).startswith("SELECT "):
            selects.append(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "provision_clients":
            columns = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "columns")]
            try:
                schemas.append(ast.literal_eval(columns[0]))
            except ValueError:  # built by a call, e.g. a dataset's table_columns()
                pass
    return selects, schemas


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_select_literal_compiles_on_its_schema(path):
    selects, schemas = _shipped(path)
    for sql in selects:
        assert any(_compiles(sql, columns) for columns in schemas), sql


def test_the_literals_are_found():
    """The guard reads what the code asks, not nothing."""
    found = {sql for path in SOURCES for sql in _shipped(path)[0]}
    assert found == {
        "SELECT value FROM private_data",
        "SELECT speed FROM private_data WHERE location = 'San Francisco'",
        "SELECT user_agent FROM private_data WHERE consent = 'analytics'",
    }


@pytest.mark.parametrize("generator", [TaxiRideGenerator, ElectricityGenerator])
def test_case_study_query_compiles(generator):
    assert _compiles(generator.case_study_sql(), generator.table_columns())


def test_epoch_profile_workload_queries_compile(monkeypatch):
    """The table workloads ask ``SELECT value FROM private_data`` plus each
    query's WHERE clause, over the schema ``run_tables`` provisions; the
    hostile mix asks ``run_scenario``'s statement, checked above."""
    if not WORKLOADS.is_file():
        pytest.skip("benchmarks/epoch_profile/ is absent")
    spec = importlib.util.spec_from_file_location("_epoch_profile_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    (select,), (columns,) = _shipped(WORKLOADS)
    asked = [
        select + (f" WHERE {query.where}" if query.where else "")
        for workload in module.WORKLOADS.values()
        for query in workload.queries
    ]
    assert len(asked) == 7
    for sql in asked:
        assert _compiles(sql, columns), sql
