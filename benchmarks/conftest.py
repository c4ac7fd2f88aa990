"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Besides the
pytest-benchmark timing (which exercises the real code path), each benchmark
writes the rows/series the paper reports to ``benchmarks/results/<name>.txt``
so the output can be compared against the published numbers.  The
``benchmarks/results/`` directory is written by the runs and not committed;
the declared epoch benchmark and its committed baseline are described in
``benchmarks/epoch_profile/README.md``.
"""

from __future__ import annotations

import os
from typing import Sequence

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_collection_modifyitems(items):
    """Tag everything under benchmarks/ with the ``bench`` marker.

    Tier-1 runs never collect this directory (``testpaths`` points at
    ``tests/``); the marker lets explicit benchmark invocations still select
    subsets with ``-m bench`` or ``-m 'not bench'``.  The hook sees the whole
    session's items (even from this subdirectory conftest), so only items
    that actually live under benchmarks/ are marked.
    """
    here = os.path.dirname(__file__)
    for item in items:
        if os.path.commonpath([here, str(item.path)]) == here:
            item.add_marker(pytest.mark.bench)


class ReportWriter:
    """Formats benchmark output as fixed-width tables and persists it."""

    def __init__(self, name: str):
        self.name = name
        self._lines: list[str] = []

    def title(self, text: str) -> None:
        self._lines.append(text)
        self._lines.append("=" * len(text))

    def table(self, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
        """Append a fixed-width table."""
        str_rows = [[_format_cell(cell) for cell in row] for row in rows]
        widths = [
            max(len(str(headers[i])), max((len(r[i]) for r in str_rows), default=0))
            for i in range(len(headers))
        ]
        header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
        self._lines.append(header_line)
        self._lines.append("-" * len(header_line))
        for row in str_rows:
            self._lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        self._lines.append("")

    def note(self, text: str) -> None:
        self._lines.append(text)

    def flush(self) -> str:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        content = "\n".join(self._lines) + "\n"
        path = os.path.join(RESULTS_DIR, f"{self.name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        print()
        print(content)
        return path


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) >= 1e5 or abs(cell) < 1e-3):
            return f"{cell:.3e}"
        return f"{cell:.4f}"
    return str(cell)


@pytest.fixture
def report(request) -> ReportWriter:
    """A report writer named after the requesting benchmark module."""
    module_name = request.module.__name__.rsplit(".", maxsplit=1)[-1]
    writer = ReportWriter(module_name)
    yield writer
    writer.flush()
