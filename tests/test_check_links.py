"""Tests for the stale-code-name pass of ``tools/check_links.py``."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_links.py"


@pytest.fixture(scope="module")
def check_links():
    spec = importlib.util.spec_from_file_location("check_links", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''
import threading


class Base:
    limit = 3

    def close(self):
        pass


class Worker(Base):
    name: str
    left, right = 1, 2

    def __init__(self):
        self._queue = []

    def run(self):
        self.done = True


class Thread(threading.Thread):
    pass
'''


def test_flags_only_names_the_class_does_not_define(tmp_path, check_links):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(SOURCE)
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Defined: `Worker.run`, `Worker.name`, `Worker.right`, `Worker._queue`,\n"
        "`Worker.done`, `Worker.close` and `Worker.limit` (inherited),\n"
        "`pkg.mod.Worker.run()`, `Thread.start` (outside base), `Other.anything`.\n"
        "Stale: `Worker.gone(x)` and\n"
        "`Base.run`.\n"
        "```\n"
        "`Worker.fenced_off`\n"
        "```\n"
    )
    classes = check_links.source_classes(tmp_path / "src")
    assert check_links.stale_code_names(doc, classes) == ["4: Worker.gone", "5: Base.run"]
