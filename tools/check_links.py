#!/usr/bin/env python
"""Check intra-repo links in the repository's Markdown files.

Scans every ``*.md`` file (skipping dot-directories and caches) for inline
links and validates the ones that point inside the repository: the linked
file or directory must exist, relative to the Markdown file containing the
link.  Links into Markdown files (and pure in-page anchors like
``#section``) are additionally checked for a matching heading: the fragment
must equal the GitHub-style slug of some heading in the target file.
External links (``http://``, ``https://``, ``mailto:``) are not fetched.

A second pass catches stale code names: every backticked ``Class.attr`` in
``README.md`` and ``docs/*.md`` whose ``Class`` is a class defined under
``src/`` must name something that class (or a base class defined under
``src/``) defines — a method, a class-level assignment or annotation, or a
``self.attr`` store.  The classes are read with :mod:`ast`, so nothing is
imported or installed.  ``ROADMAP.md`` and ``CHANGES.md`` are not scanned:
they name deleted code on purpose.

Exit status is non-zero when any intra-repo link is broken or any code name
is stale, listing each as ``file:line: target``.  Run from anywhere inside
the repository:

    python tools/check_links.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

# Inline Markdown links: [text](target).  Images ![alt](target) match too via
# the bracket contents; reference-style definitions are rare here and skipped.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_PATTERN = re.compile(r"^(#{1,6})\s+(.+?)\s*#*\s*$")
INLINE_LINK_TEXT = re.compile(r"\[([^\]]*)\]\([^)\s]*\)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")
SKIP_DIR_NAMES = {".git", "__pycache__", ".pytest_cache", "node_modules", ".venv"}
# An inline code span, and a ``Class.attr`` inside one.
CODE_SPAN = re.compile(r"`([^`]+)`")
CLASS_ATTR = re.compile(r"(?<!\w)([A-Za-z_]\w*)\.([A-Za-z_]\w*)")
FENCE = re.compile(r"^\s*(```|~~~).*?^\s*\1", re.MULTILINE | re.DOTALL)
# Bases that add no attribute a doc would name.
TRIVIAL_BASES = {"object", "Generic", "Protocol", "ABC"}


def repo_root() -> Path:
    """The repository root: nearest ancestor of this file containing .git."""
    here = Path(__file__).resolve().parent
    for candidate in (here, *here.parents):
        if (candidate / ".git").exists():
            return candidate
    return here.parent


def markdown_files(root: Path) -> list[Path]:
    files = []
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIP_DIR_NAMES or part.startswith(".") for part in path.parts[len(root.parts):-1]):
            continue
        files.append(path)
    return files


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a heading (before dedup suffixes).

    Lowercase; inline-link markup reduced to its text; punctuation removed
    (word characters, spaces and hyphens survive); spaces become hyphens.
    """
    text = INLINE_LINK_TEXT.sub(r"\1", heading)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(path: Path, cache: dict[Path, set[str]]) -> set[str]:
    """All anchor slugs a Markdown file exposes, GitHub dedup rules included.

    Repeated headings get ``-1``, ``-2``, ... suffixes in document order.
    Headings inside fenced code blocks are not anchors and are skipped.
    """
    anchors = cache.get(path)
    if anchors is not None:
        return anchors
    anchors = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith(("```", "~~~")):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_PATTERN.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    cache[path] = anchors
    return anchors


def check_file(path: Path, anchor_cache: dict[Path, set[str]]) -> list[str]:
    """Return ``line_number: target`` entries for every broken link in a file."""
    broken = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for match in LINK_PATTERN.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            file_part, _, fragment = target.partition("#")
            resolved = (path.parent / file_part).resolve() if file_part else path
            if not resolved.exists():
                broken.append(f"{line_number}: {target}")
                continue
            # Anchor validation, for Markdown targets only: the fragment must
            # be the GitHub slug of a heading in the target file.
            if fragment and resolved.suffix == ".md":
                if fragment not in heading_anchors(resolved, anchor_cache):
                    broken.append(f"{line_number}: {target} (no such heading anchor)")
    return broken


def _base_name(node: ast.expr) -> str:
    """A base's name; a dotted one (``threading.Thread``) is never a key of
    :func:`source_classes`, so it counts as a base from outside ``src/``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ast.unparse(node)


def _assigned_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in _assigned_names(element)]
    return []


def _class_members(node: ast.ClassDef) -> set[str]:
    """What a class body defines, ``self.attr`` stores in its methods included."""
    members: set[str] = set()
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(statement.name)
        elif isinstance(statement, ast.Assign):
            members.update(name for target in statement.targets for name in _assigned_names(target))
        elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
            members.update(_assigned_names(statement.target))
    for statement in node.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(statement):
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.ctx, ast.Store)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                members.add(inner.attr)
    return members


def source_classes(src: Path) -> dict[str, tuple[set[str], set[str]]]:
    """Every class under ``src``: name -> (members, base names).

    Classes sharing a name in different modules are merged, so a doc name
    is stale only if no class of that name defines it.
    """
    classes: dict[str, tuple[set[str], set[str]]] = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                members, bases = classes.setdefault(node.name, (set(), set()))
                members.update(_class_members(node))
                bases.update(_base_name(base) for base in node.bases)
    return classes


def defines(classes: dict[str, tuple[set[str], set[str]]], name: str, attr: str) -> bool:
    """Whether class ``name`` or a base of it defines ``attr``.

    A base not defined under ``src/`` may define anything, so a class with
    one is never contradicted.
    """
    pending, seen = [name], set()
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        if current not in classes:
            if current not in TRIVIAL_BASES:
                return True
            continue
        members, bases = classes[current]
        if attr in members:
            return True
        pending.extend(bases)
    return attr.startswith("__")


def stale_code_names(
    path: Path, classes: dict[str, tuple[set[str], set[str]]]
) -> list[str]:
    """``line_number: Class.attr`` for every backticked name ``classes`` lacks."""
    text = path.read_text(encoding="utf-8")
    # Blank out fenced blocks, keeping their newlines for the line numbers.
    text = FENCE.sub(lambda match: "\n" * match.group(0).count("\n"), text)
    stale = []
    for span in CODE_SPAN.finditer(text):
        for match in CLASS_ATTR.finditer(span.group(1)):
            name, attr = match.groups()
            if name in classes and not defines(classes, name, attr):
                line_number = text.count("\n", 0, span.start() + match.start()) + 1
                stale.append(f"{line_number}: {name}.{attr}")
    return stale


def main() -> int:
    root = repo_root()
    files = markdown_files(root)
    anchor_cache: dict[Path, set[str]] = {}
    broken = [
        f"{path.relative_to(root)}:{entry}"
        for path in files
        for entry in check_file(path, anchor_cache)
    ]
    classes = source_classes(root / "src")
    documents = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    stale = [
        f"{path.relative_to(root)}:{entry} (no such attribute under src/)"
        for path in documents
        for entry in stale_code_names(path, classes)
    ]
    for entry in broken + stale:
        print(entry, file=sys.stderr)
    checked = len(files)
    if broken:
        print(f"FAIL: {len(broken)} broken intra-repo link(s) across {checked} Markdown files",
              file=sys.stderr)
    else:
        print(f"OK: intra-repo links valid across {checked} Markdown files")
    if stale:
        print(f"FAIL: {len(stale)} stale code name(s) across {len(documents)} documents",
              file=sys.stderr)
    else:
        print(f"OK: backticked Class.attr names resolve across {len(documents)} documents")
    return 1 if broken or stale else 0

if __name__ == "__main__":
    sys.exit(main())
