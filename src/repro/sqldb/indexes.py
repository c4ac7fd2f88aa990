"""Secondary index structures for the mini SQL engine.

Two index kinds back the compiled answer path
(:mod:`repro.sqldb.compile`):

* :class:`HashIndex` — value → row ids, serving equality and ``IN``
  probes in O(1) per key.
* :class:`BPlusTreeIndex` — an order-``M`` B+Tree whose leaves form a
  linked list, serving range probes (``<``, ``<=``, ``>``, ``>=``,
  ``BETWEEN``) in O(log n + k).

Both are *bulk-loaded* from a whole column (``from_column``) the first
time a probe needs them — per predicate column, by an
:class:`~repro.sqldb.columnar.ArenaTable` (a shard's, or a lone
database's one-slot arena) — and after that maintained
*incrementally* (``insert``), one appended row at a time, as rows
append to the live table (the resident runtime streams rows into client
tables via :class:`~repro.runtime.wire.ShardDelta` frames).  A rebuild
drops an index; the next probe bulk-loads it again.  A bulk-loaded index
holds exactly what incremental insertion of the same column stores (same
keys, same key objects, same ascending row-id lists), and the test suite
asserts every probe answers alike on both, including after further
incremental appends to a bulk-loaded tree.

NULL handling mirrors the row-scan engine's comparison semantics
(:func:`repro.sqldb.engine._compare`): ``NULL`` never satisfies a
comparison, so ``None`` keys (and non-self-equal keys, i.e. NaN, which
would corrupt the tree's ordering invariant) are kept out of the tree and
never returned by a range probe.  The hash index stores ``None`` as an
ordinary key because ``IN (NULL, ...)`` *does* match NULL rows under the
scan engine's ``value in choices`` semantics; plain ``= NULL`` probes are
suppressed by the compiler instead (``NULL = NULL`` is false).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import eq
from typing import Any, Iterable, Iterator


class HashIndex:
    """value → ascending row ids, for equality and ``IN`` probes.

    Row ids are appended in insertion order, which is row order, so each
    per-key list is already sorted ascending.
    """

    __slots__ = ("_rows", "entries")

    def __init__(self) -> None:
        self._rows: dict[Any, list[int]] = {}
        self.entries = 0

    @classmethod
    def from_column(cls, values: Iterable[Any]) -> "HashIndex":
        """Index a whole column in one pass; ``values[i]`` is row ``i``'s key."""
        index = cls()
        rows = index._rows
        for row_id, key in enumerate(values):
            ids = rows.get(key)
            if ids is None:
                rows[key] = [row_id]
            else:
                ids.append(row_id)
        index.entries = sum(map(len, rows.values()))
        return index

    def insert(self, key: Any, row_id: int) -> None:
        rows = self._rows.get(key)
        if rows is None:
            self._rows[key] = [row_id]
        else:
            rows.append(row_id)
        self.entries += 1

    def lookup(self, key: Any) -> list[int]:
        """Row ids whose stored value equals ``key`` (ascending)."""
        return self._rows.get(key, [])

    def keys(self) -> Iterator[Any]:
        return iter(self._rows)

    def __len__(self) -> int:
        return self.entries


def _even_runs(count: int, most: int) -> Iterator[tuple[int, int]]:
    """Split ``range(count)`` into the fewest runs of at most ``most``
    items whose lengths differ by at most one; yield ``(start, stop)``."""
    runs = -(-count // most)
    base, extra = divmod(count, runs)
    start = 0
    for run in range(runs):
        stop = start + base + (run < extra)
        yield start, stop
        start = stop


class _Leaf:
    """A B+Tree leaf: sorted unique keys, row-id lists, next-leaf link."""

    __slots__ = ("keys", "vals", "next")

    def __init__(self, keys: list, vals: list, nxt: "_Leaf | None"):
        self.keys = keys
        self.vals = vals
        self.next = nxt


class _Inner:
    """An internal node: separator keys and ``len(keys) + 1`` children."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: list, children: list):
        self.keys = keys
        self.children = children


class BPlusTreeIndex:
    """An order-``M`` B+Tree over one column, serving range probes.

    ``order`` bounds the keys per leaf and children per internal node;
    nodes split at the midpoint when they overflow.  Duplicate keys share
    one leaf slot holding the list of row ids (insertion order, i.e. row
    order).  Leaves are chained left-to-right so a range scan descends
    once and then walks sequentially.
    """

    __slots__ = ("order", "_root", "_unordered", "size")

    def __init__(self, order: int = 32):
        if order < 3:
            raise ValueError(f"B+Tree order must be at least 3, got {order}")
        self.order = order
        self._root: _Leaf | _Inner = _Leaf([], [], None)
        # None and NaN keys: never comparable, never returned by a probe.
        self._unordered: list[int] = []
        self.size = 0

    @classmethod
    def from_column(cls, values: Iterable[Any], order: int = 32) -> "BPlusTreeIndex":
        """Bulk-load a whole column bottom-up; ``values[i]`` is row ``i``'s key.

        Stores exactly what inserting every row in row order would: each
        slot keeps the first (in row order) of its equal keys and their
        row ids ascending, NULL/NaN rows sit in ``_unordered`` in row
        order.  Only the node shapes differ — leaves are packed evenly
        with at most ``order`` keys and the inner levels are built over
        them with min-key separators — so every probe answers alike.
        """
        tree = cls(order)
        keys = list(values)
        ordered = []
        for row_id, key in enumerate(keys):
            if key is None or key != key:  # noqa: PLR0124
                tree._unordered.append(row_id)
            else:
                ordered.append(row_id)
        ordered.sort(key=keys.__getitem__)  # stable: equal keys stay in row order
        sorted_keys = [keys[row_id] for row_id in ordered]
        if any(map(eq, sorted_keys, islice(sorted_keys, 1, None))):
            slot_keys: list = []
            slot_ids: list = []
            for row_id, key in zip(ordered, sorted_keys):
                if slot_keys and slot_keys[-1] == key:
                    slot_ids[-1].append(row_id)
                else:
                    slot_keys.append(key)
                    slot_ids.append([row_id])
        else:
            slot_keys = sorted_keys
            slot_ids = [[row_id] for row_id in ordered]
        tree.size = len(ordered)
        if not slot_keys:
            return tree
        leaves = [
            _Leaf(slot_keys[start:stop], slot_ids[start:stop], None)
            for start, stop in _even_runs(len(slot_keys), order)
        ]
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
        # (node, its smallest key) pairs; a parent's separators are the
        # smallest keys of its children after the first.
        nodes = [(leaf, leaf.keys[0]) for leaf in leaves]
        while len(nodes) > 1:
            nodes = [
                (
                    _Inner(
                        [low for _, low in nodes[start + 1 : stop]],
                        [node for node, _ in nodes[start:stop]],
                    ),
                    nodes[start][1],
                )
                for start, stop in _even_runs(len(nodes), order)
            ]
        tree._root = nodes[0][0]
        return tree

    # -- maintenance ---------------------------------------------------------

    def insert(self, key: Any, row_id: int) -> None:
        if key is None or key != key:  # noqa: PLR0124 — NaN is not self-equal
            self._unordered.append(row_id)
            return
        split = self._insert(self._root, key, row_id)
        if split is not None:
            separator, right = split
            self._root = _Inner([separator], [self._root, right])
        self.size += 1

    def _insert(self, node, key, row_id):
        """Insert below ``node``; return ``(separator, new_right)`` on split."""
        if isinstance(node, _Leaf):
            position = bisect_left(node.keys, key)
            if position < len(node.keys) and node.keys[position] == key:
                node.vals[position].append(row_id)
                return None
            node.keys.insert(position, key)
            node.vals.insert(position, [row_id])
            if len(node.keys) <= self.order:
                return None
            middle = len(node.keys) // 2
            right = _Leaf(node.keys[middle:], node.vals[middle:], node.next)
            del node.keys[middle:]
            del node.vals[middle:]
            node.next = right
            return right.keys[0], right
        position = bisect_right(node.keys, key)
        split = self._insert(node.children[position], key, row_id)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(position, separator)
        node.children.insert(position + 1, right)
        if len(node.children) <= self.order:
            return None
        middle = len(node.keys) // 2
        separator_up = node.keys[middle]
        right_inner = _Inner(node.keys[middle + 1 :], node.children[middle + 1 :])
        del node.keys[middle:]
        del node.children[middle + 1 :]
        return separator_up, right_inner

    # -- probes --------------------------------------------------------------

    def _first_leaf(self) -> _Leaf:
        node = self._root
        while not isinstance(node, _Leaf):
            node = node.children[0]
        return node

    def _leaf_for(self, key) -> _Leaf:
        node = self._root
        while not isinstance(node, _Leaf):
            node = node.children[bisect_right(node.keys, key)]
        return node

    def lookup(self, key: Any) -> list[int]:
        """Row ids whose key equals ``key`` (ascending); NULL/NaN never match."""
        if key is None or key != key:  # noqa: PLR0124
            return []
        leaf = self._leaf_for(key)
        position = bisect_left(leaf.keys, key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            return leaf.vals[position]
        return []

    def range_ids(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int]:
        """Row ids with ``low (<|<=) key (<|<=) high``, sorted ascending.

        ``None`` bounds are open ends.  NULL/NaN rows never appear (the
        scan engine's comparisons are false for them).  Leaves are read
        by slice: the stop position is one bisect per leaf, never a
        per-key comparison against ``high``.
        """
        out: list[int] = []
        if low is None:
            leaf: _Leaf | None = self._first_leaf()
            position = 0
        else:
            leaf = self._leaf_for(low)
            if low_inclusive:
                position = bisect_left(leaf.keys, low)
            else:
                position = bisect_right(leaf.keys, low)
        stop_of = bisect_right if high_inclusive else bisect_left
        while leaf is not None:
            vals = leaf.vals
            stop = len(vals) if high is None else stop_of(leaf.keys, high)
            out.extend(chain.from_iterable(vals[position:stop]))
            if stop < len(vals):
                break  # the first key past ``high`` lives in this leaf
            leaf = leaf.next
            position = 0
        out.sort()
        return out

    # -- introspection (tests, invariant checks) ----------------------------

    def keys(self) -> list:
        """All ordered keys, ascending (excludes NULL/NaN)."""
        out = []
        leaf: _Leaf | None = self._first_leaf()
        while leaf is not None:
            out.extend(leaf.keys)
            leaf = leaf.next
        return out

    def depth(self) -> int:
        depth = 1
        node = self._root
        while not isinstance(node, _Leaf):
            depth += 1
            node = node.children[0]
        return depth

    def check_invariants(self) -> None:
        """Assert structural invariants (tests only; O(n))."""
        keys = self.keys()
        assert keys == sorted(keys), "leaf chain out of order"
        assert len(keys) == len(set(keys)), "duplicate key slots"
        self._check_node(self._root, None, None, is_root=True)

    def _check_node(self, node, low, high, is_root=False) -> None:
        if isinstance(node, _Leaf):
            assert len(node.keys) == len(node.vals)
            assert len(node.keys) <= self.order
            for key in node.keys:
                assert low is None or key >= low
                assert high is None or key < high
            return
        assert len(node.children) == len(node.keys) + 1
        assert len(node.children) <= self.order
        if not is_root:
            assert len(node.keys) >= 1
        bounds = [low, *node.keys, high]
        for index, child in enumerate(node.children):
            self._check_node(child, bounds[index], bounds[index + 1])

    def __len__(self) -> int:
        return self.size
