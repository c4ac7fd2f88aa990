"""Unit tests for the secondary index structures (hash + B+Tree)."""

import math
import random

import pytest

from repro.sqldb import BPlusTreeIndex, HashIndex

SEED = "sqldb-indexes-20260808"


class TestHashIndex:
    def test_lookup_returns_ascending_ids(self):
        index = HashIndex()
        for row_id, value in enumerate(["a", "b", "a", "a", "b"]):
            index.insert(value, row_id)
        assert index.lookup("a") == [0, 2, 3]
        assert index.lookup("b") == [1, 4]
        assert index.lookup("zz") == []
        assert len(index) == 5

    def test_none_is_an_ordinary_key(self):
        # IN (NULL, ...) matches NULL rows under the scan engine, so the
        # hash index must serve None like any other key.
        index = HashIndex()
        index.insert(None, 0)
        index.insert(1, 1)
        index.insert(None, 2)
        assert index.lookup(None) == [0, 2]

    def test_numeric_equality_crosses_types(self):
        # dict lookup uses ==, exactly like the scan engine's _compare:
        # 1, 1.0 and True all land on one key.
        index = HashIndex()
        index.insert(1, 0)
        assert index.lookup(1.0) == [0]
        assert index.lookup(True) == [0]


def _brute_range(pairs, low, high, low_inclusive, high_inclusive):
    out = []
    for row_id, key in pairs:
        if key is None or key != key:
            continue
        if low is not None and (key < low if low_inclusive else key <= low):
            continue
        if high is not None and (key > high if high_inclusive else key >= high):
            continue
        out.append(row_id)
    return sorted(out)


class TestBPlusTreeIndex:
    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            BPlusTreeIndex(order=2)

    def test_lookup_and_duplicates(self):
        tree = BPlusTreeIndex(order=4)
        values = [5, 3, 5, 8, 3, 5, 1]
        for row_id, value in enumerate(values):
            tree.insert(value, row_id)
        tree.check_invariants()
        assert tree.lookup(5) == [0, 2, 5]
        assert tree.lookup(3) == [1, 4]
        assert tree.lookup(99) == []
        assert tree.keys() == [1, 3, 5, 8]
        assert len(tree) == len(values)

    def test_splits_grow_depth_and_keep_invariants(self):
        rng = random.Random(SEED)
        tree = BPlusTreeIndex(order=4)
        keys = [rng.randint(0, 10_000) for _ in range(2_000)]
        for row_id, key in enumerate(keys):
            tree.insert(key, row_id)
        tree.check_invariants()
        assert tree.depth() > 2
        assert tree.keys() == sorted(set(keys))

    @pytest.mark.parametrize("order", [3, 4, 32])
    def test_range_ids_match_brute_force(self, order):
        rng = random.Random(f"{SEED}-{order}")
        tree = BPlusTreeIndex(order=order)
        pairs = [(row_id, rng.randint(0, 60)) for row_id in range(400)]
        for row_id, key in pairs:
            tree.insert(key, row_id)
        tree.check_invariants()
        for _ in range(200):
            low = rng.choice([None, rng.randint(-5, 65)])
            high = rng.choice([None, rng.randint(-5, 65)])
            low_inclusive = rng.random() < 0.5
            high_inclusive = rng.random() < 0.5
            expected = _brute_range(pairs, low, high, low_inclusive, high_inclusive)
            got = tree.range_ids(low, high, low_inclusive, high_inclusive)
            assert got == expected, (low, high, low_inclusive, high_inclusive)

    @pytest.mark.parametrize("kind", ["int", "float", "text"])
    def test_sliced_range_scan_on_leaf_boundaries(self, kind):
        """The range scan reads leaves by slice: bounds below the first key,
        above the last, between keys and exactly on a leaf's first or last
        key must all give the brute-force answer, in ascending id order."""
        rng = random.Random(f"{SEED}-slice-{kind}")
        draw = {
            "int": lambda: rng.randint(0, 150),
            "float": lambda: round(rng.uniform(0.0, 50.0), 1),
            "text": lambda: "".join(rng.choice("abcd") for _ in range(rng.randint(1, 4))),
        }[kind]
        pairs = []
        for row_id in range(600):
            roll = rng.random()
            key = None if roll < 0.05 else math.nan if roll < 0.08 else draw()
            pairs.append((row_id, key))
        tree = BPlusTreeIndex(order=32)
        for row_id, key in pairs:
            tree.insert(key, row_id)
        tree.check_invariants()
        leaves = []
        leaf = tree._first_leaf()
        while leaf is not None:
            leaves.append(leaf)
            leaf = leaf.next
        assert len(leaves) > 3
        keys = tree.keys()
        assert len(keys) < sum(1 for _, key in pairs if key is not None and key == key)
        below, above = {
            "int": (-1, 10**6),
            "float": (-1.0, 1e6),
            "text": ("", "zzzz"),
        }[kind]
        bounds = [None, below, above, draw(), draw()]
        for leaf in leaves:
            bounds += [leaf.keys[0], leaf.keys[-1]]
        for low in bounds:
            for high in bounds:
                for low_inclusive in (True, False):
                    for high_inclusive in (True, False):
                        got = tree.range_ids(low, high, low_inclusive, high_inclusive)
                        assert got == _brute_range(
                            pairs, low, high, low_inclusive, high_inclusive
                        ), (low, high, low_inclusive, high_inclusive)
        tree.check_invariants()

    def test_string_keys(self):
        tree = BPlusTreeIndex(order=3)
        words = ["pear", "apple", "fig", "apple", "kiwi", "banana"]
        for row_id, word in enumerate(words):
            tree.insert(word, row_id)
        tree.check_invariants()
        assert tree.keys() == ["apple", "banana", "fig", "kiwi", "pear"]
        assert tree.range_ids("b", "k", True, False) == [2, 5]

    def test_null_and_nan_are_quarantined(self):
        tree = BPlusTreeIndex(order=4)
        tree.insert(None, 0)
        tree.insert(math.nan, 1)
        tree.insert(2.0, 2)
        tree.check_invariants()
        # NULL/NaN never satisfy a comparison under the scan engine, so
        # no probe may ever return them.
        assert tree.range_ids(None, None, True, True) == [2]
        assert tree.lookup(None) == []
        assert tree.lookup(math.nan) == []

    def test_insertion_order_does_not_change_answers(self):
        rng = random.Random(f"{SEED}-order")
        keys = [rng.randint(0, 100) for _ in range(300)]
        shuffled = BPlusTreeIndex(order=8)
        for row_id, key in enumerate(keys):
            shuffled.insert(key, row_id)
        by_key = BPlusTreeIndex(order=8)
        for row_id, key in sorted(enumerate(keys), key=lambda pair: pair[1]):
            by_key.insert(key, row_id)
        shuffled.check_invariants()
        by_key.check_invariants()
        assert shuffled.keys() == by_key.keys()
        for probe in range(-1, 102):
            assert shuffled.lookup(probe) == by_key.lookup(probe)
        assert shuffled.range_ids(20, 60, True, True) == by_key.range_ids(
            20, 60, True, True
        )
