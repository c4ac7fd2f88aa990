"""Unit tests for the secondary index structures (hash + B+Tree).

Every case runs on both ways an index comes to exist: inserted row by row
(how a live index absorbs appended rows) and bulk-loaded by
``from_column`` (how a probe first builds one); a Hypothesis property
checks the two agree on arbitrary columns, also after further appends.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import BPlusTreeIndex, HashIndex

SEED = "sqldb-indexes-20260808"


def _inserted_hash(values):
    index = HashIndex()
    for row_id, value in enumerate(values):
        index.insert(value, row_id)
    return index


def _inserted_tree(values, order=32):
    tree = BPlusTreeIndex(order=order)
    for row_id, value in enumerate(values):
        tree.insert(value, row_id)
    return tree


BUILDS = {
    "incremental": (_inserted_hash, _inserted_tree),
    "from_column": (HashIndex.from_column, BPlusTreeIndex.from_column),
}


@pytest.fixture(params=sorted(BUILDS))
def build_hash(request):
    """Build a HashIndex over a column: row ``i`` has key ``values[i]``."""
    return BUILDS[request.param][0]


@pytest.fixture(params=sorted(BUILDS))
def build_tree(request):
    """Build a BPlusTreeIndex over a column: row ``i`` has key ``values[i]``."""
    return BUILDS[request.param][1]


class TestHashIndex:
    def test_lookup_returns_ascending_ids(self, build_hash):
        index = build_hash(["a", "b", "a", "a", "b"])
        assert index.lookup("a") == [0, 2, 3]
        assert index.lookup("b") == [1, 4]
        assert index.lookup("zz") == []
        assert len(index) == 5

    def test_none_is_an_ordinary_key(self, build_hash):
        # IN (NULL, ...) matches NULL rows under the scan engine, so the
        # hash index must serve None like any other key.
        index = build_hash([None, 1, None])
        assert index.lookup(None) == [0, 2]

    def test_numeric_equality_crosses_types(self, build_hash):
        # dict lookup uses ==, exactly like the scan engine's _compare:
        # 1, 1.0 and True all land on one key.
        index = build_hash([1])
        assert index.lookup(1.0) == [0]
        assert index.lookup(True) == [0]

    def test_first_key_object_names_the_slot(self, build_hash):
        index = build_hash([1, 1.0, -0.0, 0.0, True])
        assert [(type(key), repr(key)) for key in index.keys()] == [
            (int, "1"),
            (float, "-0.0"),
        ]
        assert index.lookup(1) == [0, 1, 4]
        assert index.lookup(0) == [2, 3]


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
    def test_rejects_tiny_order(self, build_tree):
        with pytest.raises(ValueError):
            build_tree([], order=2)

    def test_empty_column(self, build_tree):
        tree = build_tree([None, math.nan], order=3)
        tree.check_invariants()
        assert tree.keys() == [] and len(tree) == 0
        assert tree.range_ids() == [] and tree.lookup(1) == []

    def test_first_key_object_names_the_slot(self, build_tree):
        tree = build_tree([1, 1.0, -0.0, 0.0, True, 2], order=3)
        tree.check_invariants()
        assert [(type(key), repr(key)) for key in tree.keys()] == [
            (float, "-0.0"),
            (int, "1"),
            (int, "2"),
        ]
        assert tree.lookup(1.0) == [0, 1, 4]
        assert tree.range_ids(0, 0) == [2, 3]

    def test_lookup_and_duplicates(self, build_tree):
        values = [5, 3, 5, 8, 3, 5, 1]
        tree = build_tree(values, order=4)
        tree.check_invariants()
        assert tree.lookup(5) == [0, 2, 5]
        assert tree.lookup(3) == [1, 4]
        assert tree.lookup(99) == []
        assert tree.keys() == [1, 3, 5, 8]
        assert len(tree) == len(values)

    def test_splits_grow_depth_and_keep_invariants(self, build_tree):
        rng = random.Random(SEED)
        keys = [rng.randint(0, 10_000) for _ in range(2_000)]
        tree = build_tree(keys, order=4)
        tree.check_invariants()
        assert tree.depth() > 2
        assert tree.keys() == sorted(set(keys))

    @pytest.mark.parametrize("order", [3, 4, 32])
    def test_range_ids_match_brute_force(self, build_tree, order):
        rng = random.Random(f"{SEED}-{order}")
        pairs = [(row_id, rng.randint(0, 60)) for row_id in range(400)]
        tree = build_tree([key for _, key in pairs], order=order)
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
    def test_sliced_range_scan_on_leaf_boundaries(self, build_tree, kind):
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
        tree = build_tree([key for _, key in pairs], order=32)
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

    def test_string_keys(self, build_tree):
        words = ["pear", "apple", "fig", "apple", "kiwi", "banana"]
        tree = build_tree(words, order=3)
        tree.check_invariants()
        assert tree.keys() == ["apple", "banana", "fig", "kiwi", "pear"]
        assert tree.range_ids("b", "k", True, False) == [2, 5]

    def test_null_and_nan_are_quarantined(self, build_tree):
        tree = build_tree([None, math.nan, 2.0], order=4)
        tree.check_invariants()
        # NULL/NaN never satisfy a comparison under the scan engine, so
        # no probe may ever return them.
        assert tree.range_ids(None, None, True, True) == [2]
        assert tree.lookup(None) == []
        assert tree.lookup(math.nan) == []

    def test_insertion_order_does_not_change_answers(self, build_tree):
        rng = random.Random(f"{SEED}-order")
        keys = [rng.randint(0, 100) for _ in range(300)]
        shuffled = build_tree(keys, order=8)
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


# A column's keys: numbers (ints and floats that collide, signed zeros,
# NULL, NaN) or text (with NULL), never both — a B+Tree over a column
# holds one comparable family, whichever way it is built.
_NUMBERS = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.5, True]),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.none(),
    st.just(math.nan),
)
_TEXT = st.one_of(
    st.sampled_from(["", "a", "ab", "b", "ba", "zz"]), st.text(max_size=2), st.none()
)
_COLUMNS = st.one_of(st.lists(_NUMBERS, max_size=60), st.lists(_TEXT, max_size=60))


def _assert_same_tree(bulk, inserted, keys):
    bulk.check_invariants()
    inserted.check_invariants()
    # Same key objects (repr tells -0.0 from 0.0 and 1 from 1.0).
    assert [(type(k), repr(k)) for k in bulk.keys()] == [
        (type(k), repr(k)) for k in inserted.keys()
    ]
    assert len(bulk) == len(inserted)
    assert bulk._unordered == inserted._unordered
    ordered = [key for key in keys if key is not None and key == key]
    distinct = sorted(set(ordered))
    bounds = [None, *distinct[:: max(1, len(distinct) // 10)]]
    if distinct and not isinstance(distinct[0], str):
        bounds.append(distinct[-1] + 0.5)
    for key in distinct:
        assert bulk.lookup(key) == inserted.lookup(key)
    pairs = list(enumerate(keys))
    for low in bounds:
        for high in bounds:
            for low_inclusive in (True, False):
                for high_inclusive in (True, False):
                    got = bulk.range_ids(low, high, low_inclusive, high_inclusive)
                    assert got == inserted.range_ids(low, high, low_inclusive, high_inclusive)
                    assert got == _brute_range(pairs, low, high, low_inclusive, high_inclusive)


@settings(max_examples=60, deadline=None)
@given(
    column=_COLUMNS.flatmap(lambda keys: st.tuples(st.just(keys), st.integers(0, len(keys)))),
    order=st.integers(3, 6),
)
def test_bulk_load_stores_what_insertion_stores(column, order):
    """from_column == row-by-row insertion, and stays so as rows append
    (the stream-append lifecycle: bulk-load on first probe, then fold
    each appended row in with ``insert``)."""
    keys, split = column
    loaded, appended = keys[:split], keys[split:]
    bulk = BPlusTreeIndex.from_column(loaded, order=order)
    inserted = _inserted_tree(loaded, order=order)
    _assert_same_tree(bulk, inserted, loaded)
    for row_id, key in enumerate(appended, split):
        bulk.insert(key, row_id)
        inserted.insert(key, row_id)
    _assert_same_tree(bulk, inserted, keys)
    hashed = HashIndex.from_column(keys)
    reference = _inserted_hash(keys)
    assert [(type(k), repr(k)) for k in hashed.keys()] == [
        (type(k), repr(k)) for k in reference.keys()
    ]
    assert len(hashed) == len(reference)
    assert all(hashed.lookup(k) == reference.lookup(k) for k in reference.keys())
