"""Model-based tests: the blocked OrderedIndex vs a sorted-list reference.

The reference model is the seed's data structure — a flat sorted list of
``(key, rowid)`` pairs — with the semantics the rest of the engine
relies on: duplicates allowed (unless unique), lookups/scans in
``(key, rowid)`` order, prefix matches on the first key component.
The model keeps one reference method per read shape (``range``,
``prefix``); the index answers every one of them with its single
sweep, ``multi_range``, given one key range (a prefix as
``prefix_range``), forward or reverse.  Every observable operation of a
drawn op sequence must agree between the blocked implementation and the
model.

``REPRO_HYPOTHESIS_PROFILE=ci`` derandomizes the properties here (same
example budgets), so an index regression fails deterministically.
"""

import bisect
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.errors import DuplicateKeyError
from repro.storage.index import OrderedIndex, _LOAD, prefix_range

from .strategies import INDEX_KEY_TEXTS, index_entries, index_keys, index_ops, index_rowids

_PROFILES = {
    "default": {},
    "ci": {"derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)


def scan(index, low=None, high=None, include_low=True, include_high=True, reverse=False):
    """One key range through the index's only range walker."""
    return list(index.multi_range([(low, high, include_low, include_high)], reverse))


def prefix_scan(index, text, reverse=False):
    return list(index.multi_range([prefix_range(text)], reverse))


class SortedListModel:
    """The seed's flat sorted list, kept deliberately simple."""

    def __init__(self):
        self.entries = []

    def insert(self, key, rowid):
        bisect.insort(self.entries, (key, rowid))

    def delete(self, key, rowid):
        position = bisect.bisect_left(self.entries, (key, rowid))
        if position < len(self.entries) and self.entries[position] == (key, rowid):
            self.entries.pop(position)

    def lookup(self, key):
        return [rowid for entry_key, rowid in self.entries if entry_key == key]

    def range(self, low, high, include_low, include_high, reverse=False):
        out = []
        for key, rowid in self.entries:
            if low is not None and (key < low or (not include_low and key == low)):
                continue
            if high is not None and (key > high or (not include_high and key == high)):
                continue
            out.append(rowid)
        return out[::-1] if reverse else out

    def prefix(self, text, reverse=False):
        out = [
            rowid
            for key, rowid in self.entries
            if isinstance(key[0], str) and key[0].startswith(text)
        ]
        return out[::-1] if reverse else out


def apply_ops(ops):
    index = OrderedIndex("model")
    model = SortedListModel()
    for op in ops:
        if op[0] == "insert":
            index.insert(op[1], op[2])
            model.insert(op[1], op[2])
        elif op[0] == "delete":
            index.delete(op[1], op[2])
            model.delete(op[1], op[2])
        elif op[0] == "lookup":
            assert sorted(index.lookup_iter(op[1])) == sorted(model.lookup(op[1]))
            assert index.lookup(op[1]) == set(model.lookup(op[1]))
        elif op[0] == "prefix":
            assert prefix_scan(index, op[1]) == model.prefix(op[1])
            assert prefix_scan(index, op[1], reverse=True) == model.prefix(
                op[1], reverse=True
            )
        else:  # range / rrange
            tag, low, high, include_low, include_high = op
            reverse = tag == "rrange"
            assert scan(
                index, low, high, include_low, include_high, reverse
            ) == model.range(low, high, include_low, include_high, reverse)
    return index, model


class TestBlockedIndexModel:
    @given(index_ops())
    @settings(max_examples=200, deadline=None, **_PROFILE)
    def test_operation_sequences_agree(self, ops):
        index, model = apply_ops(ops)
        assert len(index) == len(model.entries)
        assert list(index.items()) == model.entries
        assert index.min_key() == (model.entries[0][0] if model.entries else None)
        assert index.max_key() == (model.entries[-1][0] if model.entries else None)

    @given(st.lists(st.tuples(index_keys, index_rowids), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None, **_PROFILE)
    def test_unique_rejects_exactly_duplicate_keys(self, pairs):
        index = OrderedIndex("u", unique=True)
        seen = set()
        for key, rowid in pairs:
            if key in seen:
                with pytest.raises(DuplicateKeyError):
                    index.insert(key, rowid)
            else:
                index.insert(key, rowid)
                seen.add(key)
        assert len(index) == len(seen)

    def test_block_splitting_keeps_order(self):
        # Enough entries to force several splits, inserted adversarially:
        # ascending, descending, then interleaved.
        index = OrderedIndex("s")
        model = SortedListModel()
        n = 3 * _LOAD
        for i in range(n):
            index.insert((f"a{i:06d}",), i)
            model.insert((f"a{i:06d}",), i)
        for i in range(n, 2 * n):
            j = 3 * n - i  # descending
            index.insert((f"a{j:06d}",), j)
            model.insert((f"a{j:06d}",), j)
        assert list(index.items()) == model.entries
        assert len(index._blocks) > 1  # the structure really is blocked
        assert all(len(block) <= 2 * _LOAD for block in index._blocks)

    def test_delete_drains_blocks(self):
        index = OrderedIndex("d")
        entries = [((f"k{i:05d}",), i) for i in range(4 * _LOAD)]
        for key, rowid in entries:
            index.insert(key, rowid)
        for key, rowid in entries[::2] + entries[1::2]:
            index.delete(key, rowid)
        assert len(index) == 0
        assert index.min_key() is None and index.max_key() is None
        assert list(index.items()) == []


class TestBulkBuildEquivalence:
    """``OrderedIndex.bulk_build(entries)`` must be observationally
    identical to inserting the same entries one at a time — the property
    the unified index lifecycle rests on (bulk-built indexes from
    ``create_index`` backfills, snapshot restore, and WAL replay answer
    every query exactly like incrementally grown ones)."""

    @staticmethod
    def observations(index):
        out = [len(index), index.min_key(), index.max_key(), list(index.items())]
        for text in INDEX_KEY_TEXTS:
            key = (text,)
            out.append(sorted(index.lookup_iter(key)))
            out.append(index.lookup(key))
            out.append(index.contains(key))
            out.append(prefix_scan(index, text))
        bounds = [None] + [(text,) for text in INDEX_KEY_TEXTS[::3]]
        for low in bounds:
            for high in bounds:
                for include_low, include_high in ((True, True), (False, False)):
                    for reverse in (False, True):
                        out.append(
                            scan(index, low, high, include_low, include_high, reverse)
                        )
        return out

    @given(index_entries)
    @settings(max_examples=150, deadline=None, **_PROFILE)
    def test_bulk_equals_incremental(self, entries):
        incremental = OrderedIndex("inc")
        for key, rowid in entries:
            incremental.insert(key, rowid)
        bulk = OrderedIndex.bulk_build("bulk", entries)
        assert self.observations(bulk) == self.observations(incremental)

    @given(index_entries)
    @settings(max_examples=60, deadline=None, **_PROFILE)
    def test_presorted_shortcut_agrees(self, entries):
        ordered = sorted(entries)
        assert list(
            OrderedIndex.bulk_build("p", ordered, presorted=True).items()
        ) == list(OrderedIndex.bulk_build("s", entries).items())

    def test_bulk_build_is_blocked(self):
        entries = [((f"k{i:06d}",), i) for i in range(3 * _LOAD)]
        index = OrderedIndex.bulk_build("b", entries)
        assert len(index._blocks) == 3
        assert all(len(block) <= _LOAD for block in index._blocks)
        assert list(index.items()) == entries

    def test_unique_bulk_build_rejects_duplicates(self):
        with pytest.raises(DuplicateKeyError):
            OrderedIndex.bulk_build(
                "u", [(("a",), 1), (("b",), 2), (("a",), 3)], unique=True
            )
        index = OrderedIndex.bulk_build("u", [(("a",), 1), (("b",), 2)], unique=True)
        with pytest.raises(DuplicateKeyError):
            index.insert(("a",), 9)


class TestRangeSentinels:
    def test_exclusive_bounds_with_non_numeric_rowids(self):
        # The seed used (low, float("inf")) as the exclusive-low probe,
        # which raises TypeError when row ids are not numbers.
        index = OrderedIndex("r")
        for key, rowid in ((("a",), "r1"), (("a",), "r2"), (("b",), "r3")):
            index.insert(key, rowid)
        assert scan(index, low=("a",), include_low=False) == ["r3"]
        assert scan(index, low=("a",), high=("b",), include_high=False) == ["r1", "r2"]

    def test_exclusive_low_skips_all_duplicates(self):
        index = OrderedIndex("r")
        for rowid in range(5):
            index.insert(("x",), rowid)
        index.insert(("y",), 99)
        assert scan(index, low=("x",), include_low=False) == [99]

    def test_reverse_range_streams_descending(self):
        index = OrderedIndex("r")
        for i in range(10):
            index.insert((f"k{i}",), i)
        assert scan(index, ("k2",), ("k5",), reverse=True) == [5, 4, 3, 2]
        assert scan(index, reverse=True) == list(range(9, -1, -1))
        assert scan(index, ("k2",), ("k5",), False, False, reverse=True) == [4, 3]

    def test_reverse_range_crosses_blocks(self):
        index = OrderedIndex("r")
        n = 3 * _LOAD
        for i in range(n):
            index.insert((i,), i)
        assert len(index._blocks) > 1
        assert scan(index, reverse=True) == list(range(n - 1, -1, -1))
        got = scan(index, (_LOAD - 7,), (2 * _LOAD + 3,), reverse=True)
        assert got == list(range(2 * _LOAD + 3, _LOAD - 8, -1))


class TestMultiRangeUnion:
    """multi_range == the sorted, de-duplicated union of per-range scans."""

    ranges_strategy = st.lists(
        st.tuples(
            st.one_of(st.none(), index_keys),
            st.one_of(st.none(), index_keys),
            st.booleans(),
            st.booleans(),
        ),
        max_size=6,
    )

    @staticmethod
    def _in_range(key, key_range):
        low, high, include_low, include_high = key_range
        if low is not None and (key < low or (key == low and not include_low)):
            return False
        if high is not None and (key > high or (key == high and not include_high)):
            return False
        return True

    @given(entries=index_entries, ranges=ranges_strategy, reverse=st.booleans())
    @settings(max_examples=200, deadline=None, **_PROFILE)
    def test_union_matches_model(self, entries, ranges, reverse):
        distinct = sorted(set(entries))
        index = OrderedIndex("m")
        for key, rowid in distinct:
            index.insert(key, rowid)
        expected = [
            rowid
            for key, rowid in (reversed(distinct) if reverse else distinct)
            if any(self._in_range(key, key_range) for key_range in ranges)
        ]
        assert list(index.multi_range(ranges, reverse)) == expected

    @given(entries=index_entries, ranges=ranges_strategy)
    @settings(max_examples=100, deadline=None, **_PROFILE)
    def test_presorted_shortcut_agrees(self, entries, ranges):
        from repro.storage.index import _range_start_key

        index = OrderedIndex("m")
        for key, rowid in set(entries):
            index.insert(key, rowid)
        ordered = sorted(ranges, key=_range_start_key)
        assert list(index.multi_range(ordered, presorted=True)) == list(
            index.multi_range(ranges)
        )


_TOP = chr(0x10FFFF)
#: U+10FFFF sorts above every other character, so a prefix ending in it
#: has no one-character successor: prefix_range must strip it first
_prefix_texts = st.text(alphabet=["a", "b", "/", _TOP], max_size=4)


class TestPrefixRange:
    """``prefix_range(p)`` swept by ``multi_range`` == a ``startswith``
    filter over the first key component, on one- and two-column keys."""

    @given(
        texts=st.lists(st.tuples(_prefix_texts, index_rowids), max_size=60),
        prefix=st.one_of(st.just(""), _prefix_texts, _prefix_texts.map(lambda t: t + _TOP)),
        two_columns=st.booleans(),
        reverse=st.booleans(),
    )
    @settings(max_examples=200, deadline=None, **_PROFILE)
    def test_prefix_range_equals_startswith(self, texts, prefix, two_columns, reverse):
        entries = sorted(
            {((text, rowid) if two_columns else (text,), rowid) for text, rowid in texts}
        )
        index = OrderedIndex.bulk_build("p", entries)
        expected = [rowid for key, rowid in entries if key[0].startswith(prefix)]
        if reverse:
            expected.reverse()
        assert prefix_scan(index, prefix, reverse) == expected

    def test_successor_bounds(self):
        assert prefix_range("T/a/") == (("T/a/",), ("T/a0",), True, False)
        assert prefix_range("a" + _TOP + _TOP) == (("a" + _TOP + _TOP,), ("b",), True, False)
        # no string sorts above every extension of these: open above
        assert prefix_range("") == (("",), None, True, False)
        assert prefix_range(_TOP * 2) == ((_TOP * 2,), None, True, False)
