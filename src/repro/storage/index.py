"""In-memory secondary indexes: hash (equality) and ordered (key ranges).

The provenance workload needs two access paths:

* equality on ``tid`` (all changes in a transaction) — hash index;
* prefix on ``loc`` (all records under a subtree, the ``Mod`` query and
  hierarchical inference) — ordered index, with the prefix written as
  the half-open key range :func:`prefix_range`.

The ordered index is a *blocked* sorted structure (a two-level
list-of-chunks in the spirit of a B-tree leaf chain): entries live in
bounded sorted blocks, and a parallel array of per-block maxima is
bisected to locate the target block.  Insert and delete therefore cost
O(log n + sqrt(n))-ish instead of the O(n) ``list.insert`` of a flat
sorted list.  Every range read — one range or many, forward or
reverse — is one :meth:`OrderedIndex.multi_range` sweep over the blocks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import DuplicateKeyError

__all__ = [
    "HashIndex",
    "OrderedIndex",
    "MIN_KEY",
    "MAX_KEY",
    "KeyRange",
    "prefix_range",
]

Key = Tuple[Any, ...]
Entry = Tuple[Key, int]

#: ``(low, high, include_low, include_high)`` — the keys ``k`` with
#: ``low <= k <= high``; a ``None`` bound leaves that side open and a
#: False flag makes it exclusive.  The unit :meth:`OrderedIndex.multi_range`
#: (and everything above it, up to the planner's ``IndexRangeScan``)
#: unions over.
KeyRange = Tuple[Optional[Key], Optional[Key], bool, bool]

_ENTRY_KEY = itemgetter(0)
_ENTRY_ROWID = itemgetter(1)


class HashIndex:
    """Equality index mapping key tuples to row ids.

    Buckets are insertion-ordered dicts, so iteration order is the order
    rows were indexed (ascending row id for append-only workloads) and
    lookups need no per-call sort.

    Lifecycle (shared with :class:`OrderedIndex` — see
    ``docs/ARCHITECTURE.md``): construct empty and :meth:`insert` row by
    row, or construct pre-populated with :meth:`bulk_build`; maintain
    with :meth:`insert`/:meth:`delete`; drop everything with
    :meth:`clear`.
    """

    def __init__(self, name: str, unique: bool = False) -> None:
        self.name = name
        self.unique = unique
        self._buckets: Dict[Key, Dict[int, None]] = {}

    @classmethod
    def bulk_build(
        cls, name: str, entries: Iterable[Entry], unique: bool = False
    ) -> "HashIndex":
        """Build an index holding ``entries`` (``(key, rowid)`` pairs).

        One pass over the entries — the hash shape has no sort to
        amortize, so this exists for lifecycle symmetry with
        :meth:`OrderedIndex.bulk_build`: every bulk code path (snapshot
        restore, WAL replay, ``create_index`` backfill) constructs both
        index kinds the same way.  Duplicate keys raise
        :class:`~repro.storage.errors.DuplicateKeyError` when ``unique``.
        """
        index = cls(name, unique=unique)
        buckets = index._buckets
        if unique:
            for key, rowid in entries:
                if key in buckets:
                    raise DuplicateKeyError(
                        f"duplicate key {key!r} in unique index {name!r}"
                    )
                buckets[key] = {rowid: None}
        else:
            for key, rowid in entries:
                buckets.setdefault(key, {})[rowid] = None
        return index

    def insert(self, key: Key, rowid: int) -> None:
        """Index ``rowid`` under ``key``; raises
        :class:`~repro.storage.errors.DuplicateKeyError` if the index is
        ``unique`` and the key is already present."""
        bucket = self._buckets.setdefault(key, {})
        if self.unique and bucket:
            raise DuplicateKeyError(f"duplicate key {key!r} in unique index {self.name!r}")
        bucket[rowid] = None

    def delete(self, key: Key, rowid: int) -> None:
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.pop(rowid, None)
            if not bucket:
                del self._buckets[key]

    def lookup(self, key: Key) -> Set[int]:
        return set(self._buckets.get(key, ()))

    def lookup_iter(self, key: Key) -> Iterator[int]:
        """Row ids for ``key`` in insertion order (no copy, no sort)."""
        return iter(tuple(self._buckets.get(key, ())))

    def contains(self, key: Key) -> bool:
        return key in self._buckets

    def key_count(self) -> int:
        """The number of distinct keys (exact, O(1)) — the planner's
        selectivity statistic for equality probes."""
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def clear(self) -> None:
        self._buckets.clear()


class _Extreme:
    """Compares below (``_MIN``) or above (``_MAX``) every other value.

    Used in the row-id slot of probe entries so bisection over ``(key,
    rowid)`` pairs can target "before the first" / "after the last" entry
    of a key without assuming row ids are numeric.  (The seed used
    ``-1``/``float("inf")``, which raises ``TypeError`` against
    non-numeric row ids on exclusive range bounds.)
    """

    __slots__ = ("_below",)

    def __init__(self, below: bool) -> None:
        self._below = below

    def __lt__(self, other: object) -> bool:
        return self._below

    def __gt__(self, other: object) -> bool:
        return not self._below

    # tuple rich comparison applies <=/>= (not </==) to the first
    # differing element, so sentinels need the non-strict forms too
    def __le__(self, other: object) -> bool:
        return self._below

    def __ge__(self, other: object) -> bool:
        return not self._below

    def __repr__(self) -> str:
        return "_MIN" if self._below else "_MAX"


_MIN = _Extreme(True)
_MAX = _Extreme(False)

#: Public sentinels for *key components*: callers building partial-key
#: bounds over multi-column ordered indexes pad the missing trailing
#: columns with these, e.g. ``high=("T/a", MAX_KEY)`` for "every entry
#: whose first column is T/a".  They compare below/above every real
#: value (including ``None``, via the reflected operators).
MIN_KEY = _MIN
MAX_KEY = _MAX

_MAX_CHAR = chr(0x10FFFF)


def prefix_range(prefix: str) -> KeyRange:
    """The key range ``[(prefix,), (succ(prefix),))``: every key whose
    first component is a string starting with ``prefix``.

    ``succ`` drops trailing U+10FFFF characters (nothing sorts between
    ``p + max`` and the next string up) and increments the last one
    left; an empty or all-U+10FFFF prefix has no successor, so the
    range is open above.  Only sound over string keys — bisecting a
    string bound against other key types raises.
    """
    stem = prefix.rstrip(_MAX_CHAR)
    high = (stem[:-1] + chr(ord(stem[-1]) + 1),) if stem else None
    return (prefix,), high, True, False


def _range_start_key(key_range: KeyRange) -> Tuple[int, Any, bool]:
    """Sort key ordering ranges by low bound (open bounds first; for
    equal bounds, inclusive before exclusive) — matches start-position
    order, which the multi-range sweep requires."""
    low, _high, include_low, _include_high = key_range
    if low is None:
        return (0, (), False)
    return (1, low, not include_low)


#: Split threshold: a block holding more than ``2 * _LOAD`` entries is
#: halved.  1024 keeps per-block memmoves small (a few KB of pointers)
#: while the maxima array stays short (n / 1024 blocks).
_LOAD = 1024
_SPLIT = 2 * _LOAD


class OrderedIndex:
    """Sorted index over key tuples supporting key-range sweeps.

    Entries ``(key, rowid)`` are kept in bounded sorted blocks with a
    bisected per-block maxima array, giving sub-linear insert/delete and
    in-order streaming scans.  Semantics match the flat sorted list it
    replaced: duplicates allowed unless ``unique``, lookups/scans yield
    row ids in ``(key, rowid)`` order.

    Lifecycle (see ``docs/ARCHITECTURE.md``):

    * **build** — construct empty, :meth:`insert` row by row;
    * **bulk-build** — :meth:`bulk_build` sorts the full entry set once
      and slices it straight into blocks, O(n log n) with tiny
      constants; the backfill path behind ``Table.create_index``,
      snapshot restore, and WAL replay;
    * **maintain** — :meth:`insert`/:meth:`delete` keep the structure
      consistent under churn;
    * **recover** — after a crash, indexes are *derived* state: they are
      bulk-built from the replayed heap, never logged.
    """

    def __init__(self, name: str, unique: bool = False) -> None:
        self.name = name
        self.unique = unique
        self._blocks: List[List[Entry]] = []
        self._maxes: List[Entry] = []
        self._len = 0
        self._key_count_cache: Optional[Tuple[int, int]] = None

    @classmethod
    def bulk_build(
        cls,
        name: str,
        entries: Iterable[Entry],
        unique: bool = False,
        presorted: bool = False,
    ) -> "OrderedIndex":
        """Build an index over ``entries`` in one O(n log n) pass.

        Sort-then-chunk: the ``(key, rowid)`` pairs are sorted once
        (Timsort, C speed — ``presorted=True`` skips even that, for
        callers merging already-sorted runs) and sliced into maximally
        loaded blocks, instead of paying a bisect + ``insort`` memmove
        per entry.  The result is observationally identical to inserting
        the entries one at a time (the hypothesis property in
        ``tests/test_index_properties.py`` holds the two paths equal
        under every scan shape); only the internal block boundaries may
        differ.  Duplicate keys raise
        :class:`~repro.storage.errors.DuplicateKeyError` when ``unique``.
        """
        ordered = list(entries)
        if not presorted:
            # two stable passes (rowid, then key) yield exact (key, rowid)
            # order while comparing ints and bare key tuples instead of
            # nested (key, rowid) pairs — measurably cheaper than one
            # full-entry sort (see the bulk_index_build microbenchmark)
            try:
                ordered.sort(key=_ENTRY_ROWID)
            except TypeError:
                # mixed-type rowids under distinct keys: only the full
                # entry sort (which compares rowids lazily) can order them
                ordered.sort()
            else:
                ordered.sort(key=_ENTRY_KEY)
        index = cls(name, unique=unique)
        if unique:
            for position in range(1, len(ordered)):
                if ordered[position - 1][0] == ordered[position][0]:
                    raise DuplicateKeyError(
                        f"duplicate key {ordered[position][0]!r} in unique "
                        f"index {name!r}"
                    )
        # maximally loaded blocks: splits only begin after _LOAD further
        # inserts land in one block, so a freshly built index is compact
        index._blocks = [
            ordered[start : start + _LOAD] for start in range(0, len(ordered), _LOAD)
        ]
        index._maxes = [block[-1] for block in index._blocks]
        index._len = len(ordered)
        return index

    # ------------------------------------------------------------------
    # Position helpers
    # ------------------------------------------------------------------
    def _find_left(self, probe: Entry) -> Tuple[int, int]:
        """First (block, slot) whose entry is ``>= probe``."""
        block_pos = bisect_left(self._maxes, probe)
        if block_pos == len(self._blocks):
            return block_pos, 0
        return block_pos, bisect_left(self._blocks[block_pos], probe)

    def _find_right(self, probe: Entry) -> Tuple[int, int]:
        """First (block, slot) whose entry is ``> probe``."""
        block_pos = bisect_right(self._maxes, probe)
        if block_pos == len(self._blocks):
            return block_pos, 0
        return block_pos, bisect_right(self._blocks[block_pos], probe)

    def _iter_from(self, block_pos: int, slot: int) -> Iterator[Entry]:
        blocks = self._blocks
        if block_pos >= len(blocks):
            return
        # no block slicing: early-terminating consumers (point lookups)
        # must not pay for entries they never look at
        block = blocks[block_pos]
        for position in range(slot, len(block)):
            yield block[position]
        for pos in range(block_pos + 1, len(blocks)):
            yield from blocks[pos]

    def _entry_at(self, block_pos: int, slot: int) -> Optional[Entry]:
        if block_pos >= len(self._blocks):
            return None
        return self._blocks[block_pos][slot]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, key: Key, rowid: int) -> None:
        entry = (key, rowid)
        if self.unique:
            at = self._entry_at(*self._find_left((key, _MIN)))
            if at is not None and at[0] == key:
                raise DuplicateKeyError(
                    f"duplicate key {key!r} in unique index {self.name!r}"
                )
        blocks = self._blocks
        if not blocks:
            blocks.append([entry])
            self._maxes.append(entry)
            self._len = 1
            return
        maxes = self._maxes
        block_pos = bisect_left(maxes, entry)
        if block_pos == len(blocks):
            # beyond every max: append to the last block (the common case
            # for monotonically growing keys, O(1) amortized)
            block_pos -= 1
            block = blocks[block_pos]
            block.append(entry)
            maxes[block_pos] = entry
        else:
            block = blocks[block_pos]
            insort(block, entry)
            if block[-1] is entry:
                maxes[block_pos] = entry
        self._len += 1
        if len(block) > _SPLIT:
            half = _LOAD
            tail = block[half:]
            del block[half:]
            blocks.insert(block_pos + 1, tail)
            maxes[block_pos] = block[-1]
            maxes.insert(block_pos + 1, tail[-1])

    def delete(self, key: Key, rowid: int) -> None:
        entry = (key, rowid)
        block_pos = bisect_left(self._maxes, entry)
        if block_pos == len(self._blocks):
            return
        block = self._blocks[block_pos]
        slot = bisect_left(block, entry)
        if slot == len(block) or block[slot] != entry:
            return
        block.pop(slot)
        self._len -= 1
        if not block:
            del self._blocks[block_pos]
            del self._maxes[block_pos]
        else:
            self._maxes[block_pos] = block[-1]

    def clear(self) -> None:
        self._blocks.clear()
        self._maxes.clear()
        self._len = 0
        self._key_count_cache = None

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, key: Key) -> Set[int]:
        """The set of row ids indexed under exactly ``key``."""
        return set(self.lookup_iter(key))

    def lookup_iter(self, key: Key) -> Iterator[int]:
        """Row ids for ``key`` in ascending row-id order."""
        for entry_key, rowid in self._iter_from(*self._find_left((key, _MIN))):
            if entry_key != key:
                break
            yield rowid

    def contains(self, key: Key) -> bool:
        """Whether any entry is indexed under exactly ``key`` (one
        bisection; the uniqueness probe of the bulk-insert path)."""
        at = self._entry_at(*self._find_left((key, _MIN)))
        return at is not None and at[0] == key

    def multi_range(
        self,
        ranges: Iterable[KeyRange],
        reverse: bool = False,
        presorted: bool = False,
    ) -> Iterator[int]:
        """Row ids in the *union* of several key ranges, in one pass.

        Each range is a :data:`KeyRange`.  The union is sorted and
        de-duplicated: entries stream in global ``(key, rowid)`` order
        (descending with ``reverse``) and each appears exactly once even
        when ranges overlap or repeat.  This is the index's only range
        walker: one range (a bounded or open scan, a
        :func:`prefix_range`) is the one-element case.  It backs the
        planner's ``IndexRangeScan`` (merged bounds, ``LIKE 'p%'``,
        ``IN`` lists, OR-of-ranges), the provenance store's batched
        location probes and the XML store's axis reads.

        The pass is a monotone sweep: ranges are sorted by their low
        bound, and a cursor marks the first entry not yet emitted.
        Each range's start is bisected *from the cursor onward* — never
        from the front of the index — so N probes cost one pass with N
        narrowing bisections instead of N full scan setups.  A range
        starting inside the swept region is clamped to the cursor:
        everything before it was already emitted by an earlier,
        overlapping range (each range emits a contiguous run, so the
        swept region has no holes).

        ``presorted=True`` promises the ranges are already in
        :func:`_range_start_key` order (ascending low bound, inclusive
        before exclusive on ties) and skips the sort — the batched
        provenance probes build their ranges from sorted location text,
        so the whole pass runs sort-free.  Ignored with ``reverse``.
        """
        if reverse:
            yield from self._multi_range_back(ranges)
            return
        ordered = list(ranges)
        if not presorted:
            # mutually incomparable low bounds raise TypeError here, the
            # same way a single foreign-family bound raises in the bisect
            # — the planner's _bound_safe guard keeps such probes out of
            # index plans entirely
            ordered.sort(key=_range_start_key)
        blocks = self._blocks
        maxes = self._maxes
        block_count = len(blocks)
        resume_block = resume_slot = 0
        for low, high, include_low, include_high in ordered:
            if resume_block >= block_count:
                break  # swept past the end: every later range is empty
            if low is None:
                block_pos, slot = resume_block, resume_slot
            else:
                # cursor fast path: when the sweep cursor already sits
                # at/past this range's start — adjacent or overlapping
                # probes, e.g. an ancestor chain's consecutive index
                # entries — the clamp needs one comparison, no bisect
                cursor = blocks[resume_block][resume_slot]
                if include_low:
                    probe = (low, _MIN)
                    if cursor >= probe:
                        block_pos, slot = resume_block, resume_slot
                    else:
                        # bisecting with lo= the cursor both narrows the
                        # search and clamps starts inside the swept region
                        block_pos = bisect_left(maxes, probe, resume_block)
                        if block_pos < block_count:
                            lo = resume_slot if block_pos == resume_block else 0
                            slot = bisect_left(blocks[block_pos], probe, lo)
                        else:
                            slot = 0
                else:
                    probe = (low, _MAX)
                    if cursor > probe:
                        block_pos, slot = resume_block, resume_slot
                    else:
                        block_pos = bisect_right(maxes, probe, resume_block)
                        if block_pos < block_count:
                            lo = resume_slot if block_pos == resume_block else 0
                            slot = bisect_right(blocks[block_pos], probe, lo)
                        else:
                            slot = 0
            stopped = False
            while block_pos < block_count and not stopped:
                block = blocks[block_pos]
                block_len = len(block)
                while slot < block_len:
                    key, rowid = block[slot]
                    if high is not None and (
                        key > high if include_high else key >= high
                    ):
                        stopped = True
                        break
                    yield rowid
                    slot += 1
                if not stopped:
                    block_pos += 1
                    slot = 0
            if stopped:
                resume_block, resume_slot = block_pos, slot
            else:
                resume_block, resume_slot = block_count, 0

    def _multi_range_back(self, ranges: Iterable[KeyRange]) -> Iterator[int]:
        """Descending mirror of :meth:`multi_range`: each range starts
        at an exclusive upper position (the first entry above its high
        bound) and the sweep cursor moves downward."""
        blocks = self._blocks
        if not blocks:
            return
        starts: List[Tuple[Tuple[int, int], Optional[Key], bool]] = []
        for low, high, include_low, include_high in ranges:
            if high is None:
                position = (len(blocks), 0)
            elif include_high:
                position = self._find_right((high, _MAX))
            else:
                position = self._find_left((high, _MIN))
            starts.append((position, low, include_low))
        starts.sort(key=_ENTRY_KEY, reverse=True)
        resume = (len(blocks), 0)
        for position, low, include_low in starts:
            block_pos, slot = min(position, resume)
            while True:
                if slot == 0:
                    block_pos -= 1
                    if block_pos < 0:
                        resume = (0, 0)
                        break
                    slot = len(blocks[block_pos])
                slot -= 1
                key, rowid = blocks[block_pos][slot]
                if low is not None and (key < low if include_low else key <= low):
                    resume = (block_pos, slot + 1)
                    break
                yield rowid

    def key_count(self) -> int:
        """Estimated number of distinct keys.

        Exact distinct counts are not maintained — that would put an
        extra bisection on the insert hot path — so the distinct ratio
        of a bounded sample (the first and last blocks, up to 256
        entries each) is extrapolated over the entry count.  Entries
        are sorted, so duplicates are adjacent and a contiguous sample
        estimates the local duplication factor well.  Unique indexes
        answer exactly.  The estimate is cached until the entry count
        changes, so repeated planning over a read-mostly index samples
        once.  This is a planner statistic: it only has to *rank*
        access-path candidates, not be right.
        """
        if self.unique or self._len == 0:
            return self._len
        cached = self._key_count_cache
        if cached is not None and cached[0] == self._len:
            return cached[1]
        sample: List[Entry] = self._blocks[0][:256]
        if len(self._blocks) > 1:
            sample = sample + self._blocks[-1][-256:]
        estimate = max(1, round(self._len * len({key for key, _rowid in sample}) / len(sample)))
        self._key_count_cache = (self._len, estimate)
        return estimate

    def sample_keys(self, limit: int = 512) -> List[Any]:
        """Up to ``limit`` *leading* key components, evenly sampled
        across the index, in sorted order.

        The cheap sampling source behind per-column equi-depth
        histograms (``Table.column_histogram``): entries are already
        sorted by key, so an even stride over the blocks yields a
        sorted quantile sample of the first key column without
        touching the heap or re-sorting anything.  A statistic, not a
        snapshot — it only has to approximate the distribution.
        """
        if self._len == 0 or limit <= 0:
            return []
        step = max(1, -(-self._len // limit))  # ceil: never exceed ``limit``
        sample: List[Any] = []
        position = 0
        next_pick = 0
        for block in self._blocks:
            block_len = len(block)
            while next_pick < position + block_len:
                sample.append(block[next_pick - position][0][0])
                next_pick += step
            position += block_len
        return sample

    def min_key(self) -> Optional[Key]:
        return self._blocks[0][0][0] if self._blocks else None

    def max_key(self) -> Optional[Key]:
        return self._blocks[-1][-1][0] if self._blocks else None

    def items(self) -> Iterator[Entry]:
        """All ``(key, rowid)`` entries in sorted order."""
        return self._iter_from(0, 0)

    def __len__(self) -> int:
        return self._len
