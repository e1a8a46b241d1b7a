"""Heap table with index maintenance; the primary key is one of its unique indexes."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from heapq import merge
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .errors import ConstraintError, DuplicateKeyError, SchemaError
from .index import HashIndex, KeyRange, OrderedIndex
from .schema import IndexSpec, TableSchema
from .types import ColumnType

__all__ = ["Table", "IndexStats", "Histogram"]

Row = Tuple[Any, ...]


class IndexStats(NamedTuple):
    """Planner-facing statistics for one index (see ``Table.index_stats``)."""

    ordered: bool
    unique: bool
    entries: int
    #: distinct keys — exact for hash indexes, a bounded-sample estimate
    #: for ordered ones (see ``OrderedIndex.key_count``)
    keys: int


#: Histogram sampling knobs: a histogram is built from at most
#: ``HISTOGRAM_SAMPLE`` values (an even stride over an ordered index's
#: entries, or over the heap) sliced into at most ``HISTOGRAM_BINS``
#: equi-depth bins.  Both bound the *planning-time* cost of statistics:
#: one build touches ≤ 512 values however large the table, and the
#: result is cached until the table's mutation counter moves.
HISTOGRAM_SAMPLE = 512
HISTOGRAM_BINS = 32

#: column type families whose values sort, i.e. can carry a histogram
_HISTOGRAM_TYPES = (
    ColumnType.INT,
    ColumnType.REAL,
    ColumnType.TEXT,
    ColumnType.CHAR,
)


class Histogram:
    """Equi-depth histogram over one column's non-NULL values.

    ``bounds`` holds ``bins + 1`` sorted bin edges taken at quantiles of
    a bounded sample, so every bin covers (approximately) the same
    number of rows — equi-depth rather than equi-width, which keeps the
    estimate honest under skew and works for TEXT as well as numbers.
    The planner reads two things from it:

    * :meth:`range_fraction` — the fraction of rows inside an interval,
      feeding the range-bound tightness factors of the access-path cost
      model (replacing the fixed 0.4/0.15 guesses when a histogram
      exists);
    * :attr:`distinct` — the extrapolated distinct-value count, feeding
      equi-join selectivity (``1 / max(distinct(left), distinct(right))``).

    A statistic, not an oracle: it only has to *rank* plans.
    """

    __slots__ = ("rows", "nulls", "distinct", "bounds")

    def __init__(self, rows: int, nulls: int, distinct: int, bounds: List[Any]) -> None:
        self.rows = rows          # non-NULL row count the sample represents
        self.nulls = nulls
        self.distinct = max(1, distinct)
        self.bounds = bounds      # len == bins + 1, sorted

    @classmethod
    def from_sample(
        cls, sample: List[Any], rows: int, nulls: int = 0
    ) -> "Optional[Histogram]":
        """Build from an already *sorted* non-NULL sample representing
        ``rows`` non-NULL rows; ``None`` when the sample is empty."""
        if not sample or rows <= 0:
            return None
        sample_distinct = 1 + sum(
            1 for a, b in zip(sample, sample[1:]) if a != b
        )
        distinct = max(1, round(rows * sample_distinct / len(sample)))
        bins = max(1, min(HISTOGRAM_BINS, sample_distinct))
        last = len(sample) - 1
        bounds = [sample[min(last, (i * len(sample)) // bins)] for i in range(bins)]
        bounds.append(sample[last])
        return cls(rows, nulls, distinct, bounds)

    @property
    def bins(self) -> int:
        return len(self.bounds) - 1

    def _position(self, value: Any) -> float:
        """The value's bin-granularity position in ``[0, bins]``."""
        left = bisect_left(self.bounds, value)
        right = bisect_right(self.bounds, value)
        return min(float(self.bins), max(0.0, (left + right) / 2.0 - 0.5))

    def range_fraction(
        self,
        low: Optional[Tuple[Any, bool]],
        high: Optional[Tuple[Any, bool]],
    ) -> Optional[float]:
        """Estimated fraction of non-NULL rows with value in the
        interval; ``low``/``high`` are ``(value, inclusive)`` or ``None``
        (open), as in the planner's interval analysis.  Resolution is
        one bin (inclusivity is below it); incomparable bound types
        return ``None`` and the caller falls back to fixed factors."""
        try:
            low_pos = 0.0 if low is None else self._position(low[0])
            high_pos = float(self.bins) if high is None else self._position(high[0])
        except TypeError:
            return None
        width = (high_pos - low_pos) / self.bins
        # floor at half a bin: a sampled histogram saying "empty" must
        # not zero-cost a plan over a range that may well hold rows
        return min(1.0, max(width, 0.5 / self.bins))


#: ``bulk_insert`` rebuilds a populated ordered index by sorted merge
#: once ``batch >= ratio * index``; below it, incremental inserts win.
#: Measured, not guessed: ``tools/sweep_bulk_crossover.py`` times both
#: arms over batch/index ratios (curve in ``BENCH_micro.json`` under
#: ``bulk_insert_crossover``) — merge-rebuild wins from ~0.2–0.35
#: across 20k–200k-entry indexes, so 0.35 is the conservative edge of
#: the measured band (the previous ``batch >= index`` guess forfeited
#: up to ~2x for batches between 0.35x and 1x of the index).
_MERGE_REBUILD_RATIO = 0.35


class _MaxStat:
    """Incrementally maintained MAX over one column's live values.

    Keeps a value -> multiplicity map; deleting the current maximum only
    marks the cached answer dirty, and the next read recomputes it over
    the distinct values (not the rows).  NULLs are ignored, as in SQL.
    """

    __slots__ = ("_counts", "_max", "_dirty")

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._max: Any = None
        self._dirty = False

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._counts[value] = self._counts.get(value, 0) + 1
        if not self._dirty and (self._max is None or value > self._max):
            self._max = value

    def add_all(self, values: Iterable[Any]) -> None:
        """:meth:`add` of each of ``values``, counted in one pass."""
        batch = Counter(values)
        batch.pop(None, None)
        if batch:
            self._counts.update(batch)
            top = max(batch)
            if not self._dirty and (self._max is None or top > self._max):
                self._max = top

    def remove(self, value: Any) -> None:
        if value is None:
            return
        remaining = self._counts.get(value, 0) - 1
        if remaining > 0:
            self._counts[value] = remaining
            return
        self._counts.pop(value, None)
        if value == self._max:
            self._dirty = True

    def value(self) -> Any:
        if self._dirty:
            self._max = max(self._counts) if self._counts else None
            self._dirty = False
        return self._max

    def clear(self) -> None:
        self._counts.clear()
        self._max = None
        self._dirty = False


class Table:
    """Rows stored in an in-memory heap keyed by monotonically increasing
    row ids, with automatic index maintenance.

    The primary key is enforced by an ordinary unique index: the
    constructor reuses a declared unique index over exactly the key
    columns, or else adds ``<table>_pk_idx`` after the declared ones.

    Byte accounting (``byte_size``) tracks the encoded size of the live
    rows, which is what the paper reports for provenance store sizes.

    ``scan`` relies on the row dict's insertion order matching ascending
    row ids; the rare paths that re-insert an old row id (rollback,
    recovery) set a flag and the next scan re-orders the dict once,
    instead of every scan paying a sort.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._codec = schema.codec
        self._rows: Dict[int, Row] = {}
        self._next_rowid = 1
        self._byte_size = 0
        self._rows_ordered = True
        self._max_seen_rowid = 0
        self._indexes: Dict[str, Union[HashIndex, OrderedIndex]] = {}
        self._index_specs: Dict[str, IndexSpec] = {}
        #: index name -> the codec's key getter for its columns
        self._key_getters: Dict[str, Callable[[Row], Tuple[Any, ...]]] = {}
        #: ordered indexes with a nullable key column, whose keys must be
        #: checked for NULL: in any other, the codec's NOT NULL check on
        #: every row already keeps NULL out
        self._null_checked: Set[str] = set()
        self._max_stats: Dict[str, Tuple[int, _MaxStat]] = {}
        #: monotone mutation counter — cache key for planner statistics
        #: (histograms) that must notice updates-in-place, which leave
        #: ``row_count`` unchanged
        self._version = 0
        #: seqlock for statistics readers: odd while a structural
        #: mutation is in flight, bumped again when it finishes.
        #: :meth:`stats_snapshot` retries until it reads an even,
        #: unchanged sequence, so a concurrent reader can never observe
        #: a torn (rows, bytes) pair mid-mutation.
        self._stats_seq = 0
        #: test seam: called between the two reads of
        #: :meth:`stats_snapshot` so the torn-read retry is
        #: deterministically exercisable (None in production)
        self._torn_read_hook = None
        self._histograms: Dict[str, Tuple[int, Optional[Histogram]]] = {}
        #: per-access-path call counters (one increment per *scan*, not
        #: per row) — instrumentation for tests asserting e.g. that a
        #: batched probe really issues one index pass, and for the
        #: charged-cost vs wall-time split in the provenance harness.
        #: ``inlj_probe`` counts physical probe batches issued by a
        #: planner ``IndexNestedLoopJoin`` against this table (one per
        #: chunk).  A ``Counter``: an access path this table never
        #: takes reads 0.
        self.access_counts: Counter = Counter(
            scan=0, eq_lookup=0, multi_range_scan=0, inlj_probe=0
        )
        for spec in schema.indexes:
            self.create_index(spec)
        #: name of the unique index enforcing the primary key (None: no key)
        self._pk_name: Optional[str] = None
        #: whether a primary-key column is nullable, so a key may hold NULL
        self._pk_nullable = False
        self._add_pk_index()

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def create_index(self, spec: IndexSpec) -> None:
        """Register a secondary index and backfill it from the live rows.

        The backfill is a bulk build — one sort over the projected
        entries for an ordered index — rather than a per-row insert
        loop, so creating an index on a populated table is O(n log n)
        with small constants.
        """
        if spec.name in self._indexes:
            raise SchemaError(f"index {spec.name!r} already exists")
        key_of = self._codec.key_getter(spec.columns)
        entries = zip(map(key_of, self._rows.values()), self._rows)
        index: Union[HashIndex, OrderedIndex]
        if spec.ordered:
            checked = (
                (self._reject_unordered_key(spec.name, key), rowid)
                for key, rowid in entries
            )
            try:
                index = OrderedIndex.bulk_build(spec.name, checked, unique=spec.unique)
            except TypeError as exc:
                raise ConstraintError(
                    f"NULL/incomparable key not allowed in ordered index "
                    f"{spec.name!r}"
                ) from exc
        else:
            index = HashIndex.bulk_build(spec.name, entries, unique=spec.unique)
        self._indexes[spec.name] = index
        self._index_specs[spec.name] = spec
        self._key_getters[spec.name] = key_of
        if spec.ordered and self._nullable(spec.columns):
            self._null_checked.add(spec.name)
        # index DDL changes the statistics surface (ordered indexes feed
        # histogram sampling), so it must move the mutation counter or
        # cached histograms survive stale
        self._version += 1

    def _add_pk_index(self) -> None:
        """Pick the index that enforces the primary key: a unique index
        over exactly the key columns, or a new ``<table>_pk_idx``."""
        key = self.schema.primary_key
        if not key:
            return
        self._pk_nullable = self._nullable(key)
        for name, spec in self._index_specs.items():
            if spec.unique and spec.columns == key:
                self._pk_name = name
                return
        self._pk_name = f"{self.schema.name}_pk_idx"
        self.create_index(IndexSpec(self._pk_name, key, unique=True))

    def _nullable(self, columns: Sequence[str]) -> bool:
        return any(self.schema.column(name).nullable for name in columns)

    def _reject_null_pk(self, rows: Iterable[Row]) -> None:
        """Input validation: no primary-key component may be NULL (no
        check when every key column is NOT NULL: the codec checked that)."""
        if not self._pk_nullable:
            return
        key_of = self._key_getters[self._pk_name]
        for row in rows:
            if None in key_of(row):
                raise ConstraintError(
                    f"primary key of {self.schema.name!r} may not contain NULL"
                )

    def _reject_unordered_key(self, name: str, key: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Validate a key headed for an ordered index and return it.

        NULL components do not compare, so admitting one would either
        corrupt the sort invariant silently (all-NULL keys compare equal
        to each other) or surface later as a raw ``TypeError`` halfway
        through a mutation.  Rejecting up front keeps failures typed and
        keeps every mutation all-or-nothing.
        """
        if any(part is None for part in key):
            raise ConstraintError(
                f"NULL/incomparable key not allowed in ordered index "
                f"{name!r}: {key!r}"
            )
        return key

    @property
    def index_specs(self) -> Dict[str, IndexSpec]:
        return dict(self._index_specs)

    def index_stats(self, name: str) -> IndexStats:
        """Statistics for the planner's cost model, without exposing the
        index object itself: kind, uniqueness, entry count, and a
        distinct-key figure (exact for hash indexes, a bounded-sample
        estimate for ordered ones).  The entry count is the live-row
        count, an O(1) read: every live row has exactly one entry in
        every index (ordered indexes reject NULL keys)."""
        index = self._indexes[name]
        spec = self._index_specs[name]
        return IndexStats(
            ordered=spec.ordered,
            unique=index.unique,
            entries=len(self._rows),
            keys=index.key_count(),
        )

    # ------------------------------------------------------------------
    # Incremental statistics
    # ------------------------------------------------------------------
    def track_max(self, column: str) -> None:
        """Maintain MAX(column) incrementally across all mutation paths.

        Idempotent; backfills from the current rows on registration.
        """
        if column in self._max_stats:
            return
        position = self.schema.column_index(column)
        stat = _MaxStat()
        for row in self._rows.values():
            stat.add(row[position])
        self._max_stats[column] = (position, stat)

    def max_value(self, column: str) -> Any:
        """Current MAX(column) (``None`` on empty / all-NULL); O(1) reads
        unless the previous maximum was just deleted."""
        try:
            position, stat = self._max_stats[column]
        except KeyError:
            raise ConstraintError(
                f"column {column!r} of {self.schema.name!r} is not max-tracked"
            ) from None
        return stat.value()

    def _stats_add(self, row: Row) -> None:
        self._version += 1
        for position, stat in self._max_stats.values():
            stat.add(row[position])

    def _stats_remove(self, row: Row) -> None:
        self._version += 1
        for position, stat in self._max_stats.values():
            stat.remove(row[position])

    def column_histogram(self, column: str) -> Optional[Histogram]:
        """A lazily built, cached equi-depth :class:`Histogram` for one
        column; ``None`` for non-orderable types, unknown columns, or
        empty tables.

        Built on first request and cached against the table's mutation
        counter, so a read-mostly table samples once however often the
        planner asks.  The sample comes from an ordered index whose
        *leading* column matches (already sorted — see
        :meth:`OrderedIndex.sample_keys`) when one exists, else from an
        even stride over the heap.  Sampling knobs:
        ``HISTOGRAM_SAMPLE`` values, ``HISTOGRAM_BINS`` bins.
        """
        cached = self._histograms.get(column)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        histogram = self._build_histogram(column)
        self._histograms[column] = (self._version, histogram)
        return histogram

    def _build_histogram(self, column: str) -> Optional[Histogram]:
        if not self.schema.has_column(column):
            return None
        if self.schema.column(column).type not in _HISTOGRAM_TYPES:
            return None
        total = len(self._rows)
        if total == 0:
            return None
        for name, spec in self._index_specs.items():
            index = self._indexes[name]
            if spec.ordered and spec.columns[0] == column and isinstance(index, OrderedIndex):
                # entries already sorted by this column; NULLs cannot
                # live in an ordered index (they do not compare)
                sample = index.sample_keys(HISTOGRAM_SAMPLE)
                return Histogram.from_sample(sample, total)
        position = self.schema.column_index(column)
        step = max(1, -(-total // HISTOGRAM_SAMPLE))  # ceil: ≤ SAMPLE rows
        sample = [
            row[position]
            for offset, row in enumerate(self._rows.values())
            if offset % step == 0
        ]
        picked = len(sample)
        sample = [value for value in sample if value is not None]
        if picked == 0 or not sample:
            return None
        null_fraction = 1.0 - len(sample) / picked
        nulls = round(total * null_fraction)
        sample.sort()
        return Histogram.from_sample(sample, max(1, total - nulls), nulls)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, row: "Sequence[Any] | Dict[str, Any]") -> int:
        """Insert a row; returns its row id."""
        normalized = self._codec.normalize(row)
        return self._insert(normalized, self._codec.size(normalized))

    def _insert(self, normalized: Row, size: int) -> int:
        """Insert a row already normalized by the codec, whose encoding
        is ``size`` bytes long; returns its row id."""
        rowid = self._next_rowid
        self._reject_null_pk((normalized,))
        self._stats_seq += 1
        try:
            try:
                key_getters = self._key_getters
                for name, index in self._indexes.items():
                    key = key_getters[name](normalized)
                    if None in key and self._index_specs[name].ordered:
                        self._reject_unordered_key(name, key)
                    index.insert(key, rowid)
            except Exception as exc:
                # roll back the partial index insertions — on *any* failure,
                # not just duplicate keys: an escape here after an earlier
                # index (the primary key's among them) was updated would
                # leave a phantom entry that blocks the key forever (no
                # heap row to delete it through)
                self._unindex(rowid, normalized, stop_at=name)
                if isinstance(exc, TypeError):
                    # backstop for incomparable non-NULL components
                    raise ConstraintError(
                        f"NULL/incomparable key not allowed in ordered index {name!r}"
                    ) from exc
                raise
            self._rows[rowid] = normalized
            if rowid <= self._max_seen_rowid:
                self._rows_ordered = False  # re-inserted old id lands at dict end
            else:
                self._max_seen_rowid = rowid
            self._next_rowid += 1
            self._byte_size += size
            self._stats_add(normalized)
        finally:
            self._stats_seq += 1
        return rowid

    def bulk_insert(self, rows: Sequence["Sequence[Any] | Dict[str, Any]"]) -> List[int]:
        """Append a batch of rows with one index pass instead of per-row
        index maintenance; returns the new row ids.

        Validate-then-apply: unique-index violations, the primary key's
        included (against existing rows *and* within the batch) are detected
        before any structure is touched, so a failing batch leaves the
        table unchanged.  Index maintenance then takes the cheapest
        lifecycle path per index — every index of an empty table is
        bulk-built from the batch, a batch at least
        ``_MERGE_REBUILD_RATIO`` times an ordered index's size is merged
        with its sorted entries into a rebuilt index (both O(n log n)
        overall), and a smaller batch falls back to incremental inserts
        (the measured crossover — see the constant's note).
        """
        normalized = list(map(self._codec.normalize, rows))
        return self._bulk_insert(normalized, sum(map(self._codec.size, normalized)))

    def _bulk_insert(self, normalized: List[Row], size: int) -> List[int]:
        """:meth:`bulk_insert` of rows the codec already checked as
        ``normalize`` would (``RowCodec.decode``'s, in WAL recovery and
        image loading), whose encodings total ``size`` bytes.

        Into an *empty* table every index, hash indexes included, is
        built by its own ``bulk_build`` in the validate phase: that build
        is where a duplicate key raises, and the new indexes replace the
        empty ones at apply time.  MAX statistics take the batch in one
        call.  NULL checks run only where a key column is nullable: the
        codec keeps NULL out of a NOT NULL column.
        """
        if not normalized:
            return []
        first = self._next_rowid
        rowids = range(first, first + len(normalized))
        empty = not self._rows

        # -- validate ---------------------------------------------------
        self._reject_null_pk(normalized)
        # index name -> the index built over the batch (empty table), or
        # the batch's entries (populated table)
        built: Dict[str, Any] = {}
        for name, index in self._indexes.items():
            keys = list(map(self._key_getters[name], normalized))
            if name in self._null_checked:
                # same validate-then-apply hole as ``insert``: an ordered
                # index rejecting a NULL key mid-apply (after the heap,
                # earlier indexes, and stats were mutated) would strand
                # phantoms — reject in the validate phase instead
                for key in keys:
                    if None in key:
                        self._reject_unordered_key(name, key)
            if empty:
                try:
                    built[name] = type(index).bulk_build(
                        name, zip(keys, rowids), unique=index.unique
                    )
                except DuplicateKeyError:
                    # name the first repeat in batch order, as below
                    self._reject_duplicates(name, index, keys)
                    raise
                continue
            if index.unique and (
                len(set(keys)) != len(keys) or any(map(index.contains, keys))
            ):
                self._reject_duplicates(name, index, keys)
            built[name] = list(zip(keys, rowids))

        # -- apply ------------------------------------------------------
        self._stats_seq += 1
        try:
            self._rows.update(zip(rowids, normalized))
            self._byte_size += size
            self._version += len(normalized)
            for position, stat in self._max_stats.values():
                stat.add_all(map(itemgetter(position), normalized))
            self._next_rowid = rowids[-1] + 1
            self._max_seen_rowid = rowids[-1]  # fresh ids: dict stays ordered
            if empty:
                self._indexes.update(built)
            else:
                for name, entries in built.items():
                    index = self._indexes[name]
                    if isinstance(index, OrderedIndex) and (
                        len(entries) >= _MERGE_REBUILD_RATIO * len(index)
                    ):
                        entries.sort()
                        merged = merge(index.items(), entries)
                        self._indexes[name] = OrderedIndex.bulk_build(
                            name, merged, unique=index.unique, presorted=True
                        )
                    else:
                        # hash buckets are O(1) per entry either way
                        for key, rowid in entries:
                            index.insert(key, rowid)
        finally:
            self._stats_seq += 1
        return list(rowids)

    def _reject_duplicates(
        self, name: str, index: Union[HashIndex, OrderedIndex], keys: List[Tuple[Any, ...]]
    ) -> None:
        """Raise ``DuplicateKeyError`` for the first of ``keys`` that is
        already in ``index`` or repeats an earlier one."""
        seen: Set[Tuple[Any, ...]] = set()
        for key in keys:
            if key in seen or index.contains(key):
                raise DuplicateKeyError(f"duplicate key {key!r} in unique index {name!r}")
            seen.add(key)

    def _unindex(self, rowid: int, row: Row, stop_at: Optional[str] = None) -> None:
        for name, index in self._indexes.items():
            if name == stop_at:
                break
            index.delete(self._key_getters[name](row), rowid)

    def delete_row(self, rowid: int) -> Row:
        """Delete by row id; returns the removed row."""
        if rowid not in self._rows:
            raise ConstraintError(f"no row with id {rowid} in {self.schema.name!r}")
        self._stats_seq += 1
        try:
            row = self._rows.pop(rowid)
            self._unindex(rowid, row)
            self._byte_size -= self._codec.size(row)
            self._stats_remove(row)
        finally:
            self._stats_seq += 1
        return row

    def update_row(self, rowid: int, changes: Dict[str, Any]) -> Tuple[Row, Row]:
        """Apply column changes to one row; returns ``(old, new)``.

        Validate-then-swap: every constraint the new row could violate is
        checked *before* any index or heap mutation, so a failing update
        leaves the old row fully intact.  Only indexes whose key columns
        actually changed are touched, and the row is replaced in place
        (same dict slot), preserving scan order.
        """
        old = self._rows.get(rowid)
        if old is None:
            raise ConstraintError(f"no row with id {rowid} in {self.schema.name!r}")
        merged = dict(zip(self.schema.column_names, old))
        merged.update(changes)
        new = self._codec.normalize(merged)
        if new == old:
            return old, new

        # -- validate ---------------------------------------------------
        self._reject_null_pk((new,))
        changed: List[Tuple[Union[HashIndex, OrderedIndex], Tuple[Any, ...], Tuple[Any, ...]]] = []
        for name, index in self._indexes.items():
            key_of = self._key_getters[name]
            old_proj = key_of(old)
            new_proj = key_of(new)
            if new_proj == old_proj:
                continue
            if self._index_specs[name].ordered:
                # must fail in the validate phase: a TypeError during the
                # swap would leave earlier indexes already moved
                self._reject_unordered_key(name, new_proj)
            if index.unique and index.lookup(new_proj):
                raise DuplicateKeyError(
                    f"duplicate key {new_proj!r} in unique index {name!r}"
                )
            changed.append((index, old_proj, new_proj))

        # -- swap -------------------------------------------------------
        self._stats_seq += 1
        try:
            for index, old_proj, new_proj in changed:
                index.delete(old_proj, rowid)
                index.insert(new_proj, rowid)
            self._rows[rowid] = new
            self._byte_size += self._codec.size(new) - self._codec.size(old)
            self._stats_remove(old)
            self._stats_add(new)
        finally:
            self._stats_seq += 1
        return old, new

    def clear(self) -> None:
        self._stats_seq += 1
        try:
            self._rows.clear()
            self._version += 1
            self._byte_size = 0
            self._rows_ordered = True
            self._max_seen_rowid = 0
            for index in self._indexes.values():
                index.clear()
            for _position, stat in self._max_stats.values():
                stat.clear()
        finally:
            self._stats_seq += 1

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Full scan in row-id (insertion) order.

        No per-call sort: the row dict is kept in row-id order and only
        re-ordered (once) after a rollback/recovery re-inserted an old id.
        The returned iterator reads the dict directly — callers that
        mutate mid-scan must snapshot (``list(table.scan())``) first,
        which is also what the seed's sorted-key scan required in
        practice (its lazy row lookups raised on deleted ids).
        """
        if not self._rows_ordered:
            self._rows = dict(sorted(self._rows.items()))
            self._rows_ordered = True
        self.access_counts["scan"] += 1
        return iter(self._rows.items())

    def get(self, rowid: int) -> Row:
        return self._rows[rowid]

    def lookup_pk(self, key: Tuple[Any, ...]) -> Optional[Tuple[int, Row]]:
        if self._pk_name is None:
            raise ConstraintError(f"table {self.schema.name!r} has no primary key")
        for rowid in self._indexes[self._pk_name].lookup_iter(key):
            return rowid, self._rows[rowid]
        return None

    def lookup_index(self, index_name: str, key: Tuple[Any, ...]) -> Iterator[Tuple[int, Row]]:
        index = self._indexes[index_name]
        self.access_counts["eq_lookup"] += 1
        rows = self._rows
        return ((rowid, rows[rowid]) for rowid in index.lookup_iter(key))

    def multi_range_scan(
        self,
        index_name: str,
        ranges: Sequence[KeyRange],
        reverse: bool = False,
        presorted: bool = False,
    ) -> Iterator[Tuple[int, Row]]:
        """Rows in the *union* of several index-key ranges, streamed in
        global ``(key, rowid)`` order (descending with ``reverse``) in
        one index pass — the table's only ordered-index range read.

        ``ranges`` holds :data:`~repro.storage.index.KeyRange` tuples
        ``(low, high, include_low, include_high)``: key tuples, ``None``
        for an open side, a False flag for an exclusive bound.  Partial
        keys over a multi-column index are padded by the caller with
        :data:`~repro.storage.index.MIN_KEY` /
        :data:`~repro.storage.index.MAX_KEY` (e.g. ``high=("T/a",
        MAX_KEY)`` for "every entry whose first column is T/a"), and a
        string prefix is :func:`~repro.storage.index.prefix_range`.
        Overlapping or duplicate ranges yield each row once.
        ``presorted=True`` promises ascending-low-bound range order and
        skips the union's sort.  This is the access path behind the
        planner's ``IndexRangeScan`` and the provenance store's batched
        ``loc IN (...)`` probes — N probed locations charge one
        ``multi_range_scan`` in :attr:`access_counts`, not N scans.
        """
        index = self._indexes[index_name]
        if not isinstance(index, OrderedIndex):
            raise ConstraintError(f"index {index_name!r} does not support range scans")
        self.access_counts["multi_range_scan"] += 1
        rows = self._rows
        return (
            (rowid, rows[rowid])
            for rowid in index.multi_range(ranges, reverse, presorted)
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, int]:
        """A consistent point-in-time ``{"rows": ..., "bytes": ...}`` pair.

        ``row_count`` and ``byte_size`` are two separate reads; a writer
        interleaved between them (cooperative concurrency — a
        generator-driven scheduler, an asyncio server switching
        connections mid-handler) would hand back a pair describing a
        state the table never occupied.  Seqlock discipline fixes it:
        every structural mutation holds ``_stats_seq`` odd for its
        duration, and this reader retries until the sequence is even and
        unchanged across both reads.
        """
        while True:
            seq = self._stats_seq
            rows = len(self._rows)
            if self._torn_read_hook is not None:
                # test seam: a one-shot hook mutates the table *between*
                # the two reads, forcing the retry path
                hook, self._torn_read_hook = self._torn_read_hook, None
                hook()
            size = self._byte_size
            if seq == self._stats_seq and seq % 2 == 0:
                return {"rows": rows, "bytes": size}

    @classmethod
    def _from_snapshot(
        cls,
        schema: TableSchema,
        rows: Dict[int, Row],
        index_specs: Sequence[IndexSpec],
        byte_size: Optional[int] = None,
    ) -> "Table":
        """Materialize a table holding exactly ``rows`` (rowid -> row),
        *preserving row ids*, with ``index_specs`` rebuilt over them (plus
        the primary key's index, if ``index_specs`` has none).

        This is the MVCC layer's shadow-table constructor: snapshot
        views and transaction workspaces reconstruct historical row
        states and must keep the base table's row ids so rowid-level
        conflict bookkeeping and commit replay line up across versions.
        Indexes take the bulk-build path (one sort each), not per-row
        inserts; ``byte_size`` may be supplied when the caller already
        maintains it incrementally (skipping an O(n) re-encode).
        """
        table = cls(schema)
        table._indexes.clear()
        table._index_specs.clear()
        table._key_getters.clear()
        table._null_checked.clear()
        ordered = dict(sorted(rows.items()))
        table._rows = ordered
        if ordered:
            table._max_seen_rowid = max(ordered)
            table._next_rowid = table._max_seen_rowid + 1
        table._byte_size = (
            byte_size
            if byte_size is not None
            else sum(map(schema.codec.size, ordered.values()))
        )
        for spec in index_specs:
            table.create_index(spec)
        table._add_pk_index()
        return table

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def byte_size(self) -> int:
        """Encoded size in bytes of all live rows."""
        return self._byte_size

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, rows={len(self._rows)})"
