"""Provenance records and the provenance store interface (Section 2.1).

The paper stores provenance "on the side" in an auxiliary relation::

    Prov(Tid, Op, Loc, Src)

where ``Tid`` is a transaction sequence number, ``Op`` is one of
``I`` (insert), ``C`` (copy), ``D`` (delete), ``Loc`` is the affected
location, and ``Src`` the source location for copies (ignored for inserts
and deletes).  ``{Tid, Loc}`` is a key.

:class:`ProvTable` realizes this relation inside the embedded relational
engine with the two access paths the queries need (equality on ``tid``,
ordered prefix on ``loc``), charging virtual-clock time for each round
trip exactly like the CPDB implementation paid JDBC round trips.

:class:`ProvenanceStore` is the strategy interface implemented by the
four methods of Section 2.1 (naive, transactional, hierarchical,
hierarchical-transactional).  The provenance-aware editor calls
``track_insert`` / ``track_delete`` / ``track_copy`` for every user
action and ``begin`` / ``commit`` at transaction boundaries.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..common.clock import CostModel, VirtualClock
from ..storage.db import Database
from ..storage.index import MAX_KEY, KeyRange
from ..storage.schema import Column, IndexSpec, TableSchema
from ..storage.types import ColumnType
from .paths import Path
from .tree import Tree

__all__ = [
    "OP_INSERT",
    "OP_COPY",
    "OP_DELETE",
    "ProvRecord",
    "ProvTable",
    "ProvenanceStore",
]

OP_INSERT = "I"
OP_COPY = "C"
OP_DELETE = "D"

_VALID_OPS = (OP_INSERT, OP_COPY, OP_DELETE)


@dataclass(frozen=True, slots=True)
class ProvRecord:
    """One row of the ``Prov`` (or ``HProv``) relation."""

    tid: int
    op: str
    loc: Path
    src: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise ValueError(f"op must be one of {_VALID_OPS}, got {self.op!r}")
        if self.op == OP_COPY and self.src is None:
            raise ValueError("copy records require a source location")
        if self.op != OP_COPY and self.src is not None:
            raise ValueError(f"{self.op} records must not carry a source")

    def as_row(self) -> Tuple[int, str, str, Optional[str]]:
        return (self.tid, self.op, str(self.loc), str(self.src) if self.src else None)

    @classmethod
    def from_row(cls, row: Sequence) -> "ProvRecord":
        tid, op, loc, src = row
        return cls(tid, op, Path.parse(loc), Path.parse(src) if src else None)

    def __str__(self) -> str:
        src = str(self.src) if self.src is not None else "⊥"
        return f"({self.tid}, {self.op}, {self.loc}, {src})"


def prov_schema(table_name: str = "prov") -> TableSchema:
    """The provenance relation's schema with its two access paths."""
    return TableSchema(
        table_name,
        [
            Column("tid", ColumnType.INT, nullable=False),
            Column("op", ColumnType.CHAR, nullable=False),
            Column("loc", ColumnType.TEXT, nullable=False),
            Column("src", ColumnType.TEXT, nullable=True),
        ],
        primary_key=("tid", "loc"),
        indexes=(
            IndexSpec(f"{table_name}_tid", ("tid",)),
            # ordered on (loc, tid): prefix scans on loc still serve the
            # descendant queries, and the tid component lets time-travel
            # reads push their version window into the index instead of
            # fetching every epoch and filtering client-side
            IndexSpec(f"{table_name}_loc", ("loc", "tid"), ordered=True),
        ),
    )


class ProvTable:
    """The provenance relation, stored in the embedded engine.

    Every public method is one client/server round trip and charges the
    virtual clock under ``prov.<category>``.  ``use_indexes=False`` makes
    read queries pay full-scan costs, matching the paper's Figure 13
    setup ("no indexing was performed on the provenance relation").
    """

    def __init__(
        self,
        db: Optional[Database] = None,
        clock: Optional[VirtualClock] = None,
        cost_model: Optional[CostModel] = None,
        table_name: str = "prov",
        use_indexes: bool = True,
    ) -> None:
        self.db = db if db is not None else Database("provstore")
        self.clock = clock if clock is not None else VirtualClock()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.table_name = table_name
        self.use_indexes = use_indexes
        if not self.db.has_table(table_name):
            self.db.create_table(prov_schema(table_name))
        self._table = self.db.table(table_name)
        self._loc_index = f"{table_name}_loc"
        # incremental MAX(tid): maintained by the table across every
        # mutation path, so max_tid stops full-scanning (the charged
        # round-trip cost is unchanged; only the Python-side work goes)
        self._table.track_max("tid")
        # row tuple -> its record.  Keyed by value, not rowid: records
        # are frozen and rows append-only, so an entry is never stale
        # (a rolled-back or re-inserted row needs no invalidation)
        self._record_cache: Dict[tuple, ProvRecord] = {}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write_statement(self, records: Sequence[ProvRecord], category: str) -> None:
        """One INSERT statement carrying all ``records`` (naive path)."""
        self.db.insert_many(self.table_name, [record.as_row() for record in records])
        self.clock.charge(
            f"prov.{category}", self.cost_model.statement_write_cost(len(records))
        )

    def write_batch(self, records: Sequence[ProvRecord], category: str = "commit") -> None:
        """One batched commit-time write (transactional path)."""
        self.db.insert_many(self.table_name, [record.as_row() for record in records])
        self.clock.charge(
            f"prov.{category}", self.cost_model.batch_write_cost(len(records))
        )

    # ------------------------------------------------------------------
    # Reads (each = one charged round trip)
    # ------------------------------------------------------------------
    def _record(self, row: tuple) -> ProvRecord:
        """The record for a stored row, built (and validated) on its
        first read only.  A row that fails validation is not cached, so
        it raises on every read."""
        record = self._record_cache.get(row)
        if record is None:
            record = self._record_cache[row] = ProvRecord.from_row(row)
        return record

    def _scan_cost_rows(self, matched: int) -> int:
        """Rows 'scanned' by a read: with indexes only the matches, without
        them the whole relation (Figure 13's worst case)."""
        return matched if self.use_indexes else self._table.row_count

    def _charge_read(self, matched: int, category: str) -> None:
        self.clock.charge(
            f"prov.{category}", self.cost_model.query_cost(self._scan_cost_rows(matched))
        )

    def record_at(self, tid: int, loc: Path, category: str = "query") -> Optional[ProvRecord]:
        found = self._table.lookup_pk((tid, str(loc)))
        self._charge_read(1, category)
        if found is None:
            return None
        return self._record(found[1])

    def records_for_tid(self, tid: int, category: str = "query") -> List[ProvRecord]:
        rows = [row for _rid, row in self._table.lookup_index(f"{self.table_name}_tid", (tid,))]
        self._charge_read(len(rows), category)
        return sorted(map(self._record, rows), key=_record_order)

    def _records_in(self, ranges: Sequence[KeyRange], category: str) -> List[ProvRecord]:
        """Records whose ``(loc, tid)`` key lies in any of ``ranges``
        (presorted by low bound), as *one* charged round trip and one
        multi-range pass over the ordered index.  No ranges: no pass.
        Each stored row becomes a record once per table (:meth:`_record`)."""
        rows = (
            self._table.multi_range_scan(self._loc_index, ranges, presorted=True)
            if ranges
            else ()
        )
        record = self._record
        records = [record(row) for _rowid, row in rows]
        self._charge_read(len(records), category)
        return sorted(records, key=_record_order)

    def records_at_loc(
        self, loc: Path, category: str = "query", max_tid: Optional[int] = None
    ) -> List[ProvRecord]:
        """Records at exactly ``loc``, optionally only ``tid <= max_tid``."""
        return self.records_at_locs([loc], category, max_tid)

    def records_under(self, prefix: Path, category: str = "query") -> List[ProvRecord]:
        """All records whose loc is at or under ``prefix`` (the Mod access
        pattern, ``loc = 'p' OR loc LIKE 'p/%'``): two ranges, one pass.
        Every loc with prefix ``p/`` sorts in ``[p/, p0)``, since ``'0'``
        is the character after ``'/'``."""
        text = str(prefix)
        return self._records_in(
            [
                ((text,), (text, MAX_KEY), True, True),
                ((text + "/",), (text + "0",), True, False),
            ],
            category,
        )

    def records_at_locs(
        self,
        locs: Sequence[Path],
        category: str = "query",
        max_tid: Optional[int] = None,
        min_tid: Optional[int] = None,
    ) -> List[ProvRecord]:
        """Records at any of ``locs``, in *one* round trip **and one
        index pass** — the batch read behind the trace walks and
        ancestor-coverage fetches of :mod:`repro.core.queries`.

        Each distinct location becomes one range on the ``(loc, tid)``
        ordered index, with the time-travel window ``min_tid <= tid <=
        max_tid`` (either side optional) in its tid component; the
        ranges, sorted by location, go to the table as one presorted
        :meth:`~repro.storage.table.Table.multi_range_scan`, and its row
        tuples become records directly (counter-asserted via
        ``multi_range_scan``).  Duplicate locations are probed once,
        IN-list set semantics.  With ``min_tid == max_tid`` the ranges
        are exact ``(loc, tid)`` points, the shape
        :func:`repro.core.inference.infer_at` uses for its one-pass
        ancestor rebase."""
        high = MAX_KEY if max_tid is None else max_tid
        return self._records_in(
            [
                ((text,) if min_tid is None else (text, min_tid), (text, high), True, True)
                for text in sorted({str(loc) for loc in locs})
            ],
            category,
        )

    def all_records(self, category: str = "query") -> List[ProvRecord]:
        rows = [row for _rid, row in self._table.scan()]
        self._charge_read(len(rows), category)
        return sorted(map(self._record, rows), key=_record_order)

    def max_tid(self, category: str = "query") -> int:
        # same charge as the seed's full scan (the *store* still pays the
        # query), but the answer comes from the incremental aggregate
        self._charge_read(self._table.row_count, category)
        value = self._table.max_value("tid")
        return 0 if value is None else value

    # ------------------------------------------------------------------
    # Uncharged instrumentation (out-of-band measurements)
    # ------------------------------------------------------------------
    def peek_records(self) -> List[ProvRecord]:
        """All records without charging the clock (for tests/metrics)."""
        return sorted(
            (self._record(row) for _rid, row in self._table.scan()),
            key=_record_order,
        )

    @property
    def row_count(self) -> int:
        return self._table.row_count

    @property
    def byte_size(self) -> int:
        return self._table.byte_size


def _record_order(record: ProvRecord) -> Tuple[int, Tuple[str, ...]]:
    return (record.tid, record.loc.sort_key())


class ProvenanceStore(abc.ABC):
    """Strategy interface for the four storage methods of Section 2.1.

    Contract (enforced by the editor):

    * ``begin()`` is called before the first operation of a transaction;
    * ``track_*`` is called once per user action, *after* the target
      database has applied it;
    * ``commit()`` ends the transaction.

    The editor's transaction is also the provenance database's
    durability unit.  The first write after a commit opens a database
    transaction; every later write of the editor's transaction joins
    it, and ``commit()`` closes whatever transaction is open with one
    WAL frame and one fsync.  Per-operation strategies (N, H) still
    give each action its own Tid and write its records at once;
    net-effect strategies (T, HT) write theirs at commit.  A commit with
    nothing written writes nothing.  If the commit fails (its frame
    write or fsync), the store rolls back the open transaction and
    re-raises; the next action starts a fresh one.

    ``track_delete`` receives the subtree that was removed and
    ``track_copy`` the subtree that was pasted plus whatever subtree the
    paste overwrote (``None`` if the destination was fresh) — everything
    each strategy needs to maintain its invariants without re-querying
    the target database.
    """

    #: strategy name, e.g. "naive"; set by subclasses
    method: str = "abstract"
    #: True when records describe net transaction effects
    transactional: bool = False
    #: True when only non-inferable (root) records are stored
    hierarchical: bool = False

    def __init__(self, table: ProvTable, first_tid: int = 1) -> None:
        self.table = table
        self._next_tid = first_tid

    # -- tid management -------------------------------------------------
    def allocate_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    @property
    def next_tid(self) -> int:
        return self._next_tid

    @property
    def last_tid(self) -> int:
        """The most recently committed transaction id (``tnow``)."""
        return self._next_tid - 1

    # -- tracking --------------------------------------------------------
    @abc.abstractmethod
    def track_insert(self, loc: Path) -> None:
        """A node was inserted at ``loc`` in the target."""

    @abc.abstractmethod
    def track_delete(self, loc: Path, deleted: Tree) -> None:
        """The subtree ``deleted`` was removed from ``loc``."""

    @abc.abstractmethod
    def track_copy(
        self, dst: Path, src: Path, copied: Tree, overwritten: Optional[Tree]
    ) -> None:
        """``copied`` was pasted at ``dst`` from ``src``; ``overwritten``
        is the subtree previously at ``dst`` (``None`` if none)."""

    def begin(self) -> None:
        """Start a transaction (no-op for per-operation strategies)."""

    # -- writes and durability ----------------------------------------------
    def _write(
        self, records: Sequence[ProvRecord], category: str, batch: bool = False
    ) -> None:
        """Every store write: one INSERT statement (``batch``: the
        commit-time batched write) inside the editor's transaction,
        opening the database transaction if none is open."""
        db = self.table.db
        if not db.in_transaction:
            db.begin()
        if batch:
            self.table.write_batch(records, category)
        else:
            self.table.write_statement(records, category)

    def _write_pending(self) -> None:
        """Write what the transaction kept back for its commit (nothing
        for per-operation strategies, which write as they go)."""

    def commit(self) -> None:
        """Commit the open transaction: write what it kept back, then make
        its records durable with one WAL frame and one fsync.  On failure
        the open database transaction is rolled back, and the error
        re-raised."""
        db = self.table.db
        try:
            self._write_pending()
            if db.in_transaction:
                db.commit()
        except Exception:
            if db.in_transaction:
                db.rollback()
            raise

    # -- introspection -----------------------------------------------------
    @property
    def row_count(self) -> int:
        return self.table.row_count

    @property
    def byte_size(self) -> int:
        return self.table.byte_size

    def records(self) -> List[ProvRecord]:
        """All stored records (uncharged; for tests and reports)."""
        return self.table.peek_records()
