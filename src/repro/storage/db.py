"""The storage kernel's database: catalog, transactions, rowid DML and
the WAL.

This is the reproduction's MySQL substitute.  It holds the provenance
store and the relational source database (the OrganelleDB stand-in).
Transactions provide atomicity via an undo list and durability via the
write-ahead log, which holds one frame per committed transaction;
``Database.checkpoint`` replaces the log by an image of the database,
and ``Database.recover`` rebuilds the tables from the newest image and
the frames after it.  It knows rows, not plans: predicate DML,
planning and SQL live in the query layer above it
(:class:`repro.storage.query.QueryEngine`), which imports this module and
never the reverse.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .errors import (
    TransactionError,
    UnknownTableError,
    WALError,
)
from .schema import TableSchema
from .table import Table
from .wal import (
    KIND_DELETE,
    KIND_INSERT,
    RecoveryReport,
    ScanStats,
    WalFrame,
    WriteAheadLog,
    coalesce_replay,
)

__all__ = ["Database"]

_T = TypeVar("_T")


@dataclass
class _UndoEntry:
    kind: str  # "insert" or "delete"
    table: str
    rowid: int
    row: Tuple[Any, ...]


class Database:
    """A named catalog of tables with optional WAL-backed durability.

    ``wal_dir=None`` (the default) runs fully in memory, which is what the
    provenance experiments use; passing a directory enables the journal.
    """

    def __init__(
        self,
        name: str = "db",
        wal_dir: Optional[str] = None,
        *,
        faults=None,
    ) -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}
        #: fault-injection plan shared with the WAL and the MVCC layer's
        #: commit protocol (``None`` means no faults)
        self.faults = faults
        self._wal: Optional[WriteAheadLog] = None
        self._wal_dir = wal_dir
        self._next_txn_id = 1
        self._active_txn: Optional[int] = None
        self._undo: List[_UndoEntry] = []
        self._schemas: Dict[str, TableSchema] = {}
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
            self._wal = WriteAheadLog(
                os.path.join(wal_dir, f"{name}.wal"), self._schemas, faults=faults
            )

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise UnknownTableError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        self._schemas[schema.name] = schema
        return table

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise UnknownTableError(f"no table {name!r}")
        del self.tables[name]
        del self._schemas[name]

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(f"no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._active_txn is not None

    def begin(self) -> int:
        if self._active_txn is not None:
            raise TransactionError("a transaction is already active")
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        self._active_txn = txn_id
        self._undo = []
        return txn_id

    def commit(self) -> None:
        """Commit the active transaction: its logged rows become one WAL
        frame, written and fsynced (nothing when it logged none).  If
        that fails the error surfaces as ``WALError`` and the
        transaction stays open, for the caller to roll back."""
        if self._active_txn is None:
            raise TransactionError("no active transaction to commit")
        if self._wal is not None:
            try:
                self._wal.flush(self._active_txn)
            except OSError as exc:
                raise WALError(f"commit not durable: {exc}") from exc
        self._active_txn = None
        self._undo = []

    def rollback(self) -> None:
        if self._active_txn is None:
            raise TransactionError("no active transaction to roll back")
        for entry in reversed(self._undo):
            table = self.tables[entry.table]
            if entry.kind == "insert":
                table.delete_row(entry.rowid)
            else:  # undo a delete by re-inserting the old row
                self._reinsert_at(table, entry.rowid, entry.row)
        if self._wal is not None:
            self._wal.discard()
        self._active_txn = None
        self._undo = []

    def _statement(self, apply: Callable[[], _T]) -> _T:
        """Run one DML statement: inside the active transaction, or else
        in an implicit one that commits on success and rolls back on
        any error."""
        if self._active_txn is not None:
            return apply()
        self.begin()
        try:
            result = apply()
            self.commit()
        except Exception:
            self.rollback()
            raise
        return result

    def _log(
        self, kind: int, table_name: str, row: Tuple[Any, ...], encoded: Optional[bytes] = None
    ) -> None:
        """Stage one row operation in the active transaction's WAL
        frame; ``encoded`` is the row's codec bytes when the caller
        already has them."""
        if self._wal is not None:
            if encoded is None:
                encoded = self._schemas[table_name].codec.encode(row)
            self._wal.append((kind, table_name, encoded))

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _insert_rows(
        self, table: Table, rows: Sequence["Sequence[Any] | Dict[str, Any]"]
    ) -> List[int]:
        """Insert ``rows`` atomically; returns their row ids.  Every row
        is applied first and a failing one reverts those already
        applied, so nothing of the failed statement reaches the undo log
        or the WAL (the shape of :meth:`_delete_rows`)."""
        codec = table.schema.codec
        logged = self._wal is not None
        applied: List[Tuple[int, Tuple[Any, ...], Optional[bytes]]] = []
        try:
            for row in rows:
                stored = codec.normalize(row)
                if logged:
                    # a logged insert encodes its row once: the bytes'
                    # length is the table's byte accounting and the WAL
                    # frame carries them
                    encoded = codec.encode(stored)
                    applied.append((table._insert(stored, len(encoded)), stored, encoded))
                else:
                    applied.append((table._insert(stored, codec.size(stored)), stored, None))
        except Exception:
            for rowid, _stored, _encoded in reversed(applied):
                table.delete_row(rowid)
            raise
        table_name = table.schema.name
        for rowid, stored, _encoded in applied:
            self._undo.append(_UndoEntry("insert", table_name, rowid, stored))
        for _rowid, stored, encoded in applied:
            self._log(KIND_INSERT, table_name, stored, encoded)
        return [rowid for rowid, _stored, _encoded in applied]

    def insert(self, table_name: str, row: "Sequence[Any] | Dict[str, Any]") -> int:
        table = self.table(table_name)
        return self._statement(lambda: self._insert_rows(table, [row]))[0]

    def insert_many(
        self, table_name: str, rows: Sequence["Sequence[Any] | Dict[str, Any]"]
    ) -> List[int]:
        """Transactionally insert ``rows``; returns their row ids.  The
        statement is atomic (see :meth:`_insert_rows`): a failing row
        leaves the table, the open transaction and the WAL as before the
        call."""
        table = self.table(table_name)
        return self._statement(lambda: self._insert_rows(table, rows))

    def bulk_load(
        self, table_name: str, rows: Sequence["Sequence[Any] | Dict[str, Any]"]
    ) -> List[int]:
        """Load rows without transaction machinery (no undo, no WAL).

        A plain batch load: the rows are normalized, the batch is
        validated up front (primary-key and unique-index violations,
        against existing rows and within the batch) and then applied
        with one index pass — empty indexes are bulk-built, populated
        ordered indexes are merged — instead of per-row index
        maintenance and begin/undo/commit bookkeeping.  Only valid
        outside a transaction; a failing batch leaves the table
        unchanged.  WAL recovery and image loading do not come
        through here: their rows are already checked by
        ``RowCodec.decode``, so they call ``Table._bulk_insert``.
        """
        if self._active_txn is not None:
            raise TransactionError("bulk_load is not allowed inside a transaction")
        table = self.table(table_name)
        return table.bulk_insert(rows)

    def _reinsert_at(self, table: Table, rowid: int, row: Tuple[Any, ...]) -> None:
        """Re-insert ``row`` under its original ``rowid`` (undo of a
        delete)."""
        saved = table._next_rowid
        table._next_rowid = rowid
        try:
            table.insert(row)
        finally:
            table._next_rowid = max(saved, rowid + 1)

    def _delete_rows(
        self, table: Table, rowids: Sequence[int]
    ) -> List[Tuple[int, Tuple[Any, ...]]]:
        """Delete ``rowids`` atomically; returns ``(rowid, row)`` pairs.
        A mid-batch failure reverts the rows already deleted, so nothing
        of the failed statement reaches the undo log or the WAL."""
        removed: List[Tuple[int, Tuple[Any, ...]]] = []
        try:
            for rowid in rowids:
                removed.append((rowid, table.delete_row(rowid)))
        except Exception:
            for rowid, row in reversed(removed):
                self._reinsert_at(table, rowid, row)
            raise
        table_name = table.schema.name
        for rowid, row in removed:
            self._undo.append(_UndoEntry("delete", table_name, rowid, row))
        for _rowid, row in removed:
            self._log(KIND_DELETE, table_name, row)
        return removed

    def _update_rows(
        self, table: Table, rowids: Sequence[int], changes: Dict[str, Any]
    ) -> List[Tuple[int, Tuple[Any, ...], Tuple[Any, ...]]]:
        """Apply ``changes`` to ``rowids`` atomically; returns ``(rowid,
        old, new)`` triples, logged as delete+insert pairs.  A constraint
        violation on the Nth row reverts rows 1..N-1 in place (reverse
        order) before anything reaches the undo log or the WAL."""
        applied: List[Tuple[int, Tuple[Any, ...], Tuple[Any, ...]]] = []
        try:
            for rowid in rowids:
                old, new = table.update_row(rowid, changes)
                applied.append((rowid, old, new))
        except Exception:
            # Reverting in reverse order cannot itself conflict: the
            # statement sets every row to the same values, so the old
            # rows being restored were distinct before the call.
            names = table.schema.column_names
            for rowid, old, _new in reversed(applied):
                table.update_row(rowid, dict(zip(names, old)))
            raise
        table_name = table.schema.name
        for rowid, old, new in applied:
            self._undo.append(_UndoEntry("delete", table_name, rowid, old))
            self._undo.append(_UndoEntry("insert", table_name, rowid, new))
        for _rowid, old, new in applied:
            self._log(KIND_DELETE, table_name, old)
            self._log(KIND_INSERT, table_name, new)
        return applied

    def delete_rowids(
        self, table_name: str, rowids: Sequence[int]
    ) -> List[Tuple[int, Tuple[Any, ...]]]:
        """Transactionally delete rows *by row id*; returns ``(rowid,
        row)`` pairs.

        The kernel's one delete entry.  The query layer's
        ``delete_where`` picks the victims with its planner and calls
        this; the MVCC commit protocol replays a transaction's buffered
        deletes through it, because it already knows exactly which row
        each one targets (re-evaluating a predicate could match rows
        committed after the victim was chosen).  The statement is atomic
        (see :meth:`_delete_rows`).
        """
        table = self.table(table_name)
        return self._statement(lambda: self._delete_rows(table, rowids))

    def update_rowids(
        self, table_name: str, rowids: Sequence[int], changes: Dict[str, Any]
    ) -> List[Tuple[int, Tuple[Any, ...], Tuple[Any, ...]]]:
        """Transactionally apply ``changes`` to rows *by row id*; returns
        ``(rowid, old, new)`` triples.  The update twin of
        :meth:`delete_rowids`, logged as delete+insert pairs.  The
        statement is atomic (see :meth:`_update_rows`): a failure leaves
        the transaction, and for an implicit one the table, exactly as
        before the call."""
        table = self.table(table_name)
        return self._statement(lambda: self._update_rows(table, rowids, changes))

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the WAL's append handle, first truncating what a failed
        frame write left past the last sealed frame
        (:meth:`~repro.storage.wal.WriteAheadLog.close`).  The tables
        stay in memory, and a later commit reopens the log."""
        if self._wal is not None:
            self._wal.close()

    def crash(self) -> None:
        """Simulate a crash: drop all in-memory state, keep the WAL file."""
        if self._wal is not None:
            self._wal.crash()
        for table in self.tables.values():
            table.clear()
        self._active_txn = None
        self._undo = []

    def checkpoint(self) -> int:
        """Replace the WAL by an image of the database: its catalog and
        every live row, published as the log's next segment before the
        older segments are removed (see
        :meth:`~repro.storage.wal.WriteAheadLog.checkpoint`).  Bounds
        recovery to the image and the frames after it.  Returns the
        image's size in bytes."""
        if self._wal is None:
            raise TransactionError("this database has no WAL to checkpoint")
        if self._active_txn is not None:
            raise TransactionError("cannot checkpoint with an open transaction")
        return self._wal.checkpoint(self.tables)

    def recover(self, mode: str = "strict") -> RecoveryReport:
        """REDO recovery: rebuild the tables from the WAL's newest image
        and replay the committed transactions after it.

        Every intact frame in the log is one committed transaction.
        ``mode="strict"`` raises
        :class:`~repro.storage.errors.WALCorruptionError` (naming the
        segment, offset, and LSN) at the first corrupt frame, *before*
        any table has been touched — the scan is materialized first, so
        strict recovery either applies everything or changes nothing.
        ``mode="tolerant"`` replays the longest clean prefix and reports
        what it dropped.  A torn tail (crash mid-write) is not
        corruption in either mode.

        The image's catalog creates the tables it names that do not
        exist yet; an existing table the catalog declares differently
        raises :class:`~repro.storage.errors.SchemaError`, again before
        anything is touched.  Tables created after the image must exist
        before recovery (schema is not logged in frames): a frame naming
        a table that neither the catalog declares nor anyone created
        raises :class:`~repro.storage.errors.UnknownTableError` naming
        it, in both modes, before anything is touched.

        Replay is bulk, not row-at-a-time: the scan decodes each row
        with its table's codec (a compiled fast path for rows in their
        usual form), which checks it as ``normalize`` would, and
        committed inserts — the image's rows first — are grouped into
        per-table runs (``coalesce_replay``) that go to
        ``Table._bulk_insert`` with their encoded sizes, so no row is
        normalized or sized again.  Into the empty tables of a restart
        every index is built whole by its ``bulk_build``; the batch
        path still rejects duplicate keys.  Deletes flush their table's
        pending run first, preserving per-table order.

        The scan's end of the final segment, its last LSN and whether
        its tail is torn go to the appender
        (:meth:`~repro.storage.wal.WriteAheadLog.resume`), so the first
        commit afterwards does not scan that segment again.

        Returns a :class:`~repro.storage.wal.RecoveryReport`.
        """
        if self._wal is None:
            raise TransactionError("this database has no WAL to recover from")
        stats = ScanStats()
        frames = list(self._wal.scan(mode=mode, stats=stats))
        self._wal.resume(stats)
        for schema in (stats.catalog or {}).values():
            if schema.name not in self.tables:
                self.create_table(schema)
        for frame in frames:
            self._next_txn_id = max(self._next_txn_id, frame.txn_id + 1)
        self._replay(frames)
        return RecoveryReport(
            mode=mode,
            segments_scanned=stats.segments_scanned,
            records_scanned=stats.records_scanned,
            # the image's frame, when it verified, comes first
            txns_replayed=len(frames) - bool(frames and stats.catalog is not None),
            txns_dropped=stats.torn_frames,
            torn_tail_bytes=stats.torn_tail_bytes,
            bytes_quarantined=stats.bytes_quarantined,
            corruption=stats.corruption,
        )

    def _replay(self, frames: List[WalFrame]) -> None:
        """Apply scanned frames to the tables, in bulk (see
        :meth:`recover`)."""
        for op, table_name, payload, size in coalesce_replay(frames):
            table = self.table(table_name)
            if op == "bulk_insert":
                table._bulk_insert(payload, size)
            elif table.schema.primary_key:
                # pk point lookup instead of a full scan: a row equal
                # to the logged one necessarily shares its key
                found = table.lookup_pk(table.schema.key_of(payload))
                if found is not None and found[1] == payload:
                    table.delete_row(found[0])
            else:
                for rowid, row in list(table.scan()):
                    if row == payload:
                        table.delete_row(rowid)
                        break

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-table row/byte figures.

        Each table's pair comes from :meth:`Table.stats_snapshot`, so a
        reader interleaved with an active writer (the asyncio server
        answering ``stats`` between a peer's mutations) sees a
        consistent point-in-time pair, never a torn one."""
        return {name: table.stats_snapshot() for name, table in self.tables.items()}
