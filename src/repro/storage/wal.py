"""Write-ahead logging and crash recovery.

The paper (Section 5, "Logging") contrasts provenance with transaction
logs: logs exist for crash recovery and do not capture cross-database
copy/paste semantics.  We implement a real WAL for the embedded engine so
the distinction can be demonstrated and tested: after a crash, REDO
recovery reconstructs committed table contents — but nothing in the log
relates the recovered rows to their *sources*, which is exactly the gap
provenance records fill.

Log format (v2, checksummed and segmented)
------------------------------------------

The log is a sequence of segment files ``<base>.000001``,
``<base>.000002``, ... each starting with a 16-byte header::

    segment  := magic "WAL2" u8 version u8 checksum_alg u16 reserved
                u64 base_lsn record*
    record   := u32 payload_len  u32 crc  u64 lsn  payload
    payload  := u8 kind u64 txn_id [u16 table_len table row]
    row      := u32 body_len body  (the table's RowCodec encoding)
    kind     := BEGIN(0) | COMMIT(1) | ABORT(2) | INSERT(3) | DELETE(4)
                | CHECKPOINT(5)

``crc`` covers ``lsn`` + payload under the header's checksum algorithm
(see :mod:`repro.common.checksum`); ``lsn`` is a log sequence number
that increases by one per record across the whole log's lifetime —
including across :meth:`WriteAheadLog.truncate`, so a snapshot can
record an LSN watermark and recovery can skip records the snapshot
already contains.  Segments rotate at :data:`DEFAULT_SEGMENT_BYTES`.

This is the only on-disk format, and one scanner reads it: recovery
(:meth:`WriteAheadLog.scan`) and the appender's tail check before the
first append (:func:`_segment_tail`) both walk segments with
:func:`_read_segment_header` and :func:`_scan_v2_records`, so the two
can never disagree about where the verifiable log ends.

Recovery scans in one of two modes:

* ``strict`` (the default) — any record that fails verification
  (checksum mismatch, bad framing, LSN discontinuity, undecodable
  payload) raises :class:`~repro.storage.errors.WALCorruptionError`
  naming the segment, byte offset, and LSN.  A *torn tail* — a
  truncated final record in the final segment — is not corruption: it
  is the expected signature of a crash during an append, and ends the
  scan cleanly in both modes.
* ``tolerant`` — scanning stops at the first bad record; everything
  from it on (including later segments) is counted as quarantined
  bytes in the :class:`RecoveryReport` rather than raised.

:meth:`~repro.storage.db.Database.recover` groups the scanned records
into committed transactions and replays them in commit order; what it
did and what it dropped is returned as a structured
:class:`RecoveryReport`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, fields
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple

from ..common.checksum import ALG_NAMES, PREFERRED_ALG, checksum_fn
from ..common.faults import NO_FAULTS, durable_fsync
from .errors import WALCorruptionError, WALError
from .schema import TableSchema

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "ScanStats",
    "RecoveryReport",
    "coalesce_replay",
]

KIND_BEGIN = 0
KIND_COMMIT = 1
KIND_ABORT = 2
KIND_INSERT = 3
KIND_DELETE = 4
KIND_CHECKPOINT = 5

_KIND_NAMES = {
    KIND_BEGIN: "BEGIN",
    KIND_COMMIT: "COMMIT",
    KIND_ABORT: "ABORT",
    KIND_INSERT: "INSERT",
    KIND_DELETE: "DELETE",
    KIND_CHECKPOINT: "CHECKPOINT",
}

_SEGMENT_MAGIC = b"WAL2"
_SEGMENT_VERSION = 2
#: segment header: magic, u8 version, u8 checksum alg, u16 reserved, u64 base LSN
_SEGMENT_HEADER = struct.Struct("<4sBBHQ")
#: record header: u32 payload length, u32 crc, u64 lsn
_RECORD_HEADER = struct.Struct("<IIQ")
#: the record header's two halves, as append writes them
_LENGTH_CRC = struct.Struct("<II")
_LSN = struct.Struct("<Q")
#: rotate to a fresh segment once the current one reaches this size
DEFAULT_SEGMENT_BYTES = 1 << 20


# not frozen: a frozen dataclass's __init__ sets each field through
# object.__setattr__, about three times the cost of a slotted one, and
# one record is built per logged row and per row recovery reads back
@dataclass(slots=True)
class WalRecord:
    kind: int
    txn_id: int
    table: Optional[str] = None
    row: Optional[Tuple[Any, ...]] = None
    #: log sequence number, filled in by the scanner (None on records
    #: built for appending — append() assigns and returns the LSN)
    lsn: Optional[int] = None
    #: ``row`` as the table codec already encoded it (length-prefixed),
    #: so a write that sized the row from its bytes logs those bytes
    #: instead of encoding the row again; None means append encodes it
    encoded: Optional[bytes] = field(default=None, compare=False, repr=False)

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES.get(self.kind, f"?{self.kind}")


#: payload head: u8 kind, i64 txn id
_PAYLOAD_HEAD = struct.Struct("<Bq")
#: an INSERT/DELETE payload's table name length
_TABLE_LENGTH = struct.Struct("<H")


def _encode_payload(record: WalRecord, schemas: Dict[str, TableSchema]) -> bytes:
    head = _PAYLOAD_HEAD.pack(record.kind, record.txn_id)
    if record.kind not in (KIND_INSERT, KIND_DELETE):
        return head
    if record.table is None or record.row is None:
        raise WALError("INSERT/DELETE records require table and row")
    table_bytes = record.table.encode("utf-8")
    row = record.encoded
    if row is None:
        row = schemas[record.table].codec.encode(record.row)
    return b"".join((head, _TABLE_LENGTH.pack(len(table_bytes)), table_bytes, row))


def _decode_payload(
    payload: bytes, schemas: Dict[str, TableSchema], lsn: Optional[int] = None
) -> WalRecord:
    kind, txn_id = _PAYLOAD_HEAD.unpack_from(payload, 0)
    if kind not in (KIND_INSERT, KIND_DELETE):
        return WalRecord(kind, txn_id, lsn=lsn)
    (table_len,) = _TABLE_LENGTH.unpack_from(payload, 9)
    table = payload[11 : 11 + table_len].decode("utf-8")
    if table not in schemas:
        raise WALError(f"WAL references unknown table {table!r}")
    row, _end = schemas[table].codec.decode(payload, 11 + table_len)
    return WalRecord(kind, txn_id, table, row, lsn=lsn)


@dataclass
class ScanStats:
    """What a log scan saw — filled in as the scanner advances, final
    once the scan's iterator is exhausted (or has raised)."""

    segments_scanned: int = 0
    records_scanned: int = 0
    #: bytes of a truncated final record in the final segment (a torn
    #: write at crash time; expected, not corruption)
    torn_tail_bytes: int = 0
    #: bytes dropped without being replayed: the torn tail plus — after
    #: a corrupt record — the rest of its segment and all later segments
    bytes_quarantined: int = 0
    #: human-readable site of the first bad record, None if the log is
    #: clean (tolerant mode; strict mode raises instead)
    corruption: Optional[str] = None


class WriteAheadLog:
    """An append-only, checksummed, segmented log.

    ``path`` is the *base* path: segments live at ``<path>.000001``,
    ``<path>.000002``, ...  The append handle is opened
    lazily and kept open; ``crash()`` abandons it without any
    bookkeeping, and tests then reopen the log and run recovery.

    ``faults`` threads a :class:`~repro.common.faults.FaultPlan`
    through every file write and the named truncation crash points.
    """

    def __init__(
        self,
        path: str,
        schemas: Dict[str, TableSchema],
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        checksum_alg: Optional[int] = None,
        faults=None,
    ) -> None:
        self.path = path
        self._schemas = schemas
        self._segment_bytes = segment_bytes
        self._alg = PREFERRED_ALG if checksum_alg is None else checksum_alg
        if self._alg not in ALG_NAMES:
            raise WALError(f"unknown checksum algorithm id {self._alg}")
        self._crc = checksum_fn(self._alg)
        self._faults = faults if faults is not None else NO_FAULTS
        self._file: Optional[BinaryIO] = None
        self._file_size = 0
        self._next_lsn: Optional[int] = None

    # ------------------------------------------------------------------
    # Segment bookkeeping
    # ------------------------------------------------------------------
    def segment_paths(self) -> List[str]:
        """Existing v2 segment files, in sequence order."""
        directory = os.path.dirname(self.path) or "."
        prefix = os.path.basename(self.path) + "."
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        segments = []
        for name in names:
            suffix = name[len(prefix):]
            if name.startswith(prefix) and suffix.isdigit():
                segments.append(os.path.join(directory, name))
        return sorted(segments)

    def _last_lsn_on_disk(self, segments: List[str]) -> int:
        """The highest LSN persisted in ``segments`` (0 if none)."""
        for segment in reversed(segments):
            _end, lsn, _state = _segment_tail(segment, self._schemas)
            if lsn is not None:
                return lsn
            # header unreadable: fall back to the previous segment
        return 0

    def last_lsn(self) -> int:
        """The LSN of the most recent append (persisted or buffered)."""
        if self._next_lsn is None:
            self._next_lsn = self._last_lsn_on_disk(self.segment_paths()) + 1
        return self._next_lsn - 1

    def _open_segment(self, seq: int, base_lsn: int) -> None:
        segment = f"{self.path}.{seq:06d}"
        handle = open(segment, "ab")
        if handle.tell() == 0:
            handle.write(
                _SEGMENT_HEADER.pack(
                    _SEGMENT_MAGIC, _SEGMENT_VERSION, self._alg, 0, base_lsn
                )
            )
        self._file = self._faults.wrap(handle, os.path.basename(segment))
        self._file_size = handle.tell()

    def _handle(self) -> BinaryIO:
        if self._file is None:
            segments = self.segment_paths()
            seq, lsn = 1, None
            if segments:
                last = segments[-1]
                seq = int(last.rsplit(".", 1)[1])
                end, lsn, state = _segment_tail(last, self._schemas)
                if state == "corrupt":
                    # Appending after a checksum-failed record would
                    # bury possibly-committed bytes behind new ones;
                    # silent truncation would destroy them.  Refuse:
                    # the operator runs tolerant recovery + checkpoint
                    # (which rebuilds the log) first.
                    raise WALCorruptionError(
                        "cannot append to a corrupt WAL segment "
                        "(recover in tolerant mode and checkpoint first)",
                        segment=last,
                        offset=end,
                    )
                if state == "torn":
                    # a torn tail is the crash contract: drop the
                    # un-committed partial record before appending
                    with open(last, "r+b") as handle:
                        handle.truncate(end)
            if self._next_lsn is None:
                if lsn is None:  # no segment, or a torn header
                    lsn = self._last_lsn_on_disk(segments[:-1])
                self._next_lsn = lsn + 1
            self._open_segment(seq, self._next_lsn)
        return self._file

    def _rotate(self) -> None:
        seq = int(self.segment_paths()[-1].rsplit(".", 1)[1]) + 1
        durable_fsync(self._file)
        self._file.close()
        self._file = None
        self._open_segment(seq, self._next_lsn)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: WalRecord) -> int:
        """Append ``record``; returns its assigned LSN."""
        if self._file is None:
            self._handle()
        if self._file_size >= self._segment_bytes:
            self._rotate()
        lsn = self._next_lsn
        payload = _encode_payload(record, self._schemas)
        # the crc covers the lsn field and the payload, which sit side
        # by side at the end of the record: one call over both
        covered = _LSN.pack(lsn) + payload
        framed = _LENGTH_CRC.pack(len(payload), self._crc(covered, 0)) + covered
        self._file.write(framed)
        self._file_size += len(framed)
        self._next_lsn = lsn + 1
        return lsn

    def flush(self) -> None:
        if self._file is not None:
            durable_fsync(self._file)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def crash(self) -> None:
        """Abandon the handle without flushing bookkeeping (simulated crash)."""
        self.close()

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan(
        self, mode: str = "strict", stats: Optional[ScanStats] = None
    ) -> Iterator[WalRecord]:
        """Iterate verified records in log order.

        ``mode="strict"`` raises :class:`WALCorruptionError` at the
        first bad record; ``mode="tolerant"`` ends the iteration there
        and reports it in ``stats``.  A torn tail (truncated final
        record of the final segment) ends the scan cleanly in both
        modes.  ``stats`` is filled in as the scan advances.

        Reads go through independent handles, so appending, scanning,
        and appending again in one session works.
        """
        if mode not in ("strict", "tolerant"):
            raise ValueError(f"unknown scan mode {mode!r}")
        if stats is None:
            stats = ScanStats()
        # read-your-writes without closing the appender: push buffered
        # appends to the OS so the independent read handles see them
        if self._file is not None:
            self._file.flush()
        return self._scan(mode, stats)

    def _scan(self, mode: str, stats: ScanStats) -> Iterator[WalRecord]:
        segments = self.segment_paths()
        expected_lsn: Optional[int] = None
        for position, segment in enumerate(segments):
            final = position == len(segments) - 1
            stats.segments_scanned += 1
            base_lsn, alg, data = _read_segment_header(segment, mode, stats, final)
            if data is None:  # unreadable header: reported/raised already
                _quarantine_rest(stats, segments[position + 1 :])
                return
            if expected_lsn is not None and base_lsn != expected_lsn:
                _bad_record(
                    mode,
                    stats,
                    segment,
                    0,
                    expected_lsn,
                    f"segment base LSN {base_lsn} breaks sequence",
                    len(data) + _SEGMENT_HEADER.size,
                )
                _quarantine_rest(stats, segments[position + 1 :])
                return
            expected_lsn = base_lsn
            for record in _scan_v2_records(
                segment, data, base_lsn, alg, self._schemas, mode, stats, final
            ):
                expected_lsn = record.lsn + 1
                yield record
            if stats.corruption is not None:
                _quarantine_rest(stats, segments[position + 1 :])
                return

    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Discard every persisted record (the checkpoint contract).

        LSNs are *not* reset: the next append continues the sequence,
        so a snapshot's LSN watermark stays meaningful against records
        appended after the checkpoint.  Segments are removed oldest
        first; a crash mid-truncate therefore leaves a contiguous
        suffix whose records are all at-or-below the watermark, which
        recovery skips.
        """
        next_lsn = self.last_lsn() + 1
        self.close()
        self._faults.reached("wal.truncate.begin")
        doomed = self.segment_paths()
        for index, path in enumerate(doomed):
            os.remove(path)
            if index < len(doomed) - 1:
                self._faults.reached("wal.truncate.mid")
        self._faults.reached("wal.truncate.end")
        self._next_lsn = next_lsn


# ----------------------------------------------------------------------
# Scanner internals
# ----------------------------------------------------------------------

def _segment_tail(
    path: str, schemas: Dict[str, TableSchema]
) -> Tuple[int, Optional[int], str]:
    """Where a segment's verifiable content ends, for the appender.

    A tolerant scan of the one segment.  Returns ``(end_offset,
    last_lsn, state)`` where ``state`` is ``"clean"`` (every byte
    verifies), ``"torn"`` (the tail is an incomplete record or
    incomplete header — the expected shape of a crash mid-append), or
    ``"corrupt"`` (a *complete* record or header failed verification:
    checksum, LSN, decode, or magic).  ``last_lsn`` is ``None`` when the
    header itself was unreadable.
    """
    stats = ScanStats()
    base_lsn, alg, data = _read_segment_header(path, "tolerant", stats)
    if data is None:
        return 0, None, "corrupt" if stats.corruption else "torn"
    lsn = base_lsn - 1
    for record in _scan_v2_records(
        path, data, base_lsn, alg, schemas, "tolerant", stats, True
    ):
        lsn = record.lsn
    end = _SEGMENT_HEADER.size + len(data) - stats.bytes_quarantined
    if stats.corruption is not None:
        return end, lsn, "corrupt"
    return end, lsn, "torn" if stats.torn_tail_bytes else "clean"


def _quarantine_rest(stats: ScanStats, later_segments: List[str]) -> None:
    for segment in later_segments:
        try:
            stats.bytes_quarantined += os.path.getsize(segment)
        except OSError:  # pragma: no cover - raced unlink
            pass


def _bad_record(
    mode: str,
    stats: ScanStats,
    segment: str,
    offset: int,
    lsn: Optional[int],
    reason: str,
    remaining: int,
) -> None:
    """Record (tolerant) or raise (strict) a corruption site."""
    at_lsn = f", lsn {lsn}" if lsn is not None else ""
    stats.corruption = f"{reason} in {segment!r} at byte {offset}{at_lsn}"
    stats.bytes_quarantined += remaining
    if mode == "strict":
        raise WALCorruptionError(reason, segment=segment, offset=offset, lsn=lsn)


def _torn_tail(stats: ScanStats, remaining: int) -> None:
    stats.torn_tail_bytes += remaining
    stats.bytes_quarantined += remaining


def _read_segment_header(
    segment: str, mode: str, stats: ScanStats, final: bool = True
) -> Tuple[int, int, Optional[bytes]]:
    """Parse a segment's header; returns ``(base_lsn, alg, records_bytes)``
    with ``records_bytes=None`` when the header was bad (already
    reported/raised)."""
    with open(segment, "rb") as handle:
        data = handle.read()
    if len(data) < _SEGMENT_HEADER.size:
        if final:
            _torn_tail(stats, len(data))
        else:
            _bad_record(
                mode, stats, segment, 0, None,
                f"segment header truncated ({len(data)} bytes)", len(data),
            )
        return 0, 0, None
    magic, version, alg, _reserved, base_lsn = _SEGMENT_HEADER.unpack_from(data, 0)
    if magic != _SEGMENT_MAGIC:
        _bad_record(
            mode, stats, segment, 0, None,
            f"bad segment magic {magic!r}", len(data),
        )
        return 0, 0, None
    if version != _SEGMENT_VERSION:
        _bad_record(
            mode, stats, segment, 4, None,
            f"unsupported WAL segment version {version}", len(data),
        )
        return 0, 0, None
    if alg not in ALG_NAMES:
        _bad_record(
            mode, stats, segment, 5, None,
            f"unknown checksum algorithm id {alg}", len(data),
        )
        return 0, 0, None
    return base_lsn, alg, data[_SEGMENT_HEADER.size :]


def _scan_v2_records(
    segment: str,
    data: bytes,
    base_lsn: int,
    alg: int,
    schemas: Dict[str, TableSchema],
    mode: str,
    stats: ScanStats,
    final: bool,
) -> Iterator[WalRecord]:
    offset = 0
    expected_lsn = base_lsn
    header = _RECORD_HEADER
    crc_of = checksum_fn(alg)
    file_offset = _SEGMENT_HEADER.size  # for error reporting
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < header.size:
            if final:
                _torn_tail(stats, remaining)
            else:
                _bad_record(
                    mode, stats, segment, file_offset + offset, expected_lsn,
                    f"truncated record header ({remaining} bytes)", remaining,
                )
            return
        length, crc, lsn = header.unpack_from(data, offset)
        end = offset + header.size + length
        if end > len(data):
            if final:
                _torn_tail(stats, remaining)
            else:
                _bad_record(
                    mode, stats, segment, file_offset + offset, expected_lsn,
                    f"truncated record body (want {length} bytes)", remaining,
                )
            return
        payload = data[offset + header.size : end]
        # the lsn field (bytes 8-16 of the header) runs straight into the
        # payload, so one call covers both
        expected_crc = crc_of(data[offset + 8 : end], 0)
        if crc != expected_crc:
            _bad_record(
                mode, stats, segment, file_offset + offset, expected_lsn,
                f"checksum mismatch ({ALG_NAMES[alg]} {crc:#010x} != {expected_crc:#010x})",
                remaining,
            )
            return
        if lsn != expected_lsn:
            _bad_record(
                mode, stats, segment, file_offset + offset, expected_lsn,
                f"LSN discontinuity (found {lsn})", remaining,
            )
            return
        try:
            record = _decode_payload(payload, schemas, lsn=lsn)
        except Exception as exc:
            _bad_record(
                mode, stats, segment, file_offset + offset, lsn,
                f"undecodable record ({exc})", remaining,
            )
            return
        stats.records_scanned += 1
        expected_lsn = lsn + 1
        yield record
        offset = end


# ----------------------------------------------------------------------
# Recovery reporting
# ----------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What :meth:`Database.recover` did, structurally."""

    mode: str = "strict"
    segments_scanned: int = 0
    records_scanned: int = 0
    txns_replayed: int = 0
    #: transactions whose ABORT record was found (never replayed)
    txns_aborted: int = 0
    #: transactions with no COMMIT in the readable log — open at the
    #: crash, or committed beyond the first corrupt/torn byte
    txns_dropped: int = 0
    #: records below the snapshot's LSN watermark (already in the
    #: snapshot; skipping them is what makes checkpoints idempotent)
    records_skipped: int = 0
    torn_tail_bytes: int = 0
    bytes_quarantined: int = 0
    corruption: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        lines = [
            f"recovery ({self.mode}): {self.txns_replayed} txn(s) replayed, "
            f"{self.txns_aborted} aborted, {self.txns_dropped} dropped",
            f"  scanned {self.records_scanned} record(s) in "
            f"{self.segments_scanned} segment(s), "
            f"skipped {self.records_skipped} below the snapshot watermark",
        ]
        if self.torn_tail_bytes:
            lines.append(f"  torn tail: {self.torn_tail_bytes} byte(s)")
        if self.bytes_quarantined:
            lines.append(f"  quarantined: {self.bytes_quarantined} byte(s)")
        if self.corruption:
            lines.append(f"  corruption: {self.corruption}")
        return "\n".join(lines)


def coalesce_replay(
    records: "Iterator[WalRecord] | List[WalRecord]",
) -> Iterator[Tuple[str, str, Any]]:
    """Collapse a committed-record stream into per-table bulk operations.

    Recovery used to push every logged insert through the row-at-a-time
    constraint-checking path; this generator instead groups consecutive
    committed inserts per table (across transaction boundaries) so the
    caller can bulk-load each run and bulk-build indexes once.  Yields
    ``("bulk_insert", table, rows)`` and ``("delete", table, row)``.

    Per-table operation order is preserved exactly: a delete flushes the
    pending insert run *of its own table* first, so an insert → delete →
    re-insert sequence on one primary key replays correctly, while runs
    on unrelated tables keep accumulating.
    """
    pending: Dict[str, List[Tuple[Any, ...]]] = {}
    for record in records:
        if record.kind == KIND_INSERT:
            pending.setdefault(record.table, []).append(record.row)
        elif record.kind == KIND_DELETE:
            rows = pending.pop(record.table, None)
            if rows:
                yield "bulk_insert", record.table, rows
            yield "delete", record.table, record.row
        else:  # pragma: no cover - recovery only passes DML records
            raise WALError(f"unexpected {record.kind_name} record in replay")
    for table, rows in pending.items():
        yield "bulk_insert", table, rows
