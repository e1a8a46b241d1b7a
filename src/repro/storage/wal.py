"""Write-ahead logging and crash recovery.

The paper (Section 5, "Logging") contrasts provenance with transaction
logs: logs exist for crash recovery and do not capture cross-database
copy/paste semantics.  We implement a real WAL for the embedded engine so
the distinction can be demonstrated and tested: after a crash, REDO
recovery reconstructs committed table contents — but nothing in the log
relates the recovered rows to their *sources*, which is exactly the gap
provenance records fill.

Log format (v3, one checksummed frame per committed transaction)
---------------------------------------------------------------

The log is a sequence of segment files ``<base>.000001``,
``<base>.000002``, ... each starting with a 16-byte header::

    segment  := magic "WAL2" u8 version u8 checksum_alg u16 reserved
                u64 base_lsn frame*
    frame    := u32 ops_len  u32 crc  u64 lsn  u64 txn_id  op*
    op       := u8 kind  u16 table_len  table  row
    row      := u32 body_len body  (the table's RowCodec encoding)
    kind     := INSERT(1) | DELETE(2)

A frame is one committed transaction: its row operations in the order
they were made.  ``ops_len`` counts the bytes of its ops; ``crc``
covers ``lsn``, ``txn_id`` and every op under the header's checksum
algorithm (see :mod:`repro.common.checksum`).  ``lsn`` is a log
sequence number that increases by one per frame across the whole log's
lifetime — including across :meth:`WriteAheadLog.truncate`, so a
snapshot can record an LSN watermark and recovery can skip frames the
snapshot already contains.  The magic names the segmented log; the
version byte names this frame format, and a segment of any other
version (the v2 record-per-row format included) is refused.  Segments
rotate at :data:`DEFAULT_SEGMENT_BYTES`.

Writing: :meth:`WriteAheadLog.append` stages one row operation of the
open transaction in memory; :meth:`WriteAheadLog.flush` seals the
staged operations into a frame, writes it with one ``write`` on an
unbuffered segment handle and makes one fsync; :meth:`WriteAheadLog.discard`
drops them (rollback).  An uncommitted transaction therefore never
reaches the log, and the only transaction a crash can drop is the one
whose frame write it tore: a truncated final frame.  If a frame write
or its fsync fails, the bytes it may have left are truncated away
before the next frame is written, so a frame never follows a partial
one.

This is the only on-disk format, and one scanner reads it: recovery
(:meth:`WriteAheadLog.scan`) and the appender's tail check before the
first frame write (:func:`_segment_tail`) both walk segments with
:func:`_read_segment_header` and :func:`_scan_frames`, so the two can
never disagree about where the verifiable log ends.

Recovery scans in one of two modes:

* ``strict`` (the default) — any frame that fails verification
  (checksum mismatch, bad framing, LSN discontinuity, a row its
  table's codec rejects) raises
  :class:`~repro.storage.errors.WALCorruptionError` naming the
  segment, byte offset, and LSN.  A *torn tail* — a truncated final
  frame in the final segment — is not corruption: it is the expected
  signature of a crash during a frame write, and ends the scan cleanly
  in both modes.
* ``tolerant`` — scanning stops at the first bad frame; everything
  from it on (including later segments) is counted as quarantined
  bytes in the :class:`RecoveryReport` rather than raised.

:meth:`~repro.storage.db.Database.recover` replays the scanned frames
in commit order; what it did and what it dropped is returned as a
structured :class:`RecoveryReport`.
"""

from __future__ import annotations

import errno
import os
import struct
from dataclasses import dataclass, fields
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple

from ..common.checksum import ALG_NAMES, PREFERRED_ALG, checksum_fn
from ..common.faults import NO_FAULTS, durable_fsync
from .errors import WALCorruptionError, WALError
from .schema import TableSchema

__all__ = [
    "WalFrame",
    "WriteAheadLog",
    "ScanStats",
    "RecoveryReport",
    "coalesce_replay",
]

#: an op's kind: the row was inserted, or deleted
KIND_INSERT = 1
KIND_DELETE = 2

_SEGMENT_MAGIC = b"WAL2"
_SEGMENT_VERSION = 3
#: segment header: magic, u8 version, u8 checksum alg, u16 reserved, u64 base LSN
_SEGMENT_HEADER = struct.Struct("<4sBBHQ")
#: frame header: u32 ops length, u32 crc, u64 lsn, u64 txn id
_FRAME_HEADER = struct.Struct("<IIQQ")
#: the frame header's two halves, as flush writes them: the crc covers
#: the second half and the ops after it
_LENGTH_CRC = struct.Struct("<II")
_LSN_TXN = struct.Struct("<QQ")
#: an op's head: u8 kind, u16 table name length
_OP_HEAD = struct.Struct("<BH")
#: rotate to a fresh segment once the current one reaches this size
DEFAULT_SEGMENT_BYTES = 1 << 20

Row = Tuple[Any, ...]


# not frozen: a frozen dataclass's __init__ sets each field through
# object.__setattr__, about three times the cost of a slotted one, and
# recovery builds one per committed transaction
@dataclass(slots=True)
class WalFrame:
    """One committed transaction as a log scan reads it back."""

    lsn: int
    txn_id: int
    #: ``(kind, table, row, size)`` per row operation, in log order:
    #: ``row`` as its table's codec decoded (and validated) it, ``size``
    #: the length of its encoding — the table's byte accounting
    ops: List[Tuple[int, str, Row, int]]


@dataclass
class ScanStats:
    """What a log scan saw — filled in as the scanner advances, final
    once the scan's iterator is exhausted (or has raised)."""

    segments_scanned: int = 0
    #: frames verified and decoded (one per committed transaction)
    records_scanned: int = 0
    #: bytes of a truncated final frame (or segment header) in the final
    #: segment: a torn write at crash time; expected, not corruption
    torn_tail_bytes: int = 0
    #: 1 when the torn tail is a frame, i.e. a transaction whose commit
    #: the crash cut short (a torn segment header holds none)
    torn_frames: int = 0
    #: bytes dropped without being replayed: the torn tail plus — after
    #: a corrupt frame — the rest of its segment and all later segments
    bytes_quarantined: int = 0
    #: human-readable site of the first bad frame, None if the log is
    #: clean (tolerant mode; strict mode raises instead)
    corruption: Optional[str] = None


class WriteAheadLog:
    """An append-only, checksummed, segmented log of committed
    transactions.

    ``path`` is the *base* path: segments live at ``<path>.000001``,
    ``<path>.000002``, ...  The segment handle is opened lazily, at the
    first frame write, and kept open; ``crash()`` abandons it and the
    staged operations without any bookkeeping, and tests then reopen
    the log and run recovery.

    ``faults`` threads a :class:`~repro.common.faults.FaultPlan`
    through every frame write and fsync and the named truncation crash
    points.
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
        #: size of the open segment up to the end of its last sealed frame
        self._sealed_size = 0
        #: True while bytes past ``_sealed_size`` may be in the segment:
        #: from the start of a frame write until its fsync returns
        self._unsealed_tail = False
        self._next_lsn: Optional[int] = None
        #: the highest LSN already taken even where no segment shows it:
        #: a snapshot's watermark, which recovery skips up to, so frames
        #: written after a checkpoint removed every segment must number
        #: above it (``load_snapshot`` sets it)
        self.lsn_floor = 0
        #: the open transaction's operations, encoded: op head, row, ...
        self._staged: List[bytes] = []
        #: (kind, table) -> that op head's bytes
        self._op_heads: Dict[Tuple[int, str], bytes] = {}

    # ------------------------------------------------------------------
    # Segment bookkeeping
    # ------------------------------------------------------------------
    def segment_paths(self) -> List[str]:
        """Existing segment files, in sequence order."""
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
        """The LSN of the most recently sealed frame."""
        if self._next_lsn is None:
            on_disk = self._last_lsn_on_disk(self.segment_paths())
            self._next_lsn = max(on_disk, self.lsn_floor) + 1
        return self._next_lsn - 1

    def _open_segment(self, seq: int, base_lsn: int) -> None:
        segment = f"{self.path}.{seq:06d}"
        # unbuffered: a frame is one write() straight to the file, so
        # nothing of a transaction sits in a buffer for a crash or a
        # close to push out later
        handle = open(segment, "ab", buffering=0)
        if handle.tell() == 0:
            handle.write(
                _SEGMENT_HEADER.pack(
                    _SEGMENT_MAGIC, _SEGMENT_VERSION, self._alg, 0, base_lsn
                )
            )
        self._file = self._faults.wrap(handle, os.path.basename(segment))
        self._sealed_size = handle.tell()

    def _handle(self) -> BinaryIO:
        if self._file is None:
            segments = self.segment_paths()
            seq, lsn = 1, None
            if segments:
                last = segments[-1]
                seq = int(last.rsplit(".", 1)[1])
                end, lsn, state = _segment_tail(last, self._schemas)
                if state == "corrupt":
                    # Appending after a checksum-failed frame would
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
                    # partial frame before writing the next one
                    with open(last, "r+b") as handle:
                        handle.truncate(end)
            if self._next_lsn is None:
                if lsn is None:  # no segment, or a torn header
                    lsn = self._last_lsn_on_disk(segments[:-1])
                self._next_lsn = max(lsn, self.lsn_floor) + 1
            self._open_segment(seq, self._next_lsn)
        return self._file

    def _rotate(self) -> None:
        seq = int(self.segment_paths()[-1].rsplit(".", 1)[1]) + 1
        self._file.close()  # every sealed frame is already fsynced
        self._file = None
        self._open_segment(seq, self._next_lsn)

    # ------------------------------------------------------------------
    # Staging and sealing
    # ------------------------------------------------------------------
    def append(self, record: Tuple[int, str, bytes]) -> None:
        """Stage one row operation of the open transaction.

        ``record`` is ``(kind, table, row)`` with ``row`` the bytes the
        table's codec encoded.  No I/O: :meth:`flush` writes the staged
        operations as one frame, :meth:`discard` drops them.
        """
        kind, table, row = record
        head = self._op_heads.get((kind, table))
        if head is None:
            name = table.encode("utf-8")
            head = self._op_heads[(kind, table)] = _OP_HEAD.pack(kind, len(name)) + name
        self._staged += (head, row)

    def discard(self) -> None:
        """Drop the staged operations (the transaction rolled back)."""
        self._staged = []

    def flush(self, txn_id: int) -> Optional[int]:
        """Seal the staged operations as transaction ``txn_id``'s frame
        and make it durable: one write, one fsync.  Returns the frame's
        LSN, or ``None`` when nothing was staged (nothing is written).

        If the write or the fsync fails — an ``OSError``, or a write
        that left fewer bytes than the frame — the error propagates
        with the operations still staged, and whatever part of the
        frame reached the segment is truncated away before the next
        frame is written.
        """
        if not self._staged:
            return None
        handle = self._file if self._file is not None else self._handle()
        if self._unsealed_tail:
            handle.truncate(self._sealed_size)
            self._unsealed_tail = False
        if self._sealed_size >= self._segment_bytes:
            self._rotate()
            handle = self._file
        lsn = self._next_lsn
        ops = b"".join(self._staged)
        lsn_txn = _LSN_TXN.pack(lsn, txn_id)
        crc = self._crc(ops, self._crc(lsn_txn, 0))
        frame = b"".join((_LENGTH_CRC.pack(len(ops), crc), lsn_txn, ops))
        end = self._sealed_size + len(frame)
        self._unsealed_tail = True
        # a write's return value can overstate what landed (a short
        # write whose count nobody checks); the file position cannot
        if handle.write(frame) != len(frame) or handle.tell() != end:
            raise OSError(errno.EIO, "short write of a WAL frame", self.path)
        durable_fsync(handle)
        self._unsealed_tail = False
        self._sealed_size = end
        self._next_lsn = lsn + 1
        self._staged = []
        return lsn

    def close(self) -> None:
        """Close the segment handle, first truncating away what a failed
        frame write left past the last sealed frame."""
        if self._file is not None:
            if self._unsealed_tail:
                self._file.truncate(self._sealed_size)
                self._unsealed_tail = False
            self._file.close()
            self._file = None

    def crash(self) -> None:
        """Simulated crash: drop the staged operations and the handle.
        Sealed frames are on disk; nothing else of this log is."""
        self._staged = []
        if self._file is not None:
            self._file.close()
            self._file = None
        self._unsealed_tail = False

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan(
        self, mode: str = "strict", stats: Optional[ScanStats] = None
    ) -> Iterator[WalFrame]:
        """Iterate verified frames in log order.

        ``mode="strict"`` raises :class:`WALCorruptionError` at the
        first bad frame; ``mode="tolerant"`` ends the iteration there
        and reports it in ``stats``.  A torn tail (truncated final
        frame of the final segment) ends the scan cleanly in both
        modes.  ``stats`` is filled in as the scan advances.

        Reads go through independent handles, so writing, scanning,
        and writing again in one session works.
        """
        if mode not in ("strict", "tolerant"):
            raise ValueError(f"unknown scan mode {mode!r}")
        if stats is None:
            stats = ScanStats()
        return self._scan(mode, stats)

    def _scan(self, mode: str, stats: ScanStats) -> Iterator[WalFrame]:
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
            for frame in _scan_frames(
                segment, data, base_lsn, alg, self._schemas, mode, stats, final
            ):
                expected_lsn = frame.lsn + 1
                yield frame
            if stats.corruption is not None:
                _quarantine_rest(stats, segments[position + 1 :])
                return

    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Discard every persisted frame (the checkpoint contract).

        LSNs are *not* reset: the next frame continues the sequence,
        so a snapshot's LSN watermark stays meaningful against frames
        written after the checkpoint.  Segments are removed oldest
        first; a crash mid-truncate therefore leaves a contiguous
        suffix whose frames are all at-or-below the watermark, which
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
    verifies), ``"torn"`` (the tail is an incomplete frame or
    incomplete header — the expected shape of a crash mid-write), or
    ``"corrupt"`` (a *complete* frame or header failed verification:
    checksum, LSN, decode, magic or version).  ``last_lsn`` is ``None``
    when the header itself was unreadable.
    """
    stats = ScanStats()
    base_lsn, alg, data = _read_segment_header(path, "tolerant", stats)
    if data is None:
        return 0, None, "corrupt" if stats.corruption else "torn"
    lsn = base_lsn - 1
    for frame in _scan_frames(
        path, data, base_lsn, alg, schemas, "tolerant", stats, True
    ):
        lsn = frame.lsn
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
    """Parse a segment's header; returns ``(base_lsn, alg, frames_bytes)``
    with ``frames_bytes=None`` when the header was bad (already
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


def _scan_frames(
    segment: str,
    data: bytes,
    base_lsn: int,
    alg: int,
    schemas: Dict[str, TableSchema],
    mode: str,
    stats: ScanStats,
    final: bool,
) -> Iterator[WalFrame]:
    offset = 0
    expected_lsn = base_lsn
    header = _FRAME_HEADER
    crc_of = checksum_fn(alg)
    view = memoryview(data)  # the crc reads each frame without a copy
    decoders = {
        name.encode("utf-8"): (name, schema.codec.decode)
        for name, schema in schemas.items()
    }
    file_offset = _SEGMENT_HEADER.size  # for error reporting
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < header.size:
            if final:
                _torn_tail(stats, remaining)
                stats.torn_frames = 1
            else:
                _bad_record(
                    mode, stats, segment, file_offset + offset, expected_lsn,
                    f"truncated frame header ({remaining} bytes)", remaining,
                )
            return
        length, crc, lsn, txn_id = header.unpack_from(data, offset)
        start = offset + header.size
        end = start + length
        if end > len(data):
            if final:
                _torn_tail(stats, remaining)
                stats.torn_frames = 1
            else:
                _bad_record(
                    mode, stats, segment, file_offset + offset, expected_lsn,
                    f"truncated frame (want {length} bytes of ops)", remaining,
                )
            return
        # the lsn and txn id (bytes 8-24 of the header) run straight into
        # the ops, so one call covers all three
        expected_crc = crc_of(view[offset + 8 : end], 0)
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
            ops = _decode_ops(data, start, end, decoders)
        except (WALError, struct.error) as exc:
            _bad_record(
                mode, stats, segment, file_offset + offset, lsn,
                f"undecodable frame ({exc})", remaining,
            )
            return
        stats.records_scanned += 1
        expected_lsn = lsn + 1
        yield WalFrame(lsn, txn_id, ops)
        offset = end


def _decode_ops(
    data: bytes, at: int, end: int, decoders: Dict[bytes, Tuple[str, Any]]
) -> List[Tuple[int, str, Row, int]]:
    """The ops of the frame whose ops span ``data[at:end]``, each row
    decoded — and so validated — by its table's codec."""
    ops = []
    append = ops.append
    unpack_head = _OP_HEAD.unpack_from
    while at < end:
        kind, name_length = unpack_head(data, at)
        at += 3
        name = data[at : at + name_length]
        at += name_length
        decoder = decoders.get(name)
        if decoder is None:
            raise WALError(f"WAL references unknown table {bytes(name)!r}")
        if kind != KIND_INSERT and kind != KIND_DELETE:
            raise WALError(f"unknown op kind {kind}")
        row, after = decoder[1](data, at)
        append((kind, decoder[0], row, after - at))
        at = after
    if at != end:
        raise WALError(f"ops overrun their frame by {at - end} bytes")
    return ops


# ----------------------------------------------------------------------
# Recovery reporting
# ----------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What :meth:`Database.recover` did, structurally."""

    mode: str = "strict"
    segments_scanned: int = 0
    #: frames scanned: one per committed transaction in the readable log
    records_scanned: int = 0
    txns_replayed: int = 0
    #: transactions the crash cut short: a torn final frame (0 or 1) —
    #: an uncommitted transaction never reaches the log
    txns_dropped: int = 0
    #: frames at or below the snapshot's LSN watermark (already in the
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
            f"{self.txns_dropped} dropped",
            f"  scanned {self.records_scanned} frame(s) in "
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


def coalesce_replay(frames: Iterable[WalFrame]) -> Iterator[Tuple[str, str, Any, int]]:
    """Collapse committed frames into per-table bulk operations.

    Groups consecutive committed inserts per table (across transaction
    boundaries) so the caller can bulk-load each run and bulk-build
    indexes once.  Yields ``("bulk_insert", table, rows, size)`` with
    ``size`` the run's total encoded bytes, and ``("delete", table,
    row, size)``.

    Per-table operation order is preserved exactly: a delete flushes the
    pending insert run *of its own table* first, so an insert → delete →
    re-insert sequence on one primary key replays correctly, while runs
    on unrelated tables keep accumulating.
    """
    pending: Dict[str, List[Any]] = {}
    for frame in frames:
        for kind, table, row, size in frame.ops:
            if kind == KIND_INSERT:
                run = pending.get(table)
                if run is None:
                    run = pending[table] = [[], 0]
                run[0].append(row)
                run[1] += size
            else:
                run = pending.pop(table, None)
                if run is not None:
                    yield "bulk_insert", table, run[0], run[1]
                yield "delete", table, row, size
    for table, (rows, size) in pending.items():
        yield "bulk_insert", table, rows, size
