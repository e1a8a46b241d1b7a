"""Write-ahead logging, checkpoint images and crash recovery.

The paper (Section 5, "Logging") contrasts provenance with transaction
logs: logs exist for crash recovery and do not capture cross-database
copy/paste semantics.  We implement a real WAL for the embedded engine so
the distinction can be demonstrated and tested: after a crash, REDO
recovery reconstructs committed table contents — but nothing in the log
relates the recovered rows to their *sources*, which is exactly the gap
provenance records fill.

Log format (v4, one checksummed frame per committed transaction)
---------------------------------------------------------------

The log is a sequence of segment files ``<base>.000001``,
``<base>.000002``, ... each starting with a 16-byte header::

    segment  := magic "WAL2" u8 version u8 checksum_alg u16 flags
                u64 base_lsn [catalog] frame*
    catalog  := u32 catalog_len u32 crc catalog_json    (image segments)
    frame    := u32 ops_len u32 crc u64 lsn u32 txn_id u32 head_crc op*
    op       := u8 kind  u16 table_len  table  row
    row      := u32 body_len body  (the table's RowCodec encoding)
    kind     := INSERT(1) | DELETE(2)

A frame is one committed transaction: its row operations in the order
they were made.  ``ops_len`` counts the bytes of its ops and ``crc``
covers them; ``head_crc`` covers the header's first 20 bytes, so a
damaged header — a flipped ``ops_len`` included — is corruption, never
mistaken for a torn tail.  ``txn_id`` holds the low 32 bits of the
transaction id.  ``lsn`` increases by one per frame across the log's
whole lifetime, checkpoints included.  The one checksum is zlib's
CRC-32, algorithm id 0 in the header; a segment naming any other
algorithm, or any version but this one (the v2 record-per-row and v3
formats included), is refused.  Segments rotate at
:data:`DEFAULT_SEGMENT_BYTES`.

An *image* segment (flags bit 0) is the same format holding a whole
database: after the header, the catalog (every table's schema as JSON,
under its own CRC), then one frame (transaction id 0) with every live
row as an INSERT op.  :meth:`WriteAheadLog.checkpoint` publishes an
image as the log's next segment and removes the segments before it;
recovery starts at the newest image and reads nothing before it.  A
standalone image file (``repro.storage.snapshot``) is one image segment
on its own, written by :func:`write_image` and read by the same
scanner.

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

One scanner reads every segment: recovery (:meth:`WriteAheadLog.scan`),
the appender's tail check before the first frame write
(:func:`_segment_tail`) and the standalone image loader
(:func:`read_image`) all walk segments with :func:`_read_segment_header`
and :func:`_scan_frames`, so they can never disagree about where the
verifiable log ends.  A recovery that read the final segment through
without corruption hands the appender what it found
(:meth:`WriteAheadLog.resume`), and the tail check is not run again.

A frame naming a table the scan has no schema for — one no image
catalog declares and no one created — raises
:class:`~repro.storage.errors.UnknownTableError` in both modes: its
checksums verified, so it is a missing schema, not damage.

Recovery scans in one of two modes:

* ``strict`` (the default) — any frame that fails verification
  (checksum mismatch, bad framing, LSN discontinuity, a row its
  table's codec rejects) raises
  :class:`~repro.storage.errors.WALCorruptionError` naming the
  segment, byte offset, and LSN.  A *torn tail* — a truncated final
  frame in the final segment — is not corruption: it is the expected
  signature of a crash during a frame write, and ends the scan cleanly
  in both modes.  An image is renamed into place whole, so a truncated
  image is corruption.
* ``tolerant`` — scanning stops at the first bad frame; everything
  from it on (including later segments) is counted as quarantined
  bytes in the :class:`RecoveryReport` rather than raised.

:meth:`~repro.storage.db.Database.recover` replays the scanned frames
in commit order; what it did and what it dropped is returned as a
structured :class:`RecoveryReport`.

Crash points (see :class:`~repro.common.faults.FaultPlan`), one per
step of publishing an image and truncating the log in front of it:

* ``snapshot.before_temp_write`` — nothing written yet;
* ``snapshot.mid_temp_write`` — header and catalog written, frame not;
* ``snapshot.after_fsync`` — temp file durable, not yet renamed;
* ``snapshot.after_rename`` — renamed, directory not yet fsynced;
* ``checkpoint.before_truncate`` — image published, no segment removed;
* ``wal.truncate.mid`` — between the removals of two older segments;
* ``wal.truncate.end`` — every older segment removed.

The first four belong to :func:`write_image` and so fire for a
standalone image too.
"""

from __future__ import annotations

import errno
import json
import os
import struct
from dataclasses import dataclass, fields
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple
from zlib import crc32

from ..common.faults import NO_FAULTS, durable_fsync, fsync_directory
from .errors import SchemaError, StorageError, UnknownTableError, WALCorruptionError, WALError
from .schema import Column, IndexSpec, TableSchema
from .types import ColumnType

__all__ = [
    "WalFrame",
    "WriteAheadLog",
    "ScanStats",
    "RecoveryReport",
    "coalesce_replay",
    "read_image",
    "write_image",
]

#: an op's kind: the row was inserted, or deleted
KIND_INSERT = 1
KIND_DELETE = 2

_SEGMENT_MAGIC = b"WAL2"
_SEGMENT_VERSION = 4
#: the header's checksum algorithm id: zlib's CRC-32, the only one
_ALG_CRC32 = 0
#: the header's flags: the segment is an image
_FLAG_IMAGE = 1
#: segment header: magic, u8 version, u8 checksum alg, u16 flags, u64 base LSN
_SEGMENT_HEADER = struct.Struct("<4sBBHQ")
#: an image's catalog head: u32 catalog length, u32 crc
_CATALOG_HEAD = struct.Struct("<II")
#: frame header: u32 ops length, u32 ops crc, u64 lsn, u32 txn id, u32
#: crc of the header's first 20 bytes
_FRAME_HEADER = struct.Struct("<IIQII")
#: the header fields its head_crc covers
_FRAME_FIELDS = struct.Struct("<IIQI")
_HEAD_CRC = struct.Struct("<I")
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
    """One committed transaction (or an image) as a log scan reads it
    back."""

    lsn: int
    #: the transaction id's low 32 bits; 0 for an image
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
    #: frames verified and decoded (one per committed transaction, plus
    #: the image's)
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
    #: the image's catalog when the scan started at an image (its frame,
    #: if it verified, is the first one scanned); None otherwise
    catalog: Optional[Dict[str, TableSchema]] = None
    #: the LSN of the last frame verified, None before the first
    last_lsn: Optional[int] = None
    #: ``(path, size, end)`` of the final segment once the scan has read
    #: it through without corruption: its size as read and where its
    #: verifiable content ends (before a torn tail, if any)
    tail: Optional[Tuple[str, int, int]] = None


class WriteAheadLog:
    """An append-only, checksummed, segmented log of committed
    transactions.

    ``path`` is the *base* path: segments live at ``<path>.000001``,
    ``<path>.000002``, ...  The segment handle is opened lazily, at the
    first frame write, and kept open; ``crash()`` abandons it and the
    staged operations without any bookkeeping, and tests then reopen
    the log and run recovery.

    ``faults`` threads a :class:`~repro.common.faults.FaultPlan`
    through every frame write and fsync, the image writes and the named
    checkpoint crash points.
    """

    def __init__(
        self,
        path: str,
        schemas: Dict[str, TableSchema],
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        faults=None,
    ) -> None:
        self.path = path
        self._schemas = schemas
        self._segment_bytes = segment_bytes
        self._faults = faults if faults is not None else NO_FAULTS
        self._file: Optional[BinaryIO] = None
        #: size of the open segment up to the end of its last sealed frame
        self._sealed_size = 0
        #: True while bytes past ``_sealed_size`` may be in the segment:
        #: from the start of a frame write until its fsync returns
        self._unsealed_tail = False
        self._next_lsn: Optional[int] = None
        #: the open transaction's operations, encoded: op head, row, ...
        self._staged: List[bytes] = []
        #: (kind, table) -> that op head's bytes
        self._op_heads: Dict[Tuple[int, str], bytes] = {}
        #: the final segment's ``(path, size, end, last_lsn)`` as a
        #: recovery scan found it, for the first frame write (see
        #: :meth:`resume`)
        self._resume_at: Optional[Tuple[str, int, int, int]] = None

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
            # no frame verified in it: the previous segment's last LSN
        return 0

    def last_lsn(self) -> int:
        """The LSN of the most recently sealed frame."""
        if self._next_lsn is None:
            self._next_lsn = self._last_lsn_on_disk(self.segment_paths()) + 1
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
                    _SEGMENT_MAGIC, _SEGMENT_VERSION, _ALG_CRC32, 0, base_lsn
                )
            )
        self._file = self._faults.wrap(handle, os.path.basename(segment))
        self._sealed_size = handle.tell()

    def resume(self, stats: ScanStats) -> None:
        """Take where the log ends from a finished recovery scan.

        When ``stats`` read the final segment through without corruption
        (clean, or torn at its tail), the first frame write starts from
        its end, truncating a torn tail first, instead of scanning the
        segment again — which, after a checkpoint, is the whole image.
        It is used only while that segment still has the size the scan
        read; after a corrupt scan the appender scans for itself and
        refuses to append, as without it.
        """
        if self._file is None and stats.tail is not None and stats.corruption is None:
            last_lsn = stats.last_lsn or 0
            self._resume_at = (*stats.tail, last_lsn)
            if self._next_lsn is None:
                self._next_lsn = last_lsn + 1

    def _handle(self) -> BinaryIO:
        if self._file is None:
            segments = self.segment_paths()
            seq, lsn = 1, None
            resume, self._resume_at = self._resume_at, None
            if segments:
                last = segments[-1]
                seq = _sequence(last)
                if resume is not None and resume[:2] == (last, os.path.getsize(last)):
                    _path, size, end, lsn = resume
                    state = "torn" if end < size else "clean"
                else:
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
                if lsn is None:  # no segment, or no frame verified in it
                    lsn = self._last_lsn_on_disk(segments[:-1])
                self._next_lsn = lsn + 1
            self._open_segment(seq, self._next_lsn)
        return self._file

    def _rotate(self) -> None:
        seq = _sequence(self.segment_paths()[-1]) + 1
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
        frame = _frame(b"".join(self._staged), lsn, txn_id)
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

    def checkpoint(self, tables: Dict[str, Any]) -> int:
        """Replace the log by an image of ``tables`` (name -> ``Table``);
        returns the image's size in bytes.

        The image is written to a temp file, fsynced, renamed into place
        as the log's next segment and the directory fsynced (see
        :func:`write_image`); only then are the older segments removed,
        oldest first.  Its frame takes the next LSN, so the sequence
        runs on through it and later frames follow in the image segment.
        A crash at any point leaves either the old segments (the image
        not yet published) or the image with some of them still in
        front of it, which recovery skips: it starts at the newest image.
        """
        lsn = self.last_lsn() + 1
        segments = self.segment_paths()
        seq = _sequence(segments[-1]) + 1 if segments else 1
        self.close()
        directory, base = os.path.split(self.path)
        for name in os.listdir(directory or "."):
            if name.startswith(base + ".") and name.endswith(".tmp"):
                # the temp image of a checkpoint a crash cut short
                os.remove(os.path.join(directory, name))
        size = write_image(f"{self.path}.{seq:06d}", tables, lsn, faults=self._faults)
        self._faults.reached("checkpoint.before_truncate")
        for index, segment in enumerate(segments):
            if index:
                self._faults.reached("wal.truncate.mid")
            os.remove(segment)
        self._faults.reached("wal.truncate.end")
        self._next_lsn = lsn + 1
        self._open_segment(seq, lsn)
        return size

    def close(self) -> None:
        """Close the segment handle, first truncating away what a failed
        frame write left past the last sealed frame."""
        self._resume_at = None
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
        self._resume_at = None
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
        """Iterate verified frames in log order, from the newest image
        segment on (from the first segment when there is none).

        ``mode="strict"`` raises :class:`WALCorruptionError` at the
        first bad frame; ``mode="tolerant"`` ends the iteration there
        and reports it in ``stats``.  A torn tail (truncated final
        frame of the final segment) ends the scan cleanly in both
        modes.  ``stats`` is filled in as the scan advances.  A table
        of this log's schemas that the image's catalog declares
        differently raises :class:`~repro.storage.errors.SchemaError`.

        Reads go through independent handles, so writing, scanning,
        and writing again in one session works.
        """
        if mode not in ("strict", "tolerant"):
            raise ValueError(f"unknown scan mode {mode!r}")
        if stats is None:
            stats = ScanStats()
        segments = self.segment_paths()
        return _scan_segments(
            segments[_newest_image(segments):], self._schemas, mode, stats
        )


# ----------------------------------------------------------------------
# Images
# ----------------------------------------------------------------------

def write_image(path: str, tables: Dict[str, Any], lsn: int, *, faults=None) -> int:
    """Publish an image of ``tables`` (name -> ``Table``) at ``path``,
    its frame numbered ``lsn``; returns its size in bytes.

    The image goes to ``path + ".tmp"``, is fsynced, renamed into place
    and the directory fsynced, so a crash at any point leaves whatever
    was at ``path`` before, or the complete image — never a torn file.
    A failed write raises ``StorageError`` and removes the temp file.
    """
    faults = faults if faults is not None else NO_FAULTS
    catalog, ops = [], []
    for name in sorted(tables):
        schema = tables[name].schema
        catalog.append(_schema_to_dict(schema))
        encoded = name.encode("utf-8")
        head = _OP_HEAD.pack(KIND_INSERT, len(encoded)) + encoded
        encode = schema.codec.encode
        for _rowid, row in tables[name].scan():
            ops += (head, encode(row))
    catalog_json = json.dumps(catalog).encode("utf-8")
    header = b"".join((
        _SEGMENT_HEADER.pack(_SEGMENT_MAGIC, _SEGMENT_VERSION, _ALG_CRC32, _FLAG_IMAGE, lsn),
        _CATALOG_HEAD.pack(len(catalog_json), crc32(catalog_json)),
        catalog_json,
    ))
    frame = _frame(b"".join(ops), lsn, 0)
    temp = path + ".tmp"
    faults.reached("snapshot.before_temp_write")
    try:
        with open(temp, "wb") as raw:
            handle = faults.wrap(raw, os.path.basename(temp))
            handle.write(header)
            faults.reached("snapshot.mid_temp_write")
            handle.write(frame)
            # the file position, not write's return value, says what landed
            if handle.tell() != len(header) + len(frame):
                raise OSError(errno.EIO, "short write of a WAL image", temp)
            durable_fsync(handle)
    except OSError as exc:
        try:
            os.remove(temp)
        except OSError:
            pass
        raise StorageError(f"image write to {temp!r} failed: {exc}") from exc
    faults.reached("snapshot.after_fsync")
    os.replace(temp, path)
    faults.reached("snapshot.after_rename")
    fsync_directory(path)
    return len(header) + len(frame)


def read_image(path: str) -> Tuple[Dict[str, TableSchema], List[WalFrame]]:
    """The catalog and the frames of the image file at ``path``: its
    image frame first.  Strict: any damage raises a typed
    ``StorageError`` (``WALCorruptionError`` naming the site), and a
    file that is not an image is refused."""
    stats = ScanStats()
    frames = list(_scan_segments([path], {}, "strict", stats))
    if stats.catalog is None:
        raise StorageError(f"{path!r} is not a database image")
    return stats.catalog, frames


def _schema_to_dict(schema: TableSchema) -> Dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [
            {
                "name": column.name,
                "type": column.type.value,
                "nullable": column.nullable,
                "default": column.default,
            }
            for column in schema.columns
        ],
        "primary_key": list(schema.primary_key),
        "indexes": [
            {
                "name": spec.name,
                "columns": list(spec.columns),
                "unique": spec.unique,
                "ordered": spec.ordered,
            }
            for spec in schema.indexes
        ],
    }


def _schema_from_dict(data: Dict[str, Any]) -> TableSchema:
    return TableSchema(
        data["name"],
        [
            Column(
                column["name"],
                ColumnType(column["type"]),
                nullable=column["nullable"],
                default=column["default"],
            )
            for column in data["columns"]
        ],
        primary_key=tuple(data["primary_key"]),
        indexes=tuple(
            IndexSpec(
                spec["name"],
                tuple(spec["columns"]),
                unique=spec["unique"],
                ordered=spec["ordered"],
            )
            for spec in data["indexes"]
        ),
    )


def _with_catalog(
    schemas: Dict[str, TableSchema], catalog: Dict[str, TableSchema]
) -> Dict[str, TableSchema]:
    """``schemas`` plus the catalog's other tables; a table both name
    must be declared alike."""
    for name, schema in catalog.items():
        mine = schemas.get(name)
        if mine is not None and _schema_to_dict(mine) != _schema_to_dict(schema):
            raise SchemaError(
                f"table {name!r} exists with a schema that differs from "
                f"the one in the WAL image"
            )
    return {**catalog, **schemas}


# ----------------------------------------------------------------------
# Scanner internals
# ----------------------------------------------------------------------

def _sequence(segment: str) -> int:
    return int(segment.rsplit(".", 1)[1])


def _frame(ops: bytes, lsn: int, txn_id: int) -> bytes:
    """A sealed frame: the header, its check, then ``ops``."""
    head = _FRAME_FIELDS.pack(len(ops), crc32(ops), lsn, txn_id & 0xFFFFFFFF)
    return b"".join((head, _HEAD_CRC.pack(crc32(head)), ops))


def _newest_image(segments: List[str]) -> int:
    """The index of the newest image segment (0 when there is none):
    recovery reads nothing before it."""
    for index in range(len(segments) - 1, 0, -1):
        with open(segments[index], "rb") as handle:
            head = handle.read(_SEGMENT_HEADER.size)
        if len(head) == _SEGMENT_HEADER.size:
            magic, version, _alg, flags, _lsn = _SEGMENT_HEADER.unpack(head)
            if (magic, version, flags) == (_SEGMENT_MAGIC, _SEGMENT_VERSION, _FLAG_IMAGE):
                return index
    return 0


def _scan_segments(
    segments: List[str], schemas: Dict[str, TableSchema], mode: str, stats: ScanStats
) -> Iterator[WalFrame]:
    expected_lsn: Optional[int] = None
    for position, segment in enumerate(segments):
        final = position == len(segments) - 1
        stats.segments_scanned += 1
        base_lsn, catalog, data, start = _read_segment_header(segment, mode, stats, final)
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
                len(data),
            )
            _quarantine_rest(stats, segments[position + 1 :])
            return
        if catalog is not None:
            schemas = _with_catalog(schemas, catalog)
            stats.catalog = catalog
        yield from _scan_frames(
            segment, data, start, base_lsn, schemas, mode, stats, final, catalog is not None
        )
        if stats.corruption is not None:
            _quarantine_rest(stats, segments[position + 1 :])
            return
        # LSNs run on across segments, so the last one verified (here or
        # before) is this segment's base LSN minus one when it had none
        expected_lsn = base_lsn if stats.last_lsn is None else stats.last_lsn + 1
        if final:
            stats.tail = (segment, len(data), len(data) - stats.torn_tail_bytes)


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
    when no frame verified: the segment's base LSN follows the previous
    segment's last, so that one holds the answer.
    """
    stats = ScanStats()
    lsn = None
    for frame in _scan_segments([path], schemas, "tolerant", stats):
        lsn = frame.lsn
    end = os.path.getsize(path) - stats.bytes_quarantined
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
    segment: str, mode: str, stats: ScanStats, final: bool
) -> Tuple[int, Optional[Dict[str, TableSchema]], Optional[bytes], int]:
    """Parse a segment's header, and an image's catalog.  Returns
    ``(base_lsn, catalog, data, start)``: ``catalog`` is None unless
    the segment is an image, ``data`` the whole segment (None when the
    header was bad: already reported/raised), and ``start`` the offset
    of its first frame."""
    with open(segment, "rb") as handle:
        data = handle.read()
    start = _SEGMENT_HEADER.size
    if len(data) < start:
        if final:
            _torn_tail(stats, len(data))
        else:
            _bad_record(
                mode, stats, segment, 0, None,
                f"segment header truncated ({len(data)} bytes)", len(data),
            )
        return 0, None, None, start
    magic, version, alg, flags, base_lsn = _SEGMENT_HEADER.unpack_from(data, 0)
    if magic != _SEGMENT_MAGIC:
        at, problem = 0, f"bad segment magic {magic!r}"
    elif version != _SEGMENT_VERSION:
        at, problem = 4, f"unsupported WAL segment version {version}"
    elif alg != _ALG_CRC32:
        at, problem = 5, f"unknown checksum algorithm id {alg}"
    elif flags & ~_FLAG_IMAGE:
        at, problem = 6, f"unknown segment flags {flags:#06x}"
    elif not flags:
        return base_lsn, None, data, start
    else:
        at = start
        try:
            catalog, start = _read_catalog(data, start)
        except WALError as exc:
            problem = str(exc)
        else:
            return base_lsn, catalog, data, start
    _bad_record(mode, stats, segment, at, None, problem, len(data))
    return 0, None, None, start


def _read_catalog(data: bytes, at: int) -> Tuple[Dict[str, TableSchema], int]:
    """The image catalog at ``data[at:]`` and the offset after it.  Any
    damage raises ``WALError`` — a short catalog too: an image is
    renamed into place whole, so it is never a torn tail."""
    if len(data) < at + _CATALOG_HEAD.size:
        raise WALError("truncated image catalog head")
    length, crc = _CATALOG_HEAD.unpack_from(data, at)
    at += _CATALOG_HEAD.size
    text = data[at : at + length]
    if len(text) < length:
        raise WALError(f"truncated image catalog (want {length} bytes)")
    if crc32(text) != crc:
        raise WALError("image catalog checksum mismatch")
    try:
        schemas = [_schema_from_dict(item) for item in json.loads(text)]
    except (ValueError, KeyError, TypeError, StorageError) as exc:
        raise WALError(f"unreadable image catalog ({exc})") from exc
    return {schema.name: schema for schema in schemas}, at + length


def _scan_frames(
    segment: str,
    data: bytes,
    offset: int,
    base_lsn: int,
    schemas: Dict[str, TableSchema],
    mode: str,
    stats: ScanStats,
    final: bool,
    image: bool,
) -> Iterator[WalFrame]:
    """The verified frames of ``data`` (a whole segment) from byte
    ``offset`` on.  In an image segment the first frame is the image,
    which is never a torn tail."""
    expected_lsn = base_lsn
    header = _FRAME_HEADER
    checked = _FRAME_FIELDS.size
    view = memoryview(data)  # the crcs read each frame without a copy
    decoders = {
        name.encode("utf-8"): (name, schema.codec.decode)
        for name, schema in schemas.items()
    }
    if image and offset == len(data):
        _bad_record(mode, stats, segment, offset, base_lsn, "image frame missing", 0)
        return
    while offset < len(data):
        remaining = len(data) - offset
        # a cut in the image frame is damage: images are published whole
        torn = final and not (image and expected_lsn == base_lsn)
        if remaining < header.size:
            if torn:
                _torn_tail(stats, remaining)
                stats.torn_frames = 1
            else:
                _bad_record(
                    mode, stats, segment, offset, expected_lsn,
                    f"truncated frame header ({remaining} bytes)", remaining,
                )
            return
        length, crc, lsn, txn_id, head_crc = header.unpack_from(data, offset)
        if crc32(view[offset : offset + checked]) != head_crc:
            # a complete header is exactly as written unless damaged
            _bad_record(
                mode, stats, segment, offset, expected_lsn,
                "frame header checksum mismatch", remaining,
            )
            return
        start = offset + header.size
        end = start + length
        if end > len(data):
            if torn:
                _torn_tail(stats, remaining)
                stats.torn_frames = 1
            else:
                _bad_record(
                    mode, stats, segment, offset, expected_lsn,
                    f"truncated frame (want {length} bytes of ops)", remaining,
                )
            return
        expected_crc = crc32(view[start:end])
        if crc != expected_crc:
            _bad_record(
                mode, stats, segment, offset, expected_lsn,
                f"checksum mismatch (crc32 {crc:#010x} != {expected_crc:#010x})",
                remaining,
            )
            return
        if lsn != expected_lsn:
            _bad_record(
                mode, stats, segment, offset, expected_lsn,
                f"LSN discontinuity (found {lsn})", remaining,
            )
            return
        try:
            ops = _decode_ops(data, start, end, decoders)
        except (WALError, struct.error) as exc:
            _bad_record(
                mode, stats, segment, offset, lsn,
                f"undecodable frame ({exc})", remaining,
            )
            return
        stats.records_scanned += 1
        stats.last_lsn = lsn
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
            # the frame's checksum verified, so this is no damage: the
            # table's schema is missing
            raise UnknownTableError(
                f"the WAL references table {bytes(name).decode('utf-8', 'replace')!r}, "
                f"which no image catalog declares and which was not created "
                f"before recovery"
            )
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
    #: segments read, from the newest image on
    segments_scanned: int = 0
    #: frames scanned: one per committed transaction in the readable
    #: log, plus the image's
    records_scanned: int = 0
    #: committed transactions replayed (the image is not one)
    txns_replayed: int = 0
    #: transactions the crash cut short: a torn final frame (0 or 1) —
    #: an uncommitted transaction never reaches the log
    txns_dropped: int = 0
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
            f"{self.segments_scanned} segment(s)",
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
