"""Database snapshots and checkpointing.

A snapshot file holds the full catalog (schemas, indexes) and every
table's rows in the binary codec; ``checkpoint`` atomically writes a
snapshot and truncates the WAL, bounding recovery time.  Together with
REDO recovery this completes the durability story: state = latest
snapshot + committed WAL suffix.

File format (v2, checksummed — the only version written or read)::

    header   := magic "RPRO" u16 version u8 checksum_alg
                u64 wal_watermark u32 table_count
    table    := u16 name_len name_bytes u32 schema_len schema_json
                u32 row_count row*
    row      := the table's RowCodec row, length-prefixed
                (see repro.storage.codec)
    footer   := magic "RPND" u32 crc-of-everything-before-the-footer

Schemas travel as JSON (they are metadata, not data) — column names,
types, nullability, defaults, primary key, and index declarations.

Durability hardening:

* the temp file is flushed and fsynced *before* the atomic rename, and
  the containing directory is fsynced after it, so a crash at any
  point leaves either the old snapshot or the complete new one — never
  a zero-length or torn file at the final path;
* the footer checksum (algorithm named in the header — see
  :mod:`repro.common.checksum`) turns every bit flip or truncation
  into a typed :class:`~repro.storage.errors.StorageError` at load
  time, and every read in the loader is bounds-checked so no
  corruption surfaces as a raw ``struct.error``/``IndexError``;
* ``wal_watermark`` records the WAL LSN the snapshot contains state up
  to, so recovery can skip WAL frames the snapshot already holds —
  which is what makes a crash *during* checkpoint truncation safe.

Crash points (see :class:`~repro.common.faults.FaultPlan`):
``snapshot.before_temp_write``, ``snapshot.mid_temp_write`` (before
each table), ``snapshot.after_fsync`` (temp durable, not yet renamed),
``snapshot.after_rename``, ``checkpoint.before_truncate``, and the
WAL's ``wal.truncate.begin``/``.mid``/``.end``.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Any, Dict, List, Optional

from ..common.checksum import ALG_NAMES, PREFERRED_ALG, checksum
from ..common.faults import NO_FAULTS, durable_fsync, fsync_directory
from .db import Database
from .errors import StorageError, WALError
from .schema import Column, IndexSpec, TableSchema
from .types import ColumnType

__all__ = ["save_snapshot", "load_snapshot", "checkpoint"]

_MAGIC = b"RPRO"
_FOOTER_MAGIC = b"RPND"
_VERSION = 2
#: u16 version, u8 checksum alg, u64 WAL watermark, u32 table count
_HEADER_V2 = struct.Struct("<HBQI")
_FOOTER_SIZE = len(_FOOTER_MAGIC) + 4


def _schema_to_json(schema: TableSchema) -> str:
    return json.dumps(
        {
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
    )


def _schema_from_json(text: str) -> TableSchema:
    data = json.loads(text)
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


class _ChecksumWriter:
    """Tracks a running checksum and byte count over logical writes.

    The checksum is taken *before* the (possibly fault-wrapped) handle
    sees the bytes, so an injected bit flip lands in the file but not
    in the recorded checksum — exactly the mismatch the loader must
    catch.
    """

    def __init__(self, handle: Any, alg: int) -> None:
        self._handle = handle
        self.alg = alg
        self.crc = 0
        self.written = 0

    def write(self, data: bytes) -> None:
        self.crc = checksum(self.alg, data, self.crc)
        self.written += len(data)
        self._handle.write(data)


def save_snapshot(db: Database, path: str, *, faults=None) -> int:
    """Write the whole database to ``path``; returns bytes written.

    The write goes to a temp file that is fsynced before being renamed
    into place (and the directory fsynced after), so a crash at any
    point leaves the previous snapshot intact and never exposes a torn
    file at ``path``.  A failed write raises ``StorageError`` and
    removes the temp file.
    """
    if db.in_transaction:
        raise StorageError("cannot snapshot with an open transaction")
    faults = faults if faults is not None else NO_FAULTS
    watermark = db._wal.last_lsn() if db._wal is not None else 0
    alg = PREFERRED_ALG
    temp = path + ".tmp"
    faults.reached("snapshot.before_temp_write")
    try:
        with open(temp, "wb") as raw:
            handle = faults.wrap(raw, os.path.basename(temp))
            writer = _ChecksumWriter(handle, alg)
            writer.write(_MAGIC)
            writer.write(_HEADER_V2.pack(_VERSION, alg, watermark, len(db.tables)))
            for name in sorted(db.tables):
                faults.reached("snapshot.mid_temp_write")
                table = db.tables[name]
                schema_json = _schema_to_json(table.schema).encode("utf-8")
                name_bytes = name.encode("utf-8")
                writer.write(struct.pack("<H", len(name_bytes)))
                writer.write(name_bytes)
                writer.write(struct.pack("<I", len(schema_json)))
                writer.write(schema_json)
                writer.write(struct.pack("<I", table.row_count))
                encode = table.schema.codec.encode
                for _rowid, row in table.scan():
                    writer.write(encode(row))
            # the footer seals everything before it (and is excluded)
            handle.write(_FOOTER_MAGIC + struct.pack("<I", writer.crc))
            size = writer.written + _FOOTER_SIZE
            durable_fsync(handle)
    except OSError as exc:
        try:
            os.remove(temp)
        except OSError:
            pass
        raise StorageError(f"snapshot write to {temp!r} failed: {exc}") from exc
    faults.reached("snapshot.after_fsync")
    os.replace(temp, path)
    fsync_directory(path)
    faults.reached("snapshot.after_rename")
    return size


class _Reader:
    """A bounds-checked cursor over snapshot bytes: every read names
    what it wanted and where, so truncation surfaces as a typed
    ``StorageError`` instead of a raw ``struct.error``."""

    def __init__(self, data: bytes, path: str) -> None:
        self._data = data
        self._path = path
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        have = len(self._data) - self.offset
        if count > have:
            raise StorageError(
                f"truncated snapshot {self._path!r}: needed {count} byte(s) "
                f"for {what} at offset {self.offset}, found {have}"
            )
        chunk = self._data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, count: int, what: str) -> str:
        raw = self.take(count, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError(
                f"corrupt snapshot {self._path!r}: {what} at offset "
                f"{self.offset - count} is not UTF-8 ({exc})"
            ) from exc


def load_snapshot(
    path: str, name: str = "db", *, wal_dir: Optional[str] = None
) -> Database:
    """Rebuild a database from a snapshot file.

    Every truncation or corruption raises ``StorageError`` naming the
    offending offset; the file is checksum-verified before any parsing,
    and any version other than v2 is refused.  ``wal_dir`` re-attaches
    a write-ahead log (for a subsequent ``Database.recover()`` of the
    post-snapshot suffix); the snapshot's WAL watermark is carried onto
    the returned database so recovery skips frames the snapshot
    already contains.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < 6 or data[:4] != _MAGIC:
        raise StorageError(f"{path!r} is not a snapshot file")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != _VERSION:
        raise StorageError(f"unsupported snapshot version {version}")
    if len(data) < 4 + _HEADER_V2.size + _FOOTER_SIZE:
        raise StorageError(
            f"truncated snapshot {path!r}: {len(data)} byte(s) is too "
            f"short for a v{_VERSION} header and footer"
        )
    if data[-_FOOTER_SIZE:-4] != _FOOTER_MAGIC:
        raise StorageError(
            f"corrupt snapshot {path!r}: footer magic missing at offset "
            f"{len(data) - _FOOTER_SIZE} (file truncated or overwritten)"
        )
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    _version, alg, watermark, table_count = _HEADER_V2.unpack_from(data, 4)
    if alg not in ALG_NAMES:
        raise StorageError(
            f"corrupt snapshot {path!r}: unknown checksum algorithm id "
            f"{alg} at offset 6"
        )
    actual_crc = checksum(alg, data[: -_FOOTER_SIZE])
    if actual_crc != stored_crc:
        raise StorageError(
            f"corrupt snapshot {path!r}: {ALG_NAMES[alg]} mismatch "
            f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    reader = _Reader(data, path)
    reader.take(4 + _HEADER_V2.size, "v2 header")
    body_end = len(data) - _FOOTER_SIZE

    db = Database(name, wal_dir=wal_dir)
    db._wal_watermark = watermark
    if db._wal is not None:
        db._wal.lsn_floor = watermark
    for _table in range(table_count):
        name_len = reader.u16("table name length")
        table_name = reader.text(name_len, "table name")
        schema_len = reader.u32("schema length")
        schema_json = reader.text(schema_len, f"schema of {table_name!r}")
        try:
            schema = _schema_from_json(schema_json)
        except (ValueError, KeyError, TypeError) as exc:
            raise StorageError(
                f"corrupt snapshot {path!r}: unreadable schema for "
                f"{table_name!r} ({exc})"
            ) from exc
        if schema.name != table_name:
            raise StorageError(
                f"snapshot corruption: {table_name!r} vs {schema.name!r}"
            )
        db.create_table(schema)
        row_count = reader.u32(f"row count of {table_name!r}")
        decode = schema.codec.decode
        rows: List[Any] = []
        rows_start = reader.offset
        for row_index in range(row_count):
            if reader.offset >= body_end:
                raise StorageError(
                    f"truncated snapshot {path!r}: row {row_index} of "
                    f"{table_name!r} would start at offset {reader.offset}, "
                    f"past the table data"
                )
            try:
                row, reader.offset = decode(data, reader.offset)
            except WALError as exc:
                raise StorageError(
                    f"corrupt snapshot {path!r}: row {row_index} of "
                    f"{table_name!r} at offset {reader.offset}: {exc}"
                ) from exc
            rows.append(row)
        if rows:
            # fast path: the codec checked each row as normalize would
            # and the bytes read are the rows' encodings, so the batch
            # lands without per-row transaction bookkeeping, normalizing
            # or sizing, in one heap append, and the table's indexes are
            # bulk-built (sort-then-chunk) rather than grown row by row
            db.table(table_name)._bulk_insert(rows, reader.offset - rows_start)
    return db


def checkpoint(db: Database, path: str, *, faults=None) -> int:
    """Snapshot the database and truncate its WAL (if any).

    After a checkpoint, recovery = load_snapshot + replay of the (now
    empty) log; the log stops growing without bound.  The ordering is
    the durability-critical part: the WAL is truncated only after the
    snapshot is durably renamed into place, and the snapshot's WAL
    watermark makes recovery skip any log suffix a crash mid-truncate
    leaves behind — every interleaving recovers the committed state.
    """
    faults = faults if faults is not None else NO_FAULTS
    size = save_snapshot(db, path, faults=faults)
    faults.reached("checkpoint.before_truncate")
    if db._wal is not None:
        db._wal.truncate()
    return size
