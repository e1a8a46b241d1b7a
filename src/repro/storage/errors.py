"""Exception hierarchy for the embedded relational engine."""

from __future__ import annotations

__all__ = [
    "StorageError",
    "SchemaError",
    "ConstraintError",
    "DuplicateKeyError",
    "UnknownTableError",
    "UnknownColumnError",
    "TransactionError",
    "WriteConflictError",
    "SQLError",
    "WALError",
    "WALCorruptionError",
    "TransientNetworkError",
    "ProtocolError",
]


class StorageError(Exception):
    """Base class for every error raised by :mod:`repro.storage`."""


class SchemaError(StorageError):
    """Invalid schema definition or a value violating a column type."""


class ConstraintError(StorageError):
    """A constraint (NOT NULL, primary key, unique index) was violated."""


class DuplicateKeyError(ConstraintError):
    """A primary-key or unique-index collision."""


class UnknownTableError(StorageError):
    """Referenced table does not exist in the catalog."""


class UnknownColumnError(StorageError):
    """Referenced column does not exist in the schema."""


class AmbiguousColumnError(StorageError):
    """An unqualified column name resolves to conflicting values.

    Raised by join operators when two inputs share an unqualified column
    name, the joined rows disagree on its value, and no table alias is
    available to disambiguate — silently preferring one side (what the
    engine used to do) turns a naming accident into wrong answers.
    """


class TransactionError(StorageError):
    """Invalid transaction state transition (e.g. commit without begin)."""


class WriteConflictError(TransactionError):
    """First-committer-wins: a snapshot-isolation transaction tried to
    commit a write to a row that another transaction — one that
    committed after this transaction's snapshot was taken — already
    wrote.  The losing transaction is rolled back; retrying it against a
    fresh snapshot is the client's job (and usually succeeds).

    ``table`` and ``rowids`` name the contended rows when known.
    """

    def __init__(
        self,
        message: str,
        *,
        table: "str | None" = None,
        rowids: "tuple | None" = None,
    ) -> None:
        self.table = table
        self.rowids = rowids
        super().__init__(message)


class SQLError(StorageError):
    """Syntax or semantic error in the SQL subset."""


class WALError(StorageError):
    """Corrupt or unreadable write-ahead-log content."""


class WALCorruptionError(WALError):
    """A WAL record failed verification (checksum, framing, or LSN).

    Names the corruption site: ``segment`` (file path), ``offset``
    (byte offset of the bad record within it), ``lsn`` (the expected
    log sequence number there, when known), and ``reason``.  Raised by
    the strict-mode scanner; the tolerant scanner reports the same
    site in the :class:`~repro.storage.wal.RecoveryReport` instead.
    """

    def __init__(
        self,
        reason: str,
        *,
        segment: str,
        offset: int,
        lsn: "int | None" = None,
    ) -> None:
        self.reason = reason
        self.segment = segment
        self.offset = offset
        self.lsn = lsn
        at_lsn = f", lsn {lsn}" if lsn is not None else ""
        super().__init__(f"{reason} in {segment!r} at byte {offset}{at_lsn}")


class TransientNetworkError(StorageError):
    """A client/server round trip failed in a retryable way.

    ``phase`` distinguishes a lost *request* (the server never executed
    the operation) from a lost *response* (the server executed it but
    the client cannot know) — the distinction idempotency keys exist
    for.
    """

    def __init__(self, message: str, *, phase: str = "request") -> None:
        self.phase = phase
        super().__init__(message)


class ProtocolError(StorageError):
    """A wire message that is not a well-formed request: the body is not
    a JSON object, or its ``ops`` is not a list of operation objects."""
