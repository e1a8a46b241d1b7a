"""An embedded relational engine: the reproduction's MySQL substitute.

This package front exports the **storage kernel** only: :class:`Database`
(catalog, transactions, rowid DML, WAL durability, checkpoints and
recovery), :class:`Table`, the DDL objects, :class:`RecoveryReport` and
the typed errors; standalone image files (snapshots) are in
:mod:`repro.storage.snapshot`.  The paper's
provenance store uses nothing else.

The **query layer** above it is imported from its own modules, and no
kernel module imports it: :mod:`~repro.storage.query` (``Query`` and
``QueryEngine``: planning, EXPLAIN and predicate DML
over a ``Database``), :mod:`~repro.storage.expr`,
:mod:`~repro.storage.plan`, :mod:`~repro.storage.sql`,
:mod:`~repro.storage.mvcc`, :mod:`~repro.storage.server` (the batched
wire protocol over MVCC sessions) and :mod:`~repro.storage.client`
(``Client``, the one client of that server, in process or over a
socket, which charges the cost model's round trips and failures).
"""

from .db import Database
from .errors import (
    AmbiguousColumnError,
    ConstraintError,
    DuplicateKeyError,
    SchemaError,
    SQLError,
    StorageError,
    TransactionError,
    ProtocolError,
    TransientNetworkError,
    UnknownColumnError,
    UnknownTableError,
    WALCorruptionError,
    WALError,
    WriteConflictError,
)
from .schema import Column, IndexSpec, TableSchema
from .table import Table
from .types import ColumnType
from .wal import RecoveryReport

__all__ = [
    "Database",
    "RecoveryReport",
    "Table",
    "TableSchema",
    "Column",
    "IndexSpec",
    "ColumnType",
    "StorageError",
    "AmbiguousColumnError",
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
