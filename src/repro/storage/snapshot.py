"""Standalone database images.

A snapshot file is one WAL image segment on its own (see
:mod:`repro.storage.wal`): the catalog and one frame holding every live
row.  The log's checkpoint writes the same image as its next segment
(:meth:`~repro.storage.db.Database.checkpoint`); these two functions
write and read it as a file of its own, through the same writer and the
same scanner.
"""

from __future__ import annotations

from .db import Database
from .errors import TransactionError
from .wal import read_image, write_image

__all__ = ["save_snapshot", "load_snapshot"]


def save_snapshot(db: Database, path: str, *, faults=None) -> int:
    """Write an image of ``db`` to ``path``; returns its size in bytes.

    The image is written to a temp file, fsynced and renamed into place
    (the directory fsynced after), so a crash at any point leaves what
    was at ``path`` before, or the complete image.  A failed write
    raises ``StorageError`` and removes the temp file.
    """
    if db.in_transaction:
        raise TransactionError("cannot snapshot with an open transaction")
    return write_image(path, db.tables, 1, faults=faults)


def load_snapshot(path: str, name: str = "db") -> Database:
    """Rebuild a database from the image file at ``path``.  Any damage
    raises a typed ``StorageError`` naming the site, before a database
    is returned."""
    catalog, frames = read_image(path)
    db = Database(name)
    for schema in catalog.values():
        db.create_table(schema)
    db._replay(frames)
    return db
