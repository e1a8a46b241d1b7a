"""Tests for database images: standalone snapshots and checkpoints.

A snapshot file and a checkpoint are the same thing, a WAL image
segment: the catalog and one frame holding every live row.

``REPRO_HYPOTHESIS_PROFILE=ci`` derandomizes the round-trip property,
so an image regression fails deterministically.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    Column,
    ColumnType,
    Database,
    SchemaError,
    StorageError,
    TableSchema,
)
from repro.storage.query import QueryEngine
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.sql import execute_sql

_PROFILES = {
    "default": {"max_examples": 25, "deadline": None},
    "ci": {"max_examples": 25, "deadline": None, "derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)


def populated_db():
    db = Database("d")
    engine = QueryEngine(db)
    execute_sql(engine, "CREATE TABLE prov (tid INT NOT NULL, op CHAR NOT NULL, "
                    "loc TEXT NOT NULL, src TEXT, PRIMARY KEY (tid, loc))")
    execute_sql(engine, "CREATE ORDERED INDEX prov_loc ON prov (loc)")
    execute_sql(engine, "INSERT INTO prov VALUES "
                    "(1, 'C', 'T/a', 'S/a'), (2, 'I', 'T/b', NULL), "
                    "(3, 'D', 'T/c', NULL)")
    execute_sql(engine, "CREATE TABLE meta (k TEXT NOT NULL, v REAL, b BOOL, "
                    "PRIMARY KEY (k))")
    execute_sql(engine, "INSERT INTO meta VALUES ('pi', 3.5, true), ('e', NULL, false)")
    return db


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        db = populated_db()
        path = str(tmp_path / "db.snap")
        size = save_snapshot(db, path)
        assert size == os.path.getsize(path)

        restored = load_snapshot(path)
        assert set(restored.tables) == {"prov", "meta"}
        assert restored.table("prov").row_count == 3
        assert restored.table("meta").lookup_pk(("pi",))[1] == ("pi", 3.5, True)

    def test_indexes_restored(self, tmp_path):
        db = populated_db()
        path = str(tmp_path / "db.snap")
        save_snapshot(db, path)
        restored = load_snapshot(path)
        rows = execute_sql(QueryEngine(restored), "SELECT loc FROM prov WHERE loc LIKE 'T/%'")
        assert len(rows) == 3
        # the pk-backed index enforces uniqueness again
        with pytest.raises(Exception):
            restored.insert("prov", (1, "I", "T/a", None))

    def test_sql_works_after_restore(self, tmp_path):
        db = populated_db()
        path = str(tmp_path / "db.snap")
        save_snapshot(db, path)
        restored = load_snapshot(path)
        rows = execute_sql(QueryEngine(restored),
                           "SELECT op, count(*) AS n FROM prov GROUP BY op ORDER BY op")
        assert [(row["op"], row["n"]) for row in rows] == [("C", 1), ("D", 1), ("I", 1)]

    def test_open_transaction_rejected(self, tmp_path):
        db = populated_db()
        db.begin()
        with pytest.raises(StorageError):
            save_snapshot(db, str(tmp_path / "x.snap"))

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(StorageError):
            load_snapshot(str(path))

    @settings(**_PROFILE)
    @given(st.lists(
        st.tuples(st.integers(0, 1000), st.text(max_size=8)),
        unique_by=lambda kv: kv[0], max_size=20,
    ))
    def test_roundtrip_random_rows(self, rows):
        import tempfile

        db = Database("d")
        db.create_table(TableSchema(
            "t",
            [Column("k", ColumnType.INT, nullable=False),
             Column("s", ColumnType.TEXT)],
            primary_key=("k",),
        ))
        for key, text in rows:
            db.insert("t", (key, text))
        path = os.path.join(tempfile.mkdtemp(), "t.snap")
        save_snapshot(db, path)
        restored = load_snapshot(path)
        assert (
            sorted(row for _r, row in restored.table("t").scan())
            == sorted(row for _r, row in db.table("t").scan())
        )


def wal_db(tmp_path):
    db = Database("d", wal_dir=str(tmp_path))
    db.create_table(TableSchema(
        "t", [Column("k", ColumnType.INT, nullable=False)], primary_key=("k",)
    ))
    return db


class TestCheckpoint:
    def test_checkpoint_truncates_wal(self, tmp_path):
        db = wal_db(tmp_path)
        db.insert("t", (1,))
        db.insert("t", (2,))
        assert len(list(db._wal.scan(mode="tolerant"))) == 2
        db.checkpoint()
        # the log is now the image alone: one frame holding both rows
        [image] = db._wal.segment_paths()
        [frame] = db._wal.scan(mode="tolerant")
        assert frame.txn_id == 0
        assert sorted(row for _kind, _table, row, _size in frame.ops) == [(1,), (2,)]
        # the standalone loader reads the same segment
        assert load_snapshot(image).table("t").row_count == 2

    def test_recovery_equals_snapshot_plus_log(self, tmp_path):
        db = wal_db(tmp_path)
        db.insert("t", (1,))
        db.checkpoint()
        db.insert("t", (2,))  # after the checkpoint: a frame after the image
        db.crash()

        # a fresh database: the image's catalog creates the table
        restored = Database("d", wal_dir=str(tmp_path))
        assert restored.recover().txns_replayed == 1
        assert {row[0] for _r, row in restored.table("t").scan()} == {1, 2}

    def test_open_transaction_rejected(self, tmp_path):
        db = wal_db(tmp_path)
        db.begin()
        with pytest.raises(StorageError):
            db.checkpoint()

    def test_conflicting_schema_rejected_before_anything_changes(self, tmp_path):
        db = wal_db(tmp_path)
        db.insert("t", (1,))
        db.checkpoint()
        db.crash()
        other = Database("d", wal_dir=str(tmp_path))
        other.create_table(TableSchema(
            "t", [Column("k", ColumnType.TEXT, nullable=False)], primary_key=("k",)
        ))
        with pytest.raises(SchemaError, match="differs"):
            other.recover()
        assert other.table("t").row_count == 0
        with pytest.raises(SchemaError):
            other.insert("t", ("x",))  # nor will it append under the image
