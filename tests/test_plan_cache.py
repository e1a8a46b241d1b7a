"""Phantom-PK regressions, planned-vs-naive answers, and prepared statements.

* the phantom-PK corruption fix (a failed insert must unwind *all*
  index state, so the primary key stays re-insertable) in autocommit,
  explicit-transaction, and crash-recovery variants;
* planned answers equal the naive plan's across mutations, index DDL,
  and a dropped and recreated table;
* prepared statements bind, validate, and run.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import ConstraintError, Database
from repro.storage.errors import SQLError
from repro.storage.expr import Cmp, Col, Const, InList
from repro.storage.query import Query, QueryEngine, TableRef
from repro.storage.schema import Column, IndexSpec, TableSchema
from repro.storage.sql import execute_sql
from repro.storage.types import ColumnType

# ``REPRO_HYPOTHESIS_PROFILE=ci`` derandomizes the properties here (same
# example budgets), so a storage-oracle regression fails deterministically.
_PROFILES = {
    "default": {},
    "ci": {"derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)


def _schema(*indexes: IndexSpec) -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("k", ColumnType.INT, nullable=False),
            Column("v", ColumnType.TEXT),
            Column("n", ColumnType.INT),
        ],
        primary_key=("k",),
        indexes=indexes,
    )


def _db(*indexes: IndexSpec, wal_dir: str | None = None) -> Database:
    db = Database("pc", wal_dir=wal_dir)
    db.create_table(_schema(*indexes))
    return db


ORDERED_V = IndexSpec("by_v", ("v",), ordered=True)


# ----------------------------------------------------------------------
# Phantom-PK corruption: failed inserts must unwind the pk index too
# ----------------------------------------------------------------------


class TestPhantomPKRegression:
    def test_autocommit_failed_insert_leaves_pk_reinsertable(self):
        db = _db(ORDERED_V)
        with pytest.raises(ConstraintError, match="ordered index"):
            db.insert("t", (1, None, 5))
        table = db.table("t")
        assert table.row_count == 0
        assert table.lookup_pk((1,)) is None  # no phantom pk entry
        db.insert("t", (1, "a", 5))  # the same key inserts cleanly
        assert table.row_count == 1

    def test_explicit_txn_failed_insert_leaves_pk_reinsertable(self):
        db = _db(ORDERED_V)
        db.begin()
        db.insert("t", (1, "a", 1))
        with pytest.raises(ConstraintError):
            db.insert("t", (2, None, 2))
        db.insert("t", (2, "b", 2))  # txn continues; key 2 still free
        db.commit()
        assert {row[0] for _rid, row in db.table("t").scan()} == {1, 2}

    def test_crash_recovery_after_failed_insert(self, tmp_path):
        db = _db(ORDERED_V, wal_dir=str(tmp_path))
        db.insert("t", (1, "a", 1))
        with pytest.raises(ConstraintError):
            db.insert("t", (2, None, 2))
        db.insert("t", (2, "b", 2))
        db.crash()
        db2 = _db(ORDERED_V, wal_dir=str(tmp_path))
        db2.recover()
        table = db2.table("t")
        assert {row[0] for _rid, row in table.scan()} == {1, 2}
        # the failed insert left nothing in the log or the indexes:
        # both keys delete and re-insert cleanly after recovery
        with pytest.raises(ConstraintError):
            db2.insert("t", (3, None, 3))
        db2.insert("t", (3, "c", 3))
        assert table.row_count == 3

    def test_wal_replay_into_ordered_index_raises_typed_error(self, tmp_path):
        # the row was legal when logged; the replay-time schema added an
        # ordered index over the nullable column.  bulk replay must fail
        # with the typed error *before* touching the table.
        db = _db(wal_dir=str(tmp_path))
        db.insert("t", (1, None, 1))
        db.crash()
        db2 = _db(ORDERED_V, wal_dir=str(tmp_path))
        with pytest.raises(ConstraintError, match="ordered index"):
            db2.recover()
        table = db2.table("t")
        assert table.row_count == 0
        assert table.lookup_pk((1,)) is None
        db2.insert("t", (1, "a", 1))  # no phantom: the key is free

    def test_bulk_insert_validates_before_mutating(self):
        db = _db(ORDERED_V)
        table = db.table("t")
        table.insert((1, "a", 1))
        with pytest.raises(ConstraintError, match="ordered index"):
            table.bulk_insert([(2, "b", 2), (3, None, 3)])
        assert {row[0] for _rid, row in table.scan()} == {1}
        table.bulk_insert([(2, "b", 2), (3, "c", 3)])
        assert table.row_count == 3

    def test_update_into_null_ordered_key_rejected(self):
        db = _db(ORDERED_V)
        table = db.table("t")
        rowid = table.insert((1, "a", 1))
        with pytest.raises(ConstraintError, match="ordered index"):
            table.update_row(rowid, {"v": None})
        assert table.get(rowid) == (1, "a", 1)
        table.update_row(rowid, {"v": "b"})  # table remains consistent


class TestCreateIndexFixes:
    def test_create_over_null_values_raises_typed_error(self):
        db = _db()
        table = db.table("t")
        table.insert((1, None, 1))
        with pytest.raises(ConstraintError, match="ordered index"):
            table.create_index(ORDERED_V)
        # no half-registered index left behind
        assert "by_v" not in table.index_specs
        table.insert((2, "b", 2))  # table fully usable

    def test_create_index_bumps_stats_version(self):
        db = _db()
        table = db.table("t")
        table.insert((1, "a", 1))
        before = table._version
        table.create_index(ORDERED_V)
        assert table._version > before


class TestStringTypeNames:
    def test_column_accepts_sql_type_spellings(self):
        assert Column("a", "INTEGER").type is ColumnType.INT
        assert Column("s", "VARCHAR").type is ColumnType.TEXT
        assert Column("t", "text").type is ColumnType.TEXT

    def test_string_typed_column_validates_defaults(self):
        from repro.storage.errors import SchemaError

        with pytest.raises(SchemaError):
            Column("a", "INTEGER", default="not-an-int")


# ----------------------------------------------------------------------
# Planned answers across mutations and DDL
# ----------------------------------------------------------------------


def _loaded_db() -> QueryEngine:
    db = Database("pc")
    db.create_table(_schema(ORDERED_V, IndexSpec("by_n", ("n",), ordered=True)))
    table = db.table("t")
    for i in range(60):
        table.insert((i, f"v{i % 10}", i % 7))
    return QueryEngine(db)


def _q(value: str) -> Query:
    return Query(TableRef("t"), where=Cmp("=", Col("v"), Const(value)))


class TestPlanCache:
    """Every query is planned afresh against the tables as they are now;
    these pin the answers across the changes a stale plan would miss."""

    def test_mutation_invalidates(self):
        db = _loaded_db()
        db.execute(_q("v3"))
        db.db.insert("t", (1000, "v3", 0))
        result = db.execute(_q("v3"))
        assert any(row["k"] == 1000 for row in result)

    def test_drop_and_recreate_table_does_not_serve_stale_plan(self):
        db = _loaded_db()
        db.execute(_q("v3"))
        db.drop_table("t")
        db.create_table(_schema(ORDERED_V))
        db.db.insert("t", (1, "v3", 1))
        # the fresh table starts at the same _version as the dropped
        # one; the plan must still be bound to the *new* Table object
        assert db.execute(_q("v3")) == [{"k": 1, "v": "v3", "n": 1}]

    def test_cached_results_match_naive_plan(self):
        db = _loaded_db()
        query = Query(
            TableRef("t"),
            where=InList(Col("n"), (1, 3, 5)),
            order_by=[(Col("k"), False)],
        )
        twice = (db.execute(query), db.execute(query))
        naive = list(db.plan(query, naive=True).execute())
        assert twice[0] == twice[1] == naive

    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        **_PROFILE,
    )
    def test_planned_matches_naive_under_dml_and_index_ddl(self, data) -> None:
        """Interleave queries with mutations and index DDL: the planned
        answer must always equal the naive plan's answer."""
        db = _loaded_db()
        next_key = 1000
        for _ in range(data.draw(st.integers(2, 6))):
            action = data.draw(st.integers(0, 3))
            if action == 0:
                db.db.insert("t", (next_key, f"v{next_key % 10}", next_key % 7))
                next_key += 1
            elif action == 1:
                db.delete_where("t", Cmp("=", Col("n"), Const(data.draw(st.integers(0, 6)))))
            elif action == 2 and "by_vn" not in db.table("t").index_specs:
                db.table("t").create_index(
                    IndexSpec("by_vn", ("v", "n"), ordered=True)
                )
            query = _q(f"v{data.draw(st.integers(0, 9))}")
            got = db.execute(query)
            want = list(db.plan(query, naive=True).execute())
            assert sorted(map(repr, got)) == sorted(map(repr, want))


# ----------------------------------------------------------------------
# Prepared statements
# ----------------------------------------------------------------------


class TestPreparedStatements:
    def _db(self) -> QueryEngine:
        db = QueryEngine(Database("ps"))
        execute_sql(db, "CREATE TABLE t (k INTEGER NOT NULL, v TEXT, PRIMARY KEY (k))")
        execute_sql(db, "CREATE ORDERED INDEX by_v ON t (v)")
        for i in range(30):
            execute_sql(db, f"INSERT INTO t VALUES ({i}, 'v{i}')")
        return db

    def test_select_binds_and_runs(self):
        db = self._db()
        stmt = db.prepare("SELECT k FROM t WHERE v = ?")
        assert stmt.param_count == 1
        assert stmt.execute(("v7",)) == [{"k": 7}]
        assert stmt.execute(("v9",)) == [{"k": 9}]

    def test_insert_update_delete_params(self):
        db = self._db()
        ins = db.prepare("INSERT INTO t (k, v) VALUES (?, ?)")
        assert ins.execute((100, "hundred")) == [{"affected": 1}]
        up = db.prepare("UPDATE t SET v = ? WHERE k = ?")
        assert up.execute(("century", 100)) == [{"affected": 1}]
        de = db.prepare("DELETE FROM t WHERE k = ?")
        assert de.execute((100,)) == [{"affected": 1}]
        assert db.prepare("SELECT v FROM t WHERE k = ?").execute((100,)) == []

    def test_in_between_like_params(self):
        db = self._db()
        inq = db.prepare("SELECT k FROM t WHERE v IN (?, ?)")
        assert sorted(r["k"] for r in inq.execute(("v1", "v2"))) == [1, 2]
        bt = db.prepare("SELECT k FROM t WHERE k BETWEEN ? AND ?")
        assert sorted(r["k"] for r in bt.execute((4, 6))) == [4, 5, 6]
        lk = db.prepare("SELECT k FROM t WHERE v LIKE ?")
        assert sorted(r["k"] for r in lk.execute(("v2%",)) ) == [2, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29]

    def test_like_pattern_validated_at_bind_time(self):
        db = self._db()
        lk = db.prepare("SELECT k FROM t WHERE v LIKE ?")
        with pytest.raises(SQLError, match="prefix"):
            lk.execute(("no-trailing-percent",))

    def test_join_residual_param(self):
        db = self._db()
        execute_sql(db, "CREATE TABLE s (k INTEGER NOT NULL, w INTEGER, PRIMARY KEY (k))")
        for i in range(10):
            execute_sql(db, f"INSERT INTO s VALUES ({i}, {i * 10})")
        stmt = db.prepare("SELECT a.k FROM t a JOIN s b ON a.k = b.k AND b.w > ?")
        assert sorted(r["k"] for r in stmt.execute((50,))) == [6, 7, 8, 9]
        assert sorted(r["k"] for r in stmt.execute((70,))) == [8, 9]

    def test_arity_mismatch_rejected(self):
        db = self._db()
        stmt = db.prepare("SELECT k FROM t WHERE v = ?")
        with pytest.raises(SQLError, match="parameter"):
            stmt.execute(())
        with pytest.raises(SQLError, match="parameter"):
            stmt.execute(("a", "b"))

    def test_raw_placeholder_rejected_outside_prepare(self):
        db = self._db()
        with pytest.raises(SQLError, match="prepared statements"):
            execute_sql(db, "SELECT k FROM t WHERE v = ?")

    def test_ddl_placeholders_rejected(self):
        db = self._db()
        with pytest.raises(SQLError, match="DDL"):
            db.prepare("CREATE TABLE u (a INTEGER DEFAULT ?)")

    def test_rebinding_does_not_mutate_the_template(self):
        db = self._db()
        stmt = db.prepare("SELECT k FROM t WHERE v = ?")
        assert stmt.execute(("v3",)) == [{"k": 3}]
        assert stmt.execute(("v4",)) == [{"k": 4}]
        assert stmt.execute(("v3",)) == [{"k": 3}]  # first binding intact
