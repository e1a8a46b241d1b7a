"""Deterministic anomaly schedules for the snapshot-isolation engine.

Each test is a hand-written interleaving pinning one boundary of the
isolation contract:

* **lost update** — two transactions read-modify-write the same row;
  the second committer MUST abort with ``WriteConflictError``;
* **write skew** — disjoint write sets guarded by overlapping reads;
  snapshot isolation ALLOWS it (this is precisely what separates SI
  from serializability), and the test documents that choice;
* **phantoms** — a snapshot's ``IndexRangeScan`` results (one range or
  a multi-range union) must not change when concurrent commits insert
  or delete rows inside the scanned ranges;
* **plan-cache staleness** — cached plans are bound to concrete
  ``Table`` objects, so a plan cached against one snapshot's shadow (or
  the live table) must never be served for another snapshot, and
  concurrent index DDL must invalidate mid-transaction.
"""

from __future__ import annotations

import pytest

from repro.storage import Database, WriteConflictError
from repro.storage.expr import Cmp, Col, Const, InList
from repro.storage.mvcc import MVCCManager
from repro.storage.plan import explain
from repro.storage.query import Query, QueryEngine, TableRef
from repro.storage.schema import Column, IndexSpec, TableSchema
from repro.storage.types import ColumnType

ORDERED_V = IndexSpec("by_v", ("v",), ordered=True)


def _eq(column, value):
    return Cmp("=", Col(column), Const(value))


def _db() -> Database:
    db = Database("anomalies")
    db.create_table(
        TableSchema(
            "t",
            (
                Column("k", ColumnType.INT, nullable=False),
                Column("v", ColumnType.INT, nullable=False),
                Column("n", ColumnType.INT),
            ),
            primary_key=("k",),
            indexes=(ORDERED_V,),
        )
    )
    for k in range(8):
        db.insert("t", (k, k * 10, 0))
    return db


# ----------------------------------------------------------------------
# Lost update: must abort
# ----------------------------------------------------------------------
class TestLostUpdate:
    def test_second_committer_aborts(self):
        db = _db()
        mgr = MVCCManager(db)
        a, b = mgr.begin(), mgr.begin()
        assert a.get("t", (3,))["v"] == 30
        assert b.get("t", (3,))["v"] == 30
        a.update_where("t", {"v": 31}, _eq("k", 3))
        b.update_where("t", {"v": 32}, _eq("k", 3))
        a.commit()
        with pytest.raises(WriteConflictError) as excinfo:
            b.commit()
        assert excinfo.value.table == "t"
        assert b.status == "aborted"
        # the first committer's value survives, not a mix
        assert db.table("t").lookup_pk((3,))[1][1] == 31

    def test_conflicting_delete_aborts(self):
        db = _db()
        mgr = MVCCManager(db)
        a, b = mgr.begin(), mgr.begin()
        a.delete_where("t", _eq("k", 5))
        b.update_where("t", {"v": 99}, _eq("k", 5))
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()
        assert db.table("t").lookup_pk((5,)) is None

    def test_retry_against_fresh_snapshot_succeeds(self):
        db = _db()
        mgr = MVCCManager(db)
        a, b = mgr.begin(), mgr.begin()
        a.update_where("t", {"v": 1}, _eq("k", 1))
        b.update_where("t", {"v": 2}, _eq("k", 1))
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()
        retry = mgr.begin()
        assert retry.get("t", (1,))["v"] == 1  # sees the winner
        retry.update_where("t", {"v": 2}, _eq("k", 1))
        retry.commit()
        assert db.table("t").lookup_pk((1,))[1][1] == 2

    def test_insert_insert_pk_race_aborts_second(self):
        db = _db()
        mgr = MVCCManager(db)
        a, b = mgr.begin(), mgr.begin()
        a.insert("t", (100, 1, 0))
        b.insert("t", (100, 2, 0))
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()
        assert db.table("t").lookup_pk((100,))[1][1] == 1


# ----------------------------------------------------------------------
# Write skew: allowed under SI — documented, not fixed
# ----------------------------------------------------------------------
class TestWriteSkewAllowed:
    def test_disjoint_writes_with_overlapping_reads_both_commit(self):
        """The canonical on-call anomaly.  Rows 6 and 7 have ``n=1``
        ("on call"); each transaction checks that *both* are on call,
        then takes a different one off.  Under serializability one of
        them would abort; under snapshot isolation BOTH commit and the
        application invariant ("someone is on call") breaks.  This is
        the documented price of first-committer-wins over write sets
        (write sets here are disjoint: rowids 7 and 8).  Applications
        needing the guard must materialize the conflict — e.g. touch a
        shared row in both transactions."""
        db = _db()
        mgr = MVCCManager(db)
        setup = mgr.begin()
        setup.update_where("t", {"n": 1}, _eq("k", 6))
        setup.update_where("t", {"n": 1}, _eq("k", 7))
        setup.commit()

        a, b = mgr.begin(), mgr.begin()
        assert a.get("t", (6,))["n"] == 1 and a.get("t", (7,))["n"] == 1
        assert b.get("t", (6,))["n"] == 1 and b.get("t", (7,))["n"] == 1
        a.update_where("t", {"n": 0}, _eq("k", 6))
        b.update_where("t", {"n": 0}, _eq("k", 7))
        a.commit()
        b.commit()  # no conflict: disjoint write sets — SI permits this
        table = db.table("t")
        assert table.lookup_pk((6,))[1][2] == 0
        assert table.lookup_pk((7,))[1][2] == 0  # invariant broken, by design

    def test_materialized_conflict_restores_the_guard(self):
        """Touching a shared row converts write skew into a detectable
        write-write conflict — the standard SI idiom."""
        db = _db()
        mgr = MVCCManager(db)
        a, b = mgr.begin(), mgr.begin()
        a.update_where("t", {"n": 7}, _eq("k", 6))
        a.update_where("t", {"v": 0}, _eq("k", 0))  # the guard row
        b.update_where("t", {"n": 7}, _eq("k", 7))
        b.update_where("t", {"v": 0}, _eq("k", 0))  # the guard row
        a.commit()
        with pytest.raises(WriteConflictError):
            b.commit()


# ----------------------------------------------------------------------
# Phantoms: snapshot-stable index scans
# ----------------------------------------------------------------------
class TestPhantoms:
    RANGE_QUERY = Query(
        TableRef("t"),
        where=Cmp(">=", Col("v"), Const(20)),
        order_by=[(Col("v"), False)],
    )
    IN_QUERY = Query(
        TableRef("t"),
        where=InList(Col("v"), (10, 30, 50, 1000)),
        order_by=[(Col("v"), False)],
    )

    def test_range_scan_sees_no_phantom_inserts(self):
        db = _db()
        mgr = MVCCManager(db)
        reader = mgr.begin()
        plan = reader.plan(self.RANGE_QUERY)
        assert "IndexRangeScan" in explain(plan)
        before = reader.execute(self.RANGE_QUERY)

        writer = mgr.begin()
        writer.insert("t", (50, 25, 0))  # lands inside the scanned range
        writer.delete_where("t", _eq("k", 4))  # v=40 leaves the range
        writer.commit()

        again = reader.execute(self.RANGE_QUERY)
        assert again == before  # no phantom, no vanished row
        assert "IndexRangeScan" in explain(reader.plan(self.RANGE_QUERY))

        fresh = mgr.begin()
        after = fresh.execute(self.RANGE_QUERY)
        assert {row["v"] for row in after} == (
            {row["v"] for row in before} | {25}
        ) - {40}

    def test_multi_range_scan_sees_no_phantom_inserts(self):
        db = _db()
        mgr = MVCCManager(db)
        reader = mgr.begin()
        plan = reader.plan(self.IN_QUERY)
        assert "IndexRangeScan" in explain(plan) and " ∪ " in explain(plan)
        before = reader.execute(self.IN_QUERY)
        assert {row["v"] for row in before} == {10, 30, 50}

        writer = mgr.begin()
        writer.insert("t", (60, 1000, 0))  # matches the IN list
        writer.update_where("t", {"v": 11}, _eq("k", 3))  # 30 leaves it
        writer.commit()

        assert reader.execute(self.IN_QUERY) == before
        fresh = mgr.begin()
        assert {row["v"] for row in fresh.execute(self.IN_QUERY)} == {10, 50, 1000}

    def test_snapshot_scan_uses_rebuilt_index_on_shadow(self):
        """The shadow materialized for an old snapshot carries its own
        rebuilt ordered index — range scans over it are still index
        scans, and they scan *historical* keys."""
        db = _db()
        mgr = MVCCManager(db)
        reader = mgr.begin()
        writer = mgr.begin()
        writer.update_where("t", {"v": 999}, _eq("k", 2))
        writer.commit()
        plan = reader.plan(self.RANGE_QUERY)
        assert "IndexRangeScan" in explain(plan)
        values = [row["v"] for row in reader.execute(self.RANGE_QUERY)]
        assert values == [20, 30, 40, 50, 60, 70]  # v=20 still present


# ----------------------------------------------------------------------
# Plan-cache staleness across snapshots and concurrent DDL
# ----------------------------------------------------------------------
class TestPlanCacheStaleness:
    QUERY = Query(TableRef("t"), where=Cmp(">=", Col("v"), Const(20)))

    def test_plan_cached_per_snapshot_never_aliases(self):
        """A plan is bound to concrete Table objects.  After a commit,
        an old snapshot reads through a shadow while a fresh one reads
        the live table; equal (shape, literals) MUST NOT share the
        cached plan across them — that would silently read the wrong
        table version."""
        db = _db()
        mgr = MVCCManager(db)
        reader = mgr.begin()
        old_rows = reader.execute(self.QUERY)

        writer = mgr.begin()
        writer.update_where("t", {"v": 21}, _eq("k", 3))
        writer.commit()

        fresh = mgr.begin()
        new_rows = fresh.execute(self.QUERY)
        assert {r["v"] for r in new_rows} == ({r["v"] for r in old_rows} | {21}) - {30}
        # and the old snapshot still gets its own answer afterwards
        assert reader.execute(self.QUERY) == old_rows

    def test_repeat_execution_in_one_snapshot_hits_cache(self):
        db = _db()
        mgr = MVCCManager(db)
        reader = mgr.begin()
        first = reader.execute(self.QUERY)
        assert reader.execute(self.QUERY) == first
        assert mgr.engine.plan_cache.last_lookup == "hit"

    def test_concurrent_index_ddl_invalidates_mid_transaction(self):
        """Index DDL on the live table while a transaction has a cached
        plan: the epoch must move (version + index fingerprint), the
        plan must be rebuilt, and results must be unchanged."""
        db = _db()
        mgr = MVCCManager(db)
        reader = mgr.begin()
        first = reader.execute(self.QUERY)
        assert reader.execute(self.QUERY) == first
        assert mgr.engine.plan_cache.last_lookup == "hit"

        db.table("t").create_index(IndexSpec("by_n", ("n",), ordered=True))

        assert reader.execute(self.QUERY) == first
        assert mgr.engine.plan_cache.last_lookup != "hit"  # epoch moved, replanned

    def test_drop_and_recreate_table_does_not_serve_stale_plan(self):
        db = _db()
        mgr = MVCCManager(db)
        scratch = mgr.begin()
        first = scratch.execute(self.QUERY)
        assert len(first) == 6
        scratch.commit()

        db.drop_table("t")
        db.create_table(
            TableSchema(
                "t",
                (
                    Column("k", ColumnType.INT, nullable=False),
                    Column("v", ColumnType.INT),
                    Column("n", ColumnType.INT),
                ),
                primary_key=("k",),
                indexes=(IndexSpec("by_v2", ("v",), ordered=True),),
            )
        )
        db.insert("t", (1, 20, 0))
        fresh = mgr.begin()
        rows = fresh.execute(self.QUERY)
        assert [row["v"] for row in rows] == [20]


# ----------------------------------------------------------------------
# Torn-read-safe statistics (seqlock retry)
# ----------------------------------------------------------------------
class TestTornReadSafeStats:
    def test_stats_snapshot_retries_across_concurrent_insert(self):
        """``_torn_read_hook`` fires between reading the row count and
        the byte size — exactly the window a cooperative reschedule (or
        a true concurrent writer) would hit.  The seqlock must detect
        the interleaved mutation and retry, returning a consistent
        pair."""
        db = _db()
        table = db.table("t")
        table._torn_read_hook = lambda: db.insert("t", (999, 9990, 0))
        snap = table.stats_snapshot()
        assert snap["rows"] == len(table._rows) == 9
        assert snap["bytes"] == table._byte_size

    def test_stats_snapshot_retries_across_concurrent_delete(self):
        db = _db()
        table = db.table("t")
        rowid = table.lookup_pk((7,))[0]
        table._torn_read_hook = lambda: db.delete_rowids("t", [rowid])
        snap = table.stats_snapshot()
        assert snap["rows"] == len(table._rows) == 7
        assert snap["bytes"] == table._byte_size

    def test_database_stats_uses_snapshots(self):
        db = _db()
        table = db.table("t")
        stats = QueryEngine(db).stats()
        assert stats["t"] == {"rows": 8, "bytes": table._byte_size}
        assert "plan_cache" in stats

    def test_counters_snapshot_is_detached(self):
        db = _db()
        table = db.table("t")
        list(table.scan())
        counters = table.counters_snapshot()
        counters["access"]["scan"] = -1
        assert table.access_counts["scan"] != -1
