"""Tests for transactions, the write-ahead log, and crash recovery.

Also demonstrates the paper's Section 5 point: the WAL fully restores
committed *state*, but contains no copy/paste sources — the information
provenance records carry is simply not in the log.
"""

import os
import struct

import pytest

from repro.storage import (
    Column,
    ColumnType,
    Database,
    DuplicateKeyError,
    IndexSpec,
    TableSchema,
    TransactionError,
)
from repro.storage.expr import Cmp, Col, Const
from repro.storage.query import QueryEngine
from repro.storage.wal import (
    KIND_COMMIT,
    KIND_DELETE,
    KIND_INSERT,
    WalRecord,
    WriteAheadLog,
    coalesce_replay,
)


def schema():
    return TableSchema(
        "prov",
        [
            Column("tid", ColumnType.INT, nullable=False),
            Column("op", ColumnType.CHAR, nullable=False),
            Column("loc", ColumnType.TEXT, nullable=False),
            Column("src", ColumnType.TEXT),
        ],
        primary_key=("tid", "loc"),
    )


class TestTransactions:
    def test_commit_persists(self):
        db = Database("t")
        db.create_table(schema())
        db.begin()
        db.insert("prov", (1, "I", "T/a", None))
        db.commit()
        assert db.table("prov").row_count == 1

    def test_rollback_undoes_inserts(self):
        db = Database("t")
        db.create_table(schema())
        db.begin()
        db.insert("prov", (1, "I", "T/a", None))
        db.insert("prov", (2, "I", "T/b", None))
        db.rollback()
        assert db.table("prov").row_count == 0

    def test_rollback_undoes_deletes(self):
        db = Database("t")
        db.create_table(schema())
        db.insert("prov", (1, "I", "T/a", None))
        db.begin()
        QueryEngine(db).delete_where("prov")
        assert db.table("prov").row_count == 0
        db.rollback()
        assert db.table("prov").row_count == 1
        assert db.table("prov").lookup_pk((1, "T/a")) is not None

    def test_nested_begin_rejected(self):
        db = Database("t")
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()

    def test_commit_without_begin_rejected(self):
        db = Database("t")
        with pytest.raises(TransactionError):
            db.commit()

    def test_autocommit_rolls_back_failed_statement(self):
        db = Database("t")
        db.create_table(schema())
        db.insert("prov", (1, "I", "T/a", None))
        with pytest.raises(Exception):
            db.insert("prov", (1, "X", "T/a", None))  # bad op char
        assert not db.in_transaction

    def test_insert_many_is_statement_atomic_in_a_transaction(self, tmp_path):
        """A failing row takes the statement's earlier rows back out of
        the table, and none of them reaches the WAL: the transaction
        commits without them and recovery does not bring them back."""
        db = Database("t", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.insert("prov", (1, "I", "T/a", None))
        db.begin()
        with pytest.raises(DuplicateKeyError):
            db.insert_many("prov", [(2, "I", "T/b", None), (1, "I", "T/a", None)])
        assert db.table("prov").row_count == 1
        db.insert("prov", (3, "I", "T/c", None))
        db.commit()
        db.crash()
        db.recover()
        rows = sorted(row for _rid, row in db.table("prov").scan())
        assert rows == [(1, "I", "T/a", None), (3, "I", "T/c", None)]


class TestWAL:
    def test_record_roundtrip(self, tmp_path):
        schemas = {"prov": schema()}
        log = WriteAheadLog(str(tmp_path / "w.wal"), schemas)
        log.append(WalRecord(KIND_INSERT, 5, "prov", (1, "C", "T/a", "S/a")))
        log.append(WalRecord(KIND_COMMIT, 5))
        log.close()
        records = list(log.scan(mode="tolerant"))
        assert len(records) == 2
        assert records[0].row == (1, "C", "T/a", "S/a")
        assert records[1].kind_name == "COMMIT"

    def test_torn_tail_tolerated(self, tmp_path):
        schemas = {"prov": schema()}
        path = str(tmp_path / "w.wal")
        log = WriteAheadLog(path, schemas)
        log.append(WalRecord(KIND_INSERT, 1, "prov", (1, "I", "T/a", None)))
        log.close()
        [segment] = log.segment_paths()
        with open(segment, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00partial")  # truncated record
        assert len(list(log.scan(mode="tolerant"))) == 1

    def test_replay_skips_uncommitted(self, tmp_path):
        db = Database("t", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.begin()
        db.insert("prov", (1, "I", "T/a", None))
        db.commit()
        db.begin()
        db.insert("prov", (2, "I", "T/b", None))  # never committed
        db.crash()
        report = db.recover()
        assert report.txns_replayed == 1
        assert report.txns_dropped == 1
        assert db.table("prov").row_count == 1


class TestCrashRecovery:
    def test_recovery_restores_committed_state(self, tmp_path):
        db = Database("t", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.begin()
        db.insert("prov", (1, "C", "T/a", "S1/a"))
        db.insert("prov", (2, "I", "T/b", None))
        db.commit()
        db.begin()
        QueryEngine(db).delete_where("prov", None)  # delete all, but crash before commit
        db.crash()

        assert db.table("prov").row_count == 0  # memory gone
        assert db.recover().txns_replayed == 1
        assert db.table("prov").row_count == 2
        assert db.table("prov").lookup_pk((1, "T/a")) is not None

    def test_recovery_applies_committed_deletes(self, tmp_path):
        db = Database("t", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.insert("prov", (1, "I", "T/a", None))
        db.insert("prov", (2, "I", "T/b", None))
        db.begin()
        QueryEngine(db).delete_where("prov", None)
        db.commit()
        db.crash()
        db.recover()
        assert db.table("prov").row_count == 0

    def test_recovery_requires_wal(self):
        db = Database("t")
        with pytest.raises(TransactionError):
            db.recover()

    def test_recovery_applies_committed_updates(self, tmp_path):
        """UPDATE is logged as DELETE(old)+INSERT(new); replay must land
        on the new row via the pk point lookup."""
        db = Database("t", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.insert("prov", (1, "I", "T/a", None))
        db.begin()
        QueryEngine(db).update_where("prov", {"op": "C", "src": "S/a"})
        db.commit()
        db.crash()
        db.recover()
        found = db.table("prov").lookup_pk((1, "T/a"))
        assert found is not None and found[1] == (1, "C", "T/a", "S/a")

    def test_log_lacks_provenance_information(self, tmp_path):
        """Section 5: a transaction log records *what rows changed*, not
        where copied data came from.  After recovery, the only way to
        know T/a was copied from S1/a is the provenance row itself —
        the WAL records carry no cross-database source field."""
        db = Database("t", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.begin()
        db.insert("prov", (1, "C", "T/a", "S1/a"))
        db.commit()
        kinds = {record.kind_name for record in db._wal.scan(mode="tolerant")}
        assert kinds == {"BEGIN", "INSERT", "COMMIT"}
        # WAL rows are opaque tuples tied to tables; no update semantics
        for record in db._wal.scan(mode="tolerant"):
            assert not hasattr(record, "copy_source")


class TestCoalescedReplay:
    """Recovery groups committed inserts into per-table bulk runs; the
    grouping must preserve per-table operation order exactly."""

    def test_coalesce_groups_across_transactions(self):
        records = [
            WalRecord(KIND_INSERT, 1, "a", (1,)),
            WalRecord(KIND_INSERT, 1, "b", (10,)),
            WalRecord(KIND_INSERT, 2, "a", (2,)),
            WalRecord(KIND_DELETE, 2, "a", (1,)),
            WalRecord(KIND_INSERT, 2, "a", (3,)),
        ]
        ops = list(coalesce_replay(records))
        # the delete flushes table a's pending run but leaves b's alone;
        # b's run (buffered first) flushes ahead of a's re-opened run at
        # the end — only per-table order is guaranteed
        assert ops == [
            ("bulk_insert", "a", [(1,), (2,)]),
            ("delete", "a", (1,)),
            ("bulk_insert", "b", [(10,)]),
            ("bulk_insert", "a", [(3,)]),
        ]

    def test_recovery_with_pk_reinsert_cycle(self, tmp_path):
        """insert → delete → re-insert of one primary key must replay in
        order: a naive global grouping would see a duplicate key."""
        db = Database("cycle", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.insert("prov", (1, "I", "T/a", None))
        db.insert("prov", (2, "I", "T/b", None))
        QueryEngine(db).delete_where("prov", Cmp("=", Col("tid"), Const(1)))
        db.insert("prov", (1, "I", "T/a", "S1/x"))  # same pk, new content
        before = sorted(row for _rid, row in db.table("prov").scan())
        db.crash()
        assert db.table("prov").row_count == 0
        db.recover()
        table = db.table("prov")
        assert sorted(row for _rid, row in table.scan()) == before
        # indexes were rebuilt consistently: pk lookups see the new row
        found = table.lookup_pk((1, "T/a"))
        assert found is not None and found[1][3] == "S1/x"

    def test_recovery_bulk_builds_match_row_at_a_time_state(self, tmp_path):
        """A recovery made only of inserts coalesces into one bulk load
        per table; the resulting table must answer index scans exactly
        like the pre-crash (incrementally maintained) one."""
        db = Database("bulk", wal_dir=str(tmp_path))
        db.create_table(
            TableSchema(
                "ev",
                [
                    Column("k", ColumnType.INT, nullable=False),
                    Column("v", ColumnType.TEXT),
                ],
                primary_key=("k",),
                indexes=(IndexSpec("ev_k", ("k",), ordered=True),),
            )
        )
        rows = [(k, f"v{k}") for k in range(50)]
        db.begin()
        for row in rows[:30]:
            db.insert("ev", row)
        db.commit()
        db.begin()
        for row in rows[30:]:
            db.insert("ev", row)
        db.commit()
        window = [((10,), (20,), True, True)]
        before_scan = [
            row for _rid, row in db.table("ev").multi_range_scan("ev_k", window)
        ]
        db.crash()
        assert db.recover().txns_replayed == 2
        table = db.table("ev")
        # row ids restart after a crash (heap state is not logged), so
        # compare the streamed rows, which must match exactly
        after_scan = [row for _rid, row in table.multi_range_scan("ev_k", window)]
        assert after_scan == before_scan
        after_reverse = [
            row for _rid, row in table.multi_range_scan("ev_k", window, reverse=True)
        ]
        assert after_reverse == list(reversed(before_scan))
        assert sorted(row for _rid, row in table.scan()) == rows


class TestCrashPointMatrix:
    """Replay truncated logs at every record boundary (and torn
    mid-record points) around insert/update/delete operations: recovery
    must always reproduce exactly the state as of the last COMMIT record
    that survived the truncation — never a partial transaction."""

    def _run_workload(self, wal_dir):
        """A workload exercising all three logged mutation shapes.

        Returns ``(wal_path, states)`` where ``states[k]`` is the sorted
        committed row set after the k-th COMMIT record (``states[0]`` is
        the empty pre-commit state).  An aborted and a dangling open
        transaction are interleaved so truncation points landing inside
        them must fall back to the previous committed state.
        """
        db = Database("m", wal_dir=wal_dir)
        db.create_table(schema())
        states = [[]]

        def snapshot():
            states.append(sorted(row for _rid, row in db.table("prov").scan()))

        # txn 1: plain inserts
        db.begin()
        db.insert("prov", (1, "I", "T/a", None))
        db.insert("prov", (2, "I", "T/b", None))
        db.insert("prov", (3, "C", "T/c", "S/c"))
        db.commit()
        snapshot()
        # txn 2: a delete and an insert in one transaction
        db.begin()
        QueryEngine(db).delete_where("prov", Cmp("=", Col("tid"), Const(2)))
        db.insert("prov", (4, "I", "T/d", None))
        db.commit()
        snapshot()
        # txn 3: an update (logged as DELETE old + INSERT new)
        db.begin()
        QueryEngine(db).update_where("prov", {"op": "D", "src": None}, Cmp("=", Col("tid"), Const(1)))
        db.commit()
        snapshot()
        # txn 4: aborted — must never replay regardless of truncation
        db.begin()
        db.insert("prov", (5, "I", "T/e", None))
        db.rollback()
        # txn 5: committed after the abort
        db.begin()
        db.insert("prov", (6, "C", "T/f", "S/f"))
        db.commit()
        snapshot()
        # txn 6: left open at the crash — never replayed
        db.begin()
        db.insert("prov", (7, "I", "T/g", None))
        db.crash()
        [segment] = db._wal.segment_paths()
        return segment, states

    def _record_ends(self, data):
        """Byte offsets just past each v2 record, with the record kind.

        Offsets are absolute within the segment file: a 16-byte segment
        header, then records framed as u32 length + u32 crc + u64 lsn.
        """
        ends = []
        offset = 16  # past the segment header
        while offset + 16 <= len(data):
            (length,) = struct.unpack_from("<I", data, offset)
            if offset + 16 + length > len(data):
                break
            kind = data[offset + 16]
            offset += 16 + length
            ends.append((offset, kind))
        return ends

    def _recover_truncated(self, tmp_path, data, cut):
        target = tmp_path / f"cut_{cut}"
        target.mkdir()
        with open(target / "m.wal.000001", "wb") as handle:
            handle.write(data[:cut])
        db = Database("m", wal_dir=str(target))
        db.create_table(schema())
        replayed = db.recover().txns_replayed
        return replayed, sorted(row for _rid, row in db.table("prov").scan())

    def test_every_truncation_point_recovers_a_committed_prefix(self, tmp_path):
        wal_path, states = self._run_workload(str(tmp_path / "full"))
        with open(wal_path, "rb") as handle:
            data = handle.read()
        ends = self._record_ends(data)
        commit_ends = [end for end, kind in ends if kind == KIND_COMMIT]
        assert len(commit_ends) == len(states) - 1 == 4

        cuts = {0, len(data)}
        for end, _kind in ends:
            cuts.add(end)            # clean record boundary
            cuts.add(end - 1)        # torn tail inside this record
            cuts.add(min(end + 3, len(data)))  # torn length prefix
        for cut in sorted(cuts):
            committed = sum(1 for end in commit_ends if end <= cut)
            replayed, rows = self._recover_truncated(tmp_path, data, cut)
            assert replayed == committed, f"cut at byte {cut}"
            assert rows == states[committed], f"cut at byte {cut}"

    def test_truncation_inside_update_keeps_old_row(self, tmp_path):
        """A cut between the DELETE(old) and COMMIT of the update
        transaction must leave the pre-update row intact."""
        wal_path, states = self._run_workload(str(tmp_path / "full"))
        with open(wal_path, "rb") as handle:
            data = handle.read()
        ends = self._record_ends(data)
        commit_ends = [end for end, kind in ends if kind == KIND_COMMIT]
        # records of txn 3 sit between the 2nd and 3rd COMMIT: cut right
        # before its COMMIT record ends
        cut = commit_ends[2] - 1
        _replayed, rows = self._recover_truncated(tmp_path, data, cut)
        assert rows == states[2]
        assert (1, "D", "T/a", None) not in rows  # the update must not apply
        assert (1, "I", "T/a", None) in rows  # the pre-update row survives


class TestLiveReadThenAppend:
    """Regression: reading the log used to ``close()`` it to force a
    flush, silently killing the live append handle — the next append
    reopened the file and could race the reader.  Reads now go through
    independent handles."""

    def test_append_read_append(self, tmp_path):
        db = Database("w", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.insert("prov", (1, "I", "T/a", None))
        first = list(db._wal.scan(mode="tolerant"))
        assert len(first) == 3  # BEGIN, INSERT, COMMIT
        # the append handle must still be alive and writable
        db.insert("prov", (2, "I", "T/b", None))
        second = list(db._wal.scan(mode="tolerant"))
        assert [record.lsn for record in second] == [1, 2, 3, 4, 5, 6]
        db.crash()
        fresh = Database("w", wal_dir=str(tmp_path))
        fresh.create_table(schema())
        assert fresh.recover().txns_replayed == 2
        assert sorted(row for _rid, row in fresh.table("prov").scan()) == [
            (1, "I", "T/a", None),
            (2, "I", "T/b", None),
        ]


class TestCrashDuringConcurrency:
    """Crash points inside the MVCC commit protocol, with other
    transactions in flight.  MVCC transactions buffer their writes in
    workspaces and only touch the WAL during commit replay, so recovery
    must restore exactly the committed-transaction prefix: the crashed
    commit's partial records have no COMMIT and are dropped, and
    concurrent uncommitted transactions leave no trace at all."""

    def _setup(self, wal_dir):
        from repro.common.faults import FaultPlan
        from repro.storage.mvcc import MVCCManager

        plan = FaultPlan()
        db = Database("c", wal_dir=wal_dir, faults=plan)
        db.create_table(schema())
        mgr = MVCCManager(db)
        # txn 1: the committed prefix (two ops, replayed before the
        # crash point is armed)
        first = mgr.begin()
        first.insert("prov", (1, "I", "T/a", None))
        first.insert("prov", (2, "C", "T/b", "S/b"))
        first.commit()
        return db, mgr, plan

    def _recovered(self, wal_dir):
        db = Database("c", wal_dir=wal_dir)
        db.create_table(schema())
        report = db.recover()
        rows = sorted(row for _rid, row in db.table("prov").scan())
        return report, rows

    def _crash_commit(self, tmp_path, point):
        from repro.common.faults import SimulatedCrash

        wal_dir = str(tmp_path)
        db, mgr, plan = self._setup(wal_dir)
        committed_rows = sorted(row for _rid, row in db.table("prov").scan())

        # concurrent in-flight transactions: a writer that never commits
        # and a reader holding an old snapshot across the crash
        bystander = mgr.begin()
        bystander.insert("prov", (8, "I", "T/x", None))
        reader = mgr.begin()
        assert reader.get("prov", (1, "T/a")) is not None

        victim = mgr.begin()
        victim.insert("prov", (3, "I", "T/c", None))
        victim.update_where(
            "prov", {"op": "D", "src": None}, Cmp("=", Col("tid"), Const(1))
        )
        plan.crash_at(point)
        with pytest.raises(SimulatedCrash):
            victim.commit()
        db.crash()
        return committed_rows, wal_dir

    def test_crash_mid_commit_recovers_committed_prefix(self, tmp_path):
        committed_rows, wal_dir = self._crash_commit(tmp_path, "mvcc.commit.mid")
        report, rows = self._recovered(wal_dir)
        assert rows == committed_rows  # txn 1 exactly; no partial victim
        assert report.txns_replayed == 1
        assert report.txns_dropped == 1  # the victim's partial records
        assert report.corruption is None

    def test_crash_before_any_apply_recovers_cleanly(self, tmp_path):
        committed_rows, wal_dir = self._crash_commit(tmp_path, "mvcc.commit.begin")
        report, rows = self._recovered(wal_dir)
        assert rows == committed_rows
        assert report.txns_replayed == 1
        # only the victim's BEGIN made it to the log; still dropped whole
        assert report.txns_dropped == 1

    def test_crash_after_apply_before_commit_record_drops_txn(self, tmp_path):
        """Every op record of the victim is in the log, but its COMMIT is
        not — durability is the COMMIT record, so recovery drops it."""
        committed_rows, wal_dir = self._crash_commit(tmp_path, "mvcc.commit.apply")
        report, rows = self._recovered(wal_dir)
        assert rows == committed_rows
        assert report.txns_replayed == 1
        assert report.txns_dropped == 1

    def test_survivors_can_continue_after_failed_commit(self, tmp_path):
        """The crash aborts the victim, but in-process survivors (if the
        process lives on, e.g. an EIO rather than a kill) still operate:
        the reader's snapshot is intact and a retry commits."""
        from repro.common.faults import FaultPlan, SimulatedCrash
        from repro.storage.mvcc import MVCCManager

        plan = FaultPlan()
        db = Database("c", wal_dir=str(tmp_path), faults=plan)
        db.create_table(schema())
        mgr = MVCCManager(db)
        reader = mgr.begin()
        assert reader.get("prov", (9, "T/z")) is None

        victim = mgr.begin()
        victim.insert("prov", (9, "I", "T/z", None))
        victim.insert("prov", (10, "I", "T/y", None))
        plan.crash_at("mvcc.commit.mid")
        with pytest.raises(SimulatedCrash):
            victim.commit()
        # NOTE: a SimulatedCrash abandons the engine mid-replay; the
        # embedded db transaction is still open.  Survivors must roll it
        # back before continuing (the process-death path instead goes
        # through recover()).
        if db.in_transaction:
            db.rollback()
        assert victim.status == "active"  # died mid-commit, not aborted
        assert reader.get("prov", (9, "T/z")) is None  # snapshot intact

        retry = mgr.begin()
        retry.insert("prov", (9, "I", "T/z", None))
        retry.commit()
        assert db.table("prov").lookup_pk((9, "T/z")) is not None
