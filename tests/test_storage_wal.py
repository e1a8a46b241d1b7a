"""Tests for transactions, the write-ahead log, and crash recovery.

Also demonstrates the paper's Section 5 point: the WAL fully restores
committed *state*, but contains no copy/paste sources — the information
provenance records carry is simply not in the log.
"""

import gc
import os
import struct
import warnings

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
from repro.storage.errors import UnknownTableError, WALCorruptionError
from repro.storage.expr import Cmp, Col, Const
from repro.storage.query import QueryEngine
from repro.storage.wal import (
    KIND_DELETE,
    KIND_INSERT,
    WalFrame,
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


def stage(log, kind, row, table="prov"):
    """Stage one row operation the way ``Database`` does."""
    log.append((kind, table, schema().codec.encode(row)))


class TestWAL:
    def test_record_roundtrip(self, tmp_path):
        schemas = {"prov": schema()}
        log = WriteAheadLog(str(tmp_path / "w.wal"), schemas)
        stage(log, KIND_INSERT, (1, "C", "T/a", "S/a"))
        stage(log, KIND_DELETE, (2, "I", "T/b", None))
        assert log.flush(5) == 1
        assert log.flush(6) is None  # nothing staged: nothing written
        log.close()
        frames = list(log.scan(mode="tolerant"))
        assert frames == [
            WalFrame(1, 5, [
                # sizes: 4-byte prefix, INT 9, CHAR 2, TEXT 5 + len, NULL 1
                (KIND_INSERT, "prov", (1, "C", "T/a", "S/a"), 31),
                (KIND_DELETE, "prov", (2, "I", "T/b", None), 24),
            ])
        ]

    def test_torn_tail_tolerated(self, tmp_path):
        schemas = {"prov": schema()}
        path = str(tmp_path / "w.wal")
        log = WriteAheadLog(path, schemas)
        stage(log, KIND_INSERT, (1, "I", "T/a", None))
        log.flush(1)
        log.close()
        [segment] = log.segment_paths()
        with open(segment, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00partial")  # truncated frame
        assert len(list(log.scan(mode="tolerant"))) == 1

    def test_discarded_ops_never_reach_the_log(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "w.wal"), {"prov": schema()})
        stage(log, KIND_INSERT, (1, "I", "T/a", None))
        log.discard()
        stage(log, KIND_INSERT, (2, "I", "T/b", None))
        log.flush(2)
        [frame] = log.scan()
        assert [op[2] for op in frame.ops] == [(2, "I", "T/b", None)]
        log.close()

    def test_crash_leaves_the_segment_as_of_the_last_commit(self, tmp_path):
        """A crash with staged rows writes none of them: the segment
        ends at the last sealed frame, and recovery drops nothing."""
        db = Database("t", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.insert("prov", (1, "I", "T/a", None))
        [segment] = db._wal.segment_paths()
        committed_size = os.path.getsize(segment)
        db.begin()
        db.insert("prov", (2, "I", "T/b", None))
        db.insert("prov", (3, "I", "T/c", None))
        db.crash()
        assert os.path.getsize(segment) == committed_size
        report = db.recover()
        assert report.txns_replayed == 1
        assert report.txns_dropped == 0
        assert report.torn_tail_bytes == 0
        assert sorted(row for _rid, row in db.table("prov").scan()) == [
            (1, "I", "T/a", None)
        ]

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
        # the open transaction's rows were staged, never written
        assert report.txns_dropped == 0
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
        the WAL frames carry no cross-database source field."""
        db = Database("t", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.begin()
        db.insert("prov", (1, "C", "T/a", "S1/a"))
        db.commit()
        [frame] = db._wal.scan(mode="tolerant")
        # WAL rows are opaque tuples tied to tables; no update semantics
        assert [(kind, table) for kind, table, _row, _size in frame.ops] == [
            (KIND_INSERT, "prov")
        ]
        assert not hasattr(frame, "copy_source")
        db.close()

    def test_closed_database_leaks_no_handle_and_reopens(self, tmp_path):
        """``close()`` releases the WAL's append handle: dropping a
        committed-then-closed database raises no ``ResourceWarning``
        (dropping an unclosed one does), and it reopens with every row."""
        rows = [(tid, "I", f"T/{tid}", None) for tid in range(1, 6)]

        def commit_rows(name, close):
            db = Database(name, wal_dir=str(tmp_path))
            db.create_table(schema())
            db.begin()
            for row in rows:
                db.insert("prov", row)
            db.commit()
            if close:
                db.close()

        def resource_warnings(name, close):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                commit_rows(name, close)
                gc.collect()
            return [w for w in caught if issubclass(w.category, ResourceWarning)]

        assert resource_warnings("leaky", close=False)
        assert resource_warnings("t", close=True) == []
        reopened = Database("t", wal_dir=str(tmp_path))
        reopened.create_table(schema())
        report = reopened.recover()
        assert (report.txns_replayed, report.txns_dropped) == (1, 0)
        assert sorted(row for _rid, row in reopened.table("prov").scan()) == rows
        reopened.close()


class TestCoalescedReplay:
    """Recovery groups committed inserts into per-table bulk runs; the
    grouping must preserve per-table operation order exactly."""

    def test_coalesce_groups_across_transactions(self):
        frames = [
            WalFrame(1, 1, [
                (KIND_INSERT, "a", (1,), 13),
                (KIND_INSERT, "b", (10,), 13),
            ]),
            WalFrame(2, 2, [
                (KIND_INSERT, "a", (2,), 13),
                (KIND_DELETE, "a", (1,), 13),
                (KIND_INSERT, "a", (3,), 13),
            ]),
        ]
        ops = list(coalesce_replay(frames))
        # the delete flushes table a's pending run but leaves b's alone;
        # b's run (buffered first) flushes ahead of a's re-opened run at
        # the end — only per-table order is guaranteed.  A run carries
        # its rows' total encoded size.
        assert ops == [
            ("bulk_insert", "a", [(1,), (2,)], 26),
            ("delete", "a", (1,), 13),
            ("bulk_insert", "b", [(10,)], 13),
            ("bulk_insert", "a", [(3,)], 13),
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
    """Replay truncated logs at every frame boundary (and torn
    mid-frame points) around insert/update/delete operations: recovery
    must always reproduce exactly the state as of the last frame that
    survived the truncation — never a partial transaction."""

    def _run_workload(self, wal_dir):
        """A workload exercising all three logged mutation shapes.

        Returns ``(wal_path, states)`` where ``states[k]`` is the sorted
        committed row set after the k-th commit (``states[0]`` is the
        empty pre-commit state).  An aborted and a dangling open
        transaction are interleaved; neither may leave a frame.
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

    def _frame_ends(self, data):
        """Byte offsets just past each frame.

        Offsets are absolute within the segment file: a 16-byte segment
        header, then frames headed by u32 ops length + u32 crc + u64 lsn
        + u64 txn id.
        """
        ends = []
        offset = 16  # past the segment header
        while offset + 24 <= len(data):
            (length,) = struct.unpack_from("<I", data, offset)
            if offset + 24 + length > len(data):
                break
            offset += 24 + length
            ends.append(offset)
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
        commit_ends = self._frame_ends(data)
        assert len(commit_ends) == len(states) - 1 == 4
        assert commit_ends[-1] == len(data)  # nothing but the frames

        cuts = {0, len(data)}
        for end in [16] + commit_ends:
            cuts.add(end)            # clean frame boundary
            cuts.add(end - 1)        # torn tail inside this frame
            cuts.add(min(end + 3, len(data)))  # torn length prefix
        for cut in sorted(cuts):
            committed = sum(1 for end in commit_ends if end <= cut)
            replayed, rows = self._recover_truncated(tmp_path, data, cut)
            assert replayed == committed, f"cut at byte {cut}"
            assert rows == states[committed], f"cut at byte {cut}"

    def test_truncation_inside_update_keeps_old_row(self, tmp_path):
        """A cut inside the update transaction's frame, between its
        DELETE(old) and INSERT(new) ops, must leave the pre-update row
        intact."""
        wal_path, states = self._run_workload(str(tmp_path / "full"))
        with open(wal_path, "rb") as handle:
            data = handle.read()
        commit_ends = self._frame_ends(data)
        # txn 3's frame is the third: cut in the middle of its ops
        cut = (commit_ends[1] + commit_ends[2]) // 2
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
        assert len(first) == 1  # one frame per committed transaction
        # the append handle must still be alive and writable
        db.insert("prov", (2, "I", "T/b", None))
        second = list(db._wal.scan(mode="tolerant"))
        assert [frame.lsn for frame in second] == [1, 2]
        db.crash()
        fresh = Database("w", wal_dir=str(tmp_path))
        fresh.create_table(schema())
        assert fresh.recover().txns_replayed == 2
        assert sorted(row for _rid, row in fresh.table("prov").scan()) == [
            (1, "I", "T/a", None),
            (2, "I", "T/b", None),
        ]


def _count_decodes(monkeypatch, codec):
    """Count the rows ``codec`` decodes from now on."""
    calls = []
    decode = codec.decode

    def counting(data, offset=0):
        calls.append(offset)
        return decode(data, offset)

    monkeypatch.setattr(codec, "decode", counting)
    return calls


class TestAppendAfterRecovery:
    """Recovery hands the appender where the final segment's verifiable
    content ends, so the first commit after a restart does not scan it
    again; a torn tail is still cut off before the next frame and a
    corrupt segment still refused."""

    def _crashed(self, tmp_path, image=True):
        db = Database("w", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.insert_many("prov", [(tid, "I", f"T/c{tid}", None) for tid in range(50)])
        if image:
            db.checkpoint()  # the final segment is now the image
        db.insert("prov", (50, "C", "T/c50", "S/a"))
        db.crash()
        return db

    def _rows(self, tmp_path):
        fresh = Database("w", wal_dir=str(tmp_path))
        fresh.create_table(schema())
        report = fresh.recover()
        return report, sorted(row for _rowid, row in fresh.table("prov").scan())

    @pytest.mark.parametrize("image", [True, False])
    def test_first_commit_after_recovery_decodes_no_row(self, tmp_path, monkeypatch, image):
        self._crashed(tmp_path, image)
        fresh = Database("w", wal_dir=str(tmp_path))
        if not image:
            fresh.create_table(schema())
        fresh.recover()
        decoded = _count_decodes(monkeypatch, fresh.table("prov").schema.codec)
        fresh.insert("prov", (51, "I", "T/c51", None))
        assert decoded == []
        assert fresh._wal.last_lsn() == (4 if image else 3)
        fresh.crash()
        report, rows = self._rows(tmp_path)
        assert report.txns_dropped == 0 and report.corruption is None
        assert len(rows) == 52 and rows[-1] == (51, "I", "T/c51", None)

    def test_torn_tail_is_truncated_before_the_next_frame(self, tmp_path):
        self._crashed(tmp_path)
        [segment] = Database("w", wal_dir=str(tmp_path))._wal.segment_paths()
        with open(segment, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00partial")  # a torn frame
        fresh = Database("w", wal_dir=str(tmp_path))
        assert fresh.recover().torn_tail_bytes == 11
        fresh.insert("prov", (51, "I", "T/c51", None))
        fresh.crash()
        report, rows = self._rows(tmp_path)
        assert report.torn_tail_bytes == 0 and report.corruption is None
        assert len(rows) == 52

    def test_corrupt_segment_is_still_refused(self, tmp_path):
        self._crashed(tmp_path, image=False)
        [segment] = Database("w", wal_dir=str(tmp_path))._wal.segment_paths()
        size = os.path.getsize(segment)
        with open(segment, "r+b") as handle:
            handle.seek(size - 3)  # inside the last frame's ops
            byte = handle.read(1)
            handle.seek(size - 3)
            handle.write(bytes([byte[0] ^ 0x01]))
        fresh = Database("w", wal_dir=str(tmp_path))
        fresh.create_table(schema())
        assert fresh.recover(mode="tolerant").corruption is not None
        with pytest.raises(WALCorruptionError, match="cannot append to a corrupt"):
            fresh.insert("prov", (51, "I", "T/c51", None))

    def test_a_segment_changed_since_recovery_is_scanned_again(self, tmp_path):
        self._crashed(tmp_path)
        fresh = Database("w", wal_dir=str(tmp_path))
        fresh.recover()
        [segment] = fresh._wal.segment_paths()
        with open(segment, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00partial")
        fresh.insert("prov", (51, "I", "T/c51", None))
        fresh.crash()
        report, rows = self._rows(tmp_path)
        assert report.torn_tail_bytes == 0 and len(rows) == 52


class TestUnknownTable:
    """A frame naming a table that no image catalog declares and that
    was not created before recovery is a missing schema, not damage:
    both modes raise the typed error before any table is touched."""

    @pytest.mark.parametrize("mode", ["strict", "tolerant"])
    def test_recovery_names_the_table_and_touches_nothing(self, tmp_path, mode):
        other = TableSchema("other", [Column("n", ColumnType.INT)])
        db = Database("w", wal_dir=str(tmp_path))
        db.create_table(other)
        db.create_table(schema())
        db.insert("other", (1,))
        db.insert("prov", (1, "I", "T/a", None))
        db.crash()
        fresh = Database("w", wal_dir=str(tmp_path))
        fresh.create_table(other)
        with pytest.raises(UnknownTableError, match="'prov', which no image catalog declares"):
            fresh.recover(mode=mode)
        assert fresh.table("other").row_count == 0
        assert set(fresh.tables) == {"other"}


class TestCrashDuringConcurrency:
    """Crash points inside the MVCC commit protocol, with other
    transactions in flight.  MVCC transactions buffer their writes in
    workspaces and only stage WAL ops during commit replay, so recovery
    must restore exactly the committed-transaction prefix: the crashed
    commit never sealed its frame, so nothing of it reaches the log, and
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
        assert report.txns_dropped == 0  # the victim's frame was never sealed
        assert report.corruption is None

    def test_crash_before_any_apply_recovers_cleanly(self, tmp_path):
        committed_rows, wal_dir = self._crash_commit(tmp_path, "mvcc.commit.begin")
        report, rows = self._recovered(wal_dir)
        assert rows == committed_rows
        assert report.txns_replayed == 1
        assert report.txns_dropped == 0  # nothing of the victim was staged

    def test_crash_after_apply_before_commit_record_drops_txn(self, tmp_path):
        """Every op of the victim is staged, but its frame is not sealed
        — durability is the sealed frame, so none of it is in the log."""
        committed_rows, wal_dir = self._crash_commit(tmp_path, "mvcc.commit.apply")
        report, rows = self._recovered(wal_dir)
        assert rows == committed_rows
        assert report.txns_replayed == 1
        assert report.txns_dropped == 0

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
        db.close()
