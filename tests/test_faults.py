"""Fault-injected durability tests.

Every durability claim the storage layer makes is exercised against an
actual injected fault: torn writes, bit flips, short writes, EIO, and
crashes at every named point of the checkpoint protocol (an image
segment published, then the log truncated in front of it).  The invariant
under test, everywhere: a fault ends in either **full recovery of the
committed prefix** or a **typed error naming the corruption site** —
never silent loss of a committed-and-flushed transaction, and never a
raw ``struct.error``/``IndexError`` escaping the storage layer.

The hypothesis fault matrix is profile-driven like the planner's
differential tests: ``REPRO_HYPOTHESIS_PROFILE=ci`` runs the fixed,
derandomized CI budget.
"""

from __future__ import annotations

import io
import os
import shutil
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import CostModel, VirtualClock
from repro.common.faults import NO_FAULTS, FaultPlan, SimulatedCrash
from repro.storage import (
    Column,
    ColumnType,
    Database,
    StorageError,
    TableSchema,
    TransactionError,
    TransientNetworkError,
    WALCorruptionError,
    WALError,
)
from repro.storage.client import Client, FlakyTransport, LocalTransport, RetryPolicy
from repro.storage.server import DatabaseServer
from repro.storage.snapshot import load_snapshot, save_snapshot

_PROFILES = {
    "default": {"max_examples": 60, "deadline": None},
    "ci": {"max_examples": 150, "deadline": None, "derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)


def schema():
    return TableSchema(
        "t",
        [
            Column("id", ColumnType.INT, nullable=False),
            Column("v", ColumnType.TEXT),
        ],
        primary_key=("id",),
    )


# ----------------------------------------------------------------------
# The one checksum
# ----------------------------------------------------------------------


class TestChecksum:
    def test_unknown_algorithm_rejected(self, tmp_path):
        """Segments are sealed with zlib's CRC-32 (algorithm id 0); a
        segment naming any other algorithm is refused with a typed error
        naming the header byte, by recovery and by the appender."""
        segment, data = _build_log(tmp_path)
        with open(segment, "r+b") as handle:
            handle.seek(5)
            handle.write(b"\x01")
        db = _fresh_db(tmp_path)
        with pytest.raises(WALCorruptionError, match="unknown checksum algorithm id 1") as info:
            db.recover(mode="strict")
        assert info.value.offset == 5
        with pytest.raises(WALCorruptionError):
            db.insert("t", (9, "z"))


# ----------------------------------------------------------------------
# The fault plan itself
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_tear_write_keeps_prefix_then_crashes(self):
        buffer = io.BytesIO()
        plan = FaultPlan().tear_write(on_write=2, keep_bytes=3)
        handle = plan.wrap(buffer, "b")
        handle.write(b"aaaa")
        with pytest.raises(SimulatedCrash):
            handle.write(b"bbbbbb")
        assert buffer.getvalue() == b"aaaa" + b"bbb"
        assert plan.fired == ["tear@b+3"]

    def test_short_write_lies_about_length(self):
        buffer = io.BytesIO()
        plan = FaultPlan().short_write(on_write=1, drop_bytes=2)
        handle = plan.wrap(buffer, "b")
        assert handle.write(b"abcdef") == 6  # the unchecked lie
        assert buffer.getvalue() == b"abcd"

    def test_flip_bit(self):
        buffer = io.BytesIO()
        plan = FaultPlan().flip_bit(on_write=1, byte=1, bit=0)
        plan.wrap(buffer, "b").write(b"\x00\x00\x00")
        assert buffer.getvalue() == b"\x00\x01\x00"

    def test_fail_io_counts_write_flush_fsync_together(self):
        buffer = io.BytesIO()
        plan = FaultPlan().fail_io(on_call=2)
        handle = plan.wrap(buffer, "b")
        handle.write(b"ok")
        with pytest.raises(OSError):
            handle.flush()
        assert plan.fired == ["eio@flush:b"]

    def test_crash_point_fires_once(self):
        plan = FaultPlan().crash_at("somewhere")
        with pytest.raises(SimulatedCrash):
            plan.reached("somewhere")
        plan.reached("somewhere")  # consumed: no second crash
        plan.reached("elsewhere")  # unscheduled: no-op

    def test_simulated_crash_evades_except_exception(self):
        # the property rollback/cleanup code relies on: a crash must NOT
        # be swallowed by `except Exception` handlers
        plan = FaultPlan().crash_at("p")
        with pytest.raises(SimulatedCrash):
            try:
                plan.reached("p")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash must not be an Exception")

    def test_no_faults_is_inert(self):
        buffer = io.BytesIO()
        assert NO_FAULTS.wrap(buffer, "b") is buffer
        NO_FAULTS.reached("anything")


# ----------------------------------------------------------------------
# WAL corruption matrix
# ----------------------------------------------------------------------


def _build_log(tmp_path, n_txns=3):
    """A clean single-segment log of ``n_txns`` committed txns, one
    frame each."""
    db = Database("w", wal_dir=str(tmp_path))
    db.create_table(schema())
    for i in range(n_txns):
        db.insert("t", (i, f"v{i}"))
    db.crash()
    [segment] = db._wal.segment_paths()
    with open(segment, "rb") as handle:
        return segment, handle.read()


def _fresh_db(tmp_path):
    db = Database("w", wal_dir=str(tmp_path))
    db.create_table(schema())
    return db


class TestWALCorruptionMatrix:
    def test_bit_flip_strict_raises_with_site(self, tmp_path):
        segment, data = _build_log(tmp_path)
        with open(segment, "r+b") as handle:
            handle.seek(20)  # inside the first record's framing
            byte = handle.read(1)
            handle.seek(20)
            handle.write(bytes([byte[0] ^ 0x40]))
        db = _fresh_db(tmp_path)
        with pytest.raises(WALCorruptionError) as info:
            db.recover(mode="strict")
        assert info.value.segment == segment
        assert info.value.offset == 16  # the first record
        assert db.table("t").row_count == 0  # strict touched nothing

    def test_bit_flip_tolerant_replays_clean_prefix(self, tmp_path):
        segment, data = _build_log(tmp_path)
        # corrupt the second transaction's frame: find its offset
        starts, offset = [], 16
        while offset + 24 <= len(data):
            (length,) = struct.unpack_from("<I", data, offset)
            starts.append(offset)
            offset += 24 + length
        target = starts[1]  # frame 0 is txn 1
        with open(segment, "r+b") as handle:
            handle.seek(target + 24)  # its first op's kind byte
            byte = handle.read(1)
            handle.seek(target + 24)
            handle.write(bytes([byte[0] ^ 1]))
        db = _fresh_db(tmp_path)
        report = db.recover(mode="tolerant")
        assert report.txns_replayed == 1
        assert report.corruption is not None and "mismatch" in report.corruption
        assert report.bytes_quarantined == len(data) - target
        assert sorted(row for _r, row in db.table("t").scan()) == [(0, "v0")]

    @pytest.mark.parametrize("drop", [1, 5, 15])
    def test_torn_tail_is_not_corruption(self, tmp_path, drop):
        segment, data = _build_log(tmp_path)
        with open(segment, "r+b") as handle:
            handle.truncate(len(data) - drop)
        db = _fresh_db(tmp_path)
        report = db.recover(mode="strict")  # strict: a torn tail is fine
        assert report.txns_replayed == 2
        assert report.torn_tail_bytes > 0
        assert report.corruption is None

    def test_short_write_surfaces_as_torn_tail(self, tmp_path):
        plan = FaultPlan().short_write(on_write=2, drop_bytes=4)
        db = Database("w", wal_dir=str(tmp_path), faults=plan)
        db.create_table(schema())
        db.insert("t", (1, "a"))
        # the frame write lies about its length; the file position does
        # not, so the commit fails instead of acknowledging a torn frame
        with pytest.raises(WALError, match="short write"):
            db.insert("t", (2, "b"))
        assert plan.fired  # the fault actually happened
        assert sorted(row for _r, row in db.table("t").scan()) == [(1, "a")]
        db.crash()
        db2 = _fresh_db(tmp_path)
        report = db2.recover(mode="strict")
        # the shortened frame is the log's torn tail: dropped, and the
        # frame before it replayed
        assert report.txns_replayed == 1
        assert report.txns_dropped == 1
        assert report.torn_tail_bytes == 47 - 4  # a 47-byte frame, short by 4
        assert report.corruption is None
        assert sorted(row for _r, row in db2.table("t").scan()) == [(1, "a")]

    def test_eio_on_append_is_a_typed_error(self, tmp_path):
        # a commit's syscalls are the frame write (1) and its fsync (2)
        plan = FaultPlan().fail_io(on_call=2)
        db = Database("w", wal_dir=str(tmp_path), faults=plan)
        db.create_table(schema())
        with pytest.raises(WALError):
            db.insert("t", (1, "a"))
        assert db.table("t").row_count == 0  # implicit txn rolled back
        assert not db.in_transaction

    def test_append_to_corrupt_segment_refused(self, tmp_path):
        segment, data = _build_log(tmp_path)
        with open(segment, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff")
        db = _fresh_db(tmp_path)
        with pytest.raises(WALCorruptionError):
            db.insert("t", (9, "z"))

    def test_lsn_continues_across_truncate(self, tmp_path):
        """A checkpoint truncates the log in front of its image, and the
        LSN sequence runs on through the image: it takes the next LSN,
        and the frame after it the one after that."""
        db = _fresh_db(tmp_path)
        for i in range(3):
            db.insert("t", (i, "a"))
        assert db._wal.last_lsn() == 3  # one LSN per frame
        db.checkpoint()
        assert db._wal.last_lsn() == 4  # the image's frame
        db.insert("t", (3, "a"))
        db.crash()
        fresh = Database("w", wal_dir=str(tmp_path))
        assert [frame.lsn for frame in fresh._wal.scan()] == [4, 5]

    def test_v2_segment_is_refused(self, tmp_path):
        """The record-per-row v2 format has no reader: its segments are
        refused with a typed error naming the version, by recovery and
        by the appender alike."""
        segment = tmp_path / "w.wal.000001"
        # a v2 segment header (base LSN 1) and its first BEGIN record
        segment.write_bytes(
            struct.pack("<4sBBHQ", b"WAL2", 2, 0, 0, 1)
            + bytes.fromhex("09000000e7338c440100000000000000000700000000000000")
        )
        db = _fresh_db(tmp_path)
        with pytest.raises(WALCorruptionError, match="unsupported WAL segment version 2") as info:
            db.recover(mode="strict")
        assert info.value.offset == 4
        report = db.recover(mode="tolerant")
        assert report.txns_replayed == 0
        assert report.bytes_quarantined == segment.stat().st_size
        with pytest.raises(WALCorruptionError):
            db.insert("t", (1, "a"))
        assert db.table("t").row_count == 0


# ----------------------------------------------------------------------
# A failed frame write or fsync
# ----------------------------------------------------------------------
#: fault -> (how to plan it, bytes of the failed 70-byte frame it leaves
#: in the segment).  Each hits the second transaction's commit: its
#: frame write is the plan's second write, and its fsync the fourth
#: syscall (write, fsync, write, fsync).
FRAME_FAULTS = {
    "short_write": (lambda plan: plan.short_write(on_write=2, drop_bytes=7), 63),
    "torn_write": (lambda plan: plan.tear_write(on_write=2, keep_bytes=30), 30),
    "eio_write": (lambda plan: plan.fail_io(on_call=3), 0),
    "eio_fsync": (lambda plan: plan.fail_io(on_call=4), 70),
}


class TestFailedFrameWrite:
    """A frame write or fsync that fails leaves bytes past the last
    sealed frame — a prefix of the frame, or all of it.  They are
    truncated away before the next frame is written, so a later commit
    is never buried behind them and a strict recovery replays exactly
    the transactions whose commit returned."""

    @pytest.mark.parametrize("fault", sorted(FRAME_FAULTS))
    def test_next_commit_truncates_the_failed_frame(self, tmp_path, fault):
        plan = FaultPlan()
        configure, left = FRAME_FAULTS[fault]
        configure(plan)
        db = Database("w", wal_dir=str(tmp_path), faults=plan)
        db.create_table(schema())
        db.insert("t", (1, "a"))
        [segment] = db._wal.segment_paths()
        sealed = os.path.getsize(segment)
        db.begin()
        db.insert("t", (2, "b"))
        db.insert("t", (3, "c"))
        with pytest.raises((WALError, SimulatedCrash)):
            db.commit()
        assert plan.fired
        assert os.path.getsize(segment) == sealed + left
        db.rollback()
        db.insert("t", (4, "d"))
        assert [row for _r, row in db.table("t").scan()] == [(1, "a"), (4, "d")]
        db.crash()

        fresh = _fresh_db(tmp_path)
        report = fresh.recover(mode="strict")
        assert report.txns_replayed == 2
        assert report.txns_dropped == 0
        assert report.torn_tail_bytes == 0
        assert report.corruption is None
        assert sorted(row for _r, row in fresh.table("t").scan()) == [(1, "a"), (4, "d")]
        assert [frame.lsn for frame in fresh._wal.scan()] == [1, 2]


class TestRecoveryReport:
    def test_deterministic_report_snapshot(self, tmp_path):
        db = Database("w", wal_dir=str(tmp_path))
        db.create_table(schema())
        db.insert("t", (1, "a"))          # txn 1: committed
        db.begin()                         # txn 2: committed, 2 rows
        db.insert("t", (2, "b"))
        db.insert("t", (3, "c"))
        db.commit()
        db.begin()                         # txn 3: rolled back
        db.insert("t", (4, "d"))
        db.rollback()
        db.begin()                         # txn 4: open at the crash
        db.insert("t", (5, "e"))
        db.crash()

        fresh = _fresh_db(tmp_path)
        report = fresh.recover(mode="strict")
        # one frame per committed transaction; the rolled-back and the
        # open transaction never reached the log
        assert report.as_dict() == {
            "mode": "strict",
            "segments_scanned": 1,
            "records_scanned": 2,
            "txns_replayed": 2,
            "txns_dropped": 0,
            "torn_tail_bytes": 0,
            "bytes_quarantined": 0,
            "corruption": None,
        }
        assert report.summary() == (
            "recovery (strict): 2 txn(s) replayed, 0 dropped\n"
            "  scanned 2 frame(s) in 1 segment(s)"
        )


# ----------------------------------------------------------------------
# The frame header checks itself
# ----------------------------------------------------------------------


def _frame_starts(data):
    """Offsets of the frames of a clean one-segment log image."""
    starts, offset = [], 16
    while offset < len(data):
        starts.append(offset)
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 24 + length
    return starts


class TestFrameHeaderCheck:
    """A damaged frame header is corruption, never a torn tail: its
    last four bytes check the first twenty.  Without that check a
    flipped ``ops_len`` that ran past the end of the final segment read
    as a crash mid-write, strict recovery dropped every committed frame
    from there on as a "torn tail", and the next commit truncated them
    away for good."""

    def test_ops_len_flip_is_corruption_not_a_torn_tail(self, tmp_path):
        segment, data = _build_log(tmp_path, n_txns=5)
        second = _frame_starts(data)[1]
        with open(segment, "r+b") as handle:
            handle.seek(second)  # the low byte of frame 2's ops_len
            handle.write(bytes([data[second] ^ 0x80]))
        db = _fresh_db(tmp_path)
        with pytest.raises(WALCorruptionError, match="frame header") as info:
            db.recover(mode="strict")
        assert info.value.offset == second
        with pytest.raises(WALCorruptionError):
            db.insert("t", (99, "z"))
        with open(segment, "rb") as handle:
            assert handle.read()[second + 1 :] == data[second + 1 :]  # nothing truncated

    def test_every_header_bit_flip_of_a_non_final_frame_is_corruption(self, tmp_path):
        segment, data = _build_log(tmp_path, n_txns=3)
        starts = _frame_starts(data)
        for start in starts[:-1]:
            for position in range(start, start + 24):
                for bit in range(8):
                    mutated = bytearray(data)
                    mutated[position] ^= 1 << bit
                    with open(segment, "wb") as handle:
                        handle.write(mutated)
                    db = _fresh_db(tmp_path)
                    with pytest.raises(WALCorruptionError):
                        db.recover(mode="strict")
                    assert db.table("t").row_count == 0
                    with pytest.raises(WALCorruptionError):
                        db.insert("t", (99, "z"))  # the appender refuses

    def test_every_cut_of_the_final_frame_is_a_torn_tail(self, tmp_path):
        segment, data = _build_log(tmp_path, n_txns=3)
        last = _frame_starts(data)[-1]
        for cut in range(last, len(data)):
            with open(segment, "wb") as handle:
                handle.write(data[:cut])
            db = _fresh_db(tmp_path)
            report = db.recover(mode="strict")
            assert report.corruption is None
            assert report.txns_replayed == 2
            assert report.txns_dropped == (1 if cut > last else 0)
            assert report.torn_tail_bytes == cut - last


# ----------------------------------------------------------------------
# Standalone images: corruption and truncation
# ----------------------------------------------------------------------


def _small_snapshot(tmp_path):
    db = Database("s")
    db.create_table(schema())
    db.insert_many("t", [(1, "a"), (2, "bb"), (3, None)])
    path = str(tmp_path / "s.snap")
    save_snapshot(db, path)
    with open(path, "rb") as handle:
        return path, handle.read()


class TestSnapshotFaults:
    def test_every_truncation_raises_storage_error(self, tmp_path):
        path, data = _small_snapshot(tmp_path)
        for cut in range(len(data)):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            with pytest.raises(StorageError):
                load_snapshot(path)

    def test_every_byte_flip_raises_storage_error(self, tmp_path):
        path, data = _small_snapshot(tmp_path)
        for position in range(len(data)):
            corrupted = bytearray(data)
            corrupted[position] ^= 0x04
            with open(path, "wb") as handle:
                handle.write(bytes(corrupted))
            with pytest.raises(StorageError):
                load_snapshot(path)

    def test_v1_snapshot_is_refused(self, tmp_path):
        """The RPRO snapshot format has no reader: a file in it is not a
        WAL segment, and is refused by its magic."""
        path = str(tmp_path / "old.snap")
        with open(path, "wb") as handle:
            handle.write(b"RPRO" + struct.pack("<HBQI", 2, 0, 0, 0) + b"RPND" + bytes(4))
        with pytest.raises(WALCorruptionError, match="bad segment magic"):
            load_snapshot(path)

    def test_clean_roundtrip(self, tmp_path):
        path, _data = _small_snapshot(tmp_path)
        db = load_snapshot(path)
        assert sorted(row for _r, row in db.table("t").scan()) == [
            (1, "a"),
            (2, "bb"),
            (3, None),
        ]

    def test_failed_write_removes_temp_and_types_error(self, tmp_path):
        db = Database("s")
        db.create_table(schema())
        db.insert("t", (1, "a"))
        path = str(tmp_path / "s.snap")
        plan = FaultPlan().fail_io(on_call=2)
        with pytest.raises(StorageError):
            save_snapshot(db, path, faults=plan)
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_torn_temp_write_never_touches_final_path(self, tmp_path):
        db = Database("s")
        db.create_table(schema())
        db.insert("t", (1, "a"))
        path = str(tmp_path / "s.snap")
        save_snapshot(db, path)  # the old snapshot
        db.insert("t", (2, "b"))
        # an image is two writes: header and catalog, then the frame
        plan = FaultPlan().tear_write(on_write=2, keep_bytes=2)
        with pytest.raises(SimulatedCrash):
            save_snapshot(db, path, faults=plan)
        # the old snapshot is intact; the torn temp never replaced it
        old = load_snapshot(path)
        assert old.table("t").row_count == 1


# ----------------------------------------------------------------------
# Checkpoint crash-point matrix
# ----------------------------------------------------------------------

CRASH_POINTS = [
    "snapshot.before_temp_write",
    "snapshot.mid_temp_write",
    "snapshot.after_fsync",
    "snapshot.after_rename",
    "checkpoint.before_truncate",
    "wal.truncate.mid",
    "wal.truncate.end",
]


def _recovered_rows(wal_dir, mode="strict"):
    """Recover the log in ``wal_dir`` into a fresh database, its tables
    made by the image's catalog."""
    db = Database("db", wal_dir=wal_dir)
    report = db.recover(mode=mode)
    return db, report, sorted(row for _r, row in db.table("t").scan())


class TestCheckpointCrashMatrix:
    """Crash the second checkpoint at every named point of the
    protocol.  Whatever the interleaving of temp-write, fsync, rename,
    and segment removal, recovery from what's left on disk must
    reproduce exactly the committed state."""

    def _log_with_a_checkpoint(self, wal_dir, plan):
        """A multi-segment log: three rows, a clean checkpoint, then four
        one-row transactions that rotate past it."""
        db = Database("db", wal_dir=wal_dir, faults=plan)
        db.create_table(schema())
        db._wal._segment_bytes = 128  # force rotation: multi-segment WAL
        db.insert_many("t", [(i, f"a{i}") for i in range(3)])
        db.checkpoint()  # plan is still empty: a clean checkpoint
        for i in range(3, 7):
            db.insert("t", (i, f"b{i}"))  # one txn per row, spans segments
        assert len(db._wal.segment_paths()) > 2  # truncate.mid reachable
        return db

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_point_recovers_committed_state(self, tmp_path, point):
        wal_dir = str(tmp_path)
        plan = FaultPlan()
        db = self._log_with_a_checkpoint(wal_dir, plan)
        committed = sorted(row for _r, row in db.table("t").scan())

        plan.crash_at(point)
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        assert plan.fired == [f"crash@{point}"]

        recovered, report, rows = _recovered_rows(wal_dir)
        assert report.corruption is None
        assert rows == committed, f"crash at {point} lost committed state"
        # the next checkpoint completes and leaves the image alone
        recovered.checkpoint()
        assert os.listdir(wal_dir) == [os.path.basename(recovered._wal.segment_paths()[0])]

    def test_commit_after_a_restart_from_a_checkpoint_survives(self, tmp_path):
        """A restart after a checkpoint recovers from its image; a
        commit made then follows the image in the log, so recovery
        after the next crash replays it."""
        wal_dir = str(tmp_path)
        db = Database("db", wal_dir=wal_dir)
        db.create_table(schema())
        for i in range(3):
            db.insert("t", (i, f"a{i}"))
        db.checkpoint()
        assert len(db._wal.segment_paths()) == 1  # the image alone
        db.crash()

        restarted, _report, _rows = _recovered_rows(wal_dir)
        restarted.insert("t", (100, "post"))
        restarted.crash()

        _final, report, rows = _recovered_rows(wal_dir)
        assert report.txns_replayed == 1
        assert report.records_scanned == 2  # the image's frame and the commit
        assert rows == [(0, "a0"), (1, "a1"), (2, "a2"), (100, "post")]

    def test_post_crash_checkpoint_completes(self, tmp_path):
        """After a crash mid-truncation, the recovered database can
        checkpoint again and keep committing."""
        wal_dir = str(tmp_path)
        plan = FaultPlan()
        db = self._log_with_a_checkpoint(wal_dir, plan)
        committed = sorted(row for _r, row in db.table("t").scan())

        plan.crash_at("wal.truncate.mid")
        with pytest.raises(SimulatedCrash):
            db.checkpoint()

        recovered, _report, _rows = _recovered_rows(wal_dir)
        recovered.checkpoint()  # completes cleanly this time
        assert len(recovered._wal.segment_paths()) == 1
        recovered.insert("t", (100, "post"))
        recovered.crash()

        _final, _report, rows = _recovered_rows(wal_dir)
        assert rows == committed + [(100, "post")]

    def test_a_crashed_checkpoint_leaves_no_temp_behind(self, tmp_path):
        """A crash before the rename leaves the temp image, named after
        the segment it was to become; commits that rotate the log move
        the next checkpoint to another name, and it still removes it."""
        wal_dir = str(tmp_path)
        plan = FaultPlan()
        db = self._log_with_a_checkpoint(wal_dir, plan)
        plan.crash_at("snapshot.after_fsync")
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        [temp] = [name for name in os.listdir(wal_dir) if name.endswith(".tmp")]
        recovered, _report, _rows = _recovered_rows(wal_dir)
        recovered._wal._segment_bytes = 128
        for i in range(10, 14):
            recovered.insert("t", (i, "c"))  # rotates past the temp's name
        recovered.checkpoint()
        assert temp not in os.listdir(wal_dir)
        assert len(os.listdir(wal_dir)) == 1

    def test_recovery_reads_nothing_before_the_newest_image(self, tmp_path):
        """Segments a crash left in front of the image are never read:
        damage in them does not reach recovery."""
        wal_dir = str(tmp_path)
        plan = FaultPlan()
        db = self._log_with_a_checkpoint(wal_dir, plan)
        committed = sorted(row for _r, row in db.table("t").scan())
        plan.crash_at("checkpoint.before_truncate")
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        first = db._wal.segment_paths()[0]
        with open(first, "r+b") as handle:
            handle.write(b"JUNK")
        _db, report, rows = _recovered_rows(wal_dir)
        assert rows == committed
        assert report.segments_scanned == 1
        assert report.txns_replayed == 0


class TestOperatorPath:
    """The path the appender's refusal prescribes, end to end: a corrupt
    segment, tolerant recovery, a checkpoint, a commit, and a strict
    recovery by a fresh database object."""

    def test_tolerant_recovery_then_checkpoint_rebuilds_the_log(self, tmp_path):
        segment, data = _build_log(tmp_path, n_txns=4)
        third = _frame_starts(data)[2]
        with open(segment, "r+b") as handle:
            handle.seek(third + 30)  # inside frame 3's ops
            handle.write(bytes([data[third + 30] ^ 0x01]))
        db = _fresh_db(tmp_path)
        with pytest.raises(WALCorruptionError):
            db.insert("t", (9, "refused"))
        report = db.recover(mode="tolerant")
        assert report.txns_replayed == 2 and report.corruption is not None

        db.checkpoint()
        db.insert("t", (9, "after"))
        db.crash()

        fresh = Database("w", wal_dir=str(tmp_path))
        report = fresh.recover(mode="strict")
        assert report.corruption is None
        assert report.txns_replayed == 1
        assert sorted(row for _r, row in fresh.table("t").scan()) == [
            (0, "v0"), (1, "v1"), (9, "after"),
        ]
        assert segment not in fresh._wal.segment_paths()  # the corrupt one is gone


# ----------------------------------------------------------------------
# Client retry layer
# ----------------------------------------------------------------------


def _client(failures=None, policy=None, clock=None):
    """A client of an in-process server, losing the scheduled round
    trips; returns the client and the served database."""
    db = Database("c")
    db.create_table(schema())
    transport = LocalTransport(DatabaseServer(db))
    if failures is not None:
        transport = FlakyTransport(transport, failures)
    client = Client(
        transport,
        clock=clock if clock is not None else VirtualClock(),
        category="prov",
        retry_policy=policy,
    )
    return client, db


class TestClientRetry:
    def test_lost_request_retries_and_succeeds(self):
        clock = VirtualClock()
        client, db = _client({1: "request"}, clock=clock)
        client.insert("t", (1, "a"))
        assert db.table("t").row_count == 1
        assert client.round_trips == 2
        assert client.retries == 1
        assert client.failed_round_trips == 1
        model = client.cost_model
        assert clock.total("prov.insert.failed") == model.failed_round_trip_cost(1)
        assert clock.total("prov.insert") == model.statement_write_cost(1)
        assert clock.count("prov.backoff") == 1

    def test_lost_response_does_not_double_apply(self):
        client, db = _client({1: "response"})
        rowids = client.insert_many("t", [(1, "a"), (2, "b")])
        # the server applied the batch on the lost-response attempt; the
        # retry must return the cached result, not insert again
        assert db.table("t").row_count == 2
        assert len(rowids) == 2
        assert client.round_trips == 2

    def test_lost_response_delete_returns_first_count(self):
        client, db = _client({2: "response"})
        client.insert_many("t", [(1, "a"), (2, "b")])
        affected = client.sql("DELETE FROM t")[0]["affected"]
        # without the idempotency key the retry would re-run the delete
        # against an already-empty table and report 0 rows
        assert affected == 2
        assert db.table("t").row_count == 0

    def test_exhausted_retries_raise(self):
        policy = RetryPolicy(max_attempts=3)
        client, db = _client({1: "request", 2: "request", 3: "request"}, policy)
        with pytest.raises(TransientNetworkError):
            client.insert("t", (1, "a"))
        assert client.round_trips == 3
        assert client.failed_round_trips == 3
        assert client.retries == 2  # no backoff after the final failure
        assert db.table("t").row_count == 0  # requests never landed

    def test_backoff_grows_and_is_deterministic(self):
        clock_a, clock_b = VirtualClock(), VirtualClock()
        for clock in (clock_a, clock_b):
            client, _db = _client({1: "request", 2: "request"}, clock=clock)
            client.insert("t", (1, "a"))
        assert clock_a.total("prov.backoff") == clock_b.total("prov.backoff")
        policy = RetryPolicy()
        # two backoffs: base, then base*multiplier (plus jitter < jitter_ms)
        floor = policy.backoff_base_ms * (1 + policy.backoff_multiplier)
        assert floor <= clock_a.total("prov.backoff") <= floor + 2 * policy.jitter_ms

    def test_perfect_transport_charges_exactly_as_before(self):
        clock = VirtualClock()
        client, _db = _client(clock=clock)
        client.insert("t", (1, "a"))
        client.insert_many("t", [(2, "b"), (3, "c")])
        client.sql("DELETE FROM t")
        assert client.round_trips == 3
        assert client.retries == 0 and client.failed_round_trips == 0
        model = client.cost_model
        assert clock.now_ms == (
            model.statement_write_cost(1)
            + model.statement_write_cost(2)
            + model.statement_write_cost(3)
        )

    def test_reads_are_retried_without_keys(self):
        client, _db = _client({2: "request"})
        client.insert("t", (1, "a"))
        rows = client.call({"op": "scan", "table": "t"})
        assert len(rows) == 1
        assert client.round_trips == 3  # 1 insert + failed read + retry


# ----------------------------------------------------------------------
# Hypothesis fault matrix: arbitrary cuts and flips over a real log
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def canonical_log(tmp_path_factory):
    """One committed-workload log image plus the set of valid
    committed-prefix states any recovery may land in."""
    tmp = tmp_path_factory.mktemp("canonical")
    db = Database("w", wal_dir=str(tmp))
    db.create_table(schema())
    states = [tuple()]
    for i in range(6):
        db.insert("t", (i, f"value-{i}"))
        states.append(tuple(sorted(row for _r, row in db.table("t").scan())))
    db.crash()
    [segment] = db._wal.segment_paths()
    with open(segment, "rb") as handle:
        data = handle.read()
    return data, set(states)


class TestFaultMatrixProperty:
    """For *any* single fault — truncation at any byte, or a bit flip at
    any position — recovery must land in a committed-prefix state or
    raise a typed error.  Silent loss or corruption of a committed
    transaction that recovery claims to have replayed is the only
    unacceptable outcome, and raw struct/index errors must never escape."""

    @settings(**_PROFILE)
    @given(data=st.data())
    def test_any_single_fault_recovers_or_types(self, canonical_log, data):
        image, states = canonical_log
        fault = data.draw(
            st.one_of(
                st.tuples(st.just("cut"), st.integers(0, len(image))),
                st.tuples(
                    st.just("flip"),
                    st.integers(0, len(image) - 1),
                    st.integers(0, 7),
                ),
            )
        )
        mode = data.draw(st.sampled_from(["strict", "tolerant"]))
        if fault[0] == "cut":
            mutated = image[: fault[1]]
        else:
            mutated = bytearray(image)
            mutated[fault[1]] ^= 1 << fault[2]
            mutated = bytes(mutated)

        case = tempfile.mkdtemp(prefix="faultmatrix-")
        try:
            with open(os.path.join(case, "w.wal.000001"), "wb") as handle:
                handle.write(mutated)
            db = Database("w", wal_dir=case)
            db.create_table(schema())
            try:
                report = db.recover(mode=mode)
            except WALCorruptionError as exc:
                assert mode == "strict"
                assert exc.segment.endswith("w.wal.000001")
                assert db.table("t").row_count == 0  # strict applied nothing
                return
            rows = tuple(sorted(row for _r, row in db.table("t").scan()))
            assert rows in states, (fault, mode, report.as_dict())
            assert report.txns_replayed == len(rows)
            if mode == "tolerant":
                self._check_append_after_recovery(db, case, rows, report)
        finally:
            shutil.rmtree(case, ignore_errors=True)

    @staticmethod
    def _check_append_after_recovery(db, case, rows, report):
        """The appender's tail check must agree with the recovery scan:
        it refuses exactly the logs recovery found corrupt, and
        otherwise continues the log so a strict recovery returns the
        recovered rows plus the appended one."""
        new_row = (100, "appended")
        try:
            db.insert("t", new_row)
        except WALCorruptionError:
            assert report.corruption is not None, report.as_dict()
            return
        assert report.corruption is None, report.as_dict()
        db.crash()
        reopened = Database("w", wal_dir=case)
        reopened.create_table(schema())
        reopened.recover(mode="strict")
        after = tuple(sorted(row for _r, row in reopened.table("t").scan()))
        assert after == rows + (new_row,), report.as_dict()
