"""Fault-injected durability tests.

Every durability claim the storage layer makes is exercised against an
actual injected fault: torn writes, bit flips, short writes, EIO, and
crashes at every named point of the checkpoint protocol.  The invariant
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

from repro.common.checksum import ALG_CRC32, ALG_CRC32C, checksum, crc32c
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
from repro.storage.snapshot import checkpoint, load_snapshot, save_snapshot
from repro.storage.wal import KIND_INSERT, WriteAheadLog

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
# Checksums
# ----------------------------------------------------------------------


class TestChecksum:
    def test_crc32c_test_vector(self):
        # RFC 3720 appendix B.4 check value
        assert crc32c(b"123456789") == 0xE3069283

    def test_chaining_matches_one_shot(self):
        data = b"the quick brown fox"
        for alg in (ALG_CRC32, ALG_CRC32C):
            running = checksum(alg, data[:7])
            running = checksum(alg, data[7:], running)
            assert running == checksum(alg, data)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            checksum(99, b"x")


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
        log = WriteAheadLog(str(tmp_path / "w.wal"), {"t": schema()})
        row = schema().codec.encode((1, "a"))
        for txn_id in range(1, 4):
            log.append((KIND_INSERT, "t", row))
            assert log.flush(txn_id) == txn_id  # one LSN per frame
        assert log.last_lsn() == 3
        log.truncate()
        log.append((KIND_INSERT, "t", row))
        assert log.flush(4) == 4  # never reset

    def test_v2_segment_is_refused(self, tmp_path):
        """The record-per-row v2 format has no reader: its segments are
        refused with a typed error naming the version, by recovery and
        by the appender alike."""
        segment = tmp_path / "w.wal.000001"
        # a v2 segment header (base LSN 1) and its first BEGIN record
        segment.write_bytes(
            struct.pack("<4sBBHQ", b"WAL2", 2, ALG_CRC32, 0, 1)
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
            "records_skipped": 0,
            "torn_tail_bytes": 0,
            "bytes_quarantined": 0,
            "corruption": None,
        }
        assert report.summary() == (
            "recovery (strict): 2 txn(s) replayed, 0 dropped\n"
            "  scanned 2 frame(s) in 1 segment(s), skipped 0 below the "
            "snapshot watermark"
        )


# ----------------------------------------------------------------------
# Snapshot corruption and truncation
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
        path = str(tmp_path / "old.snap")
        with open(path, "wb") as handle:
            handle.write(b"RPRO" + struct.pack("<HI", 1, 0))  # v1 header, no tables
        with pytest.raises(StorageError, match="unsupported snapshot version 1"):
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
        plan = FaultPlan().tear_write(on_write=3, keep_bytes=2)
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
    "wal.truncate.begin",
    "wal.truncate.mid",
    "wal.truncate.end",
]


class TestCheckpointCrashMatrix:
    """Crash the second checkpoint at every named point of the
    protocol.  Whatever the interleaving of temp-write, fsync, rename,
    and segment deletion, recovery from what's left on disk must
    reproduce exactly the committed state."""

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_point_recovers_committed_state(self, tmp_path, point):
        wal_dir = str(tmp_path)
        plan = FaultPlan()
        db = Database("db", wal_dir=wal_dir, faults=plan)
        db.create_table(schema())
        db._wal._segment_bytes = 128  # force rotation: multi-segment WAL
        db.insert_many("t", [(i, f"a{i}") for i in range(3)])
        snap = os.path.join(wal_dir, "db.snap")
        checkpoint(db, snap)  # plan is still empty: a clean checkpoint
        for i in range(3, 7):
            db.insert("t", (i, f"b{i}"))  # one txn per row, spans segments
        committed = sorted(row for _r, row in db.table("t").scan())
        assert len(db._wal.segment_paths()) > 1  # truncate.mid reachable

        plan.crash_at(point)
        with pytest.raises(SimulatedCrash):
            checkpoint(db, snap, faults=plan)
        assert plan.fired == [f"crash@{point}"]

        recovered = load_snapshot(snap, name="db", wal_dir=wal_dir)
        report = recovered.recover(mode="strict")
        assert report.corruption is None
        rows = sorted(row for _r, row in recovered.table("t").scan())
        assert rows == committed, f"crash at {point} lost committed state"

    def test_commit_after_a_restart_from_a_checkpoint_survives(self, tmp_path):
        """A checkpoint removes every segment.  A database restarted
        from its snapshot numbers new frames above the snapshot's
        watermark, so recovery after the next crash replays them
        instead of skipping them as already snapshotted."""
        wal_dir = str(tmp_path)
        db = Database("db", wal_dir=wal_dir)
        db.create_table(schema())
        for i in range(3):
            db.insert("t", (i, f"a{i}"))
        snap = os.path.join(wal_dir, "db.snap")
        checkpoint(db, snap)
        assert db._wal.segment_paths() == []
        db.crash()

        restarted = load_snapshot(snap, name="db", wal_dir=wal_dir)
        restarted.recover()
        restarted.insert("t", (100, "post"))
        restarted.crash()

        final = load_snapshot(snap, name="db", wal_dir=wal_dir)
        report = final.recover(mode="strict")
        assert report.txns_replayed == 1
        assert report.records_skipped == 0
        rows = sorted(row for _r, row in final.table("t").scan())
        assert rows == [(0, "a0"), (1, "a1"), (2, "a2"), (100, "post")]

    def test_post_crash_checkpoint_completes(self, tmp_path):
        """After a mid-truncate crash, the recovered database can
        checkpoint again and the watermark bookkeeping stays sound."""
        wal_dir = str(tmp_path)
        plan = FaultPlan()
        db = Database("db", wal_dir=wal_dir, faults=plan)
        db.create_table(schema())
        db._wal._segment_bytes = 128
        db.insert_many("t", [(i, f"a{i}") for i in range(3)])
        snap = os.path.join(wal_dir, "db.snap")
        checkpoint(db, snap)
        for i in range(3, 7):
            db.insert("t", (i, f"b{i}"))
        committed = sorted(row for _r, row in db.table("t").scan())

        plan.crash_at("wal.truncate.mid")
        with pytest.raises(SimulatedCrash):
            checkpoint(db, snap, faults=plan)

        recovered = load_snapshot(snap, name="db", wal_dir=wal_dir)
        recovered.recover()
        checkpoint(recovered, snap)  # completes cleanly this time
        recovered.insert("t", (100, "post"))
        recovered.crash()

        final = load_snapshot(snap, name="db", wal_dir=wal_dir)
        final.recover()
        rows = sorted(row for _r, row in final.table("t").scan())
        assert rows == committed + [(100, "post")]


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
