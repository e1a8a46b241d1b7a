"""Wire-protocol and session semantics of the asyncio database server.

Covers the transport contract (length-prefixed frames, request/response
pairing, one message = one round trip), error marshalling back to typed
exceptions, per-connection MVCC sessions (snapshot stability across
connections, first-committer-wins over the wire, rollback on
disconnect), DDL gating, and an end-to-end run of the concurrent-history
checker against live server connections.
"""

from __future__ import annotations

import time

import pytest

from repro.storage import Database, WriteConflictError
from repro.storage.server import ServerClient, ThreadedServer
from repro.storage.errors import (
    DuplicateKeyError,
    TransactionError,
    UnknownTableError,
)
from repro.workloads.concurrent import (
    check_snapshot_isolation,
    kv_schema,
    run_server_schedule,
)


@pytest.fixture()
def kv_server():
    db = Database("served")
    db.create_table(kv_schema())
    with ThreadedServer(db) as server:
        yield server


def _client(server: ThreadedServer) -> ServerClient:
    return ServerClient(server.host, server.port)


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    assert predicate()


# ----------------------------------------------------------------------
# Transport: framing, batching, counters
# ----------------------------------------------------------------------
class TestTransport:
    def test_ping_round_trip(self, kv_server):
        with _client(kv_server) as client:
            client.ping()
            assert client.round_trips == 1
        _wait_until(lambda: kv_server.server.messages == 1)

    def test_batch_is_one_message_one_round_trip(self, kv_server):
        """A whole transaction packed into one frame costs exactly one
        round trip — the economics StoreClient charges for."""
        with _client(kv_server) as client:
            values = client.batch(
                [
                    {"op": "begin"},
                    {"op": "insert", "table": "kv", "row": [1, 10]},
                    {"op": "insert", "table": "kv", "row": [2, 20]},
                    {"op": "get", "table": "kv", "key": [1]},
                    {"op": "commit"},
                ]
            )
            assert client.round_trips == 1
            assert values[3] == {"k": 1, "v": 10}
            assert "ts" in values[4]
        _wait_until(lambda: kv_server.server.messages == 1)
        assert kv_server.server.operations == 5

    def test_response_ids_pair_with_requests(self, kv_server):
        with _client(kv_server) as client:
            for _ in range(3):
                assert client.request([{"op": "ping"}])[0]["ok"]

    def test_batch_failures_do_not_stop_the_batch(self, kv_server):
        """Batch framing is a transport optimization, not an atomicity
        boundary: a failed op reports its error and the rest still
        run."""
        with _client(kv_server) as client:
            results = client.request(
                [
                    {"op": "insert", "table": "nope", "row": [1, 1]},
                    {"op": "insert", "table": "kv", "row": [5, 50]},
                ]
            )
            assert results[0]["ok"] is False
            assert results[0]["error"] == "UnknownTableError"
            assert results[1]["ok"] is True
            assert client.get("kv", [5]) == {"k": 5, "v": 50}


# ----------------------------------------------------------------------
# Error marshalling: server exceptions come back typed
# ----------------------------------------------------------------------
class TestErrorMarshalling:
    def test_unknown_table_is_typed(self, kv_server):
        with _client(kv_server) as client:
            with pytest.raises(UnknownTableError):
                client.get("missing", [1])

    def test_duplicate_key_is_typed(self, kv_server):
        with _client(kv_server) as client:
            client.insert("kv", [1, 10])
            with pytest.raises(DuplicateKeyError):
                client.insert("kv", [1, 11])

    def test_write_conflict_is_typed(self, kv_server):
        with _client(kv_server) as a, _client(kv_server) as b:
            a.insert("kv", [1, 0])
            a.begin()
            b.begin()
            a.sql("UPDATE kv SET v = 1 WHERE k = 1")
            b.sql("UPDATE kv SET v = 2 WHERE k = 1")
            a.commit()
            with pytest.raises(WriteConflictError):
                b.commit()
            assert a.get("kv", [1]) == {"k": 1, "v": 1}

    def test_unknown_operation_is_transaction_error(self, kv_server):
        with _client(kv_server) as client:
            with pytest.raises(TransactionError):
                client.call({"op": "frobnicate"})

    def test_commit_without_begin_is_transaction_error(self, kv_server):
        with _client(kv_server) as client:
            with pytest.raises(TransactionError):
                client.commit()


# ----------------------------------------------------------------------
# Sessions: snapshots per connection, autocommit, disconnect rollback
# ----------------------------------------------------------------------
class TestSessions:
    def test_snapshot_stable_across_concurrent_commit(self, kv_server):
        with _client(kv_server) as reader, _client(kv_server) as writer:
            writer.insert("kv", [1, 10])  # autocommit
            reader.begin()
            assert reader.get("kv", [1]) == {"k": 1, "v": 10}
            writer.batch(
                [
                    {"op": "begin"},
                    {"op": "sql", "text": "UPDATE kv SET v = 99 WHERE k = 1"},
                    {"op": "insert", "table": "kv", "row": [2, 20]},
                    {"op": "commit"},
                ]
            )
            # the open snapshot still sees the old world
            assert reader.get("kv", [1]) == {"k": 1, "v": 10}
            assert reader.get("kv", [2]) is None
            reader.commit()
            assert reader.get("kv", [1]) == {"k": 1, "v": 99}
            assert reader.get("kv", [2]) == {"k": 2, "v": 20}

    def test_autocommit_ops_are_immediately_visible(self, kv_server):
        with _client(kv_server) as a, _client(kv_server) as b:
            a.insert("kv", [7, 70])
            assert b.get("kv", [7]) == {"k": 7, "v": 70}

    def test_double_begin_rejected(self, kv_server):
        with _client(kv_server) as client:
            client.begin()
            with pytest.raises(TransactionError):
                client.begin()

    def test_disconnect_rolls_back_open_transaction(self, kv_server):
        manager = kv_server.server.manager
        client = _client(kv_server)
        client.begin()
        client.insert("kv", [3, 30])
        client.close()  # vanish mid-transaction
        _wait_until(lambda: manager.active_count == 0)
        with _client(kv_server) as probe:
            assert probe.get("kv", [3]) is None
        assert manager.counters["aborted"] >= 1

    def test_stats_and_mvcc_counters_over_the_wire(self, kv_server):
        with _client(kv_server) as client:
            client.insert("kv", [1, 1])
            stats = client.stats()
            assert stats["kv"]["rows"] == 1
            counters = client.call({"op": "mvcc_counters"})
            assert counters["committed"] >= 1


# ----------------------------------------------------------------------
# DDL gating: not snapshot-versioned, so fenced off from open txns
# ----------------------------------------------------------------------
class TestDDL:
    def test_ddl_outside_transaction_is_allowed(self, kv_server):
        with _client(kv_server) as client:
            client.sql("CREATE TABLE extra (a INT, b INT, PRIMARY KEY (a))")
            client.call({"op": "insert", "table": "extra", "row": [1, 2]})
            assert client.call(
                {"op": "get", "table": "extra", "key": [1]}
            ) == {"a": 1, "b": 2}

    def test_ddl_inside_dirty_transaction_is_rejected(self, kv_server):
        with _client(kv_server) as client:
            client.begin()
            client.insert("kv", [1, 1])
            with pytest.raises(TransactionError):
                client.sql("CREATE TABLE extra (a INT, PRIMARY KEY (a))")
            client.rollback()


# ----------------------------------------------------------------------
# End to end: the history checker certifies live server sessions
# ----------------------------------------------------------------------
class TestServerHistories:
    SCHEDULE = [
        ("begin", "a"),
        ("begin", "b"),
        ("read", "a", 1),
        ("write", "a", 1, 5),
        ("read", "b", 1),
        ("write", "b", 2, 6),
        ("read", "a", 1),
        ("commit", "a"),
        ("read", "b", 1),
        ("write", "b", 1, 7),  # conflicts with a: first committer wins
        ("commit", "b"),
        ("begin", "c"),
        ("read", "c", 1),
        ("read", "c", 2),
        ("commit", "c"),
    ]

    def test_interleaved_server_schedule_is_snapshot_isolated(self):
        initial = {1: 0, 2: 0}
        db = Database("served_hist")
        db.create_table(kv_schema())
        for k, v in initial.items():
            db.insert("kv", (k, v))
        with ThreadedServer(db) as server:
            clients = {c: _client(server) for c in ("a", "b", "c")}
            try:
                history = run_server_schedule(self.SCHEDULE, clients, initial)
            finally:
                for client in clients.values():
                    client.close()
        assert check_snapshot_isolation(history) == []
        statuses = {t.client: t.status for t in history.transactions}
        assert statuses["a"] == "committed"
        assert statuses["b"] == "aborted"  # lost first-committer-wins
        assert db.table("kv").lookup_pk((1,))[1] == (1, 5)
