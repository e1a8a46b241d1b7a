"""Wire-protocol and session semantics of the asyncio database server.

Covers the transport contract (length-prefixed frames, request/response
pairing, one message = one round trip, typed replies to malformed
requests), error marshalling back to typed exceptions, per-connection
MVCC sessions (snapshot stability across connections, first-committer-
wins over the wire, rollback on disconnect), exactly-once retries over
a real socket, a clean shutdown with connections still open, DDL
gating, and an end-to-end run of the concurrent-history checker against
live server connections.
"""

from __future__ import annotations

import json
import logging
import socket
import struct
import time

import pytest

from repro.storage import Database, WriteConflictError
from repro.storage.client import Client, FlakyTransport, SocketTransport
from repro.storage.server import ThreadedServer, response_results
from repro.storage.errors import (
    DuplicateKeyError,
    ProtocolError,
    TransactionError,
    UnknownTableError,
)
from repro.workloads.concurrent import (
    check_snapshot_isolation,
    kv_schema,
    run_schedule,
)


@pytest.fixture()
def kv_server():
    db = Database("served")
    db.create_table(kv_schema())
    with ThreadedServer(db) as server:
        yield server


def _client(server: ThreadedServer) -> Client:
    return Client(SocketTransport(server.host, server.port))


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
        round trip — the economics the client charges for."""
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
# Malformed requests, shutdown with open connections, exactly-once
# retries over the socket
# ----------------------------------------------------------------------
def _raw_round_trip(sock: socket.socket, body: bytes) -> dict:
    """Send one frame with ``body`` on a raw socket; return the reply."""
    sock.sendall(struct.pack(">I", len(body)) + body)

    def recv_exactly(count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            assert chunk, "the server dropped the connection without a reply"
            data += chunk
        return data

    (length,) = struct.unpack(">I", recv_exactly(4))
    return json.loads(recv_exactly(length))


def _errors_logged(caplog) -> list:
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "body",
        [b"[]", b'{"id": 4, "ops": 3}', b'{"ops": [1]}', b"not json", b"[" * 100_000],
        ids=["list", "ops-not-a-list", "op-not-an-object", "not-json", "nested-too-deep"],
    )
    def test_malformed_request_gets_a_typed_reply(self, kv_server, caplog, body):
        """A body that is not a request object is answered with a
        ProtocolError; nothing escapes the handler, and the connection
        keeps serving."""
        caplog.set_level(logging.ERROR)
        address = (kv_server.host, kv_server.port)
        with socket.create_connection(address, timeout=5) as sock:
            reply = _raw_round_trip(sock, body)
            assert reply["error"] == "ProtocolError"
            with pytest.raises(ProtocolError):
                response_results(reply, 4)
            ping = _raw_round_trip(sock, b'{"id": 1, "ops": [{"op": "ping"}]}')
            assert ping == {"id": 1, "results": [{"ok": True, "value": {}}]}
        assert _errors_logged(caplog) == []


class TestShutdown:
    def test_exit_with_an_open_client_logs_no_error(self, caplog):
        """Leaving the server with a live connection closes it; its
        handler ends on its own and rolls back the open transaction."""
        caplog.set_level(logging.ERROR)
        db = Database("open_at_exit")
        db.create_table(kv_schema())
        with ThreadedServer(db) as server:
            client = _client(server)
            client.begin()
            client.insert("kv", [1, 1])
        client.close()
        assert server.server.manager.active_count == 0
        assert db.table("kv").row_count == 0
        assert _errors_logged(caplog) == []


class TestExactlyOnceOverSocket:
    """The client's retries over a real socket: a lost response is
    answered from the session's cached response, not applied twice."""

    def _flaky_client(self, server: ThreadedServer, failures: dict) -> Client:
        return Client(
            FlakyTransport(SocketTransport(server.host, server.port), failures)
        )

    def test_lost_response_to_insert_many_lands_once(self, kv_server):
        with self._flaky_client(kv_server, {1: "response"}) as client:
            rowids = client.insert_many("kv", [[1, 10], [2, 20]])
            assert len(rowids) == 2
            assert client.round_trips == 2
            assert client.retries == 1 and client.failed_round_trips == 1
            # two messages, but the one op ran once: the retry got the
            # first result back
            assert kv_server.server.messages == 2
            assert kv_server.server.operations == 1
            assert client.stats()["kv"]["rows"] == 2

    def test_lost_request_is_retried(self, kv_server):
        with self._flaky_client(kv_server, {1: "request"}) as client:
            client.insert("kv", [1, 10])
            assert client.round_trips == 2 and client.failed_round_trips == 1
            assert kv_server.server.messages == 1  # the lost one never arrived
            assert client.get("kv", [1]) == {"k": 1, "v": 10}

    def test_lost_commit_response_returns_the_commit_ts(self, kv_server):
        with self._flaky_client(kv_server, {3: "response"}) as client:
            client.begin()
            client.insert("kv", [1, 10])
            ts = client.commit()  # without the key: "no active transaction"
            assert ts >= 1
            assert client.round_trips == 4
            assert client.get("kv", [1]) == {"k": 1, "v": 10}


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
                history = run_schedule(self.SCHEDULE, clients, initial)
            finally:
                for client in clients.values():
                    client.close()
        assert check_snapshot_isolation(history) == []
        statuses = {t.client: t.status for t in history.transactions}
        assert statuses["a"] == "committed"
        assert statuses["b"] == "aborted"  # lost first-committer-wins
        assert db.table("kv").lookup_pk((1,))[1] == (1, 5)
