"""Asyncio front-end for the embedded database: batched wire protocol
over snapshot-isolation MVCC sessions.

The paper's cost model charges *round trips*, not rows.  This server is
where a round trip happens: **one message = one round trip**, and a
message carries an arbitrary batch of operations, so a client that packs
a whole transaction (or a whole batched probe) into one frame pays one
turnaround for it — the wire twin of the store's batched ``loc IN
(...)`` probes.  :class:`~repro.storage.client.Client` is the one
synchronous client: it reaches :meth:`DatabaseServer.handle` over a real
socket or in process, and charges each message on the virtual clock.

Framing is length-prefixed: a 4-byte big-endian byte count, then a
UTF-8 JSON document.  Requests and responses pair by ``id``::

    -> {"id": 7, "key": 7, "ops": [{"op": "begin"},
                                   {"op": "insert", "table": "prov", "row": [...]},
                                   {"op": "commit"}]}
    <- {"id": 7, "results": [{"ok": true, "value": {"snapshot": 3, "txn": 9}},
                             {"ok": true, "value": {"rowid": 1}},
                             {"ok": true, "value": {"ts": 4}}]}

Each connection is one MVCC session: ``begin`` opens a snapshot
transaction for the connection, reads/writes inside it observe snapshot
isolation, ``commit``/``rollback`` close it, and operations arriving
outside a transaction run in their own single-op transaction
(autocommit).  A failed operation reports ``{"ok": false, "error":
<exception class>, "message": ...}`` and the remaining operations in
the batch still execute — batch framing is a transport optimization,
not an atomicity boundary; atomicity comes from ``begin``/``commit``.
A connection that drops with an open transaction is rolled back.

A message that may change state carries an idempotency ``key``.  The
session keeps the response to its last keyed message and answers a
repeat of that key from it without executing anything, so a client that
retries after a lost response gets the first result, not a second
application.  One cached response per session is enough because a
client has one message in flight.  A body that is not a JSON object
with an ``ops`` list of objects is answered with a typed
``{"error": "ProtocolError", ...}`` and the connection keeps serving.

The server is single-threaded (one event loop): operations from
concurrent connections interleave at message granularity, which is the
cooperative model the MVCC layer is built for.  Concurrency wins come
from overlapping one client's network turnaround with another client's
server-side work — use :class:`ThreadedServer` to host the loop next to
synchronous callers (the benchmark harness does).
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
from typing import Any, Dict, List, Optional, Sequence

from . import errors as _errors
from .db import Database
from .errors import StorageError, TransactionError
from .mvcc import MVCCManager, MVCCTransaction
from .sql import execute_sql

__all__ = [
    "DatabaseServer",
    "Session",
    "ThreadedServer",
    "AsyncServerClient",
    "ServerError",
]

_HEADER = struct.Struct(">I")
#: bytes in a frame's length prefix
HEADER_SIZE = _HEADER.size
#: refuse frames above this size — a corrupt length prefix must not
#: allocate gigabytes
MAX_FRAME = 64 * 1024 * 1024


class ServerError(StorageError):
    """An operation failed server-side with an exception class the
    client does not recognize (unknown classes degrade to this), or a
    response broke the framing or the request/response pairing."""


# ----------------------------------------------------------------------
# The codec both ends share
# ----------------------------------------------------------------------
def encode_body(payload: Any) -> bytes:
    """A message as the wire carries it, without its length prefix."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def encode_frame(payload: Any) -> bytes:
    body = encode_body(payload)
    return _HEADER.pack(len(body)) + body


def frame_length(header: bytes) -> int:
    """The body length a response's prefix announces."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServerError("oversized response frame")
    return length


def response_results(response: Dict[str, Any], request_id: int) -> List[Dict[str, Any]]:
    """The per-op results of a response, after checking it answers
    ``request_id``; a message-level error is raised as its type."""
    if "error" in response:
        _raise_remote(response)
    if response.get("id") != request_id:
        raise ServerError(
            f"response id {response.get('id')!r} != request id {request_id}"
        )
    return response["results"]


def result_values(results: List[Dict[str, Any]]) -> List[Any]:
    """The values of per-op results; raises the first failure typed."""
    values = []
    for result in results:
        if not result["ok"]:
            _raise_remote(result)
        values.append(result["value"])
    return values


def _raise_remote(result: Dict[str, Any]) -> None:
    """Re-raise a ``{"ok": false}`` result as its typed exception."""
    name = result.get("error", "ServerError")
    message = result.get("message", "")
    cls = getattr(_errors, name, None)
    if cls is None or not (isinstance(cls, type) and issubclass(cls, Exception)):
        raise ServerError(f"{name}: {message}")
    raise cls(message)


class Session:
    """One client's state on the server: its open MVCC transaction, if
    any, and the response to its last keyed message."""

    __slots__ = ("txn", "key", "response")

    def __init__(self) -> None:
        self.txn: Optional[MVCCTransaction] = None
        self.key: Any = None
        self.response: Optional[Dict[str, Any]] = None


class DatabaseServer:
    """Serve one :class:`Database` over the batched wire protocol.

    ``port=0`` (the default) binds an ephemeral port; read it back from
    :attr:`port` after :meth:`start`.  A shared :class:`MVCCManager` may
    be injected so embedded callers and remote sessions coordinate
    through the same commit log.  A server that is never started still
    serves in-process sessions through :meth:`handle`.
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        manager: Optional[MVCCManager] = None,
    ) -> None:
        self.db = db
        self.manager = manager if manager is not None else MVCCManager(db)
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: live connections: handler task -> its writer
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: served-message counter — each increment is one client round trip
        self.messages = 0
        self.operations = 0

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    async def stop(self) -> None:
        """Stop accepting, close every live connection, and wait until
        each handler has ended on its own (rolling back its open
        transaction)."""
        if self._server is not None:
            self._server.close()
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = Session()
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    (length,) = _HEADER.unpack(await reader.readexactly(HEADER_SIZE))
                    if length > MAX_FRAME:
                        break  # corrupt framing: drop the connection
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                try:
                    request = json.loads(body)
                except (ValueError, RecursionError):  # not JSON, or nested too deep
                    request = None  # answered as a ProtocolError
                writer.write(encode_frame(self.handle(session, request)))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
        finally:
            self.end_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover - teardown races
                pass
            # last, so stop() waits for a handler that is still closing
            del self._connections[task]

    def handle(self, session: Session, request: Any) -> Dict[str, Any]:
        """Serve one message for ``session``: the handler the socket and
        the in-process transport share."""
        self.messages += 1
        if not isinstance(request, dict):
            request = {}
        ops = request.get("ops")
        if not isinstance(ops, list) or not all(isinstance(op, dict) for op in ops):
            return {
                "id": request.get("id"),
                "error": "ProtocolError",
                "message": "a request is a JSON object whose 'ops' is a list of objects",
            }
        key = request.get("key")
        if key is not None and key == session.key:
            return session.response  # a retry: answered, not re-applied
        results: List[Dict[str, Any]] = []
        for op in ops:
            self.operations += 1
            try:
                results.append({"ok": True, "value": self._apply(session, op)})
            except Exception as exc:
                results.append(
                    {
                        "ok": False,
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                )
        response = {"id": request.get("id"), "results": results}
        if key is not None:
            session.key, session.response = key, response
        return response

    @staticmethod
    def end_session(session: Session) -> None:
        """A client went away: roll back its open transaction."""
        if session.txn is not None and session.txn.status == "active":
            session.txn.rollback()
        session.txn = None

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _apply(self, session: _Session, op: Dict[str, Any]) -> Any:
        kind = op.get("op")
        if kind == "ping":
            return {}
        if kind == "begin":
            if session.txn is not None and session.txn.status == "active":
                raise TransactionError("a transaction is already active")
            session.txn = self.manager.begin()
            return {"snapshot": session.txn.snapshot_ts, "txn": session.txn.txn_id}
        if kind == "commit":
            txn = self._require_txn(session)
            session.txn = None
            return {"ts": txn.commit()}
        if kind == "rollback":
            txn = self._require_txn(session)
            session.txn = None
            txn.rollback()
            return {}
        if kind == "stats":
            return self.manager.db.stats()
        if kind == "mvcc_counters":
            return dict(self.manager.counters)

        # data operations: inside the session transaction when one is
        # open, else in a single-op autocommit transaction
        txn = session.txn
        if txn is not None and txn.status == "active":
            return self._data_op(txn, op)
        return self.manager.run(lambda t: self._data_op(t, op))

    @staticmethod
    def _require_txn(session: _Session) -> MVCCTransaction:
        txn = session.txn
        if txn is None or txn.status != "active":
            raise TransactionError("no active transaction on this connection")
        return txn

    def _data_op(self, txn: MVCCTransaction, op: Dict[str, Any]) -> Any:
        kind = op.get("op")
        if kind == "get":
            return txn.get(op["table"], op["key"])
        if kind == "scan":
            return txn.scan(op["table"])
        if kind == "insert":
            return {"rowid": txn.insert(op["table"], op["row"])}
        if kind == "insert_many":
            return {"rowids": txn.insert_many(op["table"], op["rows"])}
        if kind == "sql":
            text = op["text"]
            if _is_ddl(text):
                if txn._ops:
                    raise TransactionError(
                        "DDL is not snapshot-versioned; run it on a "
                        "connection with no open transaction"
                    )
                return execute_sql(self.manager.engine, text)
            return txn.sql(text)
        raise TransactionError(f"unknown operation {kind!r}")


def _is_ddl(text: str) -> bool:
    head = text.lstrip().split(None, 1)
    if not head:
        return False
    first = head[0].upper()
    return first in ("CREATE", "DROP")


class ThreadedServer:
    """Host a :class:`DatabaseServer` on its own event-loop thread.

    Context manager for synchronous callers (tests, the benchmark
    harness)::

        with ThreadedServer(db) as server:
            client = Client(SocketTransport(server.host, server.port))
            ...

    All database work still happens on the one server thread; client
    threads only ever block on sockets, so the arrangement measures
    genuine request/response overlap rather than sharing a thread with
    the engine.
    """

    def __init__(self, db: Database, host: str = "127.0.0.1", *, manager=None) -> None:
        self.server = DatabaseServer(db, host, 0, manager=manager)
        self.host = host
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def __enter__(self) -> "ThreadedServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10):  # pragma: no cover - defensive
            raise RuntimeError("server thread failed to start")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            await self.server.start()
            self.port = self.server.port
            self._started.set()

        loop.run_until_complete(boot())
        try:
            loop.run_forever()
        finally:
            # closes live connections, so no handler is left to cancel
            loop.run_until_complete(self.server.stop())
            loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)


class AsyncServerClient:
    """Asyncio client over the same frames as
    :class:`~repro.storage.client.SocketTransport`; the concurrency
    benchmark's readers and writer use it."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._next_id = 1

    async def connect(self, host: str, port: int) -> "AsyncServerClient":
        self._reader, self._writer = await asyncio.open_connection(host, port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def request(self, ops: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        request_id = self._next_id
        self._next_id += 1
        self._writer.write(encode_frame({"id": request_id, "ops": list(ops)}))
        await self._writer.drain()
        length = frame_length(await self._reader.readexactly(HEADER_SIZE))
        body = await self._reader.readexactly(length)
        return response_results(json.loads(body), request_id)

    async def call(self, op: Dict[str, Any]) -> Any:
        return result_values(await self.request([op]))[0]

    async def batch(self, ops: Sequence[Dict[str, Any]]) -> List[Any]:
        return result_values(await self.request(ops))
