"""Asyncio front-end for the embedded database: batched wire protocol
over snapshot-isolation MVCC sessions.

The paper's cost model charges *round trips*, not rows —
:class:`~repro.storage.client.StoreClient` simulates exactly that on a
virtual clock.  This server makes the same economics hold on a real
socket: **one message = one round trip**, and a message carries an
arbitrary batch of operations, so a client that packs a whole
transaction (or a whole batched probe) into one frame pays one
turnaround for it — the wire twin of the store's batched ``loc IN
(...)`` probes.

Framing is length-prefixed: a 4-byte big-endian byte count, then a
UTF-8 JSON document.  Requests and responses pair by ``id``::

    -> {"id": 7, "ops": [{"op": "begin"},
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
import socket
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
    "ThreadedServer",
    "ServerClient",
    "AsyncServerClient",
    "ServerError",
]

_HEADER = struct.Struct(">I")
#: refuse frames above this size — a corrupt length prefix must not
#: allocate gigabytes
MAX_FRAME = 64 * 1024 * 1024


class ServerError(StorageError):
    """An operation failed server-side with an exception class the
    client does not recognize (unknown classes degrade to this)."""


def _encode_frame(payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def _raise_remote(result: Dict[str, Any]) -> None:
    """Re-raise a ``{"ok": false}`` result as its typed exception."""
    name = result.get("error", "ServerError")
    message = result.get("message", "")
    cls = getattr(_errors, name, None)
    if cls is None or not (isinstance(cls, type) and issubclass(cls, Exception)):
        raise ServerError(f"{name}: {message}")
    raise cls(message)


class _Session:
    """Per-connection state: the open MVCC transaction, if any."""

    __slots__ = ("txn",)

    def __init__(self) -> None:
        self.txn: Optional[MVCCTransaction] = None


class DatabaseServer:
    """Serve one :class:`Database` over the batched wire protocol.

    ``port=0`` (the default) binds an ephemeral port; read it back from
    :attr:`port` after :meth:`start`.  A shared :class:`MVCCManager` may
    be injected so embedded callers and remote sessions coordinate
    through the same commit log.
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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session()
        try:
            while True:
                try:
                    header = await reader.readexactly(_HEADER.size)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME:
                    break  # corrupt framing: drop the connection
                try:
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                try:
                    request = json.loads(body.decode("utf-8"))
                except ValueError:
                    break
                response = self._serve_message(session, request)
                writer.write(_encode_frame(response))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
        finally:
            if session.txn is not None and session.txn.status == "active":
                session.txn.rollback()
                session.txn = None
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover - teardown races
                pass

    def _serve_message(
        self, session: _Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        self.messages += 1
        results: List[Dict[str, Any]] = []
        ops = request.get("ops", [])
        if not isinstance(ops, list):
            ops = []
        for op in ops:
            self.operations += 1
            try:
                value = self._apply(session, op)
                results.append({"ok": True, "value": value})
            except Exception as exc:
                results.append(
                    {
                        "ok": False,
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                )
        return {"id": request.get("id"), "results": results}

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
            return self.manager.engine.stats()
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
            rowids = txn.insert_many(op["table"], op["rows"])
            return {"count": len(rowids)}
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
            client = ServerClient(server.host, server.port)
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
            loop.run_until_complete(self.server.stop())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)


class ServerClient:
    """Blocking socket client; every :meth:`request` is one round trip."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._next_id = 1
        #: messages sent — the client-side round-trip odometer, matching
        #: ``StoreClient``'s charging model
        self.round_trips = 0

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, ops: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Send one batched message; returns the raw per-op results."""
        request_id = self._next_id
        self._next_id += 1
        self._sock.sendall(_encode_frame({"id": request_id, "ops": list(ops)}))
        header = self._recv_exactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise ServerError("oversized response frame")
        body = self._recv_exactly(length)
        self.round_trips += 1
        response = json.loads(body.decode("utf-8"))
        if response.get("id") != request_id:
            raise ServerError(
                f"response id {response.get('id')!r} != request id {request_id}"
            )
        return response["results"]

    def _recv_exactly(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ServerError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def call(self, op: Dict[str, Any]) -> Any:
        """One operation in its own message; raises typed errors."""
        result = self.request([op])[0]
        if not result["ok"]:
            _raise_remote(result)
        return result["value"]

    def batch(self, ops: Sequence[Dict[str, Any]]) -> List[Any]:
        """Many operations in one message; raises on the first failure."""
        values = []
        for result in self.request(ops):
            if not result["ok"]:
                _raise_remote(result)
            values.append(result["value"])
        return values

    # convenience wrappers — each is exactly one round trip
    def ping(self) -> None:
        self.call({"op": "ping"})

    def begin(self) -> Dict[str, Any]:
        return self.call({"op": "begin"})

    def commit(self) -> int:
        return self.call({"op": "commit"})["ts"]

    def rollback(self) -> None:
        self.call({"op": "rollback"})

    def get(self, table: str, key: Sequence[Any]) -> Optional[Dict[str, Any]]:
        return self.call({"op": "get", "table": table, "key": list(key)})

    def insert(self, table: str, row: Any) -> int:
        return self.call({"op": "insert", "table": table, "row": row})["rowid"]

    def sql(self, text: str) -> List[Dict[str, Any]]:
        return self.call({"op": "sql", "text": text})

    def stats(self) -> Dict[str, Any]:
        return self.call({"op": "stats"})


class AsyncServerClient:
    """Asyncio client; the await twin of :class:`ServerClient`."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._next_id = 1
        self.round_trips = 0

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
        self._writer.write(_encode_frame({"id": request_id, "ops": list(ops)}))
        await self._writer.drain()
        header = await self._reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise ServerError("oversized response frame")
        body = await self._reader.readexactly(length)
        self.round_trips += 1
        response = json.loads(body.decode("utf-8"))
        if response.get("id") != request_id:
            raise ServerError(
                f"response id {response.get('id')!r} != request id {request_id}"
            )
        return response["results"]

    async def call(self, op: Dict[str, Any]) -> Any:
        result = (await self.request([op]))[0]
        if not result["ok"]:
            _raise_remote(result)
        return result["value"]

    async def batch(self, ops: Sequence[Dict[str, Any]]) -> List[Any]:
        values = []
        for result in await self.request(ops):
            if not result["ok"]:
                _raise_remote(result)
            values.append(result["value"])
        return values
