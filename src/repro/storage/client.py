"""The one client of the database server, over a pluggable transport.

CPDB talked to MySQL over JDBC/TCP and to Timber over SOAP; the dominant
per-operation cost in the paper's Figures 9, 10, and 12 is the *number of
round trips*, which is why transactional provenance (which batches its
writes at commit) is nearly free per operation.  :class:`Client` sends
the op-dict messages of :mod:`repro.storage.server` through a
:class:`Transport` and charges one round trip (plus a per-row marshalling
cost) on a shared virtual clock for every message, so a batched message
costs one round trip total, exactly the saving the paper observed.
:class:`LocalTransport` hands each message to an in-process server with
no socket, encoded both ways as the wire encodes it, so an embedded
session returns exactly what a :class:`SocketTransport` session does.

Real JDBC/SOAP round trips also *fail*, and the paper's per-operation
economics silently assume they don't.  The client models that side too:

* :class:`FlakyTransport` wraps either transport and drops scheduled
  round trips, distinguishing a lost *request* (the server never
  executed it) from a lost *response* (the server executed it but the
  client cannot know);
* a :class:`RetryPolicy` re-sends lost messages with exponential
  backoff plus deterministic jitter — all waiting is charged to the
  shared virtual clock (``<category>.backoff``), never slept;
* every message that may mutate carries an *idempotency key*, which the
  server answers from its cached response on a retry — exactly-once
  application on top of an at-least-once transport;
* failed round trips cost
  :meth:`~repro.common.clock.CostModel.failed_round_trip_cost` (a full
  timeout on top of the wasted round trip) under
  ``<category>.<op>.failed``, and the ``retries`` /
  ``failed_round_trips`` counters sit next to ``round_trips`` so
  experiments can report failure amplification directly.
"""

from __future__ import annotations

import json
import random
import socket
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..common.clock import CostModel, VirtualClock
from .errors import TransientNetworkError
from .server import (
    HEADER_SIZE,
    DatabaseServer,
    ServerError,
    Session,
    encode_body,
    encode_frame,
    frame_length,
    response_results,
    result_values,
)

__all__ = [
    "Client",
    "Transport",
    "LocalTransport",
    "SocketTransport",
    "FlakyTransport",
    "RetryPolicy",
]

#: operations that change nothing server-side: their messages carry no
#: idempotency key, and a retry simply runs them again
_READS = frozenset({"ping", "get", "scan", "stats", "mvcc_counters"})


class Transport:
    """The wire between client and server: one request message out, one
    response message back."""

    def round_trip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LocalTransport(Transport):
    """An in-process session on ``server``, which need not be started.

    Each message goes to :meth:`DatabaseServer.handle` in the caller's
    thread, so do not share a server that a
    :class:`~repro.storage.server.ThreadedServer` is serving."""

    def __init__(self, server: DatabaseServer) -> None:
        self.server = server
        self._session = Session()

    def round_trip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        request = json.loads(encode_body(message))
        return json.loads(encode_body(self.server.handle(self._session, request)))

    def close(self) -> None:
        self.server.end_session(self._session)


class SocketTransport(Transport):
    """A blocking connection to a live server."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def round_trip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._sock.sendall(encode_frame(message))
        length = frame_length(self._recv_exactly(HEADER_SIZE))
        return json.loads(self._recv_exactly(length))

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

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


class FlakyTransport(Transport):
    """A transport that loses scheduled round trips of ``inner``.

    ``failures`` maps a 1-based call number to the phase that fails:
    ``"request"`` raises *before* sending (the server never saw it),
    ``"response"`` completes the round trip and then raises (the server
    applied it, the client cannot know).  Each scheduled failure fires
    once; unscheduled calls pass through.  ``calls`` counts every
    attempt, so tests can assert how many round trips an operation
    really took.
    """

    def __init__(self, inner: Transport, failures: Optional[Dict[int, str]] = None) -> None:
        self.inner = inner
        self.failures = dict(failures or {})
        for call, phase in self.failures.items():
            if phase not in ("request", "response"):
                raise ValueError(f"unknown failure phase {phase!r} for call {call}")
        self.calls = 0

    def round_trip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.calls += 1
        phase = self.failures.pop(self.calls, None)
        if phase == "request":
            raise TransientNetworkError(
                f"request lost on call {self.calls}", phase="request"
            )
        response = self.inner.round_trip(message)
        if phase == "response":
            raise TransientNetworkError(
                f"response lost on call {self.calls}", phase="response"
            )
        return response

    def close(self) -> None:
        self.inner.close()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, on virtual time.

    Attempt ``n`` (1-based) that fails waits
    ``backoff_base_ms * backoff_multiplier**(n-1)`` plus up to
    ``jitter_ms`` of deterministic jitter before attempt ``n+1``; after
    ``max_attempts`` failures the ``TransientNetworkError`` propagates.
    """

    max_attempts: int = 4
    backoff_base_ms: float = 10.0
    backoff_multiplier: float = 2.0
    jitter_ms: float = 5.0

    def backoff_ms(self, attempt: int, rng: random.Random) -> float:
        base = self.backoff_base_ms * self.backoff_multiplier ** (attempt - 1)
        jitter = rng.random() * self.jitter_ms if self.jitter_ms else 0.0
        return base + jitter


def _request_rows(op: Dict[str, Any]) -> int:
    """Rows a request carries: what a failed round trip still marshalled."""
    kind = op.get("op")
    if kind == "insert":
        return 1
    if kind == "insert_many":
        return len(op["rows"])
    return 0


def _rows(op: Dict[str, Any], result: Dict[str, Any]) -> int:
    """Rows a successful operation wrote or returned: for DML, the rows
    it affected."""
    if not result["ok"]:
        return 0
    kind, value = op.get("op"), result["value"]
    if kind == "sql":
        is_dml = op["text"].lstrip()[:6].upper() in ("INSERT", "UPDATE", "DELETE")
        return value[0]["affected"] if is_dml else len(value)
    if kind == "get":
        return int(value is not None)
    if kind == "scan":
        return len(value)
    return _request_rows(op)


class Client:
    """Round-trip-accounted access to a :class:`DatabaseServer`.

    ``category`` tags every charge so the harness can attribute time to
    e.g. ``prov`` (provenance store) vs ``source`` (source database).
    ``retry_policy`` bounds retries of lost round trips; the backoff
    jitter is seeded, so charges are reproducible.  Every message counts
    in ``round_trips``, once per attempt.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        clock: Optional[VirtualClock] = None,
        cost_model: Optional[CostModel] = None,
        category: str = "store",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.transport = transport
        self.clock = clock if clock is not None else VirtualClock()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.category = category
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.round_trips = 0
        self.retries = 0
        self.failed_round_trips = 0
        self._rng = random.Random(0)
        self._next_id = 0

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, ops: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Send one message; returns the raw per-op results.

        A lost round trip is charged at the timeout-amplified rate plus
        a backoff wait, and the same message is sent again until the
        policy is exhausted.  The successful round trip is charged once,
        for the rows its operations moved.
        """
        ops = list(ops)
        self._next_id += 1
        message: Dict[str, Any] = {"id": self._next_id, "ops": ops}
        kinds = [op.get("op") for op in ops]
        if not _READS.issuperset(kinds):
            message["key"] = self._next_id
        op_name = kinds[0] if len(kinds) == 1 else "batch"
        name = f"{self.category}.{op_name}"
        attempt = 1
        while True:
            self.round_trips += 1
            try:
                response = self.transport.round_trip(message)
                break
            except TransientNetworkError:
                self.failed_round_trips += 1
                self.clock.charge(
                    f"{name}.failed",
                    self.cost_model.failed_round_trip_cost(sum(map(_request_rows, ops))),
                )
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.retries += 1
                self.clock.charge(
                    f"{self.category}.backoff",
                    self.retry_policy.backoff_ms(attempt, self._rng),
                )
                attempt += 1
        results = response_results(response, self._next_id)
        self.clock.charge(
            name, self.cost_model.statement_write_cost(sum(map(_rows, ops, results)))
        )
        return results

    def call(self, op: Dict[str, Any]) -> Any:
        """One operation in its own message; raises typed errors."""
        return result_values(self.request([op]))[0]

    def batch(self, ops: Sequence[Dict[str, Any]]) -> List[Any]:
        """Many operations in one message; raises on the first failure."""
        return result_values(self.request(ops))

    # convenience wrappers — each is exactly one message
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

    def insert_many(self, table: str, rows: Sequence[Any]) -> List[int]:
        """Batch insert: one round trip for the whole batch."""
        return self.call({"op": "insert_many", "table": table, "rows": rows})["rowids"]

    def sql(self, text: str) -> List[Dict[str, Any]]:
        return self.call({"op": "sql", "text": text})

    def stats(self) -> Dict[str, Any]:
        """Per-table ``{"rows", "bytes"}`` figures (one round trip)."""
        return self.call({"op": "stats"})
