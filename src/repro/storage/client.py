"""A client connection that models client/server round trips.

CPDB talked to MySQL over JDBC/TCP and to Timber over SOAP; the dominant
per-operation cost in the paper's Figures 9, 10, and 12 is the *number of
round trips*, which is why transactional provenance (which batches its
writes at commit) is nearly free per operation.  :class:`StoreClient`
wraps the embedded :class:`~repro.storage.db.Database` and charges one
round trip (plus a per-row marshalling cost) on a shared virtual clock
for every call — batched calls cost one round trip total, exactly the
saving the paper observed.

Real JDBC/SOAP round trips also *fail*: requests and responses get lost,
and the paper's per-operation economics silently assume they don't.  The
client therefore models the failure side too:

* a :class:`Transport` seam carries every operation; the injectable
  :class:`FlakyTransport` drops scheduled calls, distinguishing a lost
  *request* (the server never executed it) from a lost *response* (the
  server executed it but the client cannot know);
* a :class:`RetryPolicy` retries lost round trips with exponential
  backoff plus deterministic jitter — all waiting is charged to the
  shared virtual clock (``<category>.backoff``), never slept;
* every mutating operation carries an *idempotency key*; the server
  caches the result under the key, so a retry after a lost response
  returns the cached result instead of double-applying the write —
  exactly-once semantics on top of an at-least-once transport;
* failed round trips cost
  :meth:`~repro.common.clock.CostModel.failed_round_trip_cost` (a full
  timeout on top of the wasted round trip) under
  ``<category>.<op>.failed``, and the ``retries`` /
  ``failed_round_trips`` counters sit next to ``round_trips`` so
  experiments can report failure amplification directly.

The wrapper also counts round trips per category so experiments can
report them independently of the cost model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..common.clock import CostModel, VirtualClock
from .db import Database
from .errors import TransientNetworkError
from .expr import Expr
from .query import Query, QueryEngine
from .sql import execute_sql

__all__ = ["StoreClient", "Transport", "FlakyTransport", "RetryPolicy"]


class Transport:
    """The wire between client and server.  The default one is perfect:
    it just executes the operation.  Subclasses inject imperfection."""

    def call(self, op: str, execute: Callable[[], Any]) -> Any:
        return execute()


class FlakyTransport(Transport):
    """A transport that loses scheduled round trips.

    ``failures`` maps a 1-based call number to the phase that fails:
    ``"request"`` raises *before* executing (the server never saw it),
    ``"response"`` executes and then raises (the server applied it, the
    client cannot know).  Each scheduled failure fires once; unscheduled
    calls pass through.  ``calls`` counts every attempt, so tests can
    assert how many round trips an operation really took.
    """

    def __init__(self, failures: Optional[Dict[int, str]] = None) -> None:
        self.failures = dict(failures or {})
        for call, phase in self.failures.items():
            if phase not in ("request", "response"):
                raise ValueError(f"unknown failure phase {phase!r} for call {call}")
        self.calls = 0

    def call(self, op: str, execute: Callable[[], Any]) -> Any:
        self.calls += 1
        phase = self.failures.pop(self.calls, None)
        if phase == "request":
            raise TransientNetworkError(
                f"request lost on call {self.calls} ({op})", phase="request"
            )
        result = execute()
        if phase == "response":
            raise TransientNetworkError(
                f"response lost on call {self.calls} ({op})", phase="response"
            )
        return result


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


class StoreClient:
    """Round-trip-accounted access to a :class:`Database`.

    ``category`` tags every charge so the harness can attribute time to
    e.g. ``prov`` (provenance store) vs ``source`` (source database).
    ``transport`` and ``retry_policy`` select the failure model; the
    defaults (perfect transport, 4 attempts) charge exactly what the
    pre-retry client did when nothing fails.  ``retry_seed`` makes the
    backoff jitter reproducible.
    """

    def __init__(
        self,
        db: Database,
        clock: Optional[VirtualClock] = None,
        cost_model: Optional[CostModel] = None,
        category: str = "store",
        *,
        transport: Optional[Transport] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
    ) -> None:
        self.db = db
        #: server-side planning, SQL and predicate DML over ``db``
        self.engine = QueryEngine(db)
        self.clock = clock if clock is not None else VirtualClock()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.category = category
        self.transport = transport if transport is not None else Transport()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.round_trips = 0
        self.retries = 0
        self.failed_round_trips = 0
        self._rng = random.Random(retry_seed)
        #: the server's idempotency table: key -> applied result.  Lives
        #: with the client object here because the embedded Database *is*
        #: the server; the lookup happens inside the transport call,
        #: i.e. server-side of the (simulated) wire.
        self._applied: Dict[str, Any] = {}
        self._op_seq = 0

    # ------------------------------------------------------------------
    def _charge(self, operation: str, rows: int) -> None:
        """Charge one *successful* round trip to the virtual clock."""
        self.clock.charge(
            f"{self.category}.{operation}", self.cost_model.statement_write_cost(rows)
        )

    def _next_key(self, op: str) -> str:
        self._op_seq += 1
        return f"{self.category}:{op}:{self._op_seq}"

    def _apply_once(self, key: str, execute: Callable[[], Any]) -> Any:
        if key in self._applied:
            return self._applied[key]
        result = execute()
        self._applied[key] = result
        return result

    def _call(
        self,
        op: str,
        execute: Callable[[], Any],
        *,
        request_rows: int = 0,
        key: Optional[str] = None,
    ) -> Any:
        """One logical operation = one or more transport round trips.

        Counts every attempt in ``round_trips``; charges failed attempts
        at the timeout-amplified rate and backoff waits to
        ``<category>.backoff``; re-raises once the policy is exhausted.
        ``key`` routes the execution through the server's idempotency
        table so at-least-once delivery stays exactly-once application.
        """
        if key is not None:
            run = lambda: self._apply_once(key, execute)  # noqa: E731
        else:
            run = execute
        attempt = 1
        while True:
            self.round_trips += 1
            try:
                return self.transport.call(op, run)
            except TransientNetworkError:
                self.failed_round_trips += 1
                self.clock.charge(
                    f"{self.category}.{op}.failed",
                    self.cost_model.failed_round_trip_cost(request_rows),
                )
                if attempt >= self.retry_policy.max_attempts:
                    raise
                self.retries += 1
                self.clock.charge(
                    f"{self.category}.backoff",
                    self.retry_policy.backoff_ms(attempt, self._rng),
                )
                attempt += 1

    # ------------------------------------------------------------------
    # One (successful) round trip each
    # ------------------------------------------------------------------
    def insert(self, table: str, row: "Sequence[Any] | Dict[str, Any]") -> int:
        rowid = self._call(
            "insert",
            lambda: self.db.insert(table, row),
            request_rows=1,
            key=self._next_key("insert"),
        )
        self._charge("insert", 1)
        return rowid

    def insert_many(
        self, table: str, rows: Sequence["Sequence[Any] | Dict[str, Any]"]
    ) -> List[int]:
        """Batch insert: one round trip for the whole batch."""
        rowids = self._call(
            "insert_many",
            lambda: self.db.insert_many(table, rows),
            request_rows=len(rows),
            key=self._next_key("insert_many"),
        )
        self._charge("insert_many", len(rows))
        return rowids

    def execute(self, query: Query) -> List[Dict[str, Any]]:
        # reads are naturally idempotent: retried without a key
        rows = self._call("select", lambda: self.engine.execute(query))
        self._charge("select", len(rows))
        return rows

    def sql(self, statement: str) -> List[Dict[str, Any]]:
        # the SQL subset includes mutations, so statements carry a key
        rows = self._call(
            "sql",
            lambda: execute_sql(self.engine, statement),
            key=self._next_key("sql"),
        )
        self._charge("sql", len(rows))
        return rows

    def delete_where(self, table: str, predicate: Optional[Expr] = None) -> int:
        """One round trip; victims are enumerated server-side through
        the planner's access paths (:meth:`QueryEngine.delete_where`), so
        an indexable predicate no longer full-scans — the *charged*
        round-trip cost is unchanged, only the wall-time side of the
        charged-cost/wall-time split shrinks."""
        affected = self._call(
            "delete",
            lambda: self.engine.delete_where(table, predicate),
            key=self._next_key("delete"),
        )
        self._charge("delete", affected)
        return affected

    def update_where(
        self, table: str, changes: Dict[str, Any], predicate: Optional[Expr] = None
    ) -> int:
        """One round trip; planner-routed victim enumeration, same as
        :meth:`delete_where`."""
        affected = self._call(
            "update",
            lambda: self.engine.update_where(table, changes, predicate),
            key=self._next_key("update"),
        )
        self._charge("update", affected)
        return affected

    # ------------------------------------------------------------------
    # Statistics (not charged: out-of-band instrumentation)
    # ------------------------------------------------------------------
    def row_count(self, table: str) -> int:
        return self.db.table(table).row_count

    def byte_size(self, table: str) -> int:
        return self.db.table(table).byte_size
