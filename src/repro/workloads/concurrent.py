"""Concurrent workload driver and snapshot-isolation history checker.

"Structure and Complexity of Bag Consistency" treats isolation anomalies
as *checkable consistency conditions over histories* — this module takes
the same stance toward the MVCC engine: instead of trusting the
implementation, every concurrent run records a per-client operation
history and :func:`check_snapshot_isolation` certifies it after the
fact.  The invariants checked:

* **Snapshot reads** — every read inside a transaction returns exactly
  the value produced by the newest commit at or before the
  transaction's snapshot timestamp, overlaid with the transaction's own
  earlier writes.  This simultaneously rules out dirty reads (an
  uncommitted peer value could never match), non-repeatable reads (the
  expected value is a function of the fixed snapshot, so re-reads must
  agree), and lost read-your-own-writes.
* **First-committer-wins** — no two *committed* transactions with
  temporally overlapping executions (each one's snapshot predates the
  other's commit) may have intersecting write sets.
* **Commit-timestamp sanity** — committed writers carry distinct
  timestamps, and aborted transactions' writes never appear in any
  read.

Write skew — overlapping *read* sets, disjoint write sets — is
deliberately NOT flagged: snapshot isolation permits it, and the
anomaly regression suite pins that down as documented behavior.

One interpreter, :func:`run_schedule`, drives a schedule through
:class:`~repro.storage.client.Client` sessions, so the checker
certifies embedded histories (an in-process transport) and remote ones
(a live socket) from the same driver.

The module also maps :mod:`repro.workloads.patterns` update scripts onto
the wire protocol of :mod:`repro.storage.server` (``curator_batches``),
so N simulated curators can drive a real server concurrently — each
transaction packed into ONE length-prefixed message, which the client
charges as one round trip.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.updates import Copy, Delete, Insert
from ..storage.errors import WriteConflictError
from ..storage.schema import Column, TableSchema
from ..storage.types import ColumnType

__all__ = [
    "TxnRecord",
    "History",
    "check_snapshot_isolation",
    "kv_schema",
    "run_schedule",
    "prov_schema",
    "curator_batches",
]

#: a history key: (table name, primary-key tuple)
Key = Tuple[str, Tuple[Any, ...]]


@dataclass
class TxnRecord:
    """One transaction's observed history, as its client experienced it."""

    client: Any
    snapshot_ts: int
    #: ordered ("read"|"write", table, key, value) events; a write value
    #: of ``None`` is a delete, a read value of ``None`` is "absent"
    events: List[Tuple[str, str, Tuple[Any, ...], Any]] = field(default_factory=list)
    commit_ts: Optional[int] = None
    status: str = "active"  # -> "committed" | "aborted"

    def read(self, table: str, key: Sequence[Any], value: Any) -> None:
        self.events.append(("read", table, tuple(key), value))

    def write(self, table: str, key: Sequence[Any], value: Any) -> None:
        self.events.append(("write", table, tuple(key), value))

    def committed(self, ts: int) -> None:
        self.status = "committed"
        self.commit_ts = ts

    def aborted(self) -> None:
        self.status = "aborted"

    def write_set(self) -> Dict[Key, Any]:
        """Final value per written key (last write wins)."""
        out: Dict[Key, Any] = {}
        for kind, table, key, value in self.events:
            if kind == "write":
                out[(table, key)] = value
        return out


class History:
    """All transactions of one concurrent run, plus the initial state."""

    def __init__(self, initial: Optional[Dict[Key, Any]] = None) -> None:
        self.initial: Dict[Key, Any] = dict(initial or {})
        self.transactions: List[TxnRecord] = []

    def begin(self, client: Any, snapshot_ts: int) -> TxnRecord:
        record = TxnRecord(client, snapshot_ts)
        self.transactions.append(record)
        return record


def check_snapshot_isolation(history: History) -> List[str]:
    """Verify the SI invariants over a recorded history; returns the
    list of violations (empty = the history is snapshot-isolated)."""
    violations: List[str] = []
    committed = [t for t in history.transactions if t.status == "committed"]
    writers = [t for t in committed if t.write_set()]

    # -- commit-timestamp sanity ---------------------------------------
    by_ts: Dict[int, TxnRecord] = {}
    for txn in writers:
        if txn.commit_ts is None:
            violations.append(f"committed writer {txn.client!r} has no commit ts")
            continue
        if txn.commit_ts <= txn.snapshot_ts:
            violations.append(
                f"txn {txn.client!r} committed at {txn.commit_ts} "
                f"<= its snapshot {txn.snapshot_ts}"
            )
        clash = by_ts.get(txn.commit_ts)
        if clash is not None:
            violations.append(
                f"commit ts {txn.commit_ts} shared by {clash.client!r} "
                f"and {txn.client!r}"
            )
        by_ts[txn.commit_ts] = txn
    writers = sorted(
        (t for t in writers if t.commit_ts is not None), key=lambda t: t.commit_ts
    )

    # committed-value timeline per key: (commit_ts ascending, value)
    timeline: Dict[Key, Tuple[List[int], List[Any]]] = {}
    for key, value in history.initial.items():
        timeline[key] = ([0], [value])
    for txn in writers:
        for key, value in txn.write_set().items():
            ts_list, values = timeline.setdefault(key, ([], []))
            ts_list.append(txn.commit_ts)
            values.append(value)

    def snapshot_value(key: Key, snapshot_ts: int) -> Any:
        entry = timeline.get(key)
        if entry is None:
            return None
        ts_list, values = entry
        position = bisect_right(ts_list, snapshot_ts)
        return values[position - 1] if position else None

    # -- first-committer-wins ------------------------------------------
    # The conflict unit is the row *version*, not the key: a written key
    # is in a transaction's conflict footprint when it either modified a
    # row that pre-existed its snapshot, or net-inserted a surviving row
    # (two surviving inserts of one primary key cannot both commit).  A
    # row created and deleted entirely inside one transaction never
    # existed for anyone else and conflicts with nothing.
    def footprint(txn: TxnRecord) -> set:
        keys = set()
        for key, net_value in txn.write_set().items():
            pre_exists = snapshot_value(key, txn.snapshot_ts) is not None
            if pre_exists or net_value is not None:
                keys.add(key)
        return keys

    for i, first in enumerate(writers):
        first_keys = footprint(first)
        for second in writers[i + 1 :]:
            if second.snapshot_ts >= first.commit_ts:
                continue  # second saw first's commit: no overlap
            overlap = first_keys & footprint(second)
            if overlap:
                violations.append(
                    "first-committer-wins violated: "
                    f"{first.client!r} (snap {first.snapshot_ts}, "
                    f"commit {first.commit_ts}) and {second.client!r} "
                    f"(snap {second.snapshot_ts}, commit {second.commit_ts}) "
                    f"both committed writes to {sorted(overlap)!r}"
                )

    # -- snapshot reads -------------------------------------------------
    for txn in history.transactions:
        own: Dict[Key, Any] = {}
        for kind, table, key, value in txn.events:
            full_key = (table, key)
            if kind == "write":
                own[full_key] = value
                continue
            if full_key in own:
                expected = own[full_key]
                rule = "read-your-own-writes"
            else:
                expected = snapshot_value(full_key, txn.snapshot_ts)
                rule = "snapshot read"
            if value != expected:
                violations.append(
                    f"{rule} violated: txn {txn.client!r} (snap "
                    f"{txn.snapshot_ts}) read {value!r} from {full_key!r}, "
                    f"expected {expected!r}"
                )
    return violations


# ----------------------------------------------------------------------
# Schedule runners (the test harness side)
# ----------------------------------------------------------------------
def kv_schema() -> TableSchema:
    """The two-column table concurrent schedules run against."""
    return TableSchema(
        "kv",
        (Column("k", ColumnType.INT), Column("v", ColumnType.INT)),
        primary_key=("k",),
    )


def run_schedule(
    steps: Sequence[Tuple[Any, ...]],
    clients: Dict[Any, Any],
    initial: Optional[Dict[int, int]] = None,
) -> History:
    """Interpret an interleaved schedule over client sessions, recording
    the history the clients observed.

    ``clients`` maps each client id to a
    :class:`~repro.storage.client.Client`: over a ``LocalTransport`` for
    an embedded engine, or over a ``SocketTransport`` for a live server.
    All must reach the same server, whose ``kv`` table already holds
    exactly ``initial``.

    Steps (``c`` is any hashable client id)::

        ("begin", c)          open a transaction (no-op if one is open)
        ("read", c, k)        point-read key k
        ("write", c, k, v)    upsert k := v
        ("delete", c, k)      delete k (no-op when invisible)
        ("commit", c)         commit; a lost first-committer-wins race
                              records an abort, not a failure
        ("rollback", c)       roll back

    Any transaction still open at the end is committed.
    """
    history = History({("kv", (k,)): v for k, v in (initial or {}).items()})
    records: Dict[Any, TxnRecord] = {}

    def ensure(client: Any) -> TxnRecord:
        record = records.get(client)
        if record is None:
            opened = clients[client].begin()
            record = history.begin(client, opened["snapshot"])
            records[client] = record
        return record

    def finish(client: Any, commit: bool) -> None:
        record = records.pop(client, None)
        if record is None:
            return
        if not commit:
            clients[client].rollback()
            record.aborted()
            return
        try:
            record.committed(clients[client].commit())
        except WriteConflictError:
            record.aborted()

    for step in steps:
        action, client = step[0], step[1]
        if action == "begin":
            ensure(client)
        elif action == "read":
            record = ensure(client)
            row = clients[client].get("kv", [step[2]])
            record.read("kv", (step[2],), None if row is None else row["v"])
        elif action == "write":
            record = ensure(client)
            k, v = step[2], step[3]
            if clients[client].get("kv", [k]) is None:
                clients[client].insert("kv", [k, v])
            else:
                clients[client].sql(f"UPDATE kv SET v = {v} WHERE k = {k}")
            record.write("kv", (k,), v)
        elif action == "delete":
            record = ensure(client)
            affected = clients[client].sql(f"DELETE FROM kv WHERE k = {step[2]}")
            if affected[0]["affected"]:
                record.write("kv", (step[2],), None)
        elif action == "commit":
            finish(client, True)
        elif action == "rollback":
            finish(client, False)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown schedule action {action!r}")
    for client in list(records):
        finish(client, True)
    return history


# ----------------------------------------------------------------------
# Curator workloads (the benchmark side)
# ----------------------------------------------------------------------
#: nodes per copied subtree — the paper's copies are size-four subtrees
COPY_SUBTREE_NODES = 4


def prov_schema() -> TableSchema:
    """Provenance-shaped table the simulated curators write: one row per
    recorded operation, keyed like the store's (tid, op, path) axis."""
    return TableSchema(
        "prov",
        (
            Column("id", ColumnType.TEXT),
            Column("tid", ColumnType.INT),
            Column("op", ColumnType.TEXT),
            Column("path", ColumnType.TEXT),
        ),
        primary_key=("id",),
    )


def curator_batches(
    updates: Sequence[Any],
    curator: int,
    txn_length: int = 5,
) -> List[List[Dict[str, Any]]]:
    """Map an update script (from :func:`~repro.workloads.patterns.
    generate_pattern` / ``generate_script``) onto wire-op batches.

    Each batch is one transaction — ``begin``, the provenance writes of
    ``txn_length`` updates, ``commit`` — intended to be sent as ONE
    protocol message (one round trip), mirroring how the transaction-
    grouped store amortizes commits.  Inserts and deletes record one
    provenance row; a copy records its :data:`COPY_SUBTREE_NODES` node
    rows through a single ``insert_many`` op.
    """
    batches: List[List[Dict[str, Any]]] = []
    ops: List[Dict[str, Any]] = [{"op": "begin"}]
    pending = 0
    seq = 0

    def row(op_code: str, path: str) -> List[Any]:
        nonlocal seq
        seq += 1
        return [f"{curator}:{seq}", curator, op_code, path]

    def flush() -> None:
        nonlocal ops, pending
        if pending:
            ops.append({"op": "commit"})
            batches.append(ops)
        ops = [{"op": "begin"}]
        pending = 0

    for update in updates:
        if isinstance(update, Insert):
            ops.append(
                {
                    "op": "insert",
                    "table": "prov",
                    "row": row("I", f"{update.path}/{update.label}"),
                }
            )
        elif isinstance(update, Delete):
            ops.append(
                {
                    "op": "insert",
                    "table": "prov",
                    "row": row("D", f"{update.path}/{update.label}"),
                }
            )
        elif isinstance(update, Copy):
            ops.append(
                {
                    "op": "insert_many",
                    "table": "prov",
                    "rows": [
                        row("C", f"{update.dst}#{i}")
                        for i in range(COPY_SUBTREE_NODES)
                    ],
                }
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown update {update!r}")
        pending += 1
        if pending >= txn_length:
            flush()
    flush()
    return batches
