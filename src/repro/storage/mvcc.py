"""Snapshot-isolation MVCC over the embedded :class:`~repro.storage.db.Database`.

The embedded engine is single-writer: one undo log, one active
transaction.  This module layers multi-version concurrency on top of it
without rewriting the heap — versions are not chained inside
:class:`~repro.storage.table.Table`; instead the *commit log* is the
version store:

* Every MVCC commit replays its buffered writes through the base
  ``Database`` (one short db-level transaction, so the WAL and undo
  machinery keep working unchanged) and captures the undo entries it
  produced as a **patch list** — ``("insert", table, rowid, row)`` /
  ``("delete", table, rowid, row)`` — stamped with a monotonically
  increasing commit timestamp.
* A **snapshot** is just a timestamp ``S``.  Reading table ``T`` at
  ``S`` takes the live heap and reverse-applies the patches of every
  commit with ``ts > S`` (newest first: un-insert by popping the rowid,
  un-delete by restoring the row), materializing an immutable shadow
  :class:`Table` that preserves row ids.  When no commit after ``S``
  touched ``T`` the live table itself is the snapshot — the common,
  zero-copy fast path.
* Writers never touch shared state before commit: the first write to a
  table clones the snapshot into a private **workspace** table
  (read-your-own-writes falls out for free, constraint checks run
  against snapshot + own writes), and a logical op log records what to
  replay at commit.
* **First-committer-wins**: at commit, the rowids this transaction
  wrote (of rows that existed at its snapshot) are checked against the
  patch rowids of every commit that landed after its snapshot; any
  intersection aborts the later committer with
  :class:`~repro.storage.errors.WriteConflictError`.  Insert/insert
  primary-key races have no shared rowid — those surface as
  ``DuplicateKeyError`` during replay and are converted to the same
  conflict error.  Write skew (disjoint write sets, overlapping read
  sets) is *allowed* — that is snapshot isolation, not serializability,
  and the anomaly suite pins it down as documented behavior.

Transactions plan over their own tables — the snapshot view or the
workspace of each table they read — with
:func:`~repro.storage.query.plan_query`, so a plan is always bound to
the snapshot that asked for it; nothing is cached across calls.
``manager.engine`` (a :class:`~repro.storage.query.QueryEngine` over
the live catalog) runs the server's catalog statements.

Concurrency model: cooperative, not preemptive.  Transactions interleave
at operation granularity (an asyncio server switching connections, a
test scheduler alternating clients); each individual operation runs to
completion on one thread.  That is exactly the granularity at which the
paper's round-trip economics are measured.

DDL is not versioned: ``create_table`` / ``create_index`` / ``drop``
apply to the live catalog immediately.  Snapshots see new indexes only
on shadow rebuild and never retroactively — acceptable for a store
whose schema changes are rare administrative events.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .db import Database
from .errors import (
    DuplicateKeyError,
    TransactionError,
    WriteConflictError,
)
from .expr import Expr
from .plan import PlanNode
from .query import Query, QueryEngine, mutation_victims, plan_query
from .sql import (
    CreateIndexStmt,
    CreateTableStmt,
    DropTableStmt,
    _run_statement,
    parse_statement,
)
from .table import Table

__all__ = ["MVCCManager", "MVCCTransaction", "CommitRecord"]

#: patch tuple: (kind, table, rowid, row) with kind "insert" | "delete",
#: exactly the shape of the database's undo entries
Patch = Tuple[str, str, int, Tuple[Any, ...]]


class CommitRecord:
    """One committed transaction in the version store: its timestamp and
    the forward patches it applied (undo-entry shaped)."""

    __slots__ = ("ts", "patches", "tables")

    def __init__(self, ts: int, patches: List[Patch]) -> None:
        self.ts = ts
        self.patches = patches
        self.tables = frozenset(patch[1] for patch in patches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommitRecord(ts={self.ts}, patches={len(self.patches)})"


class MVCCManager:
    """Snapshot-isolation coordinator for one :class:`Database`.

    Owns the commit timestamp, the commit log (the version store), the
    snapshot-view cache, the active-transaction registry that bounds how
    much history must be retained, and a :class:`QueryEngine` over the
    live catalog.
    """

    def __init__(self, db: Database, *, faults=None) -> None:
        self.db = db
        self.engine = QueryEngine(db)
        #: fault-injection plan for the commit protocol's crash points
        #: (``mvcc.commit.begin`` / ``mvcc.commit.mid`` /
        #: ``mvcc.commit.apply``); defaults to the database's own plan
        self.faults = faults if faults is not None else db.faults
        self._commit_ts = 0
        self._commits: List[CommitRecord] = []  # ascending ts
        #: last commit timestamp that touched each table — the fast-path
        #: test "is the live table already the snapshot?"
        self._table_commit_ts: Dict[str, int] = {}
        #: materialized shadows keyed (table, snapshot_ts); immutable
        #: once built (history ≤ S never changes)
        self._views: Dict[Tuple[str, int], Table] = {}
        self._next_txn_id = 1
        self._active: Dict[int, "MVCCTransaction"] = {}
        self.counters: Dict[str, int] = {
            "begun": 0,
            "committed": 0,
            "aborted": 0,
            "conflicts": 0,
            "views_built": 0,
            "fast_path_reads": 0,
        }

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> "MVCCTransaction":
        """Open a transaction whose reads all see the database as of now."""
        txn = MVCCTransaction(self, self._next_txn_id, self._commit_ts)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        self.counters["begun"] += 1
        return txn

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def retained_commits(self) -> int:
        """Commit records currently held for live snapshots (GC gauge)."""
        return len(self._commits)

    def run(self, fn, *, retries: int = 0):
        """Run ``fn(txn)`` in a fresh transaction, committing on success
        and rolling back on any exception; ``retries`` extra attempts are
        made when the commit loses a first-committer-wins race."""
        attempt = 0
        while True:
            txn = self.begin()
            try:
                result = fn(txn)
                txn.commit()
                return result
            except WriteConflictError:
                if txn.status == "active":  # pragma: no cover - defensive
                    txn.rollback()
                if attempt >= retries:
                    raise
                attempt += 1
            except BaseException:
                if txn.status == "active":
                    txn.rollback()
                raise

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def read_view(self, name: str, snapshot_ts: int) -> Table:
        """The state of table ``name`` as of ``snapshot_ts``.

        Fast path: when no commit newer than the snapshot touched the
        table, the live table *is* the snapshot.  Otherwise reconstruct
        (and cache) a shadow by reverse-applying newer commits' patches
        over a copy of the live heap.
        """
        base = self.db.table(name)
        if self._table_commit_ts.get(name, 0) <= snapshot_ts:
            self.counters["fast_path_reads"] += 1
            return base
        cached = self._views.get((name, snapshot_ts))
        if cached is not None:
            return cached
        rows = dict(base._rows)
        byte_size = base._byte_size
        row_bytes = base.schema.row_bytes
        for commit in reversed(self._commits):
            if commit.ts <= snapshot_ts:
                break
            if name not in commit.tables:
                continue
            for kind, tname, rowid, row in reversed(commit.patches):
                if tname != name:
                    continue
                if kind == "insert":  # un-insert
                    popped = rows.pop(rowid, None)
                    if popped is not None:
                        byte_size -= row_bytes(popped)
                else:  # un-delete
                    rows[rowid] = row
                    byte_size += row_bytes(row)
        view = Table._from_snapshot(
            base.schema,
            rows,
            list(base.index_specs.values()),
            byte_size=byte_size,
        )
        self._views[(name, snapshot_ts)] = view
        self.counters["views_built"] += 1
        return view

    # ------------------------------------------------------------------
    # Commit protocol
    # ------------------------------------------------------------------
    def _detect_conflicts(self, txn: "MVCCTransaction") -> None:
        """First-committer-wins: abort ``txn`` if any commit newer than
        its snapshot wrote a row id ``txn`` also wrote."""
        if not txn._writes:
            return
        for commit in reversed(self._commits):
            if commit.ts <= txn.snapshot_ts:
                break
            for kind, tname, rowid, _row in commit.patches:
                written = txn._writes.get(tname)
                if written is not None and rowid in written:
                    self.counters["conflicts"] += 1
                    raise WriteConflictError(
                        f"write-write conflict on {tname!r} rowid {rowid}: "
                        f"committed at ts {commit.ts} after snapshot "
                        f"{txn.snapshot_ts}",
                        table=tname,
                        rowids=(rowid,),
                    )

    def _commit(self, txn: "MVCCTransaction") -> int:
        faults = self.faults
        if not txn._ops:
            # read-only: nothing to install, no timestamp consumed
            self._finish(txn, "committed")
            return txn.snapshot_ts
        try:
            self._detect_conflicts(txn)
        except WriteConflictError:
            self._finish(txn, "aborted")
            raise
        db = self.db
        db.begin()
        if faults is not None:
            faults.reached("mvcc.commit.begin")
        remap: Dict[Tuple[str, int], int] = {}
        try:
            first = True
            for op in txn._ops:
                if not first and faults is not None:
                    faults.reached("mvcc.commit.mid")
                first = False
                kind = op[0]
                if kind == "insert":
                    _kind, name, ws_rowid, row = op
                    try:
                        remap[(name, ws_rowid)] = db.insert(name, row)
                    except DuplicateKeyError as exc:
                        self.counters["conflicts"] += 1
                        raise WriteConflictError(
                            f"insert race on {name!r}: {exc}", table=name
                        ) from exc
                elif kind == "delete":
                    _kind, name, rowid = op
                    db.delete_rowids(name, [remap.get((name, rowid), rowid)])
                else:  # update
                    _kind, name, rowid, changes = op
                    try:
                        db.update_rowids(
                            name, [remap.get((name, rowid), rowid)], changes
                        )
                    except DuplicateKeyError as exc:
                        self.counters["conflicts"] += 1
                        raise WriteConflictError(
                            f"update race on {name!r}: {exc}", table=name
                        ) from exc
            if faults is not None:
                faults.reached("mvcc.commit.apply")
            patches: List[Patch] = [
                (entry.kind, entry.table, entry.rowid, entry.row)
                for entry in db._undo
            ]
            db.commit()
        except WriteConflictError:
            db.rollback()
            self._finish(txn, "aborted")
            raise
        except Exception:
            if db.in_transaction:
                db.rollback()
            self._finish(txn, "aborted")
            raise
        self._commit_ts += 1
        ts = self._commit_ts
        record = CommitRecord(ts, patches)
        self._commits.append(record)
        for tname in record.tables:
            self._table_commit_ts[tname] = ts
        self._finish(txn, "committed")
        return ts

    def _rollback(self, txn: "MVCCTransaction") -> None:
        self._finish(txn, "aborted")

    def _finish(self, txn: "MVCCTransaction", status: str) -> None:
        txn.status = status
        self.counters["committed" if status == "committed" else "aborted"] += 1
        self._active.pop(txn.txn_id, None)
        self._prune()

    def _prune(self) -> None:
        """Drop history no live snapshot can reach: commit records at or
        below the oldest active snapshot, and cached shadows for
        snapshot timestamps no active transaction holds."""
        if self._active:
            horizon = min(t.snapshot_ts for t in self._active.values())
            live = {t.snapshot_ts for t in self._active.values()}
        else:
            horizon = self._commit_ts
            live = set()
        if self._commits and self._commits[0].ts <= horizon:
            self._commits = [c for c in self._commits if c.ts > horizon]
        if self._views:
            self._views = {
                key: view for key, view in self._views.items() if key[1] in live
            }


class MVCCTransaction:
    """One snapshot-isolation transaction.

    All reads observe the database as of ``snapshot_ts``; writes buffer
    in private workspace tables and an op log until :meth:`commit`
    replays them through the base engine (or :meth:`rollback` discards
    them).  Not thread-safe — interleave at operation granularity.
    """

    def __init__(self, manager: MVCCManager, txn_id: int, snapshot_ts: int) -> None:
        self.manager = manager
        self.txn_id = txn_id
        self.snapshot_ts = snapshot_ts
        self.status = "active"  # -> "committed" | "aborted"
        #: logical replay log: ("insert", table, ws_rowid, row) |
        #: ("delete", table, rowid) | ("update", table, rowid, changes)
        self._ops: List[Tuple[Any, ...]] = []
        #: rowids of *pre-existing* rows this txn wrote, per table — the
        #: first-committer-wins conflict footprint
        self._writes: Dict[str, Set[int]] = {}
        #: copy-on-first-write shadow per written table
        self._workspace: Dict[str, Table] = {}
        #: rowids created by this txn inside each workspace (they remap
        #: to fresh base rowids at replay and are *not* conflict victims)
        self._own_inserts: Dict[str, Set[int]] = {}

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _check_active(self) -> None:
        if self.status != "active":
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status}, not active"
            )

    def _view(self, name: str) -> Table:
        """The table this transaction reads: its workspace when it has
        written the table, else the shared snapshot view."""
        ws = self._workspace.get(name)
        if ws is not None:
            return ws
        return self.manager.read_view(name, self.snapshot_ts)

    def _workspace_for(self, name: str) -> Table:
        ws = self._workspace.get(name)
        if ws is not None:
            return ws
        src = self.manager.read_view(name, self.snapshot_ts)
        ws = Table._from_snapshot(
            src.schema,
            dict(src._rows),
            list(src.index_specs.values()),
            byte_size=src._byte_size,
        )
        self._workspace[name] = ws
        self._own_inserts[name] = set()
        return ws

    def _mark_write(self, name: str, rowid: int) -> None:
        if rowid in self._own_inserts.get(name, ()):
            return  # own insert: invisible to other snapshots, no conflict
        self._writes.setdefault(name, set()).add(rowid)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, table_name: str, key: Sequence[Any]) -> Optional[Dict[str, Any]]:
        """Primary-key point read against the snapshot (plus own writes);
        returns the row as a dict, or ``None``."""
        self._check_active()
        view = self._view(table_name)
        found = view.lookup_pk(tuple(key))
        if found is None:
            return None
        return view.schema.row_as_dict(found[1])

    def scan(self, table_name: str) -> List[Dict[str, Any]]:
        """Full-table read against the snapshot (plus own writes)."""
        self._check_active()
        view = self._view(table_name)
        as_dict = view.schema.row_as_dict
        return [as_dict(row) for _rowid, row in view.scan()]

    def plan(self, query: Query) -> PlanNode:
        """Physical plan for ``query`` over this snapshot (plus own
        writes).  Only the tables the query names get a view: a view of
        a table changed since the snapshot is a shadow built for it."""
        self._check_active()
        catalog = self.manager.db.tables
        names = [query.table.name, *(join.table.name for join in query.joins)]
        tables = {name: self._view(name) for name in names if name in catalog}
        return plan_query(tables, query)

    def execute(self, query: Query) -> List[Dict[str, Any]]:
        return list(self.plan(query).execute())

    # ------------------------------------------------------------------
    # Writes (buffered)
    # ------------------------------------------------------------------
    def insert(self, table_name: str, row: "Sequence[Any] | Dict[str, Any]") -> int:
        """Buffer an insert; constraints are checked against the snapshot
        plus this transaction's own writes.  Returns a *workspace* row id
        (replay assigns the durable one)."""
        self._check_active()
        ws = self._workspace_for(table_name)
        rowid = ws.insert(row)
        self._own_inserts[table_name].add(rowid)
        self._ops.append(("insert", table_name, rowid, ws.get(rowid)))
        return rowid

    def insert_many(
        self, table_name: str, rows: Sequence["Sequence[Any] | Dict[str, Any]"]
    ) -> List[int]:
        """Buffer a multi-row insert as one statement: the workspace's
        ``bulk_insert`` validates every row before applying any, so a
        failing row leaves none of the batch buffered."""
        self._check_active()
        ws = self._workspace_for(table_name)
        rowids = ws.bulk_insert(rows)
        self._own_inserts[table_name].update(rowids)
        self._ops.extend(("insert", table_name, rowid, ws.get(rowid)) for rowid in rowids)
        return rowids

    def delete_where(
        self, table_name: str, predicate: Optional[Expr] = None
    ) -> int:
        """Buffer deletion of every snapshot-visible row matching
        ``predicate``; returns the count."""
        self._check_active()
        ws = self._workspace_for(table_name)
        doomed = mutation_victims(ws, predicate)
        for rowid in doomed:
            ws.delete_row(rowid)
            self._mark_write(table_name, rowid)
            self._ops.append(("delete", table_name, rowid))
        return len(doomed)

    def update_where(
        self,
        table_name: str,
        changes: Dict[str, Any],
        predicate: Optional[Expr] = None,
    ) -> int:
        """Buffer an update of every snapshot-visible row matching
        ``predicate``; returns the count."""
        self._check_active()
        ws = self._workspace_for(table_name)
        victims = mutation_victims(ws, predicate)
        for rowid in victims:
            ws.update_row(rowid, changes)
            self._mark_write(table_name, rowid)
            self._ops.append(("update", table_name, rowid, dict(changes)))
        return len(victims)

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def sql(self, text: str) -> List[Dict[str, Any]]:
        """Run one SQL statement inside this transaction.

        DML and SELECT observe the snapshot; DDL is not versioned and is
        rejected here — run it via the database in autocommit instead.
        """
        self._check_active()
        statement = parse_statement(text)
        if isinstance(statement, (CreateTableStmt, CreateIndexStmt, DropTableStmt)):
            raise TransactionError(
                f"{type(statement).__name__} is DDL and not snapshot-versioned; "
                "execute it outside a transaction"
            )
        return _run_statement(self, statement)

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Install this transaction's writes; returns its commit
        timestamp (the snapshot timestamp for read-only transactions).

        Raises :class:`WriteConflictError` — after rolling everything
        back — when a first-committer-wins race was lost."""
        self._check_active()
        return self.manager._commit(self)

    def rollback(self) -> None:
        self._check_active()
        self.manager._rollback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MVCCTransaction(id={self.txn_id}, snapshot={self.snapshot_ts}, "
            f"{self.status}, ops={len(self._ops)})"
        )
