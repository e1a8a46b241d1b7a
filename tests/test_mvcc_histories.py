"""Concurrent-history checking for the MVCC engine.

Property-based: hypothesis draws interleaved multi-client schedules
(``tests.strategies.mvcc_schedules``), the driver executes them against
the snapshot-isolation engine recording what every client observed, and
``check_snapshot_isolation`` certifies the history after the fact — no
dirty reads, no non-repeatable reads, read-your-own-writes, and
first-committer-wins on write-write conflicts.

The checker itself is tested adversarially: histories with planted
violations of each invariant must be rejected, otherwise a green run
proves nothing.
"""

from __future__ import annotations

import os

from hypothesis import given, settings

from repro.storage import Database
from repro.storage.client import Client, LocalTransport
from repro.storage.server import DatabaseServer
from repro.workloads.concurrent import (
    History,
    check_snapshot_isolation,
    kv_schema,
    run_schedule,
)

from .strategies import mvcc_schedules

_PROFILES = {
    "default": {"max_examples": 120, "deadline": None},
    # the acceptance gate: history checker green on >= 500 examples
    "ci": {"max_examples": 500, "deadline": None, "derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)


def _run_embedded(schedule, initial):
    """Run ``schedule`` over in-process sessions of one server on a
    ``kv`` table seeded with ``initial``; returns the history and the
    server's MVCC manager (for counter assertions)."""
    db = Database("mvcc_schedule")
    db.create_table(kv_schema())
    for k, v in sorted(initial.items()):
        db.insert("kv", (k, v))
    server = DatabaseServer(db)
    clients = {step[1]: Client(LocalTransport(server)) for step in schedule}
    return run_schedule(schedule, clients, initial), server.manager


def _final_state(history: History) -> dict:
    """Replay committed write sets in commit order over the initial
    state — the state the live table must end in."""
    state = dict(history.initial)
    writers = sorted(
        (
            t
            for t in history.transactions
            if t.status == "committed" and t.write_set()
        ),
        key=lambda t: t.commit_ts,
    )
    for txn in writers:
        for key, value in txn.write_set().items():
            if value is None:
                state.pop(key, None)
            else:
                state[key] = value
    return {k: v for k, v in state.items() if v is not None}


# ----------------------------------------------------------------------
# The property: every generated interleaving yields an SI history
# ----------------------------------------------------------------------
@settings(**_PROFILE)
@given(mvcc_schedules())
def test_schedules_are_snapshot_isolated(drawn):
    initial, schedule = drawn
    history, manager = _run_embedded(schedule, initial)
    violations = check_snapshot_isolation(history)
    assert violations == [], "\n".join(violations)
    # every transaction reached a terminal state and history was pruned
    assert manager.active_count == 0
    assert manager.retained_commits == 0


@settings(**_PROFILE)
@given(mvcc_schedules())
def test_final_state_matches_committed_prefix(drawn):
    """The live table equals the committed write sets replayed in commit
    order — aborted transactions leave no trace."""
    initial, schedule = drawn
    history, manager = _run_embedded(schedule, initial)
    expected = _final_state(history)
    live = {
        ("kv", (row[0],)): row[1]
        for _rowid, row in manager.db.table("kv").scan()
    }
    assert live == expected


# ----------------------------------------------------------------------
# The checker must actually reject bad histories
# ----------------------------------------------------------------------
def _history_with(*txn_specs):
    history = History({("kv", (1,)): 0})
    for client, snapshot, events, commit_ts in txn_specs:
        record = history.begin(client, snapshot)
        for event in events:
            kind = event[0]
            if kind == "read":
                record.read("kv", (event[1],), event[2])
            else:
                record.write("kv", (event[1],), event[2])
        if commit_ts is None:
            record.aborted()
        else:
            record.committed(commit_ts)
    return history


def test_checker_accepts_serial_history():
    history = _history_with(
        ("a", 0, [("read", 1, 0), ("write", 1, 5)], 1),
        ("b", 1, [("read", 1, 5)], 1),
    )
    assert check_snapshot_isolation(history) == []


def test_checker_rejects_dirty_read():
    # b reads a's value while a is still uncommitted at b's snapshot
    history = _history_with(
        ("a", 0, [("write", 1, 5)], 2),
        ("b", 0, [("read", 1, 5)], 0),  # snapshot 0 must still see 0
    )
    violations = check_snapshot_isolation(history)
    assert any("snapshot read" in v for v in violations)


def test_checker_rejects_non_repeatable_read():
    # a's re-read changes value without an intervening own write
    history = _history_with(
        ("w", 0, [("write", 1, 9)], 1),
        ("a", 0, [("read", 1, 0), ("read", 1, 9)], 1),
    )
    violations = check_snapshot_isolation(history)
    assert any("snapshot read" in v for v in violations)


def test_checker_rejects_lost_read_your_own_writes():
    history = _history_with(
        ("a", 0, [("write", 1, 7), ("read", 1, 0)], 1),
    )
    violations = check_snapshot_isolation(history)
    assert any("read-your-own-writes" in v for v in violations)


def test_checker_rejects_double_commit_of_conflicting_writers():
    # both write key 1, both commit, neither saw the other: forbidden
    history = _history_with(
        ("a", 0, [("write", 1, 5)], 1),
        ("b", 0, [("write", 1, 6)], 2),
    )
    violations = check_snapshot_isolation(history)
    assert any("first-committer-wins" in v for v in violations)


def test_checker_allows_sequential_writers():
    # b's snapshot includes a's commit: same keys, no violation
    history = _history_with(
        ("a", 0, [("write", 1, 5)], 1),
        ("b", 1, [("read", 1, 5), ("write", 1, 6)], 2),
    )
    assert check_snapshot_isolation(history) == []


def test_checker_rejects_duplicate_commit_timestamps():
    history = _history_with(
        ("a", 0, [("write", 1, 5)], 1),
        ("b", 1, [("write", 1, 6)], 1),
    )
    violations = check_snapshot_isolation(history)
    assert any("shared by" in v for v in violations)


def test_checker_ignores_aborted_writes():
    history = _history_with(
        ("a", 0, [("write", 1, 5)], None),  # aborted
        ("b", 0, [("read", 1, 0)], 0),
    )
    assert check_snapshot_isolation(history) == []
