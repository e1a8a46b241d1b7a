"""Crash consistency at the paper's level: the editor's transaction is
the provenance store's durability unit.

A curation session runs a random script over a WAL-backed ``ProvTable``
with any of the four methods, committing every ``commit_every`` actions,
and crashes after any action or commit.  After ``db.crash()`` and
recovery from the WAL:

* the provenance rows are exactly the live rows at the last
  ``editor.commit()`` (none before the first commit);
* no transaction is dropped: an uncommitted transaction never reaches
  the WAL, and crashes here fall between writes, never inside one;
* Src/Hist/Mod on the recovered store answer exactly as an uncrashed
  run stopped at that commit.

A failed write or fsync of a transaction's WAL frame makes
``editor.commit()`` raise; the store rolls that transaction back, the
next one commits normally, and recovery holds only the committed
transactions.

The target has no durability: only the provenance store is recovered.
"""

import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.faults import FaultPlan
from repro.core.editor import CurationEditor
from repro.core.paths import Path
from repro.core.provenance import ProvTable
from repro.core.queries import ProvenanceQueries
from repro.core.stores import make_store
from repro.core.updates import parse_script
from repro.storage import Database, WALError
from repro.wrappers.memory import MemorySourceDB, MemoryTargetDB

from .conftest import FIGURE3_SCRIPT, make_s1, make_s2, make_t_initial
from .strategies import SOURCE_NAME, TARGET_NAME, scripts

# ``REPRO_HYPOTHESIS_PROFILE=ci`` derandomizes the property here (same
# example budget), so a durability regression fails deterministically.
_PROFILES = {
    "default": {},
    "ci": {"derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)

METHODS = ("N", "T", "H", "HT")

#: the event that stands for ``editor.commit()`` in a session
COMMIT = "commit"


def session(method, target, sources, wal_dir=None, faults=None):
    """An editor over copies of the given trees, its store's provenance
    database WAL-backed when ``wal_dir`` is given."""
    db = Database("provstore", wal_dir=wal_dir, faults=faults)
    return CurationEditor(
        target=MemoryTargetDB(TARGET_NAME, target.deep_copy()),
        sources=[MemorySourceDB(name, tree.deep_copy()) for name, tree in sources.items()],
        store=make_store(method, ProvTable(db=db)),
    )


def events(ops, commit_every):
    """The script with a commit after every ``commit_every`` actions and
    after the last one."""
    out = []
    for number, op in enumerate(ops, 1):
        out.append(op)
        if number % commit_every == 0 or number == len(ops):
            out.append(COMMIT)
    return out


def play(editor, steps):
    for step in steps:
        if step == COMMIT:
            editor.commit()
        else:
            editor.apply(step)


def rows(store):
    return Counter(row for _rowid, row in store.table.db.table("prov").scan())


def reopen(method, wal_dir):
    """Restart: a fresh database recovered from the WAL, a store over it."""
    table = ProvTable(db=Database("provstore", wal_dir=wal_dir))
    report = table.db.recover()
    return make_store(method, table, first_tid=table.max_tid() + 1), report


def answers(store, target):
    """Src, Hist and Mod at every location of the target tree."""
    queries = ProvenanceQueries(store, target_name=TARGET_NAME)
    locations = [Path([TARGET_NAME]).join(path) for path, _node in target.nodes()]
    return [
        (loc, queries.get_src(loc), queries.get_hist(loc), sorted(queries.get_mod(loc)))
        for loc in locations
    ]


@settings(max_examples=60, deadline=None, **_PROFILE)
@given(
    scripts(max_ops=10),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(METHODS),
    st.data(),
)
def test_crash_recovers_the_last_committed_transaction(drawn, commit_every, method, data):
    workspace, ops = drawn
    target = workspace.roots[TARGET_NAME]
    sources = {SOURCE_NAME: workspace.roots[SOURCE_NAME]}
    steps = events(ops, commit_every)
    crash_after = data.draw(st.integers(min_value=0, max_value=len(steps)), label="crash_after")
    committed = max(
        (number for number, step in enumerate(steps[:crash_after], 1) if step == COMMIT),
        default=0,
    )
    with tempfile.TemporaryDirectory(prefix="crash_consistency_") as wal_dir:
        editor = session(method, target, sources, wal_dir=wal_dir)
        play(editor, steps[:committed])
        live_rows = rows(editor.store)
        play(editor, steps[committed:crash_after])
        editor.store.table.db.crash()
        recovered, report = reopen(method, wal_dir)
        assert rows(recovered) == live_rows
        assert report.txns_dropped == 0
        assert report.corruption is None

        uncrashed = session(method, target, sources)
        play(uncrashed, steps[:committed])
        assert rows(uncrashed.store) == live_rows
        reference_tree = uncrashed.target_tree()
        assert answers(recovered, reference_tree) == answers(uncrashed.store, reference_tree)


#: fault -> (actions of the second transaction applied before the fault
#: is armed, which syscall of its commit fails: 1 the frame write, 2
#: the frame's fsync).  A commit makes only those two syscalls.
FAULTS = {
    "begin": (0, 1),
    # armed after the first action: its rows were staged without I/O,
    # so the fault still lands on the commit's frame write
    "first_row": (1, 1),
    "fsync": (0, 2),
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("method", METHODS)
def test_failed_append_rolls_back_only_its_transaction(method, fault, tmp_path):
    """Figure 3's script in transactions of three actions; the second
    transaction's commit fails, at the write of its WAL frame or at
    that frame's fsync.  Every method stages its rows without I/O, so
    the error surfaces on ``commit`` wherever the fault was armed."""
    armed_after, failing_call = FAULTS[fault]
    plan = FaultPlan()
    sources = {"S1": make_s1(), "S2": make_s2()}
    editor = session(method, make_t_initial(), sources, wal_dir=str(tmp_path), faults=plan)
    store = editor.store
    ops = parse_script(FIGURE3_SCRIPT)

    play(editor, ops[:3] + [COMMIT])
    first_rows = rows(store)
    failed_from = store.next_tid
    play(editor, ops[3 : 3 + armed_after])
    # write, flush and fsync calls are counted together (FaultPlan.fail_io)
    plan.fail_io(on_call=plan._calls + failing_call)
    play(editor, ops[3 + armed_after : 6])
    assert not plan.fired  # no action of the transaction did I/O
    with pytest.raises(WALError):
        editor.commit()
    assert plan.fired == [f"eio@{('write', 'fsync')[failing_call - 1]}:provstore.wal.000001"]
    assert not store.table.db.in_transaction
    assert rows(store) == first_rows
    failed_tids = set(range(failed_from, store.next_tid))

    play(editor, ops[6:] + [COMMIT])
    live_rows = rows(store)
    assert live_rows - first_rows  # the next transaction committed normally
    store.table.db.crash()
    recovered, report = reopen(method, str(tmp_path))
    assert rows(recovered) == live_rows
    assert report.txns_dropped == 0
    assert not {row[0] for row in rows(recovered)} & failed_tids
