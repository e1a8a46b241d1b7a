#!/usr/bin/env python3
"""Curation-session benchmark: the paper's path, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload session-real-naive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload query-ht --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

Each run is one process with one closed-loop client and no threads.  It
drives ``CurationEditor`` -> wrappers/xmldb -> provenance store ->
``ProvTable`` -> storage table/index/plan -> WAL through public calls
only.  The benchmark generates every input from ``--seed``; the program
receives the update script and the query locations.

Workloads (see README.md for why each exists):

* ``session-real-naive``: the Table-2 ``real`` script (14 000 actions)
  through the naive store, one durable WAL transaction per action,
  committing every 7 actions.
* ``query-ht``: an untimed session writes the script through the
  hierarchical-transactional (HT) store; the benchmark then reopens that
  provenance database (``Database.recover`` of its WAL, then building
  the store) and answers Src/Hist/Mod queries round-robin.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
Lines before it record the run's context (nproc, load average, Python
version, flush policy), the unscaled wall-clock timings (the metrics
are scaled to a nominal machine speed, see ``Speedometer``) and the
exact counts, which repeat bit-for-bit at a fixed seed.  Any failed
correctness check makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space for the WALs, inside the checkout; removed at exit
WORK = os.path.join(HERE, "_work")
#: pinned so set iteration order, and with it every exact count, repeats
HASH_SEED = "0"

STEPS = 14000
#: setup_s is the median of many set-ups spread over the run: this many
#: before each session (the last one runs it), and one reopen before each
#: query round of QUERY_ROUND_S seconds
SETUPS_PER_SESSION = 8
QUERY_ROUND_S = 1.0
#: query locations drawn for query-ht (each is queried by all three
#: kinds, and a run passes over the list several times)
QUERY_LOCS = 8000
#: query locations a session's reopen check answers on both stores
CHECK_LOCS = 200
KINDS = ("src", "hist", "mod")
#: workload -> provenance store method of its session
WORKLOADS = {
    "session-real-naive": "N",
    "query-ht": "HT",
}
FLUSH_POLICY = "fsync on every Database.commit (WriteAheadLog.flush)"
#: a speed reading is taken after every PROBE_EVERY_S seconds of measured
#: work; it is the fastest of PROBE_REPEATS runs of the reference probe
PROBE_EVERY_S = 0.05
PROBE_REPEATS = 5
PROBE_LOOPS = 2000
#: the reference probe's duration at the nominal speed the end-to-end
#: timings are expressed in: about its median over 10 minutes on a
#: shared 2-vCPU x86 host with CPython 3.11, where it ranged 110-195 us
PROBE_NOMINAL_S = 150e-6
#: a reading also times DISK_REPEATS fsyncs, each after appending a block
#: the size of a naive session's WAL record (2 450 048 B / 14 000
#: actions), to a file next to the WALs; the median is the disk's reading
DISK_REPEATS = 3
DISK_RECORD = b"\0" * 175
#: the fsync's duration at the nominal disk speed (about its typical
#: duration on the ext4 disk of the host above, 75-200 us)
DISK_NOMINAL_S = 80e-6


# ----------------------------------------------------------------------
# The program under test
# ----------------------------------------------------------------------
def import_program():
    """Import the program from the checkout's ``src``, never from
    anywhere else on the path; exit without a result when it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(src, "repro"):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    global P
    P = _Program()


class _Program:
    """The program's public names the benchmark uses."""

    def __init__(self) -> None:
        from repro.bench.experiments import REAL_TXN_LENGTH, _sizes_for
        from repro.core.editor import CurationEditor
        from repro.core.provenance import ProvenanceStore, ProvTable
        from repro.core.queries import ProvenanceQueries
        from repro.core.stores import STORE_METHODS, make_store
        from repro.core.updates import Copy, Insert, Workspace, apply_update
        from repro.storage.db import Database
        from repro.storage.plan import IndexNestedLoopJoin
        from repro.storage.table import Table
        from repro.storage.wal import WriteAheadLog
        from repro.workloads.runner import generate_script
        from repro.workloads.synth import mimi_like_tree, organelledb_like
        from repro.wrappers.relational import RelationalSourceDB
        from repro.wrappers.xml import XMLSourceDB, XMLTargetDB
        from repro.xmldb.store import XMLDatabase

        self.__dict__.update(
            {name: value for name, value in locals().items() if name != "self"}
        )


P: _Program


# ----------------------------------------------------------------------
# Inputs (generated from the seed; never timed)
# ----------------------------------------------------------------------
class Inputs:
    def __init__(self, seed: int, steps: int) -> None:
        sizes = P._sizes_for(steps)
        self.script = P.generate_script("real", steps, seed=seed, **sizes)
        # the same seeds generate_script derives its databases from
        source = P.organelledb_like(n_proteins=sizes["n_proteins"], seed=seed)
        protein = source.table("protein")
        self.source_schema = protein.schema
        self.source_rows = [row for _rowid, row in protein.scan()]
        self.tree = P.mimi_like_tree(n_molecules=sizes["n_molecules"], seed=seed + 1)
        rng = random.Random(seed + 13)
        candidates = [
            update.dst if isinstance(update, P.Copy) else update.path.child(update.label)
            for update in self.script
            if isinstance(update, (P.Copy, P.Insert))
        ]
        self.query_slots = [
            (kind, loc)
            for loc in (rng.choice(candidates) for _ in range(QUERY_LOCS))
            for kind in KINDS
        ]
        self.check_slots = self.query_slots[: 3 * CHECK_LOCS]

    def source_db(self):
        db = P.Database("organelledb")
        db.create_table(self.source_schema)
        db.bulk_load("protein", self.source_rows)
        return db

    def expected_target(self):
        """The script applied to a plain Workspace: the reference result
        every session's target must equal."""
        workspace = P.Workspace(
            {
                "T": self.tree.deep_copy(),
                "S": P.RelationalSourceDB("S", self.source_db()).tree_from_db(),
            }
        )
        for update in self.script:
            P.apply_update(workspace, update)
        return workspace.target_tree()


# ----------------------------------------------------------------------
# Program set-up
# ----------------------------------------------------------------------
def set_up_session(inputs: Inputs, method: str, wal_dir: str):
    """A fresh curation session: source and target loaded, an empty
    WAL-backed provenance database, the store and the editor."""
    xml = P.XMLDatabase("mimi")
    xml.load_tree(inputs.tree)
    table = P.ProvTable(db=P.Database("provstore", wal_dir=wal_dir))
    store = P.make_store(method, table)
    return P.CurationEditor(
        target=P.XMLTargetDB("T", xml),
        sources=[P.RelationalSourceDB("S", inputs.source_db())],
        store=store,
    )


def reopen(method: str, wal_dir: str):
    """Restart: recover the provenance database from its WAL and build
    the store over it.  Returns the store and the recovery report."""
    table = P.ProvTable(db=P.Database("provstore", wal_dir=wal_dir))
    report = table.db.recover()
    store = P.make_store(method, table, first_tid=table.max_tid() + 1)
    return store, report


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# Speed normalisation
# ----------------------------------------------------------------------
_PROBE_TABLE = {number: number * 7 for number in range(256)}


def probe() -> float:
    """One run of the reference probe: a fixed pure-Python loop of dict
    lookups and integer arithmetic that allocates no tracked objects, so
    it neither triggers nor defers the program's garbage collection."""
    table = _PROBE_TABLE
    total = 0
    start = time.perf_counter()
    for number in range(PROBE_LOOPS):
        total += table[number & 255] ^ number
    return time.perf_counter() - start


class Speedometer:
    """The machine's speed over a run, read between measured operations,
    and the operations' timings.

    A shared host changes speed by up to 1.8x in states lasting from
    about a second to tens of seconds, and the program slows with the
    reference probe.  Its disk's fsyncs slow too, by other amounts.  So
    the program's fsyncs are timed apart from the rest of an operation:
    the rest is scaled by PROBE_NOMINAL_S over the probe's duration
    around it, the fsyncs by DISK_NOMINAL_S over the disk's reading, and
    the operation reads as at the nominal speed.  The readings between
    which an operation ran, and the one before and after those, give
    each duration as their median."""

    def __init__(self) -> None:
        self.cpu_readings = []
        self.disk_readings = []
        #: seconds the program has spent in os.fsync while timed
        self.synced = 0.0
        # compact, so that the samples move peak_rss_mb as little as they can
        self.ops = array("i")
        self.seconds = array("d")
        self.synced_seconds = array("d")
        self.blocks = array("i")
        self.setups = []
        self._disk = None

    @contextmanager
    def timing(self):
        """Time the program's fsyncs, and open the disk probe's file."""
        original = os.fsync

        def fsync(fd):
            start = time.perf_counter()
            try:
                return original(fd)
            finally:
                self.synced += time.perf_counter() - start

        os.makedirs(WORK, exist_ok=True)
        self._disk = open(os.path.join(WORK, "disk-probe"), "ab", buffering=0)
        self._fsync = original
        os.fsync = fsync
        try:
            yield self
        finally:
            os.fsync = original
            self._disk.close()

    def disk_probe(self) -> float:
        self._disk.write(DISK_RECORD)
        start = time.perf_counter()
        self._fsync(self._disk.fileno())
        return time.perf_counter() - start

    def read(self) -> None:
        self.cpu_readings.append(min(probe() for _ in range(PROBE_REPEATS)))
        self.disk_readings.append(statistics.median(self.disk_probe() for _ in range(DISK_REPEATS)))

    def block(self) -> int:
        return len(self.cpu_readings) - 1

    def record(self, op: int, seconds: float, synced: float) -> None:
        self.ops.append(op)
        self.seconds.append(seconds)
        self.synced_seconds.append(synced)
        self.blocks.append(self.block())

    def factors(self) -> tuple:
        """Per block, the CPU's and the disk's scale factors."""

        def scale(nominal, readings):
            return [
                nominal / statistics.median(readings[max(0, block - 1): block + 3])
                for block in range(len(readings))
            ]

        return scale(PROBE_NOMINAL_S, self.cpu_readings), scale(DISK_NOMINAL_S, self.disk_readings)

    def timed_setup(self, fn, *args):
        """A set-up between two readings; its scaled time is a setup_s
        sample."""
        gc.collect()
        self.read()
        synced = self.synced
        start = time.perf_counter()
        result = fn(*args)
        self.setups.append((time.perf_counter() - start, self.synced - synced, self.block()))
        self.read()
        return result


# ----------------------------------------------------------------------
# Measured operations
# ----------------------------------------------------------------------
class Failures:
    """Counts failed operations and keeps the first few reasons."""

    def __init__(self) -> None:
        self.count = 0
        self.reasons = []

    def add(self, count: int, reason: str) -> None:
        self.count += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def run_session(editor, script, failures: Failures, speed=None) -> float:
    """Apply the script, committing every REAL_TXN_LENGTH actions; the
    commit's time is charged to the action that closes the transaction.
    With a speedometer, each action's time is recorded in it, between
    speed readings."""
    clock = time.perf_counter
    last = len(script)
    txn = P.REAL_TXN_LENGTH
    if speed is not None:
        speed.read()
    start = clock()
    next_read = start + PROBE_EVERY_S
    for number, update in enumerate(script, 1):
        synced = speed.synced if speed is not None else 0.0
        began = clock()
        try:
            editor.apply(update)
            if number % txn == 0 or number == last:
                editor.commit()
        except Exception:  # a failed action is counted, the session goes on
            failures.add(1, traceback.format_exc(limit=3))
        end = clock()
        if speed is not None:
            speed.record(number - 1, end - began, speed.synced - synced)
            if end >= next_read:
                speed.read()
                next_read = clock() + PROBE_EVERY_S
    if speed is not None:
        speed.read()
    return clock() - start


def normalized(kind: str, result):
    return tuple(sorted(result)) if kind == "mod" else result


def run_queries(queries, slots, answers, first, seconds, speed, failures: Failures):
    """Answer the slots round-robin, starting at query number ``first``,
    until ``seconds`` have passed (at least one query).  Each query's
    time is recorded in ``speed``, between speed readings, and each
    slot's last answer goes to ``answers[slot]``.  Returns the elapsed
    time and the number of queries."""
    clock = time.perf_counter
    calls = [(getattr(queries, "get_" + kind), loc) for kind, loc in slots]
    number = first
    gc.collect()
    speed.read()
    start = end = clock()
    next_read = start + PROBE_EVERY_S
    while end - start < seconds or number == first:
        slot = number % len(calls)
        fn, loc = calls[slot]
        synced = speed.synced
        began = clock()
        try:
            answers[slot] = fn(loc)
        except Exception:
            failures.add(1, traceback.format_exc(limit=3))
        end = clock()
        speed.record(slot, end - began, speed.synced - synced)
        if end >= next_read:
            speed.read()
            next_read = clock() + PROBE_EVERY_S
        number += 1
    speed.read()
    return end - start, number - first


def answer_all(queries, slots):
    return [normalized(kind, getattr(queries, "get_" + kind)(loc)) for kind, loc in slots]


def digest(answers) -> str:
    return hashlib.sha256(repr(answers).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Durability check: acknowledged writes survive a restart
# ----------------------------------------------------------------------
def prov_rows(store) -> Counter:
    """The multiset of rows in the store's provenance table."""
    return Counter(row for _rowid, row in store.table.db.table("prov").scan())


def reference(store, slots):
    """What the live store holds and answers before the restart."""
    return prov_rows(store), answer_all(P.ProvenanceQueries(store), slots)


def wal_bytes(wal_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(wal_dir, name)) for name in os.listdir(wal_dir)
    )


def index_passes(table) -> int:
    counts = table.access_counts
    return sum(
        counts[kind]
        for kind in ("scan", "eq_lookup", "prefix_scan", "range_scan", "multi_range_scan")
    )


def round_trips(clock) -> int:
    return sum(clock.count(category) for category in clock.categories() if category.startswith("prov."))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Run:
    """State shared by one invocation's phases."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer, steps: int = STEPS) -> None:
        self.workload = workload
        self.method = WORKLOADS[workload]
        self.seconds = seconds
        self.tracer = tracer
        self.inputs = Inputs(seed, steps)
        self.expected = self.inputs.expected_target()
        self.failures = Failures()
        self.attempted = 0
        self.counts = {}
        #: the measured operations (script actions or query slots, each
        #: repeated) and set-ups, with the machine's speed around them
        self.speed = Speedometer() if tracer is None else None
        self.op_seconds = 0.0
        self.prov_bytes = self.wal_bytes = 0
        self.wal_dirs = 0
        self.layer = {}

    def traced(self):
        return self.tracer.window() if self.tracer is not None else nullcontext()

    def new_wal_dir(self) -> str:
        self.wal_dirs += 1
        path = os.path.join(WORK, f"wal-{self.wal_dirs}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def record_counts(self, counts: dict) -> None:
        """Exact counts must repeat within a run as well as across runs."""
        if self.counts and counts != self.counts:
            self.failures.add(1, f"counts changed between passes: {self.counts} != {counts}")
        self.counts = counts

    # -- one session, then its restart check -----------------------------
    def session_pass(self, editor, wal_dir: str, trace: bool) -> float:
        gc.collect()
        with self.traced() if trace else nullcontext():
            elapsed = run_session(editor, self.inputs.script, self.failures, self.speed)
        self.attempted += len(self.inputs.script)
        xml = editor.target.db
        table = editor.store.table
        if editor.target_tree() != self.expected:
            self.failures.add(len(self.inputs.script), "target tree differs from the Workspace replay")
        live_rows, live_answers = reference(editor.store, self.inputs.check_slots)
        self.layer.update(
            actions=len(self.inputs.script),
            rows_written=table.row_count,
            write_round_trips=round_trips(table.clock),
        )
        self.prov_bytes = table.byte_size
        self.wal_bytes = wal_bytes(wal_dir)
        counts = {
            "renumbers": xml.access_counts["renumber"],
            "prov_rows": table.row_count,
            "prov_bytes": self.prov_bytes,
            "wal_bytes": self.wal_bytes,
        }
        table.db.crash()
        with self.traced() if trace else nullcontext():
            store, report = reopen(self.method, wal_dir)
            before = index_passes(store.table.db.table("prov"))
            answers = answer_all(P.ProvenanceQueries(store), self.inputs.check_slots)
        self.layer.update(
            records_scanned=report.records_scanned,
            rows_recovered=store.table.row_count,
            queries=len(answers),
            index_passes=index_passes(store.table.db.table("prov")) - before,
        )
        self.check_recovered(store, report, live_rows, len(self.inputs.script))
        if answers != live_answers:
            self.failures.add(len(self.inputs.script), "answers after the restart differ from the live store")
        counts.update(
            wal_records=report.records_scanned,
            wal_commits=report.txns_replayed,
            check_answers_digest=digest(live_answers),
        )
        self.record_counts(counts)
        return elapsed

    def run_sessions(self) -> None:
        while self.op_seconds < self.seconds or not self.speed.setups:
            editor = None
            for _ in range(SETUPS_PER_SESSION):
                if editor is not None:
                    # a spare set-up: closed and removed before the next one
                    editor.store.table.db.crash()
                    shutil.rmtree(wal_dir, ignore_errors=True)
                wal_dir = self.new_wal_dir()
                editor = self.speed.timed_setup(set_up_session, self.inputs, self.method, wal_dir)
            self.op_seconds += self.session_pass(editor, wal_dir, trace=False)
            shutil.rmtree(wal_dir, ignore_errors=True)

    def trace_session(self) -> None:
        """One untraced session, then one traced (set-up, session and
        restart check in the traced windows)."""
        wal_dir = self.new_wal_dir()
        editor = set_up_session(self.inputs, self.method, wal_dir)
        untraced = self.session_pass(editor, wal_dir, trace=False)
        wal_dir = self.new_wal_dir()
        with self.tracer.window():
            editor = set_up_session(self.inputs, self.method, wal_dir)
        traced = self.session_pass(editor, wal_dir, trace=True)
        self.layer["renumbers"] = editor.target.db.access_counts["renumber"]
        self.layer["overhead"] = traced / untraced - 1
        self.layer["rows_inserted"] = (
            len(self.inputs.source_rows) + self.layer["rows_written"] + self.layer["rows_recovered"]
        )

    # -- reopen the HT session's database and query it -----------------
    def write_database(self, trace: bool):
        """Run the HT session whose WAL query-ht reopens (not timed).
        Returns the WAL directory and the live store's rows and answers."""
        wal_dir = self.new_wal_dir()
        with self.traced() if trace else nullcontext():
            editor = set_up_session(self.inputs, self.method, wal_dir)
            run_session(editor, self.inputs.script, self.failures)
        if editor.target_tree() != self.expected:
            self.failures.add(1, "writer session's target tree differs from the Workspace replay")
        table = editor.store.table
        prov = table.db.table("prov")
        before = index_passes(prov)
        live_rows, live_answers = reference(editor.store, self.inputs.query_slots)
        self.counts = {
            "renumbers": editor.target.db.access_counts["renumber"],
            "prov_rows": table.row_count,
            "prov_bytes": table.byte_size,
            "wal_bytes": wal_bytes(wal_dir),
            "index_passes_per_query": (index_passes(prov) - before) / len(live_answers),
            "answers_digest": digest(live_answers),
        }
        self.layer.update(
            actions=len(self.inputs.script),
            rows_written=table.row_count,
            renumbers=self.counts["renumbers"],
        )
        self.prov_bytes = table.byte_size
        self.wal_bytes = self.counts["wal_bytes"]
        table.db.crash()
        return wal_dir, live_rows, live_answers

    def check_recovered(self, store, report, live_rows, ops: int) -> None:
        """A restart must bring back exactly the rows the live store held;
        a failure counts ``ops`` failed operations (at least one)."""
        if prov_rows(store) != live_rows:
            self.failures.add(max(1, ops), "recovered provenance rows differ from the live store")
        if report.txns_dropped or report.corruption:
            self.failures.add(max(1, ops), f"recovery dropped work: {report.summary()}")

    def run_query(self) -> None:
        wal_dir, live_rows, live_answers = self.write_database(trace=False)
        slots = self.inputs.query_slots
        answers = [None] * len(slots)
        count = 0
        while self.op_seconds < self.seconds or not self.speed.setups:
            store, report = self.speed.timed_setup(reopen, self.method, wal_dir)
            self.check_recovered(store, report, live_rows, 0)
            elapsed, done = run_queries(
                P.ProvenanceQueries(store), slots, answers, count,
                min(QUERY_ROUND_S, self.seconds - self.op_seconds), self.speed, self.failures,
            )
            self.op_seconds += elapsed
            count += done
        self.counts.update(wal_records=report.records_scanned, wal_commits=report.txns_replayed)
        self.attempted += count
        for slot in range(min(count, len(slots))):
            if normalized(slots[slot][0], answers[slot]) != live_answers[slot]:
                # every query asked of a wrongly answered slot failed
                times = count // len(slots) + (slot < count % len(slots))
                self.failures.add(times, f"wrong answer for {slots[slot]}")

    def trace_query(self) -> None:
        """The writer session traced, then one untraced and one traced
        pass over every query slot, each on a freshly reopened store."""
        wal_dir, live_rows, live_answers = self.write_database(trace=True)
        slots = self.inputs.query_slots
        store, report = reopen(self.method, wal_dir)
        answers, untraced = timed(answer_all, P.ProvenanceQueries(store), slots)
        with self.tracer.window():
            store, report = reopen(self.method, wal_dir)
        prov = store.table.db.table("prov")
        before, trips = index_passes(prov), round_trips(store.table.clock)
        gc.collect()
        with self.tracer.window():
            start = time.perf_counter()
            traced_answers = answer_all(P.ProvenanceQueries(store), slots)
            traced = time.perf_counter() - start
        self.attempted += 2 * len(slots)
        for given in (answers, traced_answers):
            if given != live_answers:
                self.failures.add(len(slots), "answers after the restart differ from the live store")
        self.check_recovered(store, report, live_rows, len(slots))
        self.counts.update(wal_records=report.records_scanned, wal_commits=report.txns_replayed)
        self.layer.update(
            records_scanned=report.records_scanned,
            queries=len(slots),
            index_passes=index_passes(prov) - before,
            read_round_trips=round_trips(store.table.clock) - trips,
            overhead=traced / untraced - 1,
            # rows the traced windows loaded: the writer's source table and
            # provenance rows, then the recovered provenance rows
            rows_inserted=(
                len(self.inputs.source_rows) + self.layer["rows_written"] + store.table.row_count
            ),
        )


# ----------------------------------------------------------------------
# Tracing: the layers and their public entry points
# ----------------------------------------------------------------------
_TABLE_WRITES = {
    "insert", "insert_many", "bulk_load", "bulk_insert", "begin", "commit",
    "rollback", "delete_row", "update_row", "delete_rowid", "update_rowid",
    "delete_where", "update_where", "create_table", "create_index", "track_max",
}


def install_tracer():
    from spans import Tracer

    tracer = Tracer()
    wrap = tracer.wrap_class
    wrap(P.CurationEditor, "editor", sampled=("insert", "delete", "copy_paste", "commit"))
    for cls in (P.XMLSourceDB, P.XMLTargetDB, P.XMLDatabase):
        wrap(cls, "xmldb")
    wrap(P.RelationalSourceDB, "source")
    for cls in {P.ProvenanceStore, *P.STORE_METHODS.values()}:
        wrap(cls, "store")
    wrap(
        P.ProvTable, "provtable",
        lambda name: "write" if name.startswith("write") else "read",
    )
    wrap(P.ProvenanceQueries, "queries", sampled=("get_src", "get_hist", "get_mod"))
    table_kind = lambda name: "write" if name in _TABLE_WRITES else "read"
    wrap(P.Table, "table", table_kind)
    wrap(P.IndexNestedLoopJoin, "table", lambda name: "read" if name == "execute" else None)
    wrap(
        P.Database, "table",
        lambda name: "recover" if name == "recover" else table_kind(name),
    )
    wrap(
        P.WriteAheadLog, "wal",
        {"append": "append", "flush": "flush", "scan": "recover", "records": "recover"}.get,
    )
    return tracer


def p50_us(samples) -> float:
    return statistics.median(samples) * 1e6 if samples else 0.0


#: per-layer time row -> the (layer, kind) self-time keys it sums; every
#: key the tracer can record belongs to exactly one row.  Database.recover
#: is the WAL's recovery routine, so its self time joins the WAL's scan
#: in wal.recover_s
TIME_ROWS = {
    "editor.self_s": [("editor", "self")],
    "xmldb.self_s": [("xmldb", "self")],
    "source.self_s": [("source", "self")],
    "store.self_s": [("store", "self")],
    "provtable.write_s": [("provtable", "write")],
    "provtable.read_s": [("provtable", "read")],
    "queries.self_s": [("queries", "self")],
    "table.insert_s": [("table", "write")],
    "table.read_s": [("table", "read")],
    "wal.append_s": [("wal", "append")],
    "wal.flush_s": [("wal", "flush")],
    "wal.recover_s": [("wal", "recover"), ("table", "recover")],
}
#: largest share of the traced total that no layer span may cover; above
#: it the spans miss a layer entry point and the rows under-report
UNATTRIBUTED_MAX = 0.05


def check_attribution(tracer, failures: Failures) -> None:
    """The layer rows must account for the traced total: every recorded
    (layer, kind) has a row, and the time outside every span (the
    benchmark's own loop between calls) stays a small share."""
    known = {key for keys in TIME_ROWS.values() for key in keys}
    stray = sorted(set(tracer.self_s) - known)
    if stray:
        failures.add(1, f"traced self time with no layer row: {stray}")
    share = tracer.unattributed_s / tracer.window_s
    if share > UNATTRIBUTED_MAX:
        failures.add(
            1, f"unattributed_s is {share:.1%} of the traced total, over {UNATTRIBUTED_MAX:.0%}"
        )


def layer_metrics(run: Run) -> dict:
    t = run.tracer
    info = run.layer
    rows = {
        name: sum(t.self_s.get(key, 0.0) for key in keys) for name, keys in TIME_ROWS.items()
    }
    check_attribution(t, run.failures)
    total = t.window_s
    if run.workload == "query-ht":
        trips_per_op = info["read_round_trips"] / info["queries"]
    else:
        trips_per_op = info["write_round_trips"] / info["actions"]
    metrics = dict(rows)
    metrics.update({
        "editor.insert_p50_us": p50_us(t.samples["editor.insert"]),
        "editor.delete_p50_us": p50_us(t.samples["editor.delete"]),
        "editor.copy_paste_p50_us": p50_us(t.samples["editor.copy_paste"]),
        "editor.commit_p50_us": p50_us(t.samples["editor.commit"]),
        "xmldb.calls": t.entry_count("xmldb"),
        "xmldb.renumbers": info["renumbers"],
        "store.track_calls": t.entry_count("store", method="track_"),
        "store.commits": t.entry_count("store", method="commit"),
        "provtable.rows_written_per_action": info["rows_written"] / info["actions"],
        "provtable.round_trips_per_op": trips_per_op,
        "queries.get_src_p50_us": p50_us(t.samples["queries.get_src"]),
        "queries.get_hist_p50_us": p50_us(t.samples["queries.get_hist"]),
        "queries.get_mod_p50_us": p50_us(t.samples["queries.get_mod"]),
        "table.rows_inserted": info["rows_inserted"],
        "table.index_passes_per_query": info["index_passes"] / info["queries"],
        "table.rows_returned_per_probe": t.rows["table"] / t.probes["table"],
        "wal.appends": t.entry_count("wal", "append"),
        "wal.flushes": t.entry_count("wal", "flush"),
        "wal.records_scanned": info["records_scanned"],
        "unattributed_s": t.unattributed_s,
        "trace.total_s": total,
        "trace.overhead_frac": info["overhead"],
    })
    return metrics


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def percentile_us(sorted_seconds, fraction: float) -> float:
    """Nearest-rank percentile, in microseconds."""
    return sorted_seconds[max(1, math.ceil(len(sorted_seconds) * fraction)) - 1] * 1e6


def timing_metrics(speed: Speedometer, cpu, disk) -> dict:
    """The timing metrics, each recorded time scaled by its block's
    factors: the time in fsync by ``disk``, the rest by ``cpu``.  Every operation repeats within a run (each session replays
    the same script, the query list is passed over several times);
    percentiles are taken over each operation's median latency, so a
    stall that hits one repeat does not set the tail."""
    repeats = {}
    total = 0.0
    for op, seconds, synced, block in zip(
        speed.ops, speed.seconds, speed.synced_seconds, speed.blocks
    ):
        scaled = (seconds - synced) * cpu[block] + synced * disk[block]
        repeats.setdefault(op, []).append(scaled)
        total += scaled
    typical = sorted(statistics.median(times) for times in repeats.values())
    return {
        "ops_per_s": len(speed.ops) / total,
        "op_p50_us": percentile_us(typical, 0.5),
        "op_p999_us": percentile_us(typical, 0.999),
        "setup_s": statistics.median(
            (seconds - synced) * cpu[block] + synced * disk[block]
            for seconds, synced, block in speed.setups
        ),
    }


def end_to_end_metrics(run: Run, peak_rss_mb: float) -> dict:
    """Timings at the nominal speed (see Speedometer), with the plain
    wall-clock figures and the speed readings printed on a line of their
    own."""
    speed = run.speed
    cpu, disk = speed.factors()
    unscaled = [1.0] * len(cpu)
    wall = timing_metrics(speed, unscaled, unscaled)
    wall.update(
        readings=len(cpu),
        fsync_s=sum(speed.synced_seconds) + sum(synced for _, synced, _ in speed.setups),
        cpu_factor_quartiles=statistics.quantiles(cpu, n=4),
        disk_factor_quartiles=statistics.quantiles(disk, n=4),
    )
    print(json.dumps({"wall_clock": wall}))
    return {
        **timing_metrics(speed, cpu, disk),
        "prov_bytes_per_action": run.prov_bytes / len(run.inputs.script),
        "wal_bytes_per_action": run.wal_bytes / len(run.inputs.script),
        "peak_rss_mb": peak_rss_mb,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for the mode."""
    spec = load_spec()
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "wal_dir": os.path.relpath(WORK, ROOT),
        "flush_policy": FLUSH_POLICY,
    }


def measure(args) -> dict:
    tracer = install_tracer() if args.trace else None
    run = Run(args.workload, args.seed, args.seconds, tracer)
    session = args.workload.startswith("session-")
    try:
        if tracer is None:
            with run.speed.timing():
                (run.run_sessions if session else run.run_query)()
            # read before the metrics are worked out: that bookkeeping grows
            # with the number of samples, so a faster program would read larger
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end_metrics(run, peak_rss_mb)
        else:
            (run.trace_session if session else run.trace_query)()
            metrics = layer_metrics(run)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    print(json.dumps({"counts": run.counts}))
    for reason in run.failures.reasons:
        print("perfbench: check failed:", reason, file=sys.stderr)
    return {
        "correct": run.failures.count == 0,
        "attempted": run.attempted,
        # a failed whole-session check counts all of its actions, which can
        # add up to more than the operations a run attempted
        "failed": min(run.failures.count, run.attempted),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared_metrics(args.trace).items()
        },
    }


def self_test() -> int:
    """Trace a short naive session twice, the second time with a known
    sleep injected into ``WriteAheadLog.append`` while the tracer is
    on, and check that the layer rows account for the traced total, that
    the injected time lands in the WAL row and nowhere else, and that the
    attribution check flags planted faults."""
    original = P.WriteAheadLog.append
    slept = 0.0

    def slow_append(wal, record):
        nonlocal slept
        if tracer.active:
            start = time.perf_counter()
            time.sleep(0.002)
            slept += time.perf_counter() - start
        return original(wal, record)

    results = []
    for inject in (False, True):
        if inject:
            P.WriteAheadLog.append = slow_append
        tracer = install_tracer()
        try:
            run = Run("session-real-naive", 1, 0, tracer, steps=350)
            run.trace_session()
            results.append((layer_metrics(run), run.failures))
        finally:
            tracer.unwrap_all()
            P.WriteAheadLog.append = original
    (plain, plain_failures), (slow, slow_failures) = results
    # negative control: the attribution check must flag self time with no
    # row and a traced window that the spans leave mostly uncovered
    control = Failures()
    tracer.self_s[("unwrapped", "self")] += 0.0
    tracer.window_s += 2 * tracer.window_s
    check_attribution(tracer, control)
    grew = {
        name: slow[name] - plain[name]
        for name in plain
        if name.endswith("_s") and not name.startswith("trace.")
    }
    problems = plain_failures.reasons + slow_failures.reasons
    if control.count != 2:
        problems.append(f"attribution check missed planted faults: {control.reasons}")
    if not 0.9 * slept <= grew["wal.append_s"] <= 1.1 * slept:
        problems.append(f"wal.append_s grew by {grew['wal.append_s']:.4f} s, injected {slept:.4f} s")
    for name, delta in grew.items():
        if name != "wal.append_s" and delta > 0.1 * slept:
            problems.append(f"{name} grew by {delta:.4f} s of the {slept:.4f} s injected into the WAL")
    print(json.dumps({"injected_s": slept, "grew_s": grew, "problems": problems}, indent=1))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds (default: run_seconds from BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # a fresh interpreter with the pinned hash seed replaces this one
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    import_program()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.self_test:
            return self_test()
        print(json.dumps({"context": context(args)}))
        result = measure(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
