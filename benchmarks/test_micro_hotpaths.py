"""Hot-path microbenchmarks: new implementations vs seed replicas.

Each test times the current implementation against a *seed replica* — a
faithful copy of the pre-overhaul algorithm kept in this file — on the
same workload, asserts the speedup floor, and records both sides in
``BENCH_micro.json`` at the repo root (override with ``REPRO_BENCH_OUT``)
so the perf trajectory has a comparable first data point.

Workload sizes scale with ``REPRO_SCALE`` (default 10, the CI smoke
scale); ``REPRO_FULL_SCALE=1`` runs the paper-sized workloads.  Gates
are set conservatively below the observed speedups so CI noise cannot
flake them, the A/B gates decide on *median-of-3* timings when the
first pair lands below the floor, and every floor scales with
``REPRO_BENCH_FLOOR_SCALE`` (e.g. ``0.75`` on noisy shared runners) so
one CPU-steal spike can never fail tier-1.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import statistics
import struct
import time
from pathlib import Path as FsPath

import pytest

from repro.core.paths import Path
from repro.core.provenance import ProvRecord, ProvTable, _record_order
from repro.core.tree import Tree
from repro.datalog.ast import Atom, Literal, Rule, Var
from repro.datalog.engine import Program
from repro.storage.expr import And, Cmp, Col, Const
from repro.storage.index import MAX_KEY, OrderedIndex, prefix_range
from repro.storage.query import JoinSpec, Query, TableRef, plan_query
from repro.storage.schema import Column, IndexSpec, TableSchema
from repro.storage.table import Table
from repro.storage.types import ColumnType
from repro.xmldb.axes import descendants_by_label
from repro.xmldb.store import XMLDatabase
from repro.xmldb.xpath import XPath, base_label


def _scale() -> int:
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return 100
    return int(os.environ.get("REPRO_SCALE", "10"))


SCALE = _scale()

#: every speedup floor is multiplied by this before asserting — the CI
#: escape hatch for noisy shared runners (REPRO_BENCH_FLOOR_SCALE=0.75
#: keeps the gates meaningful while tolerating steal-heavy machines)
FLOOR_SCALE = float(os.environ.get("REPRO_BENCH_FLOOR_SCALE", "1.0"))


def gate(floor: float) -> float:
    """The effective (scaled) speedup floor asserted by a benchmark."""
    return floor * FLOOR_SCALE


_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results():
    yield
    out = os.environ.get(
        "REPRO_BENCH_OUT", str(FsPath(__file__).resolve().parents[1] / "BENCH_micro.json")
    )
    payload = {
        "suite": "micro_hotpaths",
        "scale": SCALE,
        "results": _RESULTS,
    }
    # preserve out-of-band sections other tools merged into the file
    # (e.g. tools/sweep_bulk_crossover.py's "bulk_insert_crossover")
    try:
        with open(out, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        existing = {}
    if isinstance(existing, dict):
        for key, value in existing.items():
            if key not in payload:
                payload[key] = value
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def timed(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` (min is the standard noise filter)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def record(name: str, seed_s: float, new_s: float, floor: float, **params) -> float:
    speedup = seed_s / new_s if new_s > 0 else float("inf")
    _RESULTS[name] = {
        "seed_s": round(seed_s, 6),
        "new_s": round(new_s, 6),
        "speedup": round(speedup, 2),
        "gate": floor,
        "floor_scale": FLOOR_SCALE,
        "params": params,
    }
    print(f"\n[micro] {name}: seed={seed_s * 1e3:.1f}ms new={new_s * 1e3:.1f}ms "
          f"speedup={speedup:.1f}x (gate >= {gate(floor)}x)")
    return speedup


# ----------------------------------------------------------------------
# Seed replicas (the pre-overhaul algorithms, verbatim in spirit)
# ----------------------------------------------------------------------


class SeedOrderedIndex:
    """The seed's flat sorted list maintained with ``list.insert``."""

    def __init__(self):
        self._entries = []

    def insert(self, key, rowid):
        entry = (key, rowid)
        self._entries.insert(bisect.bisect_left(self._entries, entry), entry)

    def delete(self, key, rowid):
        entry = (key, rowid)
        position = bisect.bisect_left(self._entries, entry)
        if position < len(self._entries) and self._entries[position] == entry:
            self._entries.pop(position)

    def prefix_scan(self, prefix):
        position = bisect.bisect_left(self._entries, ((prefix,), -1))
        for index in range(position, len(self._entries)):
            key, rowid = self._entries[index]
            first = key[0]
            if not isinstance(first, str) or not first.startswith(prefix):
                break
            yield rowid


def seed_parse_path(text: str) -> Path:
    """The seed's uncached parse: tokenize + validate on every call."""
    stripped = text.strip("/")
    if not stripped:
        return Path(())
    return Path(stripped.split("/"))


def make_loc(rng: random.Random, i: int) -> str:
    return f"T/c{rng.randrange(40)}/n{rng.randrange(60)}/x{i}"


def make_keys(n: int, seed: int = 7):
    rng = random.Random(seed)
    keys = [(make_loc(rng, i),) for i in range(n)]
    rng.shuffle(keys)
    return keys


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------


def gated_ab(seed_fn, new_fn, floor: float, rounds: int = 3):
    """Median-of-3 A/B timing for gated benchmarks.

    The first seed/new pair is accepted outright when it already clears
    the (scaled) floor — the common case stays cheap.  Otherwise two
    more alternating pairs are timed and the per-side *medians* decide:
    a single GC pause or CPU-steal spike on a shared CI runner shifts
    one sample, never the verdict, while a genuine regression drags the
    median down in every round.  (This replaced a best-of-two retry
    gate that still flaked when one noisy measurement was all it got.)
    Returns ``(median seed_s, median new_s)``.
    """
    seeds, news = [], []
    for round_no in range(rounds):
        start = time.perf_counter()
        seed_fn()
        seeds.append(time.perf_counter() - start)
        start = time.perf_counter()
        new_fn()
        news.append(time.perf_counter() - start)
        if round_no == 0 and news[0] > 0 and seeds[0] / news[0] >= gate(floor):
            break
    return statistics.median(seeds), statistics.median(news)


def test_ordered_index_build():
    """Bulk build: blocked insert is sub-linear, list.insert is O(n).

    Sized so the flat list's per-insert memmove dominates (the asymptotic
    gap needs tens of thousands of entries to beat C-level memmove
    constants).
    """
    n = 30_000 * SCALE
    keys = make_keys(n)

    def build_seed():
        index = SeedOrderedIndex()
        for rowid, key in enumerate(keys):
            index.insert(key, rowid)
        return index

    def build_new():
        index = OrderedIndex("bench")
        for rowid, key in enumerate(keys):
            index.insert(key, rowid)
        return index

    # contents equivalence at a cheap size (the hypothesis model tests
    # cover correctness exhaustively; this is a harness sanity check)
    small = keys[: n // 20]
    small_seed, small_new = SeedOrderedIndex(), OrderedIndex("check")
    for rowid, key in enumerate(small):
        small_seed.insert(key, rowid)
        small_new.insert(key, rowid)
    assert list(small_new.items()) == small_seed._entries

    seed_s, new_s = gated_ab(build_seed, build_new, 5.0)
    speedup = record("ordered_index_build", seed_s, new_s, 5.0, n=n)
    assert speedup >= gate(5.0)


def test_prefix_scan_live_index():
    """Prefix scans against an index under churn (the editor workload:
    every transaction writes provenance records, Mod queries interleave).
    The flat list pays O(n) maintenance between scans; the blocked index
    keeps scans streaming over a structure that is cheap to keep sorted.

    Floor 3.5: clean-machine runs measure ~4.9–6x here, and the old 5.0
    floor sat *inside* that band — it failed an otherwise green tier-1
    run on one noisy sample, which is what prompted the median-of-3
    gate + floor-scale rework."""
    n = 24_000 * SCALE
    keys = make_keys(n)
    rng = random.Random(23)
    prefixes = [f"T/c{rng.randrange(40)}/n{rng.randrange(60)}/" for _ in range(512)]
    consumed_totals = []

    def run(index, prefix_scan):
        consumed = 0
        for rowid, key in enumerate(keys):
            index.insert(key, rowid)
            if rowid % 100 == 99:
                for _rid in prefix_scan(index, prefixes[(rowid // 100) % len(prefixes)]):
                    consumed += 1
        consumed_totals.append(consumed)

    def seed_run():
        run(SeedOrderedIndex(), SeedOrderedIndex.prefix_scan)

    def new_run():  # a prefix is one key range of the multi-range sweep
        run(OrderedIndex("bench"), lambda index, p: index.multi_range([prefix_range(p)]))

    seed_s, new_s = gated_ab(seed_run, new_run, 3.5)
    assert len(set(consumed_totals)) == 1  # both sides saw identical scans
    speedup = record("prefix_scan_live", seed_s, new_s, 3.5, n=n, scan_every=100)
    assert speedup >= gate(3.5)


def test_table_scan_sort_free():
    """Full scans: the seed sorted all row ids and looked each row up in
    the heap dict on every call; the new scan streams the dict."""
    n = 1_500 * SCALE
    scans = 60
    table = Table(
        TableSchema("t", [Column("k", ColumnType.INT), Column("v", ColumnType.TEXT)])
    )
    for i in range(n):
        table.insert((i, f"v{i}"))

    def seed_scan():
        total = 0
        rows = table._rows
        for _ in range(scans):
            for rowid in sorted(rows):  # the seed's access pattern
                total += rows[rowid][0] & 1
        return total

    def new_scan():
        total = 0
        for _ in range(scans):
            for _rowid, row in table.scan():
                total += row[0] & 1
        return total

    assert seed_scan() == new_scan()
    seed_s, new_s = gated_ab(seed_scan, new_scan, 1.2)
    speedup = record("table_scan", seed_s, new_s, 1.2, n=n, scans=scans)
    assert speedup >= gate(1.2)


def test_path_parse_interning():
    """Repeated parses of a working set: dict hit vs full tokenize."""
    distinct = 40 * SCALE
    repeats = 25
    rng = random.Random(3)
    texts = [make_loc(rng, i) for i in range(distinct)]

    def seed_parse():
        total = 0
        for _ in range(repeats):
            for text in texts:
                total += len(seed_parse_path(text))
        return total

    def new_parse():
        total = 0
        for _ in range(repeats):
            for text in texts:
                total += len(Path.parse(text))
        return total

    assert seed_parse() == new_parse()
    # behavior-preserving identity: same text -> same object
    assert Path.parse(texts[0]) is Path.parse(texts[0])
    assert Path.parse(texts[0]) == seed_parse_path(texts[0])
    seed_s, new_s = gated_ab(seed_parse, new_parse, 3.0)
    speedup = record(
        "path_parse_interned",
        seed_s,
        new_s,
        3.0,
        distinct=distinct,
        repeats=repeats,
    )
    assert speedup >= gate(3.0)


def test_records_under_read_path():
    """The Mod access path end to end: prefix scan + record materialize."""
    n = 300 * SCALE
    queries = 15 * SCALE
    rng = random.Random(11)
    table = ProvTable()
    records = [
        ProvRecord(tid=i + 1, op="I", loc=Path.parse(make_loc(rng, i)))
        for i in range(n)
    ]
    table.write_batch(records, category="bench")
    roots = [Path.parse(f"T/c{i}") for i in range(40)]

    def run_queries():
        total = 0
        for i in range(queries):
            total += len(table.records_under(roots[i % len(roots)]))
        return total

    assert run_queries() > 0
    elapsed = timed(run_queries)
    _RESULTS["records_under"] = {
        "new_s": round(elapsed, 6),
        "params": {"rows": n, "queries": queries},
    }
    print(f"\n[micro] records_under: {elapsed * 1e3:.1f}ms "
          f"({queries} queries over {n} rows)")


def test_prov_batched_locs():
    """Batched location probes: ``records_at_locs`` answers N probed
    locations with *one* multi-range pass over the ``(loc, tid)`` index
    (counter-asserted) vs the seed path — one full range-scan setup plus
    two fresh bisections per location (the loop this PR removed from
    ``records_at_locs``).  Probes are batched per subtree, as the real
    callers batch them (stored procedures probe a subtree's members,
    ``_fetch_for`` probes ancestor chains), so the probed locations form
    adjacent runs in the index and the batched sweep's cursor replaces
    most bisections with one comparison.  The store always *charged*
    one round trip for the batch; this closes the wall-time side of
    that charged-cost/wall-time split."""
    n = 3_000 * SCALE
    probes = 150 * SCALE
    repeats = 8
    rng = random.Random(31)
    prov = ProvTable()
    records = [
        ProvRecord(tid=i + 1, op="I", loc=Path.parse(make_loc(rng, i)))
        for i in range(n)
    ]
    prov.write_batch(records, category="bench")
    # probe whole subtrees: every live loc under a sampled parent node
    by_parent: dict = {}
    for prov_record in records:
        text = str(prov_record.loc)
        by_parent.setdefault(text.rsplit("/", 1)[0], []).append(text)
    locs: list = []
    for parent in rng.sample(sorted(by_parent), len(by_parent)):
        if len(locs) >= probes:
            break
        locs.extend(sorted(by_parent[parent]))
    locs = locs[:probes]
    index_name = f"{prov.table_name}_loc"
    table = prov._table

    def serial():
        # the seed records_at_locs: one single-range index pass per
        # location, each materialized by _loc_rows into its own list
        rows = []
        for text in locs:
            rows.extend(
                [
                    row
                    for _rid, row in table.multi_range_scan(
                        index_name, [((text,), (text, MAX_KEY), True, True)]
                    )
                ]
            )
        return rows

    def batched():  # the records_at_locs path: one sort-free union pass
        ranges = [((text,), (text, MAX_KEY), True, True) for text in sorted(locs)]
        return [
            row
            for _rid, row in table.multi_range_scan(
                index_name, ranges, presorted=True
            )
        ]

    assert sorted(serial()) == sorted(batched())  # identical row sets
    before = dict(table.access_counts)
    result = prov.records_at_locs([Path.parse(text) for text in locs], category="bench")
    assert len(result) == probes
    assert table.access_counts["multi_range_scan"] == before["multi_range_scan"] + 1
    assert sum(table.access_counts.values()) == sum(before.values()) + 1  # one pass, not N

    def run_serial():
        for _ in range(repeats):
            serial()

    def run_batched():
        for _ in range(repeats):
            batched()

    seed_s, new_s = gated_ab(run_serial, run_batched, 2.0)
    speedup = record(
        "prov_batched_locs", seed_s, new_s, 2.0, rows=n, locs=probes, repeats=repeats
    )
    assert speedup >= gate(2.0)


def test_planner_range_scan():
    """Range + ORDER BY + LIMIT through the planner: the seed planner
    (``plan_query(naive=True)`` — forced SeqScan + Filter + Sort) pays a
    full scan and sort per query; the range-aware planner maps the
    interval onto the ordered index, elides the sort, and streams the
    limit."""
    n = 4_000 * SCALE
    query_count = 40
    span = max(n // 100, 50)
    table = Table(
        TableSchema(
            "ev",
            [
                Column("k", ColumnType.INT, nullable=False),
                Column("v", ColumnType.TEXT, nullable=False),
            ],
            indexes=(IndexSpec("ev_k", ("k",), ordered=True),),
        )
    )
    ks = list(range(n))
    random.Random(19).shuffle(ks)
    for k in ks:
        table.insert((k, f"v{k}"))
    tables = {"ev": table}
    rng = random.Random(29)
    windows = [
        (lo, lo + span) for lo in (rng.randrange(n - span) for _ in range(query_count))
    ]

    def make_query(lo, hi):
        return Query(
            TableRef("ev"),
            where=And(Cmp(">=", Col("k"), Const(lo)), Cmp("<", Col("k"), Const(hi))),
            order_by=[(Col("k"), False)],
            limit=span // 2,
        )

    def run(naive):
        total = 0
        for lo, hi in windows:
            plan = plan_query(tables, make_query(lo, hi), naive=naive)
            for env in plan.execute():
                total += env["k"] & 1
        return total

    assert run(True) == run(False)  # k is unique: the windows are identical
    seed_s, new_s = gated_ab(lambda: run(True), lambda: run(False), 3.0)
    speedup = record(
        "planner_range_scan",
        seed_s,
        new_s,
        3.0,
        rows=n,
        queries=query_count,
        span=span,
    )
    assert speedup >= gate(3.0)


def _join_bench_tables(n_fact: int, groups: int):
    """A skewed join workload: two big fact tables joined on a unique
    key, plus a small filtered dimension hanging off a grouped column."""
    fact_a = Table(
        TableSchema(
            "fa",
            [
                Column("k", ColumnType.INT, nullable=False),
                Column("va", ColumnType.TEXT, nullable=False),
            ],
            indexes=(IndexSpec("fa_k", ("k",), ordered=True),),
        )
    )
    fact_b = Table(
        TableSchema(
            "fb",
            [
                Column("k", ColumnType.INT, nullable=False),
                Column("g", ColumnType.INT, nullable=False),
                Column("vb", ColumnType.TEXT, nullable=False),
            ],
            indexes=(
                IndexSpec("fb_k", ("k",), ordered=True),
                IndexSpec("fb_g", ("g", "k"), ordered=True),
            ),
        )
    )
    dim = Table(
        TableSchema(
            "dm",
            [
                Column("g", ColumnType.INT, nullable=False),
                Column("tag", ColumnType.INT, nullable=False),
            ],
        )
    )
    ks = list(range(n_fact))
    random.Random(41).shuffle(ks)
    for k in ks:
        fact_a.insert((k, f"a{k}"))
        fact_b.insert((k, k % groups, f"b{k}"))
    for g in range(groups):
        dim.insert((g, (g * 7) % groups))
    return {"fa": fact_a, "fb": fact_b, "dm": dim}


def test_join_index_nlj():
    """A small driver joined to a big indexed table: the as-written
    left-deep hash join (the PR 4 join path and the naive oracle alike)
    materializes and hashes the whole fact table per query, while the
    IndexNestedLoopJoin probes it with one batched multi-range pass per
    driver chunk."""
    n_fact = 2_000 * SCALE
    n_driver = 60
    repeats = 6
    tables = _join_bench_tables(n_fact, groups=64)
    driver = Table(
        TableSchema(
            "dr",
            [
                Column("k", ColumnType.INT, nullable=False),
                Column("tag", ColumnType.TEXT, nullable=False),
            ],
        )
    )
    rng = random.Random(43)
    for k in sorted(rng.sample(range(n_fact), n_driver)):
        driver.insert((k, f"t{k}"))
    tables = dict(tables, dr=driver)
    query = Query(
        TableRef("dr", "d"),
        joins=[JoinSpec(TableRef("fa", "f"), Col("d.k"), Col("f.k"))],
    )
    plan = plan_query(tables, query)
    assert "IndexNestedLoopJoin" in plan.describe()

    totals = []

    def run(naive):
        total = 0
        for _ in range(repeats):
            for env in plan_query(tables, query, naive=naive).execute():
                total += 1
        totals.append(total)

    seed_s, new_s = gated_ab(lambda: run(True), lambda: run(False), 3.0)
    assert len(set(totals)) == 1 and totals[0] == n_driver * repeats
    speedup = record(
        "join_index_nlj", seed_s, new_s, 3.0, fact_rows=n_fact, driver_rows=n_driver,
        repeats=repeats,
    )
    assert speedup >= gate(3.0)


def test_join_reorder():
    """A skewed 3-table chain written worst-first: ``fa JOIN fb ON k
    JOIN dm ON g WHERE dm.tag = 3``.  As written (the naive oracle and
    the old planner), the two big fact tables hash-join first and the
    selective dimension filter prunes last; the join-graph planner
    starts from the filtered dimension and probes outward through the
    ``(g, k)`` and ``k`` indexes — the star-join shape."""
    n_fact = 2_000 * SCALE
    groups = 64
    repeats = 4
    tables = _join_bench_tables(n_fact, groups)
    query = Query(
        TableRef("fa", "x"),
        joins=[
            JoinSpec(TableRef("fb", "y"), Col("x.k"), Col("y.k")),
            JoinSpec(TableRef("dm", "z"), Col("y.g"), Col("z.g")),
        ],
        where=Cmp("=", Col("z.tag"), Const(3)),
    )
    plan = plan_query(tables, query)
    rendered = plan.describe()
    assert "IndexNestedLoopJoin" in rendered  # reordered: dm drives

    totals = []

    def run(naive):
        total = 0
        for _ in range(repeats):
            for env in plan_query(tables, query, naive=naive).execute():
                total += 1
        totals.append(total)

    seed_s, new_s = gated_ab(lambda: run(True), lambda: run(False), 3.0)
    assert len(set(totals)) == 1 and totals[0] > 0
    speedup = record(
        "join_reorder", seed_s, new_s, 3.0, fact_rows=n_fact, groups=groups,
        repeats=repeats,
    )
    assert speedup >= gate(3.0)


def test_bulk_index_build():
    """Index lifecycle: ``OrderedIndex.bulk_build`` (sort once, slice
    into blocks) vs the prior backfill path (the blocked index grown one
    ``insert`` at a time — what ``Table.create_index`` and snapshot
    restore did before the unified lifecycle)."""
    n = 30_000 * SCALE
    keys = make_keys(n)
    entries = [(key, rowid) for rowid, key in enumerate(keys)]

    def build_incremental():
        index = OrderedIndex("bench")
        for key, rowid in entries:
            index.insert(key, rowid)
        return index

    def build_bulk():
        return OrderedIndex.bulk_build("bench", entries)

    # observational equivalence at a cheap size (the hypothesis property
    # in tests/test_index_properties.py covers this exhaustively)
    small = entries[: n // 20]
    incremental = OrderedIndex("check")
    for key, rowid in small:
        incremental.insert(key, rowid)
    assert list(OrderedIndex.bulk_build("check", small).items()) == list(
        incremental.items()
    )

    seed_s, new_s = gated_ab(build_incremental, build_bulk, 2.0)
    speedup = record("bulk_index_build", seed_s, new_s, 2.0, n=n)
    assert speedup >= gate(2.0)


def make_xml_store(molecules: int) -> XMLDatabase:
    children = {}
    for i in range(molecules):
        children[f"molecule{{M{i}}}"] = {
            "name": f"mol{i}",
            "interactions": {
                f"interaction{{{j}}}": {"partner": f"M{(i + j) % molecules}"}
                for j in range(i % 3)
            },
        }
    db = XMLDatabase()
    db.load_tree(Tree.from_dict({"molecules": children}))
    return db


def test_xml_indexed_lookup():
    """Descendant XPath steps through the store's OrderedIndex-backed
    ``(base_label, pre)`` index vs the prior path without an index:
    exporting the whole store as a value tree and walking it per query."""
    molecules = 150 * SCALE
    db = make_xml_store(molecules)
    expressions = ["//name", "//partner", "//interactions", "//interaction"] * 3

    def run_unindexed():
        total = 0
        for expression in expressions:
            total += len(XPath(expression).evaluate(db.subtree(Path())))
        return total

    def run_indexed():
        total = 0
        for expression in expressions:
            total += len(XPath(expression).evaluate_store(db))
        return total

    assert run_unindexed() == run_indexed()  # identical result sets
    seed_s, new_s = gated_ab(run_unindexed, run_indexed, 2.0)
    speedup = record(
        "xml_indexed_lookup",
        seed_s,
        new_s,
        2.0,
        nodes=db.node_count(),
        queries=len(expressions),
    )
    assert speedup >= gate(2.0)


def test_datalog_incremental_eval():
    """Repeated add_fact → evaluate cycles: the prior engine threw the
    model and every fact index away on each ``add_fact`` and recomputed
    the fixpoint from scratch; the persistent lifecycle restarts
    semi-naive iteration from the previous model with the new fact as
    the delta."""
    n = 25 * SCALE
    rounds = 6
    edges = [(i, i + 1) for i in range(n)]

    def build():
        program = Program()
        program.add_facts("edge", edges)
        x, y, z = Var("X"), Var("Y"), Var("Z")
        # right-recursive closure: the edge literal leads, so a delta on
        # edge restricts the first literal instead of rescanning path
        program.add_rule(Rule(Atom("path", (x, y)), (Literal(Atom("edge", (x, y))),)))
        program.add_rule(
            Rule(
                Atom("path", (x, z)),
                (Literal(Atom("edge", (x, y))), Literal(Atom("path", (y, z)))),
            )
        )
        return program

    results = []

    def run(incremental):
        program = build()
        program.evaluate()
        for round_no in range(rounds):
            program.add_fact("edge", (-round_no, 0))
            if not incremental:
                # the seed behavior: add_fact invalidated everything, so
                # every evaluate() was a from-scratch recompute
                program._invalidate()
            program.evaluate()
        results.append(program.query("path"))

    seed_s, new_s = gated_ab(lambda: run(False), lambda: run(True), 2.0)
    assert len({frozenset(model) for model in results}) == 1  # identical models
    speedup = record(
        "datalog_incremental_eval", seed_s, new_s, 2.0, edges=n, rounds=rounds
    )
    assert speedup >= gate(2.0)


def test_wal_checksummed_append(tmp_path):
    """WAL v2 framing tax: per-record CRC + LSN + segment bookkeeping vs
    a replica of the v1 append path (encode + bare length prefix +
    buffered write).  This gate points *backwards*: the v2 path does
    strictly more work per record, so the assertion is an overhead
    ceiling, not a speedup floor — the checksummed append must stay
    within 1.5x of the v1 cost (speedup >= 1/1.5 ~= 0.67)."""
    from repro.storage.wal import WalRecord, WriteAheadLog, _encode_payload
    from repro.storage.wal import KIND_INSERT

    n = 4_000 * SCALE
    schema = TableSchema(
        "t",
        [Column("id", ColumnType.INT, nullable=False), Column("v", ColumnType.TEXT)],
        primary_key=("id",),
    )
    schemas = {"t": schema}
    records = [WalRecord(KIND_INSERT, 1, "t", (i, f"v{i}")) for i in range(n)]

    class SeedV1Log:
        """The v1 append path, verbatim in spirit: no checksum, no LSN,
        no segment header, no rotation check."""

        def __init__(self, path):
            self._file = open(path, "ab")

        def append(self, record):
            payload = _encode_payload(record, schemas)
            self._file.write(struct.pack("<I", len(payload)) + payload)

        def close(self):
            self._file.close()

    def run_seed():
        log = SeedV1Log(str(tmp_path / "seed.wal.v1"))
        for rec in records:
            log.append(rec)
        log.close()

    def run_new():
        log = WriteAheadLog(str(tmp_path / "new.wal"), schemas)
        for rec in records:
            log.append(rec)
        log.close()
        for segment in log.segment_paths():
            os.remove(segment)

    # the checksummed log must still round-trip what it wrote
    probe = WriteAheadLog(str(tmp_path / "probe.wal"), schemas)
    for rec in records[:50]:
        probe.append(rec)
    probe.flush()
    assert [r.row for r in probe.scan(mode="strict")] == [
        r.row for r in records[:50]
    ]
    probe.close()

    floor = 0.67  # 1 / the 1.5x overhead ceiling
    seed_s, new_s = gated_ab(run_seed, run_new, floor)
    speedup = record("wal_checksummed_append", seed_s, new_s, floor, n=n)
    assert speedup >= gate(floor), (
        f"checksummed append costs {1 / speedup:.2f}x the v1 path "
        f"(ceiling 1.5x)"
    )


def test_compiled_filter():
    """Residual predicate evaluation per row: the interpreted
    ``Expr.eval`` tree walk (virtual dispatch + operand recursion per
    row) vs the closure ``compile_expr`` builds once per plan.  The
    floor is modest — both sides are Python — but the compiled form is
    what every FilterNode and join residual now runs, so it gates the
    per-row regression budget."""
    from repro.storage.expr import compile_expr

    n = 6_000 * SCALE
    repeats = 10
    rng = random.Random(53)
    envs = [
        {"k": rng.randrange(n), "g": rng.randrange(16), "s": make_loc(rng, i)}
        for i in range(n)
    ]
    predicate = And(
        Cmp(">=", Col("k"), Const(n // 10)),
        Cmp("<", Col("k"), Const(n - n // 10)),
        Cmp("=", Col("g"), Const(3)),
    )
    compiled = compile_expr(predicate)
    assert [predicate.eval(e) for e in envs] == [bool(compiled(e)) for e in envs]

    def run_interpreted():
        total = 0
        for _ in range(repeats):
            evaluate = predicate.eval
            total += sum(1 for env in envs if evaluate(env))
        return total

    def run_compiled():
        total = 0
        for _ in range(repeats):
            fn = compile_expr(predicate)  # built once per "plan", as in FilterNode
            total += sum(1 for env in envs if fn(env))
        return total

    assert run_interpreted() == run_compiled()
    seed_s, new_s = gated_ab(run_interpreted, run_compiled, 1.3)
    speedup = record("compiled_filter", seed_s, new_s, 1.3, rows=n, repeats=repeats)
    assert speedup >= gate(1.3)


def test_plan_cache_repeat_qps():
    """End-to-end repeated-query throughput through ``QueryEngine.execute``:
    one query shape, literals drawn from a Table-2 update-pattern script
    (the curation workload's access pattern — the same provenance
    locations probed again and again as transactions revisit a working
    set).  The cached database answers from the plan cache (exact hits
    when a literal repeats, statistics-snapshot re-plans otherwise);
    the ``plan_cache_size=0`` baseline re-plans with live statistics on
    every call.  Gate: cached throughput >= 2x uncached."""
    from repro.storage.db import Database
    from repro.storage.query import QueryEngine
    from repro.workloads.patterns import generate_pattern
    from repro.workloads.synth import (
        mimi_like_tree,
        organelledb_like,
        source_subtree_paths,
    )

    rows = 1_500 * SCALE
    repeats = 3
    # literals come from a generated pattern script: the concrete paths
    # its inserts/copies/deletes touch, revisited round-robin
    source = organelledb_like(n_proteins=30, seed=5)
    script = generate_pattern(
        "mix", 120, mimi_like_tree(n_molecules=10, seed=6),
        source_subtree_paths(source), seed=9,
    )
    locs = []
    for update in script:
        if hasattr(update, "path"):  # Insert / Delete
            locs.append(f"T/{update.path}/{update.label}")
        else:  # Copy
            locs.append(str(update.dst))
    assert len(locs) >= 100

    schema = TableSchema(
        "prov",
        [
            Column("tid", ColumnType.INT, nullable=False),
            Column("op", ColumnType.TEXT, nullable=False),
            Column("loc", ColumnType.TEXT, nullable=False),
        ],
        primary_key=("tid",),
        indexes=(IndexSpec("prov_loc", ("loc", "tid"), ordered=True),),
    )

    def build(plan_cache_size):
        db = Database("qps")
        table = db.create_table(schema)
        rng = random.Random(61)
        batch = [
            (i, "I", locs[i % len(locs)] if i % 3 else make_loc(rng, i))
            for i in range(rows)
        ]
        table.bulk_insert(batch)
        return QueryEngine(db, plan_cache_size=plan_cache_size)

    def make_query(loc):
        return Query(
            TableRef("prov"),
            where=Cmp("=", Col("loc"), Const(loc)),
            order_by=[(Col("tid"), False)],
        )

    counts = []

    def run(db):
        total = 0
        for _ in range(repeats):
            for loc in locs:
                total += len(db.execute(make_query(loc)))
        counts.append(total)

    cached_db = build(128)
    uncached_db = build(0)
    seed_s, new_s = gated_ab(lambda: run(uncached_db), lambda: run(cached_db), 2.0)
    assert len(set(counts)) == 1 and counts[0] > 0  # identical answers
    stats = cached_db.stats()["plan_cache"]
    assert stats["hits"] > 0  # repeated literals became exact hits
    queries = repeats * len(locs)
    speedup = record(
        "plan_cache_repeat_qps", seed_s, new_s, 2.0,
        rows=rows, queries=queries,
        cached_qps=round(queries / new_s, 1),
        uncached_qps=round(queries / seed_s, 1),
    )
    assert speedup >= gate(2.0)


def test_datalog_indexed_join():
    """Transitive closure over a chain: per-binding probes vs full-set
    unification on the ``edge`` literal (use_fact_indexes=False is the
    seed behavior)."""
    n = 12 * SCALE
    edges = [(i, i + 1) for i in range(n)]

    def solve(use_fact_indexes):
        program = Program(use_fact_indexes=use_fact_indexes)
        program.add_facts("edge", edges)
        x, y, z = Var("X"), Var("Y"), Var("Z")
        program.add_rule(Rule(Atom("path", (x, y)), (Literal(Atom("edge", (x, y))),)))
        program.add_rule(
            Rule(
                Atom("path", (x, z)),
                (Literal(Atom("path", (x, y))), Literal(Atom("edge", (y, z)))),
            )
        )
        return program.query("path")

    assert solve(False) == solve(True)  # identical models
    seed_s, new_s = gated_ab(lambda: solve(False), lambda: solve(True), 5.0)
    speedup = record("datalog_indexed_join", seed_s, new_s, 5.0, edges=n)
    assert speedup >= gate(5.0)


def test_xml_axis_scan():
    """Descendant axis scans off the interval encoding: one staircase
    multi-range sweep of the ``(base_label, pre)`` index per (contexts,
    label) pair (counter-asserted) vs the seed evaluator — a pointer DFS
    from every context node that visits and label-tests each descendant.
    The interval side's work is proportional to the *matches*; the
    walk's is proportional to the subtree sizes, which is why the gap
    widens with fan-out."""
    molecules = 150 * SCALE
    db = make_xml_store(molecules)
    contexts = descendants_by_label(db, [db.ROOT_ID], "molecule")  # document order
    labels = ["interaction", "partner", "name"]
    repeats = 4

    def walk_axis(label: str) -> list:
        # the seed descendant step, verbatim: depth-first pointer chase
        # from each context, label-testing every visited node
        out = []
        for root in contexts:
            stack = [
                cid
                for _label, cid in sorted(
                    db._nodes[root].children.items(), reverse=True
                )
            ]
            while stack:
                nid = stack.pop()
                node_label = db.label_of(nid)
                if node_label == label or base_label(node_label) == label:
                    out.append(nid)
                stack.extend(
                    cid
                    for _label, cid in sorted(
                        db._nodes[nid].children.items(), reverse=True
                    )
                )
        return out

    for label in labels:  # identical ids, identical document order
        assert walk_axis(label) == descendants_by_label(db, contexts, label)

    before = dict(db.access_counts)
    matched = descendants_by_label(db, contexts, "partner")
    assert matched
    assert db.access_counts["multi_range_scan"] == before["multi_range_scan"] + 1
    assert db.access_counts["range_scan"] == before["range_scan"]  # no per-node reads

    def run_walk():
        for _ in range(repeats):
            for label in labels:
                walk_axis(label)

    def run_interval():
        for _ in range(repeats):
            for label in labels:
                descendants_by_label(db, contexts, label)

    seed_s, new_s = gated_ab(run_walk, run_interval, 3.0)
    speedup = record(
        "xml_axis_scan",
        seed_s,
        new_s,
        3.0,
        nodes=db.node_count(),
        contexts=len(contexts),
        labels=len(labels),
        repeats=repeats,
    )
    assert speedup >= gate(3.0)


def test_prov_ancestor_coverage():
    """Ancestor-coverage probes (the hot inner fetch of ``infer_at``,
    ``trace`` and ``getMod``): the whole probe chain of a deep location
    resolves in one presorted multi-range pass with the ``tid <= bound``
    cut pushed into the index tail (counter-asserted) vs the seed
    ``_fetch_for`` — one separate index probe per ancestor, each
    fetching and parsing *all* tids at that location and filtering the
    time-travel bound client-side, because the seed's per-loc lookup
    could not push a tid range into its ``(loc,)`` key."""
    n_chains = 40 * SCALE
    depth = 12
    history = 24  # records per touched location, spread across tids
    rng = random.Random(47)
    prov = ProvTable()
    texts, records, tid = [], [], 0
    for c in range(n_chains):
        segments = [f"T/g{c % 25}/m{c}"] + [f"n{d}" for d in range(depth)]
        texts.append("/".join(segments))
        parts = texts[-1].split("/")
        for cut in rng.sample(range(2, len(parts)), 4):
            for _ in range(history):
                tid += 1
                records.append(
                    ProvRecord(tid, "I", Path.parse("/".join(parts[:cut])))
                )
    rng.shuffle(records)  # histories interleave across locations
    prov.write_batch(records, category="bench")
    bound = tid // 16  # deep time travel: most of each history is out of window
    chains = [Path.parse(text).probe_chain() for text in texts]
    index_name = f"{prov.table_name}_loc"
    table = prov._table

    def serial():
        # the seed _fetch_for: one single-range index pass per ancestor,
        # every row at the location parsed and sorted (the seed's (loc,)
        # key has no tid component), the version window filtered after
        out = []
        for chain in chains:
            rows = []
            for ancestor in chain:
                text = str(ancestor)
                rows.extend(
                    row
                    for _rid, row in table.multi_range_scan(
                        index_name, [((text,), (text, MAX_KEY), True, True)]
                    )
                )
            fetched = sorted(
                (ProvRecord.from_row(row) for row in rows), key=_record_order
            )
            out.extend(rec for rec in fetched if rec.tid <= bound)
        return out

    def batched():  # records_at_locs: one probe pass, bound in the tail
        out = []
        for chain in chains:
            out.extend(
                prov.records_at_locs(chain, category="bench", max_tid=bound)
            )
        return out

    assert [rec.as_row() for rec in serial()] == [
        rec.as_row() for rec in batched()
    ]  # identical record sequences
    before = dict(table.access_counts)
    result = prov.records_at_locs(chains[0], category="bench", max_tid=bound)
    assert result is not None
    assert table.access_counts["inlj_probe"] == before["inlj_probe"]  # no join
    assert table.access_counts["multi_range_scan"] == before["multi_range_scan"] + 1
    assert sum(table.access_counts.values()) == sum(before.values()) + 1  # one pass

    seed_s, new_s = gated_ab(serial, batched, 3.0)
    speedup = record(
        "prov_ancestor_coverage",
        seed_s,
        new_s,
        3.0,
        rows=len(records),
        chains=n_chains,
        chain_len=depth + 3,
        history=history,
        bound=bound,
    )
    assert speedup >= gate(3.0)
