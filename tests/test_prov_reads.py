"""``ProvTable``'s ``(loc, tid)``-keyed reads against a brute-force filter.

``records_at_locs``, ``records_at_loc`` and ``records_under`` each run
one presorted multi-range pass over the ordered ``(loc, tid)`` index.
Here every answer is compared, records and order, with a filter over
``peek_records()``:

* ``records_at_locs``: loc in the probed set (duplicates allowed) and
  ``min_tid <= tid <= max_tid``, each bound optional, ``min_tid ==
  max_tid`` included;
* ``records_under(p)``: ``loc == p`` or ``loc`` starts with ``p/``.
  The location pool holds texts that sort between ``p`` and ``p/``
  (``p!``, ``p-``, ``p.x``), right at the ``p0`` upper bound, after it
  (``pa``, non-ASCII), and deep ``p/...`` descendants, which guards the
  range ``[p/, p0)`` that stands in for ``LIKE 'p/%'``.

Each read is also one charged round trip and at most one index pass.

The table builds each stored row's record once and caches it; the
second half drives writes, rollbacks and all the reads on one table in
random order against records built fresh from its rows.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.paths import Path
from repro.core.provenance import ProvRecord, ProvTable

# ``REPRO_HYPOTHESIS_PROFILE=ci`` derandomizes the properties here (same
# example budgets), so a read-path regression fails deterministically.
_PROFILES = {
    "default": {},
    "ci": {"derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)

_PASSES = ("scan", "eq_lookup", "prefix_scan", "range_scan", "multi_range_scan")

LOCS = [
    "T",
    "T/o",
    "T/p",
    "T/p!",
    "T/p-",
    "T/p.x",
    "T/p0",
    "T/p0/x",
    "T/pa",
    "T/pé",
    "T/q",
    "T/p/x",
    "T/p/x/y",
    "T/p/x/y/z/w",
    "T/p/é",
    "T/p/日本/x",
    "T/p!/x",
    "T/p.x/y",
    "T/pa/p",
    "T/日本",
    "T/日本/p",
]

locs = st.sampled_from(LOCS)
tids = st.integers(min_value=1, max_value=12)


@st.composite
def prov_tables(draw):
    keyed = draw(
        st.dictionaries(
            st.tuples(tids, locs),
            st.sampled_from(["I", "D", "C"]),
            max_size=40,
        )
    )
    records = [
        ProvRecord(tid, op, Path.parse(loc), Path.parse("S/" + loc) if op == "C" else None)
        for (tid, loc), op in keyed.items()
    ]
    table = ProvTable()
    if records:
        table.write_batch(records, category="setup")
    return table


def _read(table, call):
    """Run one read; return its answer, index passes and round trips."""
    counts = table._table.access_counts
    before = {kind: counts[kind] for kind in _PASSES}
    trips = table.clock.count("prov.query")
    answer = call()
    passes = {kind: counts[kind] - before[kind] for kind in _PASSES}
    return answer, passes, table.clock.count("prov.query") - trips


def _one_pass(passes):
    return passes == {**dict.fromkeys(_PASSES, 0), "multi_range_scan": 1}


@given(
    prov_tables(),
    st.lists(locs, min_size=1, max_size=6),
    st.one_of(st.none(), tids),
    st.one_of(st.none(), tids),
    st.booleans(),
)
@settings(max_examples=200, deadline=None, **_PROFILE)
def test_records_at_locs_matches_filter(table, probed, max_tid, min_tid, point):
    if point:
        min_tid = max_tid
    texts = set(probed)
    expected = [
        record
        for record in table.peek_records()
        if str(record.loc) in texts
        and (max_tid is None or record.tid <= max_tid)
        and (min_tid is None or record.tid >= min_tid)
    ]
    answer, passes, trips = _read(
        table,
        lambda: table.records_at_locs(
            [Path.parse(text) for text in probed], max_tid=max_tid, min_tid=min_tid
        ),
    )
    assert answer == expected
    assert _one_pass(passes) and trips == 1


@given(prov_tables(), locs, st.one_of(st.none(), tids))
@settings(max_examples=200, deadline=None, **_PROFILE)
def test_records_at_loc_matches_filter(table, loc, max_tid):
    expected = [
        record
        for record in table.peek_records()
        if str(record.loc) == loc and (max_tid is None or record.tid <= max_tid)
    ]
    answer, passes, trips = _read(
        table, lambda: table.records_at_loc(Path.parse(loc), max_tid=max_tid)
    )
    assert answer == expected
    assert _one_pass(passes) and trips == 1


@given(prov_tables(), locs)
@settings(max_examples=200, deadline=None, **_PROFILE)
def test_records_under_matches_filter(table, prefix):
    expected = [
        record
        for record in table.peek_records()
        if str(record.loc) == prefix or str(record.loc).startswith(prefix + "/")
    ]
    answer, passes, trips = _read(table, lambda: table.records_under(Path.parse(prefix)))
    assert answer == expected
    assert _one_pass(passes) and trips == 1


def test_records_under_excludes_siblings_that_sort_inside_the_prefix():
    table = ProvTable()
    table.write_batch(
        [ProvRecord(1, "I", Path.parse(text)) for text in LOCS], category="setup"
    )
    under = sorted(str(record.loc) for record in table.records_under(Path.parse("T/p")))
    assert under == [
        "T/p", "T/p/x", "T/p/x/y", "T/p/x/y/z/w", "T/p/é", "T/p/日本/x",
    ]


def test_no_locations_is_no_index_pass():
    table = ProvTable()
    table.write_batch([ProvRecord(1, "I", Path.parse("T/p"))], category="setup")
    answer, passes, trips = _read(table, lambda: table.records_at_locs([]))
    assert answer == []
    assert passes == dict.fromkeys(_PASSES, 0)
    assert trips == 1  # still one charged round trip, as before


# ----------------------------------------------------------------------
# The record cache: reads interleaved with writes and rollbacks
# ----------------------------------------------------------------------
# ``ProvTable`` turns each stored row into a ``ProvRecord`` once and
# keeps it, keyed by the row's value.  Here a random sequence of writes
# (one statement or one batch), reads, and explicit ``begin`` ...
# ``rollback`` or ``commit`` blocks of both runs on one table.  Every
# read must equal the brute-force filter over records built fresh from
# the table's rows at that moment, so a rolled-back row, or one
# re-inserted with another op or source, would show if the cache ever
# served it stale.  Few tids and locations, so rolled-back keys are
# often written again.

few_tids = st.integers(min_value=1, max_value=3)
few_locs = st.sampled_from(["T", "T/p", "T/p!", "T/p/x", "T/q"])
_write_op = st.tuples(
    st.just("write"),
    st.sampled_from(["statement", "batch"]),
    st.lists(
        st.tuples(few_tids, few_locs, st.sampled_from(["I", "D", "C"]), st.sampled_from("ST")),
        min_size=1,
        max_size=4,
    ),
)
_read_shape = st.one_of(
    st.tuples(
        st.just("records_at_locs"),
        st.lists(few_locs, min_size=1, max_size=4),
        st.one_of(st.none(), few_tids),
        st.one_of(st.none(), few_tids),
    ),
    st.tuples(st.just("records_at_loc"), few_locs, st.one_of(st.none(), few_tids)),
    st.tuples(st.just("records_under"), few_locs),
    st.tuples(st.just("record_at"), few_tids, few_locs),
    st.tuples(st.just("records_for_tid"), few_tids),
    st.tuples(st.just("all_records")),
    st.tuples(st.just("peek_records")),
)
_read_op = st.tuples(st.just("read"), _read_shape)
_txn_op = st.tuples(
    st.just("txn"),
    st.lists(st.one_of(_write_op, _read_op), min_size=1, max_size=6),
    st.sampled_from(["rollback", "commit"]),
)


def _fresh(table):
    """Every stored row as a newly built record, in the reads' order."""
    return sorted(
        (ProvRecord.from_row(row) for _rowid, row in table._table.scan()),
        key=lambda record: (record.tid, record.loc.sort_key()),
    )


def _expected(table, op):
    kind, *args = op
    fresh = _fresh(table)
    if kind == "records_at_locs":
        probed, max_tid, min_tid = args
        return [
            r for r in fresh
            if str(r.loc) in probed
            and (max_tid is None or r.tid <= max_tid)
            and (min_tid is None or r.tid >= min_tid)
        ]
    if kind == "records_at_loc":
        loc, max_tid = args
        return [r for r in fresh if str(r.loc) == loc and (max_tid is None or r.tid <= max_tid)]
    if kind == "records_under":
        (prefix,) = args
        return [
            r for r in fresh
            if str(r.loc) == prefix or str(r.loc).startswith(prefix + "/")
        ]
    if kind == "record_at":
        tid, loc = args
        return next((r for r in fresh if r.tid == tid and str(r.loc) == loc), None)
    if kind == "records_for_tid":
        (tid,) = args
        return [r for r in fresh if r.tid == tid]
    return fresh  # all_records, peek_records


def _run_read(table, op):
    kind, *args = op
    if kind == "records_at_locs":
        probed, max_tid, min_tid = args
        return table.records_at_locs(
            [Path.parse(text) for text in probed], max_tid=max_tid, min_tid=min_tid
        )
    if kind == "records_at_loc":
        loc, max_tid = args
        return table.records_at_loc(Path.parse(loc), max_tid=max_tid)
    if kind == "records_under":
        return table.records_under(Path.parse(args[0]))
    if kind == "record_at":
        tid, loc = args
        return table.record_at(tid, Path.parse(loc))
    return getattr(table, kind)(*args)


def _write(table, op):
    """Write the op's records whose ``(tid, loc)`` key is free now
    (first of each key wins), so no statement fails half-applied."""
    _kind, how, specs = op
    taken = {(row[0], row[2]) for _rowid, row in table._table.scan()}
    records = []
    for tid, loc, code, src in specs:
        if (tid, loc) in taken:
            continue
        taken.add((tid, loc))
        source = Path.parse(f"{src}/{loc}") if code == "C" else None
        records.append(ProvRecord(tid, code, Path.parse(loc), source))
    if not records:
        return
    if how == "statement":
        table.write_statement(records, category="update")
    else:
        table.write_batch(records)


def _apply(table, op):
    kind = op[0]
    if kind == "read":
        assert _run_read(table, op[1]) == _expected(table, op[1])
        return
    if kind == "write":
        _write(table, op)
    else:
        _kind, inner, end = op
        table.db.begin()
        for inner_op in inner:
            _apply(table, inner_op)
        getattr(table.db, end)()
    # every write and every transaction end also reads the whole table,
    # so each row written is cached before it can be rolled back
    assert table.peek_records() == _fresh(table)


@given(st.lists(st.one_of(_write_op, _read_op, _txn_op), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None, **_PROFILE)
def test_cached_reads_match_fresh_records_across_writes_and_rollbacks(ops):
    table = ProvTable()
    for op in ops:
        _apply(table, op)


def test_each_stored_row_becomes_a_record_once(monkeypatch):
    table = ProvTable()
    table.write_batch(
        [ProvRecord(1, "I", Path.parse("T/p")), ProvRecord(2, "D", Path.parse("T/p/x"))]
    )
    first = table.records_under(Path.parse("T/p"))
    built = []
    real = ProvRecord.from_row.__func__
    monkeypatch.setattr(
        ProvRecord, "from_row", classmethod(lambda cls, row: built.append(row) or real(cls, row))
    )
    again = table.records_under(Path.parse("T/p"))
    assert again == first and all(a is b for a, b in zip(again, first))
    assert table.record_at(1, Path.parse("T/p")) is first[0]
    assert table.peek_records()[1] is first[1]
    assert built == []


def test_a_row_that_fails_validation_raises_on_every_read():
    table = ProvTable()
    table.write_batch([ProvRecord(1, "I", Path.parse("T/p/x"))])
    table.db.insert(table.table_name, (1, "X", "T/p", None))
    reads = [
        lambda: table.records_at_loc(Path.parse("T/p")),
        lambda: table.records_at_locs([Path.parse("T/p/x"), Path.parse("T/p")]),
        lambda: table.records_under(Path.parse("T")),
        lambda: table.record_at(1, Path.parse("T/p")),
        lambda: table.records_for_tid(1),
        table.all_records,
        table.peek_records,
    ]
    for _attempt in range(2):
        for read in reads:
            with pytest.raises(ValueError, match="op must be one of"):
                read()
    # the valid row beside it still reads
    assert table.record_at(1, Path.parse("T/p/x")) == ProvRecord(1, "I", Path.parse("T/p/x"))
