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
"""

import os

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
