"""Tests of the provenance queries: hand-checked cases on the paper's
example, cross-method agreement, and procedural-vs-Datalog validation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.editor import CurationEditor
from repro.core.inference import expand_all
from repro.core.paths import Path
from repro.core.provenance import ProvTable
from repro.core.queries import ProvenanceQueries
from repro.core.stores import make_store
from repro.core.tree import Tree
from repro.core.updates import parse_script
from repro.datalog.provenance_rules import run_queries
from repro.wrappers.memory import MemorySourceDB, MemoryTargetDB

from .conftest import FIGURE3_SCRIPT, build_editor
from .strategies import SOURCE_NAME, TARGET_NAME, scripts
from .test_inference import run_with_snapshots


def queries_for(method, commit_every=None):
    editor = build_editor(method, first_tid=121)
    editor.run_script(
        parse_script(FIGURE3_SCRIPT),
        commit_every=commit_every if method in ("T", "HT") else None,
    )
    return editor, ProvenanceQueries(editor.store, first_tid=121)


class TestFigure3Queries:
    """Ground-truth answers on the paper's running example (naive store,
    per-operation transactions 121-130)."""

    def setup_method(self):
        self.editor, self.queries = queries_for("N")

    def test_src_of_inserted_leaf(self):
        # T/c4/y was inserted (with value 12) at step (10) = tid 130
        assert self.queries.get_src("T/c4/y") == 130

    def test_src_of_copied_data_is_unknown(self):
        # T/c2/y's current data came from S2: its insertion is not in T
        assert self.queries.get_src("T/c2/y") is None

    def test_hist_of_copied_leaf(self):
        assert self.queries.get_hist("T/c2/y") == [126]

    def test_hist_stops_at_source_boundary(self):
        # T/c3 came from S1/a3 at 127; the chain exits T there
        assert self.queries.get_hist("T/c3") == [127]

    def test_hist_of_unchanged_data_is_empty(self):
        assert self.queries.get_hist("T/c1/x") == []
        assert self.queries.get_src("T/c1/x") is None

    def test_mod_collects_subtree_history(self):
        assert sorted(self.queries.get_mod("T/c2")) == [123, 124, 125, 126]

    def test_mod_of_whole_database(self):
        assert sorted(self.queries.get_mod("T")) == list(range(121, 131))

    def test_trace_steps(self):
        steps = self.queries.trace("T/c2/y")
        assert [step.tid for step in steps] == [126]
        assert str(steps[0].record.src) == "S2/b3/y"

    def test_came_from(self):
        assert self.queries.came_from(126, "T/c2/y") == Path.parse("S2/b3/y")
        assert self.queries.came_from(125, "T/c2/y") is None  # inserted then
        assert self.queries.came_from(124, "T/c1/x") == Path.parse("T/c1/x")


class TestCrossMethodAgreement:
    def test_hierarchical_agrees_with_naive(self):
        _, naive = queries_for("N")
        _, hier = queries_for("H")
        for loc in ("T/c2/y", "T/c3", "T/c3/x", "T/c4/y", "T/c1/x", "T/c1/y"):
            assert naive.get_src(loc) == hier.get_src(loc), loc
            assert naive.get_hist(loc) == hier.get_hist(loc), loc
            assert naive.get_mod(loc) == hier.get_mod(loc), loc

    def test_ht_agrees_with_transactional(self):
        _, trans = queries_for("T", commit_every=5)
        _, hier_trans = queries_for("HT", commit_every=5)
        for loc in ("T/c2/y", "T/c3", "T/c3/x", "T/c4/y", "T/c1/x"):
            assert trans.get_src(loc) == hier_trans.get_src(loc), loc
            assert trans.get_hist(loc) == hier_trans.get_hist(loc), loc
            assert trans.get_mod(loc) == hier_trans.get_mod(loc), loc


class TestMultiHopTrace:
    def build(self, method):
        store = make_store(method, ProvTable())
        editor = CurationEditor(
            target=MemoryTargetDB("T", Tree.from_dict({"area": {}})),
            sources=[MemorySourceDB("S", Tree.from_dict({"rec": {"v": 1}}))],
            store=store,
        )
        editor.copy_paste("S/rec", "T/area/first")    # txn 1
        editor.commit()
        editor.copy_paste("T/area/first", "T/area/second")  # txn 2
        editor.commit()
        editor.copy_paste("T/area/second", "T/area/third")  # txn 3
        editor.commit()
        return ProvenanceQueries(store)

    def test_chain_through_target(self):
        for method in ("N", "H", "T", "HT"):
            queries = self.build(method)
            hist = queries.get_hist("T/area/third")
            assert hist == [3, 2, 1], method
            # mod of the final location includes its whole copy history
            assert queries.get_mod("T/area/third") == {1, 2, 3}, method

    def test_inherited_leaf_chain(self):
        for method in ("H", "HT"):
            queries = self.build(method)
            # the leaf v has no explicit records; all inference
            assert queries.get_hist("T/area/third/v") == [3, 2, 1], method


class TestDatalogValidation:
    @settings(max_examples=20, deadline=None)
    @given(scripts(max_ops=8), st.integers(min_value=0, max_value=3))
    def test_procedural_matches_datalog(self, drawn, pick):
        """get_src/get_hist/get_mod computed procedurally over the naive
        store equal the Datalog evaluation of the paper's definitions
        over the same table."""
        initial, ops = drawn
        editor, _states = run_with_snapshots(initial, ops, "N")
        queries = ProvenanceQueries(editor.store, target_name=TARGET_NAME)

        final = editor.target_tree()
        locations = [
            Path([TARGET_NAME]).join(path)
            for path, _node in final.nodes()
            if not path.is_root
        ]
        if not locations:
            return
        loc = locations[pick % len(locations)]

        declarative = run_queries(
            editor.store.records(), loc, editor.store.last_tid, TARGET_NAME
        )
        src = queries.get_src(loc)
        assert (set() if src is None else {src}) == declarative["src"]
        assert set(queries.get_hist(loc)) == declarative["hist"]
        assert queries.get_mod(loc) == declarative["mod"]

    @settings(max_examples=15, deadline=None)
    @given(scripts(max_ops=8))
    def test_hierarchical_queries_match_naive_random(self, drawn):
        initial, ops = drawn
        editor_n, _ = run_with_snapshots(initial, ops, "N")
        editor_h, _ = run_with_snapshots(initial, ops, "H")
        queries_n = ProvenanceQueries(editor_n.store, target_name=TARGET_NAME)
        queries_h = ProvenanceQueries(editor_h.store, target_name=TARGET_NAME)

        final = editor_n.target_tree()
        for path, _node in final.nodes():
            if path.is_root:
                continue
            loc = Path([TARGET_NAME]).join(path)
            assert queries_n.get_src(loc) == queries_h.get_src(loc), loc
            assert queries_n.get_hist(loc) == queries_h.get_hist(loc), loc

    @settings(max_examples=15, deadline=None)
    @given(scripts(max_ops=8))
    def test_ht_queries_match_transactional_random(self, drawn):
        initial, ops = drawn
        editor_t, _ = run_with_snapshots(initial, ops, "T", commit_every=3)
        editor_ht, _ = run_with_snapshots(initial, ops, "HT", commit_every=3)
        queries_t = ProvenanceQueries(editor_t.store, target_name=TARGET_NAME)
        queries_ht = ProvenanceQueries(editor_ht.store, target_name=TARGET_NAME)

        final = editor_t.target_tree()
        for path, _node in final.nodes():
            if path.is_root:
                continue
            loc = Path([TARGET_NAME]).join(path)
            assert queries_t.get_src(loc) == queries_ht.get_src(loc), loc
            assert queries_t.get_hist(loc) == queries_ht.get_hist(loc), loc


class TestModWithoutTarget:
    def test_mod_needs_only_the_store(self, naive_session_factory=None):
        """Section 2.2: "Mod can be answered using only the data in Prov
        or HProv; it is not necessary to inspect the target database."
        The queries object holds no reference to the target at all — and
        keeps answering after the target is gone."""
        editor, queries = queries_for("N")
        del editor  # the target database goes away entirely
        assert sorted(queries.get_mod("T/c2")) == [123, 124, 125, 126]


class TestBatchedLocationProbes:
    """records_at_locs answers N locations in one merged index pass."""

    def _prov_table(self):
        table = ProvTable()
        from repro.core.provenance import ProvRecord

        table.write_batch(
            [
                ProvRecord(tid=1, op="I", loc=Path.parse("T/a")),
                ProvRecord(tid=2, op="I", loc=Path.parse("T/a/x")),
                ProvRecord(tid=3, op="I", loc=Path.parse("T/b")),
                ProvRecord(tid=4, op="C", loc=Path.parse("T/a"), src=Path.parse("S/a")),
            ],
            category="setup",
        )
        return table

    def test_one_index_pass_for_n_locations(self):
        table = self._prov_table()
        counts = table._table.access_counts
        before = dict(counts)
        records = table.records_at_locs(
            [Path.parse("T/a"), Path.parse("T/b"), Path.parse("T/zzz")]
        )
        assert [(r.tid, str(r.loc)) for r in records] == [
            (1, "T/a"), (3, "T/b"), (4, "T/a"),
        ]
        # the batch is exactly one presorted multi-range union pass over
        # the (loc, tid) index, with no join operator in between
        assert counts["inlj_probe"] == before["inlj_probe"]
        assert counts["multi_range_scan"] == before["multi_range_scan"] + 1
        assert sum(counts.values()) == sum(before.values()) + 1  # one pass, not N
        assert counts["eq_lookup"] == before["eq_lookup"]
        assert counts["scan"] == before["scan"]

    def test_records_under_is_one_index_pass(self):
        table = self._prov_table()
        counts = table._table.access_counts
        before = dict(counts)
        records = table.records_under(Path.parse("T/a"))
        assert [(r.tid, str(r.loc)) for r in records] == [
            (1, "T/a"), (2, "T/a/x"), (4, "T/a"),
        ]
        # `loc = 'T/a'` and `loc LIKE 'T/a/%'` are two ranges of one pass
        assert counts["multi_range_scan"] == before["multi_range_scan"] + 1
        assert sum(counts.values()) == sum(before.values()) + 1
        assert counts["eq_lookup"] == before["eq_lookup"]
        assert counts["scan"] == before["scan"]

    def test_duplicate_locs_probe_once(self):
        table = self._prov_table()
        twice = table.records_at_locs([Path.parse("T/a"), Path.parse("T/a")])
        once = table.records_at_locs([Path.parse("T/a")])
        assert twice == once  # IN-list set semantics

    def test_max_tid_window_pushed_into_ranges(self):
        table = self._prov_table()
        records = table.records_at_locs([Path.parse("T/a")], max_tid=3)
        assert [(r.tid, r.op) for r in records] == [(1, "I")]

    def test_empty_loc_list(self):
        table = self._prov_table()
        assert table.records_at_locs([]) == []
