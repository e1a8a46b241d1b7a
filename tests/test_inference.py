"""Tests of hierarchical inference: the HProv -> Prov view.

The central property: for any valid update script, expanding the
hierarchical table against the per-transaction tree states yields
*exactly* the naive table (and expanding HT yields exactly the
transactional table) — hierarchical storage is lossless.
The Datalog transcription of the inference rules must agree too.
"""

from hypothesis import given, settings

from repro.core.editor import CurationEditor
from repro.core.inference import expand, expand_all, infer_at
from repro.core.paths import Path
from repro.core.provenance import ProvRecord, ProvTable
from repro.core.stores import make_store
from repro.core.tree import Tree
from repro.core.updates import Workspace, apply_update
from repro.datalog.provenance_rules import inference_program
from repro.wrappers.memory import MemorySourceDB, MemoryTargetDB

from .conftest import FIGURE3_SCRIPT, build_editor
from .strategies import SOURCE_NAME, TARGET_NAME, scripts
from repro.core.updates import parse_script


def run_with_snapshots(initial, ops, method, commit_every=None):
    """Run a script, returning (editor, {tid: workspace-at-end-of-tid})."""
    store = make_store(method, ProvTable())
    editor = CurationEditor(
        target=MemoryTargetDB(TARGET_NAME, initial.roots[TARGET_NAME].deep_copy()),
        sources=[MemorySourceDB(SOURCE_NAME, initial.roots[SOURCE_NAME].deep_copy())],
        store=store,
    )
    def snapshot():
        return Workspace(
            {
                TARGET_NAME: editor.target_tree(),
                SOURCE_NAME: initial.roots[SOURCE_NAME].deep_copy(),
            },
            target=TARGET_NAME,
        )

    states = {store.last_tid: snapshot()}  # state before the first txn
    pending = 0
    for op in ops:
        editor.apply(op)
        pending += 1
        if store.transactional:
            if commit_every is not None and pending >= commit_every:
                editor.commit()
                states[store.last_tid] = snapshot()
                pending = 0
        else:
            states[store.last_tid] = snapshot()
    if store.transactional and pending:
        editor.commit()
        states[store.last_tid] = snapshot()
    return editor, states


class TestInferAt:
    def test_explicit_record_wins(self):
        table = ProvTable()
        table.write_statement(
            [ProvRecord(5, "C", Path.parse("T/a"), Path.parse("S/x"))], "paste"
        )
        record = infer_at(table, 5, Path.parse("T/a"))
        assert record.src == Path.parse("S/x")

    def test_copy_inherited_with_rebase(self):
        table = ProvTable()
        table.write_statement(
            [ProvRecord(5, "C", Path.parse("T/a"), Path.parse("S/x"))], "paste"
        )
        record = infer_at(table, 5, Path.parse("T/a/b/c"))
        assert record.op == "C"
        assert record.src == Path.parse("S/x/b/c")

    def test_insert_and_delete_inherited(self):
        table = ProvTable()
        table.write_statement([ProvRecord(1, "I", Path.parse("T/a"))], "add")
        table.write_statement([ProvRecord(2, "D", Path.parse("T/b"))], "delete")
        assert infer_at(table, 1, Path.parse("T/a/x")).op == "I"
        assert infer_at(table, 2, Path.parse("T/b/x/y")).op == "D"

    def test_nearer_record_blocks_farther(self):
        table = ProvTable()
        table.write_statement(
            [
                ProvRecord(5, "C", Path.parse("T/a"), Path.parse("S/x")),
                ProvRecord(5, "C", Path.parse("T/a/b"), Path.parse("S2/q")),
            ],
            "paste",
        )
        record = infer_at(table, 5, Path.parse("T/a/b/c"))
        assert record.src == Path.parse("S2/q/c")

    def test_unchanged_is_none(self):
        table = ProvTable()
        assert infer_at(table, 1, Path.parse("T/a")) is None

    def test_different_tid_not_inherited(self):
        table = ProvTable()
        table.write_statement(
            [ProvRecord(5, "C", Path.parse("T/a"), Path.parse("S/x"))], "paste"
        )
        assert infer_at(table, 6, Path.parse("T/a/b")) is None

    def test_deep_chain_is_one_probe_pass(self):
        """The whole ancestor chain resolves in one batched probe: one
        presorted multi-range index pass on the ``(loc, tid)`` index and
        no join operator — never a round trip per ancestor, and no full
        scans or per-loc point lookups regardless of depth."""
        table = ProvTable()
        table.write_statement(
            [ProvRecord(5, "C", Path.parse("T/a"), Path.parse("S/x"))], "paste"
        )
        loc = Path.parse("T/a/" + "/".join(["b"] * 40))
        counts = table._table.access_counts
        before = dict(counts)
        record = infer_at(table, 5, loc)
        assert record is not None and record.op == "C"
        assert record.src == Path.parse("S/x/" + "/".join(["b"] * 40))
        assert counts["inlj_probe"] == before["inlj_probe"]
        assert counts["multi_range_scan"] == before["multi_range_scan"] + 1
        assert counts["scan"] == before["scan"]
        assert counts["eq_lookup"] == before["eq_lookup"]
        assert counts["range_scan"] == before["range_scan"]


class TestExpandFigure5:
    """Expanding Figure 5(c) must give 5(a); expanding 5(d) gives 5(b)."""

    def _states(self, commit_every):
        from .conftest import make_s1, make_s2, make_t_initial

        initial = Workspace(
            {"T": make_t_initial(), "S1": make_s1(), "S2": make_s2()}, target="T"
        )
        # adapt: two sources; run manually
        editorH = build_editor("H" if commit_every is None else "HT", first_tid=121)
        updates = parse_script(FIGURE3_SCRIPT)
        states = {120: Workspace(
            {"T": make_t_initial(), "S1": make_s1(), "S2": make_s2()}, target="T")}
        pending = 0
        for update in updates:
            editorH.apply(update)
            pending += 1
            if commit_every is None:
                states[editorH.store.last_tid] = Workspace(
                    {"T": editorH.target_tree(), "S1": make_s1(), "S2": make_s2()},
                    target="T",
                )
            elif pending >= commit_every:
                editorH.commit()
                states[editorH.store.last_tid] = Workspace(
                    {"T": editorH.target_tree(), "S1": make_s1(), "S2": make_s2()},
                    target="T",
                )
                pending = 0
        return editorH, states

    def test_expand_h_equals_naive(self):
        editor_h, states = self._states(commit_every=None)
        expanded = expand_all(editor_h.store.records(), states)

        editor_n = build_editor("N", first_tid=121)
        editor_n.run_script(parse_script(FIGURE3_SCRIPT))
        assert expanded == editor_n.store.records()

    def test_expand_ht_equals_transactional(self):
        editor_ht, states = self._states(commit_every=10)
        expanded = expand_all(editor_ht.store.records(), states)

        editor_t = build_editor("T", first_tid=121)
        editor_t.run_script(parse_script(FIGURE3_SCRIPT), commit_every=10)
        assert sorted(expanded, key=str) == sorted(editor_t.store.records(), key=str)


class TestExpandProperty:
    @settings(max_examples=30, deadline=None)
    @given(scripts(max_ops=8))
    def test_expand_h_equals_naive_random(self, drawn):
        initial, ops = drawn
        editor_h, states = run_with_snapshots(initial, ops, "H")
        editor_n, _ = run_with_snapshots(initial, ops, "N")
        expanded = expand_all(editor_h.store.records(), states)
        assert expanded == editor_n.store.records()

    @settings(max_examples=30, deadline=None)
    @given(scripts(max_ops=8))
    def test_expand_ht_equals_transactional_random(self, drawn):
        initial, ops = drawn
        editor_ht, states = run_with_snapshots(initial, ops, "HT", commit_every=3)
        editor_t, _ = run_with_snapshots(initial, ops, "T", commit_every=3)
        expanded = expand_all(editor_ht.store.records(), states)
        assert sorted(expanded, key=str) == sorted(editor_t.store.records(), key=str)

    @settings(max_examples=15, deadline=None)
    @given(scripts(max_ops=6))
    def test_datalog_inference_agrees(self, drawn):
        """The Datalog transcription of the inference rules computes the
        same full table as the procedural expansion."""
        initial, ops = drawn
        editor_h, states = run_with_snapshots(initial, ops, "H")
        hrecords = editor_h.store.records()
        expanded = expand_all(hrecords, states)

        program = inference_program(hrecords, states)
        derived = program.query("prov")
        expected = {
            (r.tid, r.op, str(r.loc), str(r.src) if r.src else None)
            for r in expanded
        }
        assert derived == expected
