"""Tests for element-label lookups over the store's ``(base_label, pre)``
index and XPath evaluation against the store."""

import pytest

from repro.core.paths import Path
from repro.core.tree import Tree
from repro.xmldb.axes import descendants_by_label
from repro.xmldb.store import XMLDatabase
from repro.xmldb.xpath import XPath, base_label


def make_store():
    db = XMLDatabase()
    db.load_tree(Tree.from_dict({
        "molecules": {
            "molecule{M1}": {
                "name": "ABC1",
                "interactions": {
                    "interaction{1}": {"partner": "M2"},
                    "interaction{2}": {"partner": "M3"},
                },
            },
            "molecule{M2}": {
                "name": "CRP",
                "interactions": {"interaction{1}": {"partner": "M1"}},
            },
        },
    }))
    return db


def count(db: XMLDatabase, label: str) -> int:
    return len(descendants_by_label(db, [db.ROOT_ID], label))


class TestBaseLabel:
    def test_keyed_and_plain(self):
        assert base_label("interaction{3}") == "interaction"
        assert base_label("molecule{M00042}") == "molecule"
        assert base_label("name") == "name"
        assert base_label("weird{a}{b}") == "weird{a}"


class TestElementIndex:
    def test_initial_build(self):
        db = make_store()
        assert count(db, "molecule") == 2
        assert count(db, "interaction") == 3
        assert count(db, "name") == 2
        assert count(db, "nothing") == 0
        assert count(db, "interactions") == 2

    def test_incremental_add(self):
        db = make_store()
        assert count(db, "organism") == 0  # builds the index before the edit
        db.add_node("molecules/molecule{M1}", "organism", "H.sapiens")
        assert count(db, "organism") == 1
        db.paste_node(
            "molecules/molecule{M2}/interactions/interaction{2}",
            Tree.from_dict({"partner": "M9"}),
        )
        assert count(db, "interaction") == 4

    def test_incremental_delete_frees_subtree(self):
        db = make_store()
        assert count(db, "interaction") == 3
        db.delete_node("molecules/molecule{M1}")
        assert count(db, "molecule") == 1
        assert count(db, "interaction") == 1  # M1's two are gone
        assert count(db, "name") == 1

    def test_overwrite_replaces_entries(self):
        db = make_store()
        assert count(db, "interaction") == 3
        db.paste_node("molecules/molecule{M1}", Tree.from_dict({"name": "X"}))
        assert count(db, "molecule") == 2
        assert count(db, "interaction") == 1  # only M2's survived

    def test_lookup_ids_resolve_to_paths(self):
        db = make_store()
        found = descendants_by_label(db, [db.ROOT_ID], "name")
        paths = {str(db.path_of(node_id)) for node_id in found}
        assert paths == {
            "molecules/molecule{M1}/name",
            "molecules/molecule{M2}/name",
        }


class TestIndexedXPath:
    @pytest.mark.parametrize("expression", [
        "//interaction",
        "//name",
        "//partner",
        "molecules/*/name",
        "//interactions",
    ])
    def test_agrees_with_tree_evaluation(self, expression):
        db = make_store()
        expected = XPath(expression).evaluate(db.subtree(Path()))
        assert XPath(expression).evaluate_store(db) == expected

    def test_keyed_instances_found(self):
        """Non-vacuous check: //interaction really finds the keyed edges
        interaction{1..}, per the paper's Citation{3} addressing."""
        db = make_store()
        found = XPath("//interaction").evaluate_store(db)
        assert len(found) == 3
        assert all("interaction{" in str(path) for path in found)

    def test_agrees_after_updates(self):
        db = make_store()
        db.delete_node("molecules/molecule{M1}/interactions/interaction{1}")
        db.add_node("molecules/molecule{M2}/interactions", "interaction{7}")
        expected = XPath("//interaction").evaluate(db.subtree(Path()))
        assert XPath("//interaction").evaluate_store(db) == expected
