"""Unit and property tests for the tree data model."""

import pytest
from hypothesis import given

from repro.core.paths import Path
from repro.core.tree import Tree, TreeError

from .strategies import small_trees


class TestConstruction:
    def test_from_to_dict_roundtrip(self):
        data = {"c1": {"x": 1, "y": 3}, "c5": {"x": 9, "y": 7}}
        assert Tree.from_dict(data).to_dict() == data

    def test_leaf(self):
        leaf = Tree.leaf(42)
        assert leaf.is_leaf_value
        assert leaf.value == 42
        assert not leaf.is_empty

    def test_empty(self):
        empty = Tree.empty()
        assert empty.is_empty
        assert not empty.is_leaf_value

    def test_rejects_bad_value_types(self):
        with pytest.raises(TreeError):
            Tree.leaf([1, 2])


class TestResolution:
    def test_resolve(self):
        t = Tree.from_dict({"a": {"b": 5}})
        assert t.resolve("a/b").value == 5
        assert t.resolve(Path()).is_leaf_value is False

    def test_resolve_missing_fails(self):
        t = Tree.from_dict({"a": {}})
        with pytest.raises(TreeError):
            t.resolve("a/b")
        assert not t.contains_path("a/b")
        assert t.contains_path("a")

    def test_nodes_enumeration_sorted(self):
        t = Tree.from_dict({"b": {"z": 1}, "a": 2})
        assert [str(p) for p, _ in t.nodes()] == ["", "a", "b", "b/z"]

    def test_node_count(self):
        t = Tree.from_dict({"a": {"x": 1, "y": 2, "z": 3}})
        assert t.node_count() == 5  # root + a + 3 leaves

    def test_leaf_values(self):
        t = Tree.from_dict({"a": {"x": 1}, "b": 2})
        assert dict((str(p), v) for p, v in t.leaf_values()) == {"a/x": 1, "b": 2}


class TestMutation:
    def test_add_child_disjointness(self):
        t = Tree.from_dict({"a": 1})
        with pytest.raises(TreeError):
            t.add_child("a", Tree.leaf(2))  # t ] u requires disjoint edges

    def test_add_child_under_leaf_fails(self):
        t = Tree.leaf(1)
        with pytest.raises(TreeError):
            t.add_child("a", Tree.empty())

    def test_remove_child_missing_fails(self):
        t = Tree.empty()
        with pytest.raises(TreeError):
            t.remove_child("a")  # t - a fails if no such edge

    def test_remove_child_returns_subtree(self):
        t = Tree.from_dict({"a": {"b": 1}})
        removed = t.remove_child("a")
        assert removed.to_dict() == {"b": 1}
        assert t.is_empty

    def test_replace_at(self):
        t = Tree.from_dict({"a": {"b": 1}})
        t.replace_at("a/b", Tree.leaf(9))
        assert t.resolve("a/b").value == 9

    def test_replace_at_missing_fails(self):
        t = Tree.from_dict({"a": {}})
        with pytest.raises(TreeError):
            t.replace_at("a/zzz", Tree.leaf(1))

    def test_interior_node_cannot_hold_value(self):
        t = Tree.from_dict({"a": {}})
        with pytest.raises(TreeError):
            t.set_value(5)


class TestCopyEquality:
    def test_deep_copy_isolation(self):
        original = Tree.from_dict({"a": {"b": 1}})
        clone = original.deep_copy()
        clone.resolve("a").add_child("c", Tree.leaf(2))
        assert not original.contains_path("a/c")
        assert original != clone

    def test_structural_equality_is_unordered(self):
        t1 = Tree.from_dict({"a": 1, "b": 2})
        t2 = Tree.empty()
        t2.add_child("b", Tree.leaf(2))
        t2.add_child("a", Tree.leaf(1))
        assert t1 == t2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Tree.empty())

    @given(small_trees())
    def test_deep_copy_equal(self, t):
        assert t.deep_copy() == t

    @given(small_trees())
    def test_dict_roundtrip(self, t):
        assert Tree.from_dict(t.to_dict()) == t

    @given(small_trees())
    def test_node_count_matches_enumeration(self, t):
        assert t.node_count() == sum(1 for _ in t.nodes())

