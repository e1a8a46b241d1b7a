"""Property and regression tests for the interval-encoded hierarchy.

The central differential property: every axis answered off the ``(pre,
post, level)`` encoding — by :func:`repro.xmldb.axes.axis_ids` and the
XPath evaluator built on it — must agree *exactly* (same ids, same
document order) with a naive oracle that walks the store's pointer
structure.  Edits maintain only the pointer structure; the encoding is
derived from it on the first read after a write, so a read that sees a
stale encoding is exactly the class of bug this harness hunts.

Deterministic regressions pin the mechanics around the property: edits
never build the encoding, the first axis read after each kind of write
builds it exactly once, and arbitrarily deep chains stay iterative.
"""

from __future__ import annotations

import os
from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.paths import Path
from repro.core.tree import Tree
from repro.xmldb.axes import AXES, axis_ids, descendants_by_label
from repro.xmldb.store import XMLDatabase, XMLDBError
from repro.xmldb.xpath import XPath, base_label

# ----------------------------------------------------------------------
# Profiles: CI runs a fixed derandomized budget (bounded wall time);
# local runs keep the default randomized search.
# ----------------------------------------------------------------------

_PROFILES = {
    "default": {"max_examples": 80, "deadline": None},
    "ci": {"max_examples": 200, "deadline": None, "derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)

#: A deliberately collision-heavy label pool: repeated base labels and
#: keyed instances (``a{1}`` shares its base with ``a``), so label
#: filters, sibling ordering, and the ``(base_label, pre)`` index all
#: get exercised on the same names.
_LABELS = ["a", "b", "c", "d", "a{1}", "a{2}", "b{k}"]
_QUERY_LABELS = ["a", "b", "c", "d", "a{1}", "b{k}", "z"]


def _tree_of(children: dict) -> Tree:
    tree = Tree()
    for label, child in children.items():
        tree.children[label] = child
    return tree


def trees(max_leaves: int = 25) -> st.SearchStrategy[Tree]:
    leaf = st.one_of(st.none(), st.integers(-5, 5), st.sampled_from(["v", "w"]))
    return st.recursive(
        leaf.map(lambda value: Tree(value=value)),
        lambda children: st.dictionaries(
            st.sampled_from(_LABELS), children, max_size=4
        ).map(_tree_of),
        max_leaves=max_leaves,
    )


def xpaths() -> st.SearchStrategy[str]:
    step = st.sampled_from(["a", "b", "c", "d", "*", "a{1}", "b{k}"])
    seps = st.sampled_from(["/", "//"])
    return st.builds(
        lambda lead, first, pairs: lead + first + "".join(s + l for s, l in pairs),
        st.sampled_from(["", "//"]),
        step,
        st.lists(st.tuples(seps, step), max_size=2),
    )


# ----------------------------------------------------------------------
# The naive full-walk oracle (pointer structure only — no indexes)
# ----------------------------------------------------------------------


def _children(db: XMLDatabase, nid: int) -> List[int]:
    node = db._nodes[nid]
    return [child_id for _label, child_id in sorted(node.children.items())]


def _preorder(db: XMLDatabase, nid: int) -> List[int]:
    out: List[int] = []
    stack = list(reversed(_children(db, nid)))
    while stack:
        cur = stack.pop()
        out.append(cur)
        stack.extend(reversed(_children(db, cur)))
    return out


def _ancestor_chain(db: XMLDatabase, nid: int) -> List[int]:
    """Ancestors nearest-first, ending at the document root."""
    out: List[int] = []
    parent = db._nodes[nid].parent
    while parent is not None:
        out.append(parent)
        parent = db._nodes[parent].parent
    return out


def _oracle_axis(
    db: XMLDatabase, nid: int, axis: str, label: Optional[str]
) -> List[int]:
    node = db._nodes[nid]
    if axis == "child":
        out = _children(db, nid)
    elif axis == "descendant":
        out = _preorder(db, nid)
    elif axis == "descendant-or-self":
        out = [nid] + _preorder(db, nid)
    elif axis == "parent":
        out = [] if node.parent is None else [node.parent]
    elif axis == "ancestor":
        out = list(reversed(_ancestor_chain(db, nid)))
    elif axis == "ancestor-or-self":
        out = list(reversed([nid] + _ancestor_chain(db, nid)))
    elif axis == "following-sibling":
        if node.parent is None:
            out = []
        else:
            siblings = _children(db, node.parent)
            out = siblings[siblings.index(nid) + 1:]
    elif axis == "preceding-sibling":
        if node.parent is None:
            out = []
        else:
            siblings = _children(db, node.parent)
            out = siblings[: siblings.index(nid)]
    elif axis == "following":
        doc = _preorder(db, db.ROOT_ID)
        inside = {nid} | set(_preorder(db, nid))
        position = doc.index(nid) if nid != db.ROOT_ID else -1
        out = [n for n in doc[position + 1:] if n not in inside]
    elif axis == "preceding":
        doc = _preorder(db, db.ROOT_ID)
        above = set(_ancestor_chain(db, nid))
        position = doc.index(nid) if nid != db.ROOT_ID else 0
        out = [n for n in doc[:position] if n not in above]
    else:  # pragma: no cover - exhaustive over AXES
        raise AssertionError(axis)
    if label is not None:
        out = [
            n
            for n in out
            if db._nodes[n].label == label or base_label(db._nodes[n].label) == label
        ]
    return out


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------


class TestAxisDifferential:
    @given(tree=trees(), data=st.data())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_axis_ids_match_pointer_oracle(self, tree: Tree, data) -> None:
        """Interval evaluation of every axis equals the naive pointer
        walk — same node ids *and* the same document order (list
        equality subsumes the multiset check)."""
        db = XMLDatabase()
        db.load_tree(tree)
        nid = data.draw(st.sampled_from(sorted(db._nodes)))
        axis = data.draw(st.sampled_from(AXES))
        label = data.draw(st.one_of(st.none(), st.sampled_from(_QUERY_LABELS)))
        assert axis_ids(db, nid, axis, label) == _oracle_axis(db, nid, axis, label)

    @given(tree=trees(), expression=xpaths())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_evaluate_store_matches_tree_walk(self, tree: Tree, expression: str) -> None:
        """The store evaluator (interval scans) and the value-tree
        evaluator (full walk) agree on every expression — including the
        result order, which both sides emit in ``Path.sort_key`` (=
        document) order without a final sort on the store side."""
        db = XMLDatabase()
        db.load_tree(tree)
        xp = XPath(expression)
        before = dict(db.access_counts)
        got = xp.evaluate_store(db)
        after = dict(db.access_counts)
        assert got == xp.evaluate(db.subtree(Path()))
        # the answer came off the encoding indexes, never a tree walk
        assert after["multi_range_scan"] > before["multi_range_scan"]

    def test_evaluate_store_applies_leaf_predicates(self) -> None:
        """Leaf-equality predicates filter the store's candidates the
        way the tree walk filters its own."""
        db = XMLDatabase()
        db.load_tree(Tree.from_dict({
            "proteins": {
                "P1": {"loc": "serum", "name": "albumin"},
                "P2": {"loc": "cell", "name": "actin"},
                "P3": {"loc": "serum", "sub": {"loc": "cell"}},
            },
        }))
        for expression, expected in [
            ("proteins/*[loc='serum']/name", ["proteins/P1/name"]),
            ("//*[loc='cell']", ["proteins/P2", "proteins/P3/sub"]),
            ("proteins/P2[loc='serum']", []),
        ]:
            xp = XPath(expression)
            got = xp.evaluate_store(db)
            assert [str(path) for path in got] == expected
            assert got == xp.evaluate(db.subtree(Path()))

    @given(tree=trees(max_leaves=12), data=st.data())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_mutation_churn_keeps_encoding_valid(self, tree: Tree, data) -> None:
        """Random add/delete/paste churn with an axis read between
        writes: every read matches the oracle (no stale encoding), the
        encoding invariants hold after every step, and document order
        stays sorted-path order."""
        db = XMLDatabase()
        db.load_tree(tree)
        for _ in range(data.draw(st.integers(1, 6))):
            nid = data.draw(st.sampled_from(sorted(db._nodes)))
            axis = data.draw(st.sampled_from(AXES))
            assert axis_ids(db, nid, axis) == _oracle_axis(db, nid, axis, None)
            op = data.draw(st.sampled_from(["add", "delete", "paste"]))
            listing = [
                (path, value) for path, value in db.iter_paths() if not path.is_root
            ]
            paths = [path for path, _value in listing]
            # adds and pastes hang off *container* nodes (value None)
            containers = [Path()] + [path for path, value in listing if value is None]
            if op == "add":
                parent = data.draw(st.sampled_from(containers))
                taken = db.children_of(db.resolve(parent))
                free = [label for label in _LABELS + ["x", "y"] if label not in taken]
                if free:
                    db.add_node(parent, data.draw(st.sampled_from(free)), 1)
            elif op == "delete" and paths:
                db.delete_node(data.draw(st.sampled_from(paths)))
            elif op == "paste":
                parent = data.draw(st.sampled_from(containers))
                label = data.draw(st.sampled_from(_LABELS))
                db.paste_node(parent.child(label), data.draw(trees(max_leaves=4)))
            db.check_encoding()
        listed = [path for path, _value in db.iter_paths()]
        assert listed == sorted(listed, key=Path.sort_key)
        assert listed[0].is_root  # document order starts at the root
        nid = data.draw(st.sampled_from(sorted(db._nodes)))
        axis = data.draw(st.sampled_from(AXES))
        assert axis_ids(db, nid, axis) == _oracle_axis(db, nid, axis, None)


# ----------------------------------------------------------------------
# Deterministic regressions
# ----------------------------------------------------------------------


def _chain_db(depth: int) -> "tuple[XMLDatabase, Path]":
    db = XMLDatabase()
    path = Path()
    for level in range(depth):
        db.add_node(path, "a", 7 if level == depth - 1 else None)
        path = path.child("a")
    return db, path


class TestDeepChains:
    """Regressions for the satellite guarantee: no store traversal may
    recurse, so chains far past ``sys.getrecursionlimit()`` work."""

    DEPTH = 1500

    def test_deep_chain_stays_iterative(self):
        db, deepest = _chain_db(self.DEPTH)
        assert db.node_count() == self.DEPTH + 1
        paths = [path for path, _value in db.iter_paths() if not path.is_root]
        assert len(paths) == self.DEPTH
        assert paths[-1] == deepest
        # subtree export and path reconstruction are iterative too
        nid = db.resolve(deepest)
        assert db.path_of(nid) == deepest
        assert db.level_of(nid) == self.DEPTH
        assert db.value_of(nid) == 7
        db.subtree(Path())  # must not raise RecursionError
        assert len(db.ancestor_ids(nid)) == self.DEPTH
        db.check_encoding()

    def test_deep_chain_delete_and_renumber(self):
        db, _deepest = _chain_db(self.DEPTH)
        db.delete_node(Path.parse("a"))
        assert db.node_count() == 1
        assert [p for p, _v in db.iter_paths() if not p.is_root] == []
        db.check_encoding()


class TestRenumbering:
    """The encoding is derived state: edits never build it, and the
    first axis read after any write rebuilds it exactly once."""

    WRITES = {
        "add": lambda db: db.add_node("top/a", "w", 4),
        "delete": lambda db: db.delete_node("top/b"),
        "paste-overwrite": lambda db: db.paste_node(
            "spot", Tree.from_dict({"new": {"leaf": 2}})
        ),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_reads_after_each_write_kind_match_oracle(self, write):
        db = XMLDatabase()
        db.load_tree(Tree.from_dict({
            "top": {"a": {"x": 1, "y": 2}, "b": {"z": {"deep": 3}}},
            "spot": {"old": 1},
            "other": 9,
        }))

        def read_every_axis():
            for nid in sorted(db._nodes):
                for axis in AXES:
                    assert axis_ids(db, nid, axis) == _oracle_axis(db, nid, axis, None)

        read_every_axis()  # the encoding is built and current
        builds = db.access_counts["renumber"]
        self.WRITES[write](db)
        assert db.access_counts["renumber"] == builds  # edits never build
        read_every_axis()
        assert db.access_counts["renumber"] == builds + 1
        read_every_axis()
        assert db.access_counts["renumber"] == builds + 1

    def test_check_encoding_detects_corruption(self):
        db = XMLDatabase()
        db.load_tree(Tree.from_dict({"a": {"b": 1}}))
        db.check_encoding()
        node = db._nodes[db.resolve("a/b")]
        node.pre, node.post = node.post, node.pre  # break nesting
        with pytest.raises(XMLDBError):
            db.check_encoding()


class TestDeleteNotifications:
    """A delete leaves no stale entry behind in the derived label index."""

    def test_no_stale_index_entries_after_delete(self):
        db = XMLDatabase()
        db.load_tree(Tree.from_dict({
            "top": {"a": {"x": 1}, "b": {"x": 2}},
            "keep": {"x": 3},
        }))
        assert len(descendants_by_label(db, [db.ROOT_ID], "x")) == 3
        db.delete_node("top")
        assert descendants_by_label(db, [db.ROOT_ID], "x") == [db.resolve("keep/x")]
        assert XPath("//x").evaluate_store(db) == [Path.parse("keep/x")]
        db.check_encoding()
