"""The node store at the heart of the XML database.

Unlike the plain :class:`~repro.core.tree.Tree` (a transient value), the
store keeps every node in a flat table keyed by a stable
:class:`NodeId`, with parent pointers and per-parent keyed child maps —
the shape of a native XML database's node storage.  Updates allocate and
free node ids; byte accounting mirrors a simple on-disk node record
layout (id, parent id, label, optional value).

The pointer structure (parent id, label → child id map, and the depth
``level`` fixed when a node is created) is the only state an edit
maintains.  Path lookup, subtree export, path reconstruction and
deletion are pointer walks over it.

For the XPath axes the store derives a ``(pre, post, level)`` *interval
encoding* — the XPath-accelerator design: ``pre``/``post`` are ranks in
one shared counter space such that

* a node's interval strictly nests inside its parent's
  (``parent.pre < node.pre`` and ``node.post < parent.post``),
* sibling intervals are disjoint and ordered by label
  (``left.post < right.pre`` whenever ``left.label < right.label``), and
* ``level`` is the node's depth (root = 0).

Document order (depth-first, children in sorted label order — the order
every export and :class:`~repro.xmldb.xpath.XPath` evaluation already
uses) is therefore exactly ascending ``pre`` order, and *descendant* is
interval containment: ``d`` is a descendant of ``a`` iff
``a.pre < d.pre < a.post``.  The encoding lives in three storage-layer
:class:`~repro.storage.index.OrderedIndex`es — keyed ``(pre,)``,
``(base_label, pre)`` and ``(level, pre)`` — so every XPath axis
(:mod:`repro.xmldb.axes`) is a blocked index ``multi_range`` sweep
over one or more key ranges instead of a pointer-chasing tree walk.

The encoding is derived state, like an index rebuilt on recovery: any
``add_node`` / ``delete_node`` / ``paste_node`` marks it stale, and the
first read that needs it ranks the whole tree in one depth-first pass
and bulk-builds the three indexes (:meth:`XMLDatabase._encoding`, the
one guard every encoding read goes through).  An editing session that
never reads an axis never builds it.

The store's public update API (``add_node`` / ``delete_node`` /
``paste_node``) is intentionally the Figure 6 target-database contract,
so wrapping it for the editor is trivial.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..core.paths import Path
from ..core.tree import Tree, Value
from ..storage.index import OrderedIndex
from .xpath import base_label

__all__ = ["NodeId", "XMLDatabase", "XMLDBError"]

NodeId = int


class XMLDBError(Exception):
    """Raised for invalid node-store operations."""


class _Node:
    __slots__ = ("node_id", "parent", "label", "value", "children", "pre", "post", "level")

    def __init__(
        self,
        node_id: NodeId,
        parent: Optional[NodeId],
        label: str,
        value: Value = None,
        level: int = 0,
    ) -> None:
        self.node_id = node_id
        self.parent = parent
        self.label = label
        self.value = value
        self.children: Dict[str, NodeId] = {}
        #: ranks, valid only while the store's encoding is built
        self.pre = 0
        self.post = 0
        self.level = level

    def record_bytes(self) -> int:
        """This node's on-disk record size (see :func:`_record_bytes`)."""
        return _record_bytes(self.label, self.value)


def _record_bytes(label: str, value: Value) -> int:
    """The byte formula of one node record: id (8) + parent (8) + label
    length header (2) + label + value.  Text is sized as its UTF-8
    length, read as ``len`` when it is ASCII (one byte per character)
    instead of encoding it; a bool takes 1 byte, an int or float 8."""
    size = 18 + (len(label) if label.isascii() else len(label.encode("utf-8")))
    if value is None:
        return size
    if isinstance(value, str):
        return size + (len(value) if value.isascii() else len(value.encode("utf-8")))
    return size + (1 if isinstance(value, bool) else 8)


class _Encoding(NamedTuple):
    """The three interval-encoding indexes, built together."""

    pre: OrderedIndex  # (pre,) -> id
    label: OrderedIndex  # (base_label, pre) -> id, root excluded
    level: OrderedIndex  # (level, pre) -> id


class XMLDatabase:
    """A keyed node store with stable node identifiers."""

    ROOT_ID: NodeId = 0

    def __init__(self, name: str = "xmldb") -> None:
        self.name = name
        root = _Node(self.ROOT_ID, None, "")
        self._nodes: Dict[NodeId, _Node] = {self.ROOT_ID: root}
        self._next_id: NodeId = 1
        self._byte_size = root.record_bytes()
        #: the interval encoding; ``None`` while stale
        self._encoded: Optional[_Encoding] = None
        #: encoding access accounting (the xmldb analogue of
        #: ``Table.access_counts``) — tests assert axis reads are index
        #: scans, not per-node tree walks; ``renumber`` counts encoding
        #: builds
        self.access_counts: Dict[str, int] = {
            "range_scan": 0,
            "multi_range_scan": 0,
            "renumber": 0,
        }

    # ------------------------------------------------------------------
    # Node addressing
    # ------------------------------------------------------------------
    def resolve(self, path: "Path | str") -> NodeId:
        """The node id at ``path``; raises if absent."""
        node_id = self.lookup(path)
        if node_id is None:
            raise XMLDBError(f"{self.name}: no node at {Path.of(path)}")
        return node_id

    def lookup(self, path: "Path | str") -> Optional[NodeId]:
        """Resolve a path one keyed child map at a time."""
        node_id = self.ROOT_ID
        for label in Path.of(path):
            node_id = self._nodes[node_id].children.get(label)
            if node_id is None:
                return None
        return node_id

    def path_of(self, node_id: NodeId) -> Path:
        """The (unique) path addressing a node, by walking parent
        pointers."""
        return self.paths_of([node_id])[0]

    def paths_of(self, node_ids: List[NodeId]) -> List[Path]:
        """Paths for a batch of node ids, by walking parent pointers with
        a shared memo: each distinct ancestor is visited once across the
        whole batch."""
        memo: Dict[NodeId, Path] = {self.ROOT_ID: Path()}
        out: List[Path] = []
        for nid in node_ids:
            chain: List[_Node] = []
            node = self._node(nid)
            while node.node_id not in memo:
                chain.append(node)
                node = self._nodes[node.parent]
            path = memo[node.node_id]
            for link in reversed(chain):
                path = path.child(link.label)
                memo[link.node_id] = path
            out.append(path)
        return out

    def _node(self, node_id: NodeId) -> _Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise XMLDBError(f"{self.name}: dangling node id {node_id}") from None

    def _preorder(self, top: _Node) -> Iterator[_Node]:
        """``top`` and its descendants in document order (children in
        sorted label order), by an explicit stack, so arbitrarily deep
        trees cannot exhaust the recursion limit."""
        stack = [top]
        while stack:
            node = stack.pop()
            yield node
            children = node.children
            stack.extend(self._nodes[children[label]] for label in sorted(children, reverse=True))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def value_at(self, path: "Path | str") -> Value:
        return self._node(self.resolve(path)).value

    def children_of(self, node_id: NodeId) -> Dict[str, NodeId]:
        return dict(self._node(node_id).children)

    def contains(self, path: "Path | str") -> bool:
        return self.lookup(path) is not None

    def subtree(self, path: "Path | str") -> Tree:
        """Export the subtree at ``path`` as a value tree."""
        return self._export(self.resolve(path))

    def _export(self, node_id: NodeId) -> Tree:
        """Rebuild the subtree from its document-order walk with an
        explicit level stack."""
        nodes = self._preorder(self._node(node_id))
        root = next(nodes)
        out = Tree(root.value)
        stack: List[Tuple[int, Tree]] = [(root.level, out)]
        for node in nodes:
            while stack[-1][0] >= node.level:
                stack.pop()
            tree = Tree(node.value)
            stack[-1][1].children[node.label] = tree
            stack.append((node.level, tree))
        return out

    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def byte_size(self) -> int:
        """Approximate on-disk size of the node table."""
        return self._byte_size

    def iter_paths(self) -> Iterator[Tuple[Path, Value]]:
        """All (path, value) pairs in document order."""
        return self.iter_paths_under(Path())

    def iter_paths_under(self, path: "Path | str") -> Iterator[Tuple[Path, Value]]:
        """(path, value) pairs for the node at ``path`` and everything
        below it, in document order, with an iterative prefix stack."""
        base = Path.of(path)
        nodes = self._preorder(self._node(self.resolve(base)))
        root = next(nodes)
        yield base, root.value
        prefixes: List[Path] = [base]
        for node in nodes:
            depth = node.level - root.level
            del prefixes[depth:]
            sub = prefixes[depth - 1].child(node.label)
            prefixes.append(sub)
            yield sub, node.value

    # ------------------------------------------------------------------
    # Axis primitives (document-order node ids).  These are the building
    # blocks :mod:`repro.xmldb.axes` compiles XPath steps onto; the
    # interval ones are index range scans, never tree walks.
    # ------------------------------------------------------------------
    def interval(self, node_id: NodeId) -> Tuple[int, int]:
        self._encoding()
        node = self._node(node_id)
        return node.pre, node.post

    def level_of(self, node_id: NodeId) -> int:
        return self._node(node_id).level

    def label_of(self, node_id: NodeId) -> str:
        return self._node(node_id).label

    def value_of(self, node_id: NodeId) -> Value:
        return self._node(node_id).value

    def parent_id(self, node_id: NodeId) -> Optional[NodeId]:
        return self._node(node_id).parent

    def descendant_ids(self, node_id: NodeId, or_self: bool = False) -> List[NodeId]:
        pre_index = self._encoding().pre
        node = self._node(node_id)
        self.access_counts["range_scan"] += 1
        out = [node_id] if or_self else []
        out.extend(
            pre_index.multi_range([((node.pre,), (node.post,), False, False)])
        )
        return out

    def child_ids(self, node_id: NodeId) -> List[NodeId]:
        level_index = self._encoding().level
        node = self._node(node_id)
        self.access_counts["range_scan"] += 1
        return list(
            level_index.multi_range(
                [((node.level + 1, node.pre), (node.level + 1, node.post), False, False)]
            )
        )

    def ancestor_ids(self, node_id: NodeId, or_self: bool = False) -> List[NodeId]:
        """Ancestors nearest-first (root last), via parent pointers."""
        node = self._node(node_id)
        out = [node_id] if or_self else []
        while node.parent is not None:
            out.append(node.parent)
            node = self._nodes[node.parent]
        return out

    def following_sibling_ids(self, node_id: NodeId) -> List[NodeId]:
        level_index = self._encoding().level
        node = self._node(node_id)
        if node.parent is None:
            return []
        parent = self._nodes[node.parent]
        self.access_counts["range_scan"] += 1
        return list(
            level_index.multi_range(
                [((node.level, node.post), (node.level, parent.post), False, False)]
            )
        )

    def preceding_sibling_ids(self, node_id: NodeId) -> List[NodeId]:
        level_index = self._encoding().level
        node = self._node(node_id)
        if node.parent is None:
            return []
        parent = self._nodes[node.parent]
        self.access_counts["range_scan"] += 1
        return list(
            level_index.multi_range(
                [((node.level, parent.pre), (node.level, node.pre), False, False)]
            )
        )

    def following_ids(self, node_id: NodeId) -> List[NodeId]:
        """Document-order successors outside the subtree: ``pre > post``."""
        pre_index = self._encoding().pre
        node = self._node(node_id)
        self.access_counts["range_scan"] += 1
        return list(pre_index.multi_range([((node.post,), None, False, True)]))

    def preceding_ids(self, node_id: NodeId) -> List[NodeId]:
        """Document-order predecessors that are not ancestors:
        ``pre < self.pre`` with the (few) open intervals filtered out."""
        pre_index = self._encoding().pre
        node = self._node(node_id)
        self.access_counts["range_scan"] += 1
        return [
            nid
            for nid in pre_index.multi_range([(None, (node.pre,), True, False)])
            if self._nodes[nid].post < node.pre
        ]

    # ------------------------------------------------------------------
    # The derived encoding
    # ------------------------------------------------------------------
    def _encoding(self) -> _Encoding:
        """The interval encoding, built first if an edit made it stale:
        one document-order pass ranks every node (entry takes ``pre``,
        exit takes ``post``), then the three indexes are bulk-built."""
        if self._encoded is None:
            rank = 0
            open_nodes: List[_Node] = []
            for node in self._preorder(self._nodes[self.ROOT_ID]):
                while open_nodes and open_nodes[-1].level >= node.level:
                    open_nodes.pop().post = rank
                    rank += 1
                node.pre = rank
                rank += 1
                open_nodes.append(node)
            for node in reversed(open_nodes):
                node.post = rank
                rank += 1
            nodes = self._nodes.values()
            self._encoded = _Encoding(
                OrderedIndex.bulk_build(
                    f"{self.name}_pre", [((n.pre,), n.node_id) for n in nodes]
                ),
                OrderedIndex.bulk_build(
                    f"{self.name}_label",
                    [
                        ((base_label(n.label), n.pre), n.node_id)
                        for n in nodes
                        if n.parent is not None
                    ],
                ),
                OrderedIndex.bulk_build(
                    f"{self.name}_level", [((n.level, n.pre), n.node_id) for n in nodes]
                ),
            )
            self.access_counts["renumber"] += 1
        return self._encoded

    # ------------------------------------------------------------------
    # Updates (the Figure 6 target contract)
    # ------------------------------------------------------------------
    def add_node(self, path: "Path | str", name: str, value: Value = None) -> NodeId:
        parent = self._node(self.resolve(path))
        if parent.value is not None:
            raise XMLDBError(f"{self.name}: cannot add a child under leaf {path}")
        if name in parent.children:
            raise XMLDBError(
                f"{self.name}: node {Path.of(path).child(name)} already exists"
            )
        return self._attach(parent, name, value).node_id

    def delete_node(self, path: "Path | str") -> Tree:
        path = Path.of(path)
        if path.is_root:
            raise XMLDBError(f"{self.name}: cannot delete the root")
        node_id = self.resolve(path)
        removed = self._export(node_id)
        self._free_subtree(self._nodes[node_id])
        return removed

    def paste_node(self, path: "Path | str", subtree: Tree) -> Optional[Tree]:
        """Install ``subtree`` at ``path`` (parent must exist), replacing
        existing content; returns the overwritten subtree, if any."""
        path = Path.of(path)
        if path.is_root:
            raise XMLDBError(f"{self.name}: cannot paste over the root")
        parent = self._node(self.resolve(path.parent))
        if parent.value is not None:
            raise XMLDBError(f"{self.name}: paste parent {path.parent} is a leaf")
        overwritten: Optional[Tree] = None
        existing = parent.children.get(path.last)
        if existing is not None:
            overwritten = self._export(existing)
            self._free_subtree(self._nodes[existing])
        self._import(parent, [(path.last, subtree)])
        return overwritten

    def _attach(self, parent: _Node, label: str, value: Value) -> _Node:
        """Create one node under ``parent``; the encoding goes stale."""
        node = _Node(self._next_id, parent.node_id, label, value, parent.level + 1)
        self._next_id += 1
        self._nodes[node.node_id] = node
        parent.children[label] = node.node_id
        self._byte_size += node.record_bytes()
        self._encoded = None
        return node

    def _free_subtree(self, node: _Node) -> None:
        """Unlink a node from its parent and drop it with all its
        descendants; the encoding goes stale."""
        del self._nodes[node.parent].children[node.label]
        for dead in list(self._preorder(node)):
            self._byte_size -= dead.record_bytes()
            del self._nodes[dead.node_id]
        self._encoded = None

    def _import(self, parent: _Node, grafts: List[Tuple[str, Tree]]) -> None:
        """Graft value trees under ``parent``, one per ``(label, tree)``
        pair (in sorted label order), in one document-order pass.

        Each node gets the next id in document order, is linked into its
        parent's child map and has its record bytes counted as it is
        created.  The stack holds one iterator over the sorted children
        of each open interior node; a leaf is never pushed.  The id
        counter, the byte total and the stale encoding are written once,
        after the pass."""
        nodes = self._nodes
        next_id = self._next_id
        size = 0
        stack: List[Tuple[_Node, Iterator[Tuple[str, Tree]]]] = [(parent, iter(grafts))]
        while stack:
            under, pending = stack[-1]
            under_id = under.node_id
            level = under.level + 1
            siblings = under.children
            for name, tree in pending:
                value = tree.value
                node = _Node(next_id, under_id, name, value, level)
                nodes[next_id] = node
                siblings[name] = next_id
                next_id += 1
                size += _record_bytes(name, value)
                children = tree.children
                if children:
                    # descend: the rest of ``pending`` resumes after this subtree
                    stack.append((node, iter(sorted(children.items()))))
                    break
            else:
                stack.pop()
        self._next_id = next_id
        self._byte_size += size
        self._encoded = None

    # ------------------------------------------------------------------
    def load_tree(self, tree: Tree) -> None:
        """Bulk-load a value tree under the root (initial population):
        every child of ``tree``'s root is checked against the store's
        root first, so a clash loads nothing, then all of them are
        grafted in one pass (:meth:`_import`)."""
        root = self._nodes[self.ROOT_ID]
        grafts = sorted(tree.children.items())
        for label, _subtree in grafts:
            if label in root.children:
                raise XMLDBError(f"{self.name}: root already has child {label!r}")
        self._import(root, grafts)

    # ------------------------------------------------------------------
    # Invariant checking (tests / debugging)
    # ------------------------------------------------------------------
    def check_encoding(self) -> None:
        """Validate the interval invariants and index consistency against
        the pointer structure; raises :class:`XMLDBError` on the first
        violation."""

        def fail(message: str) -> None:
            raise XMLDBError(f"{self.name}: encoding invariant violated: {message}")

        encoding = self._encoding()
        count = len(self._nodes)
        if len(encoding.pre) != count:
            fail(f"(pre,) index has {len(encoding.pre)} entries for {count} nodes")
        if len(encoding.level) != count:
            fail(f"(level, pre) index has {len(encoding.level)} entries for {count} nodes")
        if len(encoding.label) != count - 1:
            fail(
                f"(label, pre) index has {len(encoding.label)} entries "
                f"for {count - 1} labelled nodes"
            )
        for node in self._nodes.values():
            if node.pre >= node.post:
                fail(f"node {node.node_id} has pre {node.pre} >= post {node.post}")
            if node.parent is not None:
                parent = self._nodes.get(node.parent)
                if parent is None:
                    fail(f"node {node.node_id} has dangling parent {node.parent}")
                if not (parent.pre < node.pre and node.post < parent.post):
                    fail(
                        f"node {node.node_id} interval ({node.pre}, {node.post}) not "
                        f"nested in parent ({parent.pre}, {parent.post})"
                    )
                if node.level != parent.level + 1:
                    fail(f"node {node.node_id} level {node.level} under level {parent.level}")
                if encoding.label.lookup((base_label(node.label), node.pre)) != {node.node_id}:
                    fail(f"(label, pre) entry missing/stale for node {node.node_id}")
            ordered = sorted(node.children)
            for left, right in zip(ordered, ordered[1:]):
                a = self._nodes[node.children[left]]
                b = self._nodes[node.children[right]]
                if a.post >= b.pre:
                    fail(
                        f"siblings {left!r}/{right!r} under {node.node_id} overlap: "
                        f"({a.pre}, {a.post}) vs ({b.pre}, {b.post})"
                    )
            if encoding.pre.lookup((node.pre,)) != {node.node_id}:
                fail(f"(pre,) entry missing/stale for node {node.node_id}")
            if encoding.level.lookup((node.level, node.pre)) != {node.node_id}:
                fail(f"(level, pre) entry missing/stale for node {node.node_id}")
