"""The paper's tree data model (Section 2).

Trees are unordered, edge-labeled, and store data values only at leaves.
The paper writes them as ``{a1: v1, ..., an: vn}`` where each ``vi`` is
either a subtree or a data value.  A leaf may hold a value from some domain
``D`` (here: ``str | int | float | bool | None``); the *empty tree* ``{}``
is also a valid leaf-like node with no value.

This module implements:

* :class:`Tree` — a mutable node with dict children or a leaf value;
* the three primitive mutations used by the update semantics,
  ``t ] {a: v}`` (disjoint add), ``t - a`` (remove edge), and
  ``t[p := t']`` (replace subtree), with the same failure conditions the
  paper specifies;
* structural helpers used throughout the system: path resolution, node
  enumeration, structural equality, deep copy, node counts.

Mutating operations are confined to explicit methods; querying never
mutates.  Copies are deep, so a pasted subtree never aliases its source.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

from .paths import Label, Path, PathError

__all__ = ["Tree", "TreeError", "Value"]

Value = Union[str, int, float, bool, None]

_VALUE_TYPES = (str, int, float, bool)


class TreeError(Exception):
    """Raised when a tree operation fails per the paper's semantics.

    The paper's semantics are partial functions: ``t ] u`` fails on shared
    top-level edge names, ``t - a`` fails if no edge ``a`` exists, and
    ``t[p := u]`` fails if ``p`` is not present in ``t``.
    """


def _check_value(value: Value) -> Value:
    if value is None:
        return None
    if isinstance(value, bool) or isinstance(value, _VALUE_TYPES):
        return value
    raise TreeError(
        f"leaf values must be str/int/float/bool/None, got {type(value).__name__}"
    )


class Tree:
    """An unordered edge-labeled tree node.

    A node is *either* an interior node with children (possibly zero — the
    empty tree ``{}``) *or* a leaf carrying a data value.  A node with a
    value may not have children.

    >>> t = Tree.from_dict({"c1": {"x": 1, "y": 2}})
    >>> t.resolve("c1/x").value
    1
    >>> sorted(str(p) for p, _ in t.nodes())
    ['', 'c1', 'c1/x', 'c1/y']
    """

    __slots__ = ("_children", "_value")

    def __init__(self, value: Value = None) -> None:
        self._children: Dict[Label, "Tree"] = {}
        self._value: Value = _check_value(value)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def leaf(cls, value: Value) -> "Tree":
        return cls(value)

    @classmethod
    def empty(cls) -> "Tree":
        return cls()

    @classmethod
    def from_dict(cls, data: "Value | dict") -> "Tree":
        """Build a tree from nested dicts; non-dict values become leaves.

        This mirrors the paper's ``{a1: v1, ..., an: vn}`` notation.
        """
        if isinstance(data, dict):
            node = cls()
            for label, sub in data.items():
                node.add_child(label, cls.from_dict(sub))
            return node
        return cls.leaf(data)

    def to_dict(self) -> "Value | dict":
        """Inverse of :meth:`from_dict` (leaves map to their values)."""
        if self.is_leaf_value:
            return self._value
        return {label: child.to_dict() for label, child in sorted(self._children.items())}

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def value(self) -> Value:
        return self._value

    @property
    def is_leaf_value(self) -> bool:
        """True when this node carries a data value (hence no children)."""
        return self._value is not None

    @property
    def is_empty(self) -> bool:
        """True for the empty tree ``{}`` — no children and no value."""
        return self._value is None and not self._children

    @property
    def children(self) -> Dict[Label, "Tree"]:
        """A read-only view of the children mapping (do not mutate)."""
        return self._children

    def child(self, label: Label) -> "Tree":
        try:
            return self._children[label]
        except KeyError:
            raise TreeError(f"no edge labeled {label!r}") from None

    def has_child(self, label: Label) -> bool:
        return label in self._children

    def resolve(self, path: "Path | str") -> "Tree":
        """Return the subtree rooted at ``path`` (``t.p`` in the paper).

        Raises :class:`TreeError` if the path is not present.
        """
        node = self
        for label in Path.of(path):
            if label not in node._children:
                raise TreeError(f"path not present: missing edge {label!r}")
            node = node._children[label]
        return node

    def contains_path(self, path: "Path | str") -> bool:
        node = self
        for label in Path.of(path):
            if label not in node._children:
                return False
            node = node._children[label]
        return True

    def nodes(self, prefix: Optional[Path] = None) -> Iterator[Tuple[Path, "Tree"]]:
        """Yield ``(path, node)`` for every node in the tree, root included.

        Children are visited in sorted label order so the enumeration is
        deterministic, which keeps provenance tables reproducible.
        """
        prefix = prefix if prefix is not None else Path()
        yield prefix, self
        for label in sorted(self._children):
            yield from self._children[label].nodes(prefix.child(label))

    def node_count(self) -> int:
        """Number of nodes including this one (the paper's subtree size)."""
        return 1 + sum(child.node_count() for child in self._children.values())

    def leaf_values(self) -> Iterator[Tuple[Path, Value]]:
        for path, node in self.nodes():
            if node.is_leaf_value:
                yield path, node.value

    # ------------------------------------------------------------------
    # Primitive mutations (the paper's partial operations)
    # ------------------------------------------------------------------
    def add_child(self, label: Label, subtree: "Tree") -> None:
        """``t ] {label: subtree}``: fails on a shared top-level edge name."""
        if self.is_leaf_value:
            raise TreeError(f"cannot add edge {label!r} under a leaf value")
        if label in self._children:
            raise TreeError(f"edge {label!r} already present (t ] u requires disjoint edges)")
        if not isinstance(subtree, Tree):
            raise TreeError(f"child must be a Tree, got {type(subtree).__name__}")
        self._children[label] = subtree

    def remove_child(self, label: Label) -> "Tree":
        """``t - label``: fails if no such edge exists; returns the subtree."""
        if label not in self._children:
            raise TreeError(f"cannot delete: no edge labeled {label!r}")
        return self._children.pop(label)

    def replace_at(self, path: "Path | str", subtree: "Tree") -> None:
        """``t[path := subtree]``: fails if ``path`` is not present.

        Replacing at the root replaces this node's entire contents.
        """
        path = Path.of(path)
        if path.is_root:
            self._children = subtree._children
            self._value = subtree._value
            return
        parent = self.resolve(path.parent)
        if not parent.has_child(path.last):
            raise TreeError(f"path not present: {path}")
        parent._children[path.last] = subtree

    def set_value(self, value: Value) -> None:
        """Set a leaf value; fails if the node has children."""
        if self._children and value is not None:
            raise TreeError("an interior node cannot carry a data value")
        self._value = _check_value(value)

    # ------------------------------------------------------------------
    # Copying and equality
    # ------------------------------------------------------------------
    def deep_copy(self) -> "Tree":
        """A structurally equal tree sharing no nodes with this one."""
        clone = Tree(self._value)
        clone._children = {label: child.deep_copy() for label, child in self._children.items()}
        return clone

    def structurally_equal(self, other: "Tree") -> bool:
        """Unordered structural equality (same edges, same leaf values)."""
        if not isinstance(other, Tree):
            return False
        if self._value != other._value:
            return False
        if self._children.keys() != other._children.keys():
            return False
        return all(
            child.structurally_equal(other._children[label])
            for label, child in self._children.items()
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tree):
            return self.structurally_equal(other)
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - trees are mutable
        raise TypeError("Tree is mutable and unhashable")

    def __repr__(self) -> str:
        if self.is_leaf_value:
            return f"Tree.leaf({self._value!r})"
        inner = ", ".join(f"{k}: ..." for k in sorted(self._children))
        return f"Tree({{{inner}}})"

    def render(self, indent: int = 0) -> str:
        """A human-readable indented rendering, used by examples."""
        lines = []
        if self.is_leaf_value:
            return repr(self._value)
        for label in sorted(self._children):
            child = self._children[label]
            if child.is_leaf_value:
                lines.append("  " * indent + f"{label}: {child.value!r}")
            else:
                lines.append("  " * indent + f"{label}:")
                rendered = child.render(indent + 1)
                if rendered:
                    lines.append(rendered)
        return "\n".join(lines)

