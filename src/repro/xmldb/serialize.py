"""Render keyed trees as XML text.

``tree_to_xml`` renders a keyed tree back to XML (keyed edges
``label{key}`` become elements with a ``key`` attribute; ``@attr`` leaves
become attributes), used for export and size reporting.  The reverse
direction is :func:`repro.xmldb.keys.keyed_view`.
"""

from __future__ import annotations

import re
from typing import List
from xml.sax.saxutils import escape, quoteattr

from ..core.tree import Tree

__all__ = ["tree_to_xml"]

_KEYED_RE = re.compile(r"^(?P<label>.+)\{(?P<key>[^{}]*)\}$")


def tree_to_xml(tree: Tree, root_tag: str = "db", indent: int = 0) -> str:
    """Render a keyed tree as XML text.

    Iterative (explicit work stack, closing tags pushed as sentinel
    frames) so arbitrarily deep trees — deep copy chains are routine in
    curated databases — cannot exhaust the Python recursion limit, the
    same treatment ``XMLDatabase.iter_paths``/``_export`` got."""
    lines: List[str] = []
    # frame: (tree, tag, depth) to open, or (None, closing_line, _) sentinel
    stack: List[tuple] = [(tree, root_tag, indent)]
    while stack:
        node, tag, depth = stack.pop()
        if node is None:
            lines.append(tag)
            continue
        _render_node(node, tag, depth, lines, stack)
    return "\n".join(lines)


def _render_node(
    tree: Tree, tag: str, depth: int, lines: List[str], stack: List[tuple]
) -> None:
    pad = "  " * depth
    match = _KEYED_RE.match(tag)
    attrs = ""
    if match:
        tag = match.group("label")
        attrs = f" key={quoteattr(match.group('key'))}"
    if not tag.isidentifier():
        tag = "node"

    attr_children = {
        label: child
        for label, child in tree.children.items()
        if label.startswith("@") and child.is_leaf_value
    }
    for label, child in sorted(attr_children.items()):
        attrs += f" {label[1:]}={quoteattr(str(child.value))}"

    plain_children = [
        (label, child)
        for label, child in sorted(tree.children.items())
        if label not in attr_children and label != "#text"
    ]
    text = None
    if tree.is_leaf_value:
        text = str(tree.value)
    elif tree.has_child("#text"):
        text = str(tree.child("#text").value)

    if not plain_children and text is None:
        lines.append(f"{pad}<{tag}{attrs}/>")
        return
    if not plain_children:
        lines.append(f"{pad}<{tag}{attrs}>{escape(text)}</{tag}>")
        return
    lines.append(f"{pad}<{tag}{attrs}>")
    if text is not None:
        lines.append(f"{pad}  {escape(text)}")
    stack.append((None, f"{pad}</{tag}>", depth))
    for label, child in reversed(plain_children):
        stack.append((child, label, depth + 1))
