"""XPath axes compiled onto the interval encoding.

Every axis of the accelerator design — child, descendant(-or-self),
ancestor(-or-self), parent, following/preceding(-sibling), following,
preceding — is an interval predicate over the store's ``(pre, post,
level)`` encoding (see :mod:`repro.xmldb.store`):

===================  ================================================
axis of ``v``        interval predicate
===================  ================================================
descendant           ``v.pre < u.pre < v.post``
child                descendant with ``u.level == v.level + 1``
ancestor             ``u.pre < v.pre`` and ``u.post > v.post``
parent               ancestor with ``u.level == v.level - 1``
following-sibling    ``v.post < u.pre < parent.post`` at ``v.level``
preceding-sibling    ``parent.pre < u.pre < v.pre`` at ``v.level``
following            ``u.pre > v.post``
preceding            ``u.post < v.pre``
===================  ================================================

``parent`` and ``ancestor`` follow the store's parent pointers, which
answer them without the encoding.  Every other predicate is evaluated
as an :class:`~repro.storage.index.OrderedIndex` ``range`` /
``multi_range`` scan over the store's ``(pre,)``, ``(base_label, pre)``
and ``(level, pre)`` indexes — never a per-node tree walk
(``XMLDatabase.access_counts`` counts the scans, the EXPLAIN-style
evidence the tests assert on).  The indexes are reached only through
``XMLDatabase._encoding()``, which rebuilds them first if an edit made
them stale.

:func:`evaluate_xpath` runs the whole XPath subset this way.  Batched
descendant steps apply *staircase pruning* first: context nodes nested
inside an earlier context node are dropped, because their descendant
windows are fully covered — the surviving windows are disjoint and
ascending, so the batch is a single ``presorted`` multi-range sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.paths import Path
from .store import NodeId, XMLDatabase
from .xpath import XPath, _Step, _label_matches, base_label

__all__ = ["AXES", "axis_ids", "descendants_by_label", "evaluate_xpath", "evaluate_ids"]

#: Every axis :func:`axis_ids` answers, all via interval predicates.
AXES = (
    "child",
    "descendant",
    "descendant-or-self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
    "following",
    "preceding",
)


def axis_ids(
    db: XMLDatabase,
    node_id: NodeId,
    axis: str,
    label: Optional[str] = None,
) -> List[NodeId]:
    """Node ids on ``axis`` from ``node_id`` in document order,
    optionally restricted to a (base) label — each a range scan over the
    encoding indexes."""
    if axis == "child":
        out = db.child_ids(node_id)
    elif axis == "descendant":
        if label is not None:
            return descendants_by_label(db, [node_id], label)
        out = db.descendant_ids(node_id)
    elif axis == "descendant-or-self":
        out = db.descendant_ids(node_id, or_self=True)
    elif axis == "parent":
        parent = db.parent_id(node_id)
        out = [] if parent is None else [parent]
    elif axis == "ancestor":
        out = list(reversed(db.ancestor_ids(node_id)))
    elif axis == "ancestor-or-self":
        out = list(reversed(db.ancestor_ids(node_id, or_self=True)))
    elif axis == "following-sibling":
        out = db.following_sibling_ids(node_id)
    elif axis == "preceding-sibling":
        out = db.preceding_sibling_ids(node_id)
    elif axis == "following":
        out = db.following_ids(node_id)
    elif axis == "preceding":
        out = db.preceding_ids(node_id)
    else:
        raise ValueError(f"unknown axis {axis!r}")
    if label is not None:
        out = [
            nid
            for nid in out
            if db.label_of(nid) == label or base_label(db.label_of(nid)) == label
        ]
    return out


def _staircase(db: XMLDatabase, frontier: List[NodeId]) -> List[NodeId]:
    """Drop context nodes nested inside an earlier one (pre-ordered
    input): their descendant windows are subsumed, so the survivors'
    windows are pairwise disjoint and ascending — the staircase."""
    kept: List[NodeId] = []
    horizon = -1
    for nid in frontier:
        pre, post = db.interval(nid)
        if pre > horizon:
            kept.append(nid)
            horizon = post
    return kept


def descendants_by_label(
    db: XMLDatabase, roots: List[NodeId], label: str
) -> List[NodeId]:
    """All descendants of any root carrying (base) ``label``, in document
    order: one presorted multi-range sweep of the ``(label, pre)`` index
    over the staircase-pruned root windows."""
    ranges = []
    base = base_label(label)
    for nid in _staircase(db, roots):
        pre, post = db.interval(nid)
        ranges.append(((base, pre), (base, post), False, False))
    db.access_counts["multi_range_scan"] += 1
    out = list(db._encoding().label.multi_range(ranges, presorted=True))
    if base != label:
        out = [nid for nid in out if db.label_of(nid) == label]
    return out


def _descendant_step(
    db: XMLDatabase, frontier: List[NodeId], step: _Step
) -> List[NodeId]:
    roots = _staircase(db, frontier)
    ranges = []
    if step.label is not None:
        base = base_label(step.label)
        for nid in roots:
            pre, post = db.interval(nid)
            ranges.append(((base, pre), (base, post), False, False))
        db.access_counts["multi_range_scan"] += 1
        return [
            nid
            for nid in db._encoding().label.multi_range(ranges, presorted=True)
            if _label_matches(step, db.label_of(nid))
        ]
    for nid in roots:
        pre, post = db.interval(nid)
        ranges.append((((pre,), (post,), False, False)))
    db.access_counts["multi_range_scan"] += 1
    return list(db._encoding().pre.multi_range(ranges, presorted=True))


def _child_step(db: XMLDatabase, frontier: List[NodeId], step: _Step) -> List[NodeId]:
    by_level: Dict[int, List[NodeId]] = {}
    for nid in frontier:
        by_level.setdefault(db.level_of(nid), []).append(nid)
    hits: List[Tuple[int, NodeId]] = []
    for level, nids in sorted(by_level.items()):
        ranges = []
        for nid in nids:
            pre, post = db.interval(nid)
            ranges.append(((level + 1, pre), (level + 1, post), False, False))
        db.access_counts["multi_range_scan"] += 1
        for cid in db._encoding().level.multi_range(ranges, presorted=True):
            node = db._nodes[cid]
            if step.label is None or _label_matches(step, node.label):
                hits.append((node.pre, cid))
    hits.sort()
    return [cid for _pre, cid in hits]


def _passes_predicate(db: XMLDatabase, node_id: NodeId, step: _Step) -> bool:
    child_label, wanted = step.predicate  # type: ignore[misc]
    child = db._node(node_id).children.get(child_label)
    return child is not None and db.value_of(child) == wanted


def evaluate_ids(db: XMLDatabase, xpath: XPath) -> List[NodeId]:
    """Matching node ids in document order, every step an index scan."""
    frontier: List[NodeId] = [db.ROOT_ID]
    for step in xpath.steps:
        if not frontier:
            return []
        if step.descendant:
            frontier = _descendant_step(db, frontier, step)
        else:
            frontier = _child_step(db, frontier, step)
        if step.predicate is not None:
            frontier = [nid for nid in frontier if _passes_predicate(db, nid, step)]
    return frontier


def evaluate_xpath(db: XMLDatabase, xpath: XPath) -> List[Path]:
    """Matching locations, sorted — sibling rank order *is* sorted label
    order, so document (pre) order coincides with ``Path.sort_key``
    order and no final sort is needed."""
    return db.paths_of(evaluate_ids(db, xpath))
