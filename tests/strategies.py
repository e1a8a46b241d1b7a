"""Hypothesis strategies shared across the property-based tests.

The central one is :func:`scripts`, which draws *valid* random update
scripts: every generated operation is applicable to the evolving target
(inserts of fresh labels, deletes of live nodes, copies from live source
locations to live-parent destinations).  This is what lets properties
like "hierarchical expansion equals the naive table" be tested over the
whole update language rather than hand-picked cases.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import strategies as st

from repro.core.paths import Path
from repro.core.tree import Tree
from repro.core.updates import Copy, Delete, Insert, Update, Workspace

LABELS = ["a", "b", "c", "d", "e"]
SOURCE_NAME = "S1"
TARGET_NAME = "T"

# ----------------------------------------------------------------------
# Ordered-index operation sequences
# ----------------------------------------------------------------------

#: Small key space so insert/delete/lookup sequences collide often —
#: collisions are where blocked-index bookkeeping can go wrong.
INDEX_KEY_TEXTS = [
    "T", "T/a", "T/a/x", "T/a/y", "T/ab", "T/b", "T/b/x", "S", "S/a", "S/b",
]

index_keys = st.sampled_from(INDEX_KEY_TEXTS).map(lambda text: (text,))
index_rowids = st.integers(min_value=0, max_value=30)


def index_ops(max_size: int = 60) -> st.SearchStrategy[List[tuple]]:
    """Sequences of ordered-index operations for model-based testing.

    Each element is one of::

        ("insert", key, rowid)   ("delete", key, rowid)
        ("lookup", key)          ("prefix", text)
        ("range", low_or_None, high_or_None, include_low, include_high)
        ("rrange", low_or_None, high_or_None, include_low, include_high)

    ``rrange`` is the descending-order scan behind ``ORDER BY k DESC``
    sort elision.  The model test executes them against the blocked
    ``OrderedIndex`` and a plain sorted-list reference and compares
    every observation.
    """
    insert = st.tuples(st.just("insert"), index_keys, index_rowids)
    delete = st.tuples(st.just("delete"), index_keys, index_rowids)
    lookup = st.tuples(st.just("lookup"), index_keys)
    prefix = st.tuples(st.just("prefix"), st.sampled_from(
        ["T", "T/", "T/a", "T/a/", "S", "Q", ""]
    ))
    bound = st.one_of(st.none(), index_keys)
    rng = st.tuples(st.just("range"), bound, bound, st.booleans(), st.booleans())
    rrng = st.tuples(st.just("rrange"), bound, bound, st.booleans(), st.booleans())
    return st.lists(
        st.one_of(insert, insert, insert, delete, lookup, prefix, rng, rrng),
        max_size=max_size,
    )


#: Entry lists for bulk-build equivalence: the small key space produces
#: heavy duplication, and duplicated (key, rowid) pairs are allowed —
#: bulk_build must agree with incremental insert on those too.
index_entries = st.lists(st.tuples(index_keys, index_rowids), max_size=80)


def small_trees(max_depth: int = 3) -> st.SearchStrategy[Tree]:
    """Random small trees with values at the leaves."""
    leaves = st.one_of(
        st.integers(min_value=-100, max_value=100),
        st.text(alphabet="xyz", min_size=1, max_size=3),
        st.booleans(),
    ).map(Tree.leaf)

    def extend(children: st.SearchStrategy[Tree]) -> st.SearchStrategy[Tree]:
        return st.dictionaries(
            st.sampled_from(LABELS), children, min_size=0, max_size=3
        ).map(_tree_of)

    return st.recursive(leaves, extend, max_leaves=12)


def _tree_of(children: dict) -> Tree:
    node = Tree.empty()
    for label, child in children.items():
        node.add_child(label, child)
    return node


# ----------------------------------------------------------------------
# MVCC schedule interleavings
# ----------------------------------------------------------------------

#: Tiny key space so concurrent transactions collide constantly —
#: collisions are where snapshot visibility and first-committer-wins
#: bookkeeping can go wrong.
MVCC_KEYS = (1, 2, 3, 4)
MVCC_VALUES = st.integers(min_value=0, max_value=9)


@st.composite
def mvcc_schedules(
    draw,
    max_clients: int = 4,
    max_steps: int = 30,
) -> Tuple[dict, List[tuple]]:
    """Draw ``(initial kv state, interleaved schedule)`` for the
    concurrent-history checker (see
    :func:`repro.workloads.concurrent.run_schedule` for the step
    language).

    Steps from different clients interleave freely; commits, rollbacks,
    deletes, and blind upserts are all drawn, so the schedule space
    covers dirty-read, non-repeatable-read, lost-update, and
    first-committer-wins scenarios without hand-writing them.
    """
    n_clients = draw(st.integers(min_value=2, max_value=max_clients))
    clients = st.integers(min_value=0, max_value=n_clients - 1)
    keys = st.sampled_from(MVCC_KEYS)
    initial = draw(
        st.dictionaries(keys, MVCC_VALUES, min_size=0, max_size=len(MVCC_KEYS))
    )
    step = st.one_of(
        st.tuples(st.just("begin"), clients),
        st.tuples(st.just("read"), clients, keys),
        st.tuples(st.just("read"), clients, keys),
        st.tuples(st.just("write"), clients, keys, MVCC_VALUES),
        st.tuples(st.just("write"), clients, keys, MVCC_VALUES),
        st.tuples(st.just("delete"), clients, keys),
        st.tuples(st.just("commit"), clients),
        st.tuples(st.just("rollback"), clients),
    )
    schedule = draw(st.lists(step, min_size=1, max_size=max_steps))
    return initial, schedule


@st.composite
def scripts(draw, min_ops: int = 1, max_ops: int = 12) -> Tuple[Workspace, List[Update]]:
    """Draw ``(initial workspace, valid update script)``.

    The workspace contains a source ``S1`` and a target ``T``; the
    returned workspace is the *initial* state (unmodified).
    """
    source = draw(small_trees())
    target = draw(small_trees())
    if target.is_leaf_value:
        target = Tree.empty()
    initial = Workspace(
        {TARGET_NAME: target.deep_copy(), SOURCE_NAME: source}, target=TARGET_NAME
    )
    # simulate on a scratch copy to keep each drawn op valid
    scratch = Workspace(
        {TARGET_NAME: target.deep_copy(), SOURCE_NAME: source.deep_copy()},
        target=TARGET_NAME,
    )
    n_ops = draw(st.integers(min_value=min_ops, max_value=max_ops))
    ops: List[Update] = []
    fresh = 0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["ins", "ins", "del", "copy", "copy"]))
        t = scratch.roots[TARGET_NAME]
        interior = [
            path for path, node in t.nodes() if not node.is_leaf_value
        ]
        if kind == "ins":
            parent = draw(st.sampled_from(interior))
            existing = set(t.resolve(parent).children)
            label_pool = [l for l in LABELS if l not in existing]
            if label_pool and draw(st.booleans()):
                label = draw(st.sampled_from(label_pool))
            else:
                fresh += 1
                label = f"n{fresh}"
            value = draw(
                st.one_of(st.none(), st.integers(min_value=0, max_value=99))
            )
            op = Insert(label, value, Path([TARGET_NAME]).join(parent))
            t.resolve(parent).add_child(
                label, Tree.empty() if value is None else Tree.leaf(value)
            )
        elif kind == "del":
            victims = [path for path, _ in t.nodes() if not path.is_root]
            if not victims:
                continue
            victim = draw(st.sampled_from(victims))
            op = Delete(victim.last, Path([TARGET_NAME]).join(victim.parent))
            t.resolve(victim.parent).remove_child(victim.last)
        else:  # copy
            s = scratch.roots[SOURCE_NAME]
            src_pool = [path for path, _ in s.nodes() if not path.is_root]
            tgt_pool = [path for path, _ in t.nodes() if not path.is_root]
            from_target = draw(st.booleans()) and tgt_pool
            if from_target:
                src_rel = draw(st.sampled_from(tgt_pool))
                src_abs = Path([TARGET_NAME]).join(src_rel)
                copied = t.resolve(src_rel).deep_copy()
            elif src_pool:
                src_rel = draw(st.sampled_from(src_pool))
                src_abs = Path([SOURCE_NAME]).join(src_rel)
                copied = s.resolve(src_rel).deep_copy()
            else:
                continue
            dst_parent = draw(st.sampled_from(interior))
            existing = sorted(t.resolve(dst_parent).children)
            if existing and draw(st.booleans()):
                dst_label = draw(st.sampled_from(existing))  # overwrite
            else:
                fresh += 1
                dst_label = f"c{fresh}"
            dst_rel = dst_parent.child(dst_label)
            op = Copy(src_abs, Path([TARGET_NAME]).join(dst_rel))
            parent_node = t.resolve(dst_parent)
            parent_node.children[dst_label] = copied
        ops.append(op)
    return initial, ops
