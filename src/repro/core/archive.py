"""Commit-point archiving of reference versions (Section 5).

The paper argues that provenance and archiving are complementary: "both
provenance recording and archiving are necessary in order to preserve
completely the scientific record".  Provenance links refer to *versions*
of the target database (each commit makes the current state the next
reference copy), so being able to reconstruct any reference version makes
the provenance record independently checkable.

The archive stores version 0 in full and subsequent versions as deltas
(added/changed leaf values and deleted paths), in the spirit of Buneman
et al.'s "Archiving scientific data": storage grows with the amount of
change, not with versions × database size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .paths import Path
from .tree import Tree, Value

__all__ = ["VersionDelta", "VersionArchive", "diff_trees"]


@dataclass(frozen=True)
class VersionDelta:
    """Changes from the previous reference version to this one.

    ``upserts`` maps a path to its node payload: ``("leaf", value)`` for
    leaves, ``("node", None)`` for interior/empty nodes.  ``deletes``
    lists removed subtree roots.
    """

    tid: int
    upserts: Tuple[Tuple[Path, Tuple[str, Value]], ...]
    deletes: Tuple[Path, ...]

    @property
    def change_count(self) -> int:
        return len(self.upserts) + len(self.deletes)


def _payload(node: Tree) -> Tuple[str, Value]:
    return ("leaf", node.value) if node.is_leaf_value else ("node", None)


def diff_trees(old: Tree, new: Tree) -> Tuple[List[Tuple[Path, Tuple[str, Value]]], List[Path]]:
    """Structural diff: (upserts, deleted subtree roots)."""
    old_nodes = {path: _payload(node) for path, node in old.nodes()}
    upserts: List[Tuple[Path, Tuple[str, Value]]] = []
    new_paths = set()
    for path, node in new.nodes():
        new_paths.add(path)
        payload = _payload(node)
        if old_nodes.get(path) != payload:
            upserts.append((path, payload))
    deletes: List[Path] = []
    for path in sorted(old_nodes, key=Path.sort_key):
        if path in new_paths:
            continue
        if path.is_root or path.parent in new_paths:
            deletes.append(path)  # only subtree roots; children are implied
    return upserts, deletes


class VersionArchive:
    """Delta archive of the target database's reference versions."""

    def __init__(self) -> None:
        self._base: Optional[Tree] = None
        self._base_tid: Optional[int] = None
        self._deltas: List[VersionDelta] = []
        self._latest: Optional[Tree] = None

    # ------------------------------------------------------------------
    def record_version(self, tid: int, tree: Tree) -> None:
        """Archive the state at the end of transaction ``tid``."""
        if self._base is None:
            self._base = tree.deep_copy()
            self._base_tid = tid
            self._latest = self._base.deep_copy()
            return
        if self._deltas and tid <= self._deltas[-1].tid:
            raise ValueError(f"versions must be archived in tid order, got {tid}")
        assert self._latest is not None
        upserts, deletes = diff_trees(self._latest, tree)
        self._deltas.append(VersionDelta(tid, tuple(upserts), tuple(deletes)))
        self._latest = tree.deep_copy()

    # ------------------------------------------------------------------
    @property
    def version_tids(self) -> List[int]:
        if self._base_tid is None:
            return []
        return [self._base_tid] + [delta.tid for delta in self._deltas]

    def reconstruct(self, tid: int) -> Tree:
        """The archived state at the reference version ``tid`` (the
        greatest archived version <= ``tid``)."""
        if self._base is None or self._base_tid is None:
            raise KeyError("the archive is empty")
        if tid < self._base_tid:
            raise KeyError(f"no version at or before tid {tid}")
        tree = self._base.deep_copy()
        for delta in self._deltas:
            if delta.tid > tid:
                break
            _apply_delta(tree, delta)
        return tree

    def latest(self) -> Tree:
        if self._latest is None:
            raise KeyError("the archive is empty")
        return self._latest.deep_copy()

    def delta_for(self, tid: int) -> Optional[VersionDelta]:
        for delta in self._deltas:
            if delta.tid == tid:
                return delta
        return None


def _apply_delta(tree: Tree, delta: VersionDelta) -> None:
    for path in delta.deletes:
        parent = tree.resolve(path.parent)
        parent.remove_child(path.last)
    # parents before children so fresh interior nodes exist first
    for path, (kind, value) in sorted(delta.upserts, key=lambda item: len(item[0])):
        if path.is_root:
            continue
        parent = tree.resolve(path.parent)
        if parent.has_child(path.last):
            node = parent.child(path.last)
            if kind == "leaf":
                node.children.clear()
                node.set_value(value)
            elif node.is_leaf_value:
                node.set_value(None)
        else:
            parent.add_child(
                path.last, Tree.leaf(value) if kind == "leaf" else Tree.empty()
            )
