"""CPDB: the provenance-aware editor/browser (Section 3).

The editor is the only write path to the target database: it intercepts
every user action (insert, delete, copy/paste), applies it to the target
through its wrapper, and records the resulting provenance links through
the configured storage strategy.  "In order to ensure the consistency of
the target database and its provenance record, it is essential that the
target database and provenance record are writable only via high-level
interfaces that track provenance" (Section 1.3).

Costs: every action pays one target-database interaction
(``target.update`` on the virtual clock — the SOAP-to-Timber round trip
of the original system); the provenance strategies charge their own
``prov.*`` costs internally.

The editor also supports replaying update scripts in the paper's
concrete syntax (:func:`repro.core.updates.parse_script`), which is how
the test suite reproduces Figures 3-5 verbatim.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..common.clock import CostModel, VirtualClock
from ..wrappers.base import SourceDB, TargetDB, WrapperError
from .paths import Path
from .provenance import ProvenanceStore
from .tree import Tree, Value
from .updates import Copy, Delete, Insert, Update

__all__ = ["CurationEditor", "EditorError"]


class EditorError(Exception):
    """Raised for invalid editor actions (unknown database, writes to a
    source, malformed locations)."""


class CurationEditor:
    """The provenance-aware editor connecting sources, target, and store.

    Parameters
    ----------
    target:
        The wrapped target database (MiMI-on-Timber in the paper).
    sources:
        The wrapped source databases (OrganelleDB-on-MySQL in the paper),
        keyed by name.
    store:
        A provenance storage strategy (N / T / H / HT).
    clock, cost_model:
        Virtual-clock instrumentation; defaults to the store's.
    archive:
        Optional commit-point archiver (see :mod:`repro.core.archive`);
        ``commit()`` notifies it with the new reference version.
    """

    def __init__(
        self,
        target: TargetDB,
        sources: "Dict[str, SourceDB] | Sequence[SourceDB]",
        store: ProvenanceStore,
        clock: Optional[VirtualClock] = None,
        cost_model: Optional[CostModel] = None,
        archive=None,
        txn_log=None,
        user: str = "curator",
    ) -> None:
        self.target = target
        if not isinstance(sources, dict):
            sources = {source.name: source for source in sources}
        self.sources: Dict[str, SourceDB] = dict(sources)
        if target.name in self.sources:
            raise EditorError(
                f"target name {target.name!r} collides with a source database"
            )
        self.store = store
        self.clock = clock if clock is not None else store.table.clock
        self.cost_model = cost_model if cost_model is not None else store.table.cost_model
        self.archive = archive
        #: optional per-transaction metadata table (Section 2.1: "commit
        #: time and user identity ... in a separate table with key Tid")
        self.txn_log = txn_log
        self.user = user
        self.operations_performed = 0

    # ------------------------------------------------------------------
    # Path plumbing
    # ------------------------------------------------------------------
    def _split_target(self, path: "Path | str", action: str) -> Path:
        path = Path.of(path)
        if path.is_root or path.head != self.target.name:
            raise EditorError(
                f"{action} may only touch the target database "
                f"{self.target.name!r}, got {path}"
            )
        return path.tail

    def _resolve_source(self, path: "Path | str") -> tuple[SourceDB, Path]:
        path = Path.of(path)
        if path.is_root:
            raise EditorError("copy source must name a database")
        if path.head == self.target.name:
            return self.target, path.tail
        try:
            return self.sources[path.head], path.tail
        except KeyError:
            raise EditorError(f"unknown source database {path.head!r}") from None

    def _charge_target(self) -> None:
        self.clock.charge("target.update", self.cost_model.target_op_ms)
        self.operations_performed += 1

    # ------------------------------------------------------------------
    # User actions
    # ------------------------------------------------------------------
    def insert(self, path: "Path | str", label: str, value: Value = None) -> None:
        """``ins {label : value} into path`` (``value=None`` inserts the
        empty node)."""
        rel = self._split_target(path, "insert")
        self.target.add_node(rel, label, value)
        self._charge_target()
        loc = Path.of(path).child(label)
        self.store.track_insert(loc)

    def delete(self, path: "Path | str") -> Tree:
        """Delete the node at ``path`` (``del last-label from parent``);
        returns the removed subtree."""
        rel = self._split_target(path, "delete")
        if rel.is_root:
            raise EditorError("cannot delete the target root")
        removed = self.target.delete_node(rel)
        self._charge_target()
        self.store.track_delete(Path.of(path), removed)
        return removed

    def copy_paste(self, src: "Path | str", dst: "Path | str") -> Tree:
        """``copy src into dst``: copy the subtree at ``src`` (from any
        source database or the target itself) to ``dst`` in the target;
        returns the pasted subtree."""
        src = Path.of(src)
        dst = Path.of(dst)
        dst_rel = self._split_target(dst, "paste")
        if dst_rel.is_root:
            raise EditorError("cannot paste over the target root")
        source_db, src_rel = self._resolve_source(src)
        copied = source_db.copy_node(src_rel)
        overwritten = self.target.paste_node(dst_rel, copied)
        self._charge_target()
        self.store.track_copy(dst, src, copied, overwritten)
        return copied

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> None:
        self.store.begin()

    def commit(self, note: Optional[str] = None) -> int:
        """Commit the open transaction; returns the transaction id of the
        new reference version.  This is the provenance store's durability
        point for every strategy: the transaction's records reach the WAL
        as one WAL frame and one fsync (per-operation strategies keep
        their per-operation Tids).  It is also the archive/metadata
        point."""
        self.store.commit()
        tid = self.store.last_tid
        if self.archive is not None:
            self.archive.record_version(tid, self.target_tree())
        if self.txn_log is not None:
            self.txn_log.record_commit(tid, self.user, note)
        return tid

    # ------------------------------------------------------------------
    # Script replay and inspection
    # ------------------------------------------------------------------
    def apply(self, update: Update) -> None:
        """Apply one parsed update (the paper's concrete syntax)."""
        if isinstance(update, Insert):
            self.insert(update.path, update.label, update.value)
        elif isinstance(update, Delete):
            self.delete(update.path.child(update.label))
        elif isinstance(update, Copy):
            self.copy_paste(update.src, update.dst)
        else:  # pragma: no cover - defensive
            raise EditorError(f"unknown update {update!r}")

    def run_script(self, updates: Iterable[Update], commit_every: Optional[int] = None) -> None:
        """Replay a sequence of updates, optionally committing every
        ``commit_every`` operations (and once at the end)."""
        pending = 0
        for update in updates:
            self.apply(update)
            pending += 1
            if commit_every is not None and pending >= commit_every:
                self.commit()
                pending = 0
        if pending and commit_every is not None:
            self.commit()

    def target_tree(self) -> Tree:
        """A snapshot of the target database's current tree view."""
        return self.target.tree_from_db()
