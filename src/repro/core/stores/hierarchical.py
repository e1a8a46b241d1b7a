"""Hierarchical provenance (Section 2.1.3).

Only non-inferable provenance links are stored: a copy-paste operation
``copy q into p`` adds the single record ``HProv(t, C, p, q)``; the
provenance of descendants is inferred by the recursive view in
:mod:`repro.core.inference`.  An update sequence ``U`` is described by a
table with at most ``|U|`` entries (property-tested).

As in the naive method, each operation gets its own Tid and writes its
record as it happens, while durability follows the editor's transaction:
one WAL commit (one frame, one fsync) per editor ``commit``.

Figure 5(c) is the hierarchical table for the paper's running example.
"""

from __future__ import annotations

from typing import Optional

from ..paths import Path
from ..provenance import (
    OP_COPY,
    OP_DELETE,
    OP_INSERT,
    ProvRecord,
    ProvenanceStore,
)
from ..tree import Tree

__all__ = ["HierarchicalStore"]


class HierarchicalStore(ProvenanceStore):
    """At most one record per operation.

    Inserts first query the provenance store to determine whether the
    record is inferable from an ancestor's record in the same
    transaction (Section 4.2: "we must first query the provenance
    database to determine whether to add the provenance record") — with
    one operation per transaction the check never fires, but the round
    trip is paid, which is why hierarchical inserts are *slower* than
    naive ones in Figure 10 even though copies are much faster.
    """

    method = "hierarchical"
    transactional = False
    hierarchical = True

    def _insert_is_inferable(self, tid: int, loc: Path) -> bool:
        """True when an ancestor's same-transaction record already implies
        an ``I`` record at ``loc`` (children of inserted nodes are assumed
        inserted)."""
        if loc.is_root:
            return False
        # the existence check is charged to the insert operation itself:
        # this round trip is the paper's explanation for hierarchical
        # inserts costing more than naive ones (Section 4.2)
        parent_record = self.table.record_at(tid, loc.parent, category="add")
        return parent_record is not None and parent_record.op == OP_INSERT

    def track_insert(self, loc: Path) -> None:
        tid = self.allocate_tid()
        if not self._insert_is_inferable(tid, loc):
            self._write([ProvRecord(tid, OP_INSERT, loc)], "add")

    def track_delete(self, loc: Path, deleted: Tree) -> None:
        tid = self.allocate_tid()
        self._write([ProvRecord(tid, OP_DELETE, loc)], "delete")

    def track_copy(
        self, dst: Path, src: Path, copied: Tree, overwritten: Optional[Tree]
    ) -> None:
        tid = self.allocate_tid()
        self._write([ProvRecord(tid, OP_COPY, dst, src)], "paste")
