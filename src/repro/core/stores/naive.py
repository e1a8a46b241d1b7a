"""Naive provenance (Section 2.1.1).

One provenance record per copied, inserted, or deleted *node*; each update
operation is its own transaction in the paper's sense — it gets its own
Tid and its records are written as it happens.  Durability follows the
editor's transaction: the records of all its operations reach the WAL in
one database transaction, made durable (one WAL frame, one fsync) by the
editor's ``commit``.  Wasteful in space, but lossless: the exact update
operation sequence can be recovered from the table (a property the test
suite checks).

Figure 5(a) is the naive table for the paper's running example.
"""

from __future__ import annotations

from typing import List, Optional

from ..paths import Path
from ..provenance import (
    OP_COPY,
    OP_DELETE,
    OP_INSERT,
    ProvRecord,
    ProvenanceStore,
)
from ..tree import Tree

__all__ = ["NaiveStore"]


class NaiveStore(ProvenanceStore):
    """One record per touched node, one Tid per operation.

    Each tracking call issues one INSERT statement to the provenance
    store carrying one row per touched node — a single round trip whose
    marshalling cost grows with the subtree size, which is what makes
    naive copies the most expensive operation in Figures 9/10.
    """

    method = "naive"
    transactional = False
    hierarchical = False

    def track_insert(self, loc: Path) -> None:
        tid = self.allocate_tid()
        self._write([ProvRecord(tid, OP_INSERT, loc)], "add")

    def track_delete(self, loc: Path, deleted: Tree) -> None:
        tid = self.allocate_tid()
        records = [
            ProvRecord(tid, OP_DELETE, loc.join(sub))
            for sub, _node in deleted.nodes()
        ]
        self._write(records, "delete")

    def track_copy(
        self, dst: Path, src: Path, copied: Tree, overwritten: Optional[Tree]
    ) -> None:
        # Overwritten data produces no records in the naive method: the
        # paper's Figure 5(a) shows only C records for step (6), which
        # overwrote the node inserted at step (5).
        tid = self.allocate_tid()
        records = [
            ProvRecord(tid, OP_COPY, dst.join(sub), src.join(sub))
            for sub, _node in copied.nodes()
        ]
        self._write(records, "paste")
