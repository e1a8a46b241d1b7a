"""Transactional provenance (Section 2.1.2).

Update actions are grouped into transactions; only links describing the
*net changes* of a transaction are stored.  During the transaction an
active list (the paper's ``provlist``) is maintained in memory:

* an insert or copy adds links for the created nodes;
* a copy or delete removes any links on the list corresponding to
  overwritten or deleted data (temporary data leaves no trace);
* data present at transaction start that is destroyed is remembered so a
  net ``D`` record can be written;
* at commit, the whole list is written to the provenance store in a
  single batched round trip — the reason transactional tracking is nearly
  free per operation in Figures 9/10 — and made durable with the
  store's one WAL commit (:meth:`ProvenanceStore.commit`).

Storage for a transaction is ``i + d + c`` records, where ``i`` is the
number of inserted nodes in the output, ``d`` the number of nodes deleted
from the input, and ``c`` the number of copied nodes in the output
(property-tested).

A subtlety the paper's example does not exercise: a copy whose source was
itself created earlier *in the same transaction* must record the
*composed* source (the paper's motivating rule — "copies S1, deletes,
uses S2 instead — same effect as only copying from S2" — generalizes to
chains), because net links relate the transaction's output to its *input*
(the previous version), in which intra-transaction temporaries never
existed.  ``_compose_src`` implements this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..paths import Path
from ..provenance import (
    OP_COPY,
    OP_DELETE,
    OP_INSERT,
    ProvRecord,
    ProvTable,
    ProvenanceStore,
)
from ..tree import Tree

__all__ = ["TransactionalStore", "PendingLink"]

#: an (op, src) pair on the active list; src is None for inserts
PendingLink = Tuple[str, Optional[Path]]


class TransactionalStore(ProvenanceStore):
    """Net-effect provenance with a fully expanded active list."""

    method = "transactional"
    transactional = True
    hierarchical = False

    def __init__(self, table: ProvTable, first_tid: int = 1) -> None:
        super().__init__(table, first_tid=first_tid)
        self._provlist: Dict[Path, PendingLink] = {}
        #: input (transaction-start) locations destroyed by an *explicit
        #: delete* — each nets a ``D`` record unless a surviving link
        #: re-claims its {Tid, Loc} key
        self._dead: Set[Path] = set()
        #: input locations destroyed by an *overwrite* (paste over
        #: existing data) — silent per the Figure 5(a) reading, because
        #: the overwriting record accounts for the region wholesale; if
        #: a later explicit delete destroys that masking content, the
        #: displaced deaths revert to ``_dead`` and net their ``D``
        self._displaced: Set[Path] = set()
        self._open = False

    # ------------------------------------------------------------------
    # Active-list helpers
    # ------------------------------------------------------------------
    def _charge_local(self, category: str) -> None:
        self.table.clock.charge(
            f"prov.{category}", self.table.cost_model.local_ms
        )

    def _is_txn_created(self, loc: Path) -> bool:
        """Was the node currently at ``loc`` created in this transaction?

        With a fully expanded list, every transaction-created node has its
        own entry."""
        return loc in self._provlist

    def _retire_region(self, root: Path, destroyed: Tree, graveyard: Set[Path]) -> None:
        """The subtree ``destroyed`` (the current content at ``root``) is
        about to disappear: drop links for transaction-created temporaries
        and add the input (transaction-start) nodes that died to
        ``graveyard`` (``_dead`` for explicit deletes, ``_displaced`` for
        overwrites).

        Coverage is decided for *all* nodes before any link is removed —
        removing a parent's link first would make its children look like
        input data."""
        locs = [root.join(sub) for sub, _node in destroyed.nodes()]
        created = [loc for loc in locs if self._is_txn_created(loc)]
        created_set = set(created)
        for loc in locs:
            if loc not in created_set:
                graveyard.add(loc)
        for loc in created:
            self._remove_links_at(loc)

    def _clear_region(self, root: Path, destroyed: Tree) -> None:
        """Explicit-delete bookkeeping: input nodes die loudly, and any
        displaced death whose masking content sat inside the destroyed
        region reverts to a net ``D``."""
        self._retire_region(root, destroyed, self._dead)
        for loc in [loc for loc in self._displaced if root.is_prefix_of(loc)]:
            self._displaced.discard(loc)
            self._dead.add(loc)

    def _displace_region(self, root: Path, destroyed: Tree) -> None:
        """Overwrite bookkeeping: input nodes die silently (the
        overwriting record accounts for the region), but recoverably."""
        self._retire_region(root, destroyed, self._displaced)

    def _remove_links_at(self, loc: Path) -> None:
        self._provlist.pop(loc, None)

    def _net_link_for(self, src_loc: Path) -> PendingLink:
        """The net link describing data copied from ``src_loc``: net
        records relate the transaction's output to its *input*, in which
        intra-transaction temporaries never existed.

        * source covered by a same-transaction copy → compose: the data
          really came from that copy's input-side source;
        * source covered by a same-transaction insert → the data
          originated *in this transaction*: it nets to an insertion;
        * otherwise → a plain copy link to ``src_loc`` (data from the
          previous version or an external database)."""
        for ancestor in src_loc.ancestors(include_self=True):
            link = self._provlist.get(ancestor)
            if link is None:
                continue
            op, link_src = link
            if op == OP_COPY and link_src is not None:
                return (OP_COPY, src_loc.rebase(ancestor, link_src))
            return (OP_INSERT, None)
        return (OP_COPY, src_loc)

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------
    def begin(self) -> None:
        if self._open:
            return
        self._open = True
        self._provlist.clear()
        self._dead.clear()
        self._displaced.clear()

    def track_insert(self, loc: Path) -> None:
        self.begin()
        self._charge_local("add")
        self._provlist[loc] = (OP_INSERT, None)

    def track_delete(self, loc: Path, deleted: Tree) -> None:
        self.begin()
        self._charge_local("delete")
        self._clear_region(loc, deleted)

    def track_copy(
        self, dst: Path, src: Path, copied: Tree, overwritten: Optional[Tree]
    ) -> None:
        self.begin()
        self._charge_local("paste")
        # net links must be computed against the list *before* the paste
        # clears the destination region (the source may sit inside it)
        links = self._net_copy_links(dst, src, copied)
        if overwritten is not None:
            # temporaries inside the region vanish without a trace;
            # overwritten *input* data is displaced — silent while the
            # overwriting record survives (Figure 5(a): step 6 overwrites
            # step 5's insert and records only the copy), but revived to
            # a net ``D`` if a later statement deletes the pasted region
            self._displace_region(dst, overwritten)
        self._provlist.update(links)

    def _net_copy_links(
        self, dst: Path, src: Path, copied: Tree
    ) -> Dict[Path, PendingLink]:
        """One net link per copied node, each composed individually (a
        copied region can mix previously-committed data, data copied in
        earlier this transaction, and data inserted this transaction)."""
        return {
            dst.join(sub): self._net_link_for(src.join(sub))
            for sub, _node in copied.nodes()
        }

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _net_records(self, tid: int) -> List[ProvRecord]:
        records = [
            ProvRecord(tid, op, loc, src)
            for loc, (op, src) in self._provlist.items()
        ]
        records.extend(
            ProvRecord(tid, OP_DELETE, loc)
            for loc in self._emitted_dead()
        )
        records.sort(key=lambda record: record.loc.sort_key())
        return records

    def _emitted_dead(self) -> List[Path]:
        """Dead input locations that get an explicit ``D`` record.

        A dead location whose content was re-created — and whose
        re-creation *survived* to commit — carries an I/C link in the
        active list, which takes over the {Tid, Loc} key; everything
        still dead and linkless is written out in full."""
        return [loc for loc in self._dead if loc not in self._provlist]

    def _write_pending(self) -> None:
        """The net records, in one batched write; the active list is
        emptied even if the write fails (the store then rolls back)."""
        tid = self.allocate_tid()
        try:
            records = self._net_records(tid)
            if records:
                self._write(records, "commit", batch=True)
            else:
                # an empty commit still costs one round trip (the commit call)
                self.table.clock.charge(
                    "prov.commit", self.table.cost_model.round_trip_ms
                )
        finally:
            self._provlist.clear()
            self._dead.clear()
            self._displaced.clear()
            self._open = False
