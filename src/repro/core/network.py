"""Multi-database provenance: the ``Own`` query (Section 2.2).

If only the target tracks provenance, answers are partial — Hist and Mod
stop when the chain of provenance exits T.  When *several* databases
track and publish provenance, the chains compose: "What is the history
of 'ownership' of a piece of data?  That is, what sequence of databases
contained the previous copies of a node?"

:class:`ProvenanceNetwork` registers any number of provenance-tracking
databases and chains their Trace queries.  Epoch correspondence across
independently-versioned databases is approximated by entering each
upstream database at its newest epoch (a simplification the paper leaves
open; documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .paths import Path
from .provenance import OP_COPY, OP_INSERT, ProvenanceStore
from .queries import ProvenanceQueries

__all__ = ["OwnershipSegment", "ProvenanceNetwork"]


@dataclass(frozen=True)
class OwnershipSegment:
    """One hop of ownership: the data sat in ``database`` at ``loc``
    between (that database's) transactions ``first_tid``..``last_tid``;
    ``via`` names how it got there (``"copy"``, ``"insert"``, or
    ``"origin"`` when the chain can go no further)."""

    database: str
    loc: Path
    first_tid: int
    last_tid: int
    via: str


class ProvenanceNetwork:
    """A registry of provenance-tracking databases with composed queries."""

    def __init__(self) -> None:
        self._stores: Dict[str, ProvenanceStore] = {}

    def register(self, name: str, store: ProvenanceStore) -> None:
        if name in self._stores:
            raise ValueError(f"database {name!r} already registered")
        self._stores[name] = store

    # ------------------------------------------------------------------
    def own(self, loc: "Path | str", max_hops: int = 16) -> List[OwnershipSegment]:
        """The ownership history of the data currently at ``loc``:
        a segment per database the data has lived in, newest first."""
        loc = Path.of(loc)
        segments: List[OwnershipSegment] = []
        current: Optional[Path] = loc
        for _hop in range(max_hops):
            if current is None or current.is_root:
                break
            db_name = current.head
            store = self._stores.get(db_name)
            if store is None:
                # data entered from an untracked database: the chain ends
                segments.append(
                    OwnershipSegment(db_name, current, 0, 0, "origin")
                )
                break
            queries = ProvenanceQueries(store, target_name=db_name)
            steps = queries.trace(current)
            last_step = steps[-1]
            first_tid = last_step.tid
            last_tid = steps[0].tid
            record = last_step.record
            if record is None:
                segments.append(
                    OwnershipSegment(db_name, current, first_tid, last_tid, "origin")
                )
                break
            if record.op == OP_INSERT:
                segments.append(
                    OwnershipSegment(db_name, current, first_tid, last_tid, "insert")
                )
                break
            # the chain exits this database via a copy
            assert record.src is not None
            segments.append(
                OwnershipSegment(db_name, current, first_tid, last_tid, "copy")
            )
            current = record.src
        return segments

    # ------------------------------------------------------------------
    def combined_hist(self, loc: "Path | str") -> List[Tuple[str, int]]:
        """Hist across the network: every (database, tid) that copied the
        data toward its current position, newest first."""
        loc = Path.of(loc)
        result: List[Tuple[str, int]] = []
        current: Optional[Path] = loc
        for _hop in range(64):
            if current is None or current.is_root:
                break
            db_name = current.head
            store = self._stores.get(db_name)
            if store is None:
                break
            queries = ProvenanceQueries(store, target_name=db_name)
            steps = queries.trace(current)
            next_loc: Optional[Path] = None
            for step in steps:
                if step.record is not None and step.record.op == OP_COPY:
                    result.append((db_name, step.tid))
                    if step.record.src is not None and not queries.in_target(step.record.src):
                        next_loc = step.record.src
            current = next_loc
        return result
