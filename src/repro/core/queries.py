"""Provenance queries (Sections 2.2 and 3.3): From, Trace, Src, Hist, Mod.

The paper defines the queries in Datalog over the (possibly virtual) full
``Prov`` table::

    Unch(t, p) <- not exists Prov(t, _, p, _)
    From(t, p, q) <- Copy(t, p, q)          From(t, p, p) <- Unch(t, p)
    Trace  = reflexive transitive closure of From (stepping t -> t-1)

    Src(p)  = { u | Trace(p, tnow, q, u), Ins(u, q) }
    Hist(p) = { u | Trace(p, tnow, q, u), Copy(u, q, _) }
    Mod(p)  = { u | exists q >= p. Trace(q, tnow, r, u), not Unch(u, r) }

As in CPDB (Section 3.3), the implementations are *programs that issue
several basic queries* (charged store round trips) and then walk the
``t -> t-1`` recursion client-side (charged per epoch stepped).  The cost
structure this produces is the paper's Figure 13:

* query time grows with the number of transactions walked, so the
  transactional stores (5x fewer transactions at commit-every-5) answer
  markedly faster;
* hierarchical stores scan smaller relations (slightly faster getSrc and
  getHist) but getMod must additionally probe ancestors and infer
  coverage for descendants not listed in the store (slower getMod).

A Datalog transcription of the same definitions lives in
:mod:`repro.datalog.provenance_rules`; the test suite checks that these
procedural implementations agree with the declarative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .paths import Path
from .provenance import (
    OP_COPY,
    OP_DELETE,
    OP_INSERT,
    ProvRecord,
    ProvenanceStore,
)

__all__ = ["TraceStep", "ProvenanceQueries"]


@dataclass(frozen=True)
class TraceStep:
    """One change event on a Trace chain: at the end of transaction
    ``tid`` the traced data sat at ``loc``; ``record`` is the effective
    provenance record explaining the change (``None`` marks the final
    unchanged-since-the-beginning step)."""

    tid: int
    loc: Path
    record: Optional[ProvRecord]


class ProvenanceQueries:
    """getSrc / getHist / getMod over any provenance store."""

    def __init__(
        self,
        store: ProvenanceStore,
        target_name: str = "T",
        tnow: Optional[int] = None,
        first_tid: int = 1,
    ) -> None:
        self.store = store
        self.table = store.table
        self.target_name = target_name
        self.tnow = tnow if tnow is not None else store.last_tid
        self.first_tid = first_tid

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------
    def _charge_epochs(self, epochs: int) -> None:
        if epochs > 0:
            self.table.clock.charge(
                "prov.query", self.table.cost_model.epoch_step_ms * epochs
            )

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    def _fetch_for(
        self, position: Path, bound: Optional[int] = None
    ) -> Dict[Tuple[int, Path], ProvRecord]:
        """One basic query: all records at ``position`` (and, for
        hierarchical stores, at its ancestors — their records cover the
        subtree), keyed by ``(tid, loc)`` for the client-side walk.

        ``bound`` is the time-travel version window: records of later
        transactions are irrelevant to a walk bounded at ``bound``, so
        the ``tid <= bound`` cut is pushed into the store's index range
        instead of being filtered client-side after a full fetch.

        ``records_at_locs`` reads the probed locations (position plus
        ancestor chain) in one presorted multi-range pass over the
        ``(loc, tid)`` index, with ``bound`` as every range's tid upper
        bound, and turns the row tuples into records directly — so a
        trace step or ancestor-coverage fetch charges one round trip
        *and* executes one index pass."""
        locs = position.probe_chain() if self.store.hierarchical else [position]
        records = self.table.records_at_locs(locs, max_tid=bound)
        return {(record.tid, record.loc): record for record in records}

    def _effective_from(
        self,
        cache: Dict[Tuple[int, Path], ProvRecord],
        tid: int,
        position: Path,
    ) -> Optional[ProvRecord]:
        """Client-side nearest-ancestor inference over fetched records."""
        record = cache.get((tid, position))
        if record is not None:
            return record
        if not self.store.hierarchical:
            return None
        for ancestor in position.probe_chain()[1:]:
            record = cache.get((tid, ancestor))
            if record is None:
                continue
            if record.op == OP_COPY:
                assert record.src is not None
                return ProvRecord(
                    tid, OP_COPY, position, position.rebase(ancestor, record.src)
                )
            return ProvRecord(tid, record.op, position)
        return None

    def effective(self, tid: int, loc: "Path | str") -> Optional[ProvRecord]:
        """The (possibly inferred) record at ``(tid, loc)``; ``None``
        means the location was unchanged in that transaction."""
        loc = Path.of(loc)
        return self._effective_from(self._fetch_for(loc, bound=tid), tid, loc)

    def in_target(self, loc: Path) -> bool:
        return not loc.is_root and loc.head == self.target_name

    def came_from(self, tid: int, loc: "Path | str") -> Optional[Path]:
        """``From(t, p, q)``: where the data now at ``p`` sat at the end
        of transaction ``t - 1``.  ``None`` when the data did not exist
        then (inserted at ``t``) or the location was deleted."""
        loc = Path.of(loc)
        record = self.effective(tid, loc)
        if record is None:
            return loc  # unchanged
        if record.op == OP_COPY:
            return record.src
        return None  # inserted or deleted at t: no earlier position

    # ------------------------------------------------------------------
    # Trace
    # ------------------------------------------------------------------
    def _latest_in(
        self,
        cache: Dict[Tuple[int, Path], ProvRecord],
        position: Path,
        bound: int,
    ) -> Optional[ProvRecord]:
        """The most recent change event governing ``position`` with
        tid <= bound, resolved client-side from the fetched records."""
        candidate_tids = sorted({tid for tid, _loc in cache if tid <= bound}, reverse=True)
        for tid in candidate_tids:
            record = self._effective_from(cache, tid, position)
            if record is not None:
                return record
            # that transaction touched an ancestor but a nearer record
            # shadowed it away from position; try the next older change
        return None

    def trace(self, loc: "Path | str", tnow: Optional[int] = None) -> List[TraceStep]:
        """The chain of change events behind the data currently at
        ``loc``, most recent first.  Transactions in which the traced
        data was unchanged contribute only the trivial ``From(t, p, p)``
        and are walked through (charged per epoch) without a step."""
        bound = tnow if tnow is not None else self.tnow
        position = Path.of(loc)
        steps: List[TraceStep] = []
        while bound >= self.first_tid:
            cache = self._fetch_for(position, bound=bound)
            record = self._latest_in(cache, position, bound)
            if record is None:
                # unchanged all the way back to the first transaction
                self._charge_epochs(bound - self.first_tid + 1)
                steps.append(TraceStep(bound, position, None))
                break
            self._charge_epochs(bound - record.tid + 1)
            steps.append(TraceStep(record.tid, position, record))
            if record.op in (OP_INSERT, OP_DELETE):
                break
            assert record.src is not None
            if not self.in_target(record.src):
                break  # provenance exits T (Section 2.2)
            position = record.src
            bound = record.tid - 1
        return steps

    # ------------------------------------------------------------------
    # The three queries of Section 2.2
    # ------------------------------------------------------------------
    def get_src(self, loc: "Path | str") -> Optional[int]:
        """The transaction that *inserted* the data now at ``loc``
        (``None`` if it predates tracking or came from an external
        source)."""
        for step in self.trace(loc):
            if step.record is not None and step.record.op == OP_INSERT:
                return step.tid
        return None

    def get_hist(self, loc: "Path | str") -> List[int]:
        """All transactions that copied the data now at ``loc`` toward
        its current position, most recent first."""
        return [
            step.tid
            for step in self.trace(loc)
            if step.record is not None and step.record.op == OP_COPY
        ]

    def get_mod(self, loc: "Path | str") -> Set[int]:
        """All transactions that created or modified data in the subtree
        under ``loc`` (including its copied-in history while it was
        elsewhere in the target)."""
        loc = Path.of(loc)
        result: Set[int] = set()
        seen: Set[Tuple[int, Path]] = set()
        work: List[Tuple[int, Path]] = [(self.tnow, loc)]
        while work:
            bound, root = work.pop()
            if (bound, root) in seen or bound < self.first_tid:
                continue
            seen.add((bound, root))
            under = self.table.records_under(root)
            for record in under:
                if record.tid > bound:
                    continue
                result.add(record.tid)
                self._follow_copy(record, work)
            self._charge_epochs(len(under))
            if self.store.hierarchical:
                self._ancestor_coverage(bound, root, result, work)
        return result

    def _follow_copy(self, record: ProvRecord, work: List[Tuple[int, Path]]) -> None:
        if record.op == OP_COPY and record.src is not None and self.in_target(record.src):
            work.append((record.tid - 1, record.src))

    def _ancestor_coverage(
        self,
        bound: int,
        root: Path,
        result: Set[int],
        work: List[Tuple[int, Path]],
    ) -> None:
        """For hierarchical stores a record at an *ancestor* of ``root``
        covers the whole subtree under it: a copy of ``T/x`` also modified
        everything under ``T/x/b``.  This extra fetch plus per-candidate
        inference ("each query must process all the descendants of a
        node, including ones not listed in the provenance store") is the
        overhead that makes getMod slower on hierarchical stores."""
        cache = self._fetch_for(root, bound=bound)
        # Insert barrier: an I record at root proves the location did not
        # exist just before that transaction (inserts require absence), so
        # earlier ancestor records cannot have covered it.  Without this,
        # getMod would over-approximate with transactions that touched an
        # ancestor before the queried location was created.
        barrier = max(
            (
                record.tid
                for (tid, rec_loc), record in cache.items()
                if rec_loc == root and record.op == OP_INSERT and tid <= bound
            ),
            default=0,
        )
        candidate_tids = sorted(
            {
                tid
                for tid, rec_loc in cache
                if rec_loc != root and barrier <= tid <= bound
            }
        )
        self._charge_epochs(len(candidate_tids))
        for tid in candidate_tids:
            effective = self._effective_from(cache, tid, root)
            if effective is None:
                continue
            result.add(tid)
            self._follow_copy(effective, work)
