"""Virtual time for reproducible performance experiments.

The paper's measured costs are dominated by client/server round trips: the
provenance store was MySQL reached over JDBC/TCP and the target database
was Timber reached over SOAP.  Re-running on modern hardware with
in-process stores would bury those effects in noise, so the harness
charges deterministic costs on a virtual clock.  The *mechanisms* (how
many round trips each strategy issues, how many rows each writes, the
extra existence check hierarchical tracking performs on inserts, the
batched single-round-trip commit of transactional tracking) are faithfully
implemented by the stores; the knobs below only fix the unit costs, and
are calibrated so the baseline (naive) matches the paper's reported
overhead (up to ~28-30 % of a target-database interaction).

Only *ratios* matter for the reproduced shapes; EXPERIMENTS.md records the
calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["VirtualClock", "CostModel"]


@dataclass
class CostModel:
    """Per-event costs, in milliseconds of virtual time.

    Attributes
    ----------
    round_trip_ms:
        Fixed cost of one client/server round trip (connection, parse,
        network latency).
    stmt_row_ms:
        Per-row marshalling cost inside a single INSERT statement (the
        naive tracker writes one statement per update operation, with one
        row per touched node).
    batch_row_ms:
        Per-row cost inside a batched commit write (prepared batch —
        cheaper per row than individual statements; this is the round-trip
        saving the paper credits for transactional provenance).
    scan_row_ms:
        Per-row cost of scanning the provenance relation during queries
        (Figure 13 was measured without indexes, i.e. worst case).
    local_ms:
        In-memory provlist manipulation (transactional tracking touches
        no store during updates, hence its near-zero per-op cost).
    check_ms:
        The hierarchical tracker's inferability check on inserts — the
        extra query the paper blames for hierarchical inserts being
        slower than naive ones.
    target_op_ms:
        One target-database interaction (Timber via SOAP); the paper's
        Figure 9 shows this averaging ~450 ms, the yardstick for all
        overhead percentages.
    retry_timeout_ms:
        How long the client waits before declaring a round trip lost (a
        conservative multiple of ``round_trip_ms``, as a real driver's
        socket timeout would be).  A *failed* round trip therefore costs
        more than a successful one — failure amplification: every lost
        request or response adds a full timeout plus the retry's own
        round trip to the paper's per-operation economics.
    """

    round_trip_ms: float = 30.0
    stmt_row_ms: float = 25.0
    batch_row_ms: float = 8.0
    scan_row_ms: float = 0.1
    local_ms: float = 1.0
    check_ms: float = 20.0
    target_op_ms: float = 450.0
    epoch_step_ms: float = 0.1
    retry_timeout_ms: float = 90.0

    # epoch_step_ms: the client-side cost of stepping the Trace walk
    # through one transaction (the t -> t-1 recursion of Section 2.2).
    # Query time scales with the number of *transactions*, which is why
    # transactional provenance (5x fewer transactions at commit-every-5)
    # answers queries ~2.5x faster in Figure 13.

    def statement_write_cost(self, rows: int) -> float:
        """One INSERT statement carrying ``rows`` rows."""
        return self.round_trip_ms + self.stmt_row_ms * rows

    def batch_write_cost(self, rows: int) -> float:
        """One batched (commit-time) write carrying ``rows`` rows."""
        return self.round_trip_ms + self.batch_row_ms * rows

    def query_cost(self, rows_scanned: int) -> float:
        """One query round trip scanning ``rows_scanned`` rows."""
        return self.round_trip_ms + self.scan_row_ms * rows_scanned

    def failed_round_trip_cost(self, rows: int = 0) -> float:
        """A round trip that times out: the client still marshalled and
        sent the request, then waited out the timeout."""
        return self.statement_write_cost(rows) + self.retry_timeout_ms


class VirtualClock:
    """A monotonically advancing virtual clock with per-category accounting.

    ``charge(category, ms)`` advances time and attributes the cost to a
    category (e.g. ``"prov.paste"``, ``"target.update"``), letting the
    experiment harness report average per-operation costs exactly as the
    paper's Figures 9, 10, and 12 do.
    """

    def __init__(self) -> None:
        self._now_ms: float = 0.0
        self._by_category: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @property
    def now_ms(self) -> float:
        return self._now_ms

    def charge(self, category: str, ms: float) -> None:
        if ms < 0:
            raise ValueError("cannot charge negative time")
        self._now_ms += ms
        self._by_category[category] = self._by_category.get(category, 0.0) + ms
        self._counts[category] = self._counts.get(category, 0) + 1

    def total(self, category: str) -> float:
        return self._by_category.get(category, 0.0)

    def count(self, category: str) -> int:
        return self._counts.get(category, 0)

    def average(self, category: str) -> float:
        count = self._counts.get(category, 0)
        if count == 0:
            return 0.0
        return self._by_category[category] / count

    def categories(self) -> Dict[str, float]:
        return dict(self._by_category)

    def reset(self) -> None:
        self._now_ms = 0.0
        self._by_category.clear()
        self._counts.clear()
