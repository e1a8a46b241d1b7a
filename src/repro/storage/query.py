"""Logical queries and a cost-based planner choosing index access paths.

The planner enumerates *candidate* access paths for each table access:

1. an equality conjunct covering an index's columns → ``IndexEqScan``;
2. an ``IndexRangeScan`` over an ordered index — a sorted,
   de-duplicated union of key ranges, streamed by one
   ``OrderedIndex.multi_range`` sweep — whose ranges come from one of
   three sources:

   a. a ``PrefixMatch`` conjunct on the first column of the index, when
      that column is TEXT/CHAR: the half-open range ``[p, succ(p))``
      (the ``loc LIKE 'p/%'`` descendant pattern);
   b. merged comparison bounds (``k >= lo``, ``k < hi``, BETWEEN-shaped
      pairs, and equality prefixes on multi-column indexes): one range;
      an ordered index whose key order matches the requested ORDER BY
      is also eligible with open bounds, so ``ORDER BY k LIMIT n`` can
      stream;
   c. a ``col IN (...)`` conjunct, or a top-level OR whose every
      disjunct is a sargable conjunction over one column: one range per
      disjunct;
3. always: a ``SeqScan``.

and picks the cheapest under a small cost model (see *Cost model*
below) instead of the old static eq > prefix > range priority — so a
composite ordered index that also satisfies the ORDER BY can beat a
fully-equality-covered hash index whose output would still need a sort.
Residual conjuncts stay in a ``FilterNode`` above the access path.

Joins are planned as a cost-based subsystem of their own (see the
*Join planning* section below): equality conditions from ``ON``
clauses (any operand order, AND-ed multi-conjunct) and from WHERE
conjuncts form a join graph, join order is enumerated under the same
cost model with equi-depth-histogram selectivities, and each step
chooses between an ``IndexNestedLoopJoin`` (batched index probes into
the new table) and a build-side-aware ``HashJoinNode``; non-equi ON
conditions fall back to ``NestedLoopJoinNode``.

*Interesting orders*: when the chosen access path already yields rows in
the requested ORDER BY order — an ordered-index scan whose key columns
(minus equality-bound ones) lead with the ORDER BY columns, possibly
scanned in reverse for DESC — the trailing ``SortNode`` is elided and
``LimitNode`` streams.  ``plan_query(..., naive=True)`` disables every
rule (forced ``SeqScan`` + ``FilterNode`` + ``SortNode``), which is the
oracle side of the differential plan-equivalence tests.

DML shares the machinery: :func:`plan_mutation` compiles a
``delete_where``/``update_where`` predicate into the same access-path
candidates (every access node exposes a ``rows()`` stream of ``(rowid,
row)`` pairs), so victim enumeration probes indexes instead of paying a
full scan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from math import log2
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .db import Database
from .errors import UnknownTableError
from .expr import (
    And,
    Cmp,
    Col,
    Const,
    Expr,
    InList,
    IsNull,
    Not,
    Or,
    PrefixMatch,
    column_bound,
    conjuncts,
)
from .index import KeyRange, _range_start_key, prefix_range
from .plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    HashJoinNode,
    HashSemiJoinNode,
    IndexEqScan,
    IndexNestedLoopJoin,
    IndexRangeScan,
    LimitNode,
    NestedLoopJoinNode,
    PlanNode,
    ProjectNode,
    SeqScan,
    SortNode,
    TableScanNode,
    _probe_key_range,
    explain as explain_plan,
)
from .schema import TableSchema
from .table import IndexStats, Table
from .types import ColumnType

if TYPE_CHECKING:  # pragma: no cover - sql.py imports this module
    from .sql import PreparedStatement

__all__ = [
    "QueryEngine",
    "TableRef",
    "JoinSpec",
    "Query",
    "PlanCache",
    "PlannerStats",
    "plan_query",
    "plan_mutation",
    "mutation_victims",
    "query_fingerprint",
]


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinSpec:
    """A join between the query's running result and a new table.

    ``left_key = right_key`` is the first equality condition (kept as
    two fields for backward compatibility); ``extra`` carries further
    AND-ed equality pairs (``ON a.x = b.x AND a.y = b.y``) and
    ``residual`` any non-equi ON conjuncts, evaluated over the joined
    row.  Operand order is *as written* — the planner normalizes sides
    by binding, so ``ON b.x = a.x`` probes and builds correctly.  A
    spec with no equality pairs (pure non-equi, or none at all — a
    cross join) executes as a nested-loop join.
    """

    table: TableRef
    left_key: Optional[Expr] = None
    right_key: Optional[Expr] = None
    extra: Tuple[Tuple[Expr, Expr], ...] = ()
    residual: Optional[Expr] = None

    @property
    def pairs(self) -> Tuple[Tuple[Expr, Expr], ...]:
        """Every equality condition as an ``(as-written-left,
        as-written-right)`` pair."""
        first: Tuple[Tuple[Expr, Expr], ...] = ()
        if self.left_key is not None and self.right_key is not None:
            first = ((self.left_key, self.right_key),)
        return first + tuple(self.extra)


@dataclass
class Query:
    """A logical SELECT query.

    ``outputs`` of ``None`` means SELECT * (all columns of all tables,
    unqualified names from the first table win on collision).
    """

    table: TableRef
    joins: List[JoinSpec] = field(default_factory=list)
    where: Optional[Expr] = None
    outputs: Optional[List[Tuple[str, Expr]]] = None
    group_by: List[Tuple[str, Expr]] = field(default_factory=list)
    aggregates: List[Tuple[str, str, Optional[Expr]]] = field(default_factory=list)
    order_by: List[Tuple[Expr, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    having: Optional[Expr] = None
    distinct: bool = False


# ----------------------------------------------------------------------
# Planner statistics context and the plan cache
# ----------------------------------------------------------------------


class PlannerStats:
    """Memo of the table statistics planning consulted.

    The first planning call through a fresh instance records every
    ``index_stats`` / ``column_histogram`` answer; replaying the same
    instance on a later call (same query *shape*, same stats epoch)
    answers from the memo — zero sampling against the tables, which is
    what ``Table.stats_counts`` asserts.  A consult missing from the
    memo (a shape would have to diverge for that) falls through to the
    live table and is recorded.
    """

    __slots__ = ("_index_stats", "_histograms")

    def __init__(self) -> None:
        self._index_stats: Dict[Tuple[str, str], IndexStats] = {}
        self._histograms: Dict[Tuple[str, str], Any] = {}

    def index_stats(self, table: Table, name: str) -> IndexStats:
        key = (table.schema.name, name)
        try:
            return self._index_stats[key]
        except KeyError:
            value = self._index_stats[key] = table.index_stats(name)
            return value

    def histogram(self, table: Table, column: str):
        key = (table.schema.name, column)
        try:
            return self._histograms[key]
        except KeyError:
            value = self._histograms[key] = table.column_histogram(column)
            return value


#: the statistics memo the current ``plan_query`` call records into /
#: replays from; ``None`` = consult tables directly.  A module global —
#: not thread state — because the engine is single-threaded embedded
#: (see ROADMAP's MVCC item); ``plan_query`` saves and restores it.
_ACTIVE_STATS: Optional[PlannerStats] = None


def _table_index_stats(table: Table, name: str) -> IndexStats:
    if _ACTIVE_STATS is None:
        return table.index_stats(name)
    return _ACTIVE_STATS.index_stats(table, name)


def _table_histogram(table: Table, column: str):
    if _ACTIVE_STATS is None:
        return table.column_histogram(column)
    return _ACTIVE_STATS.histogram(table, column)


def _literal(value: Any) -> Any:
    """A hashable stand-in for one parameterized-out literal."""
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _expr_shape(expr: Optional[Expr], literals: List[Any]) -> str:
    """Render an expression with every literal replaced by ``?`` (the
    values are appended to ``literals`` in rendering order)."""
    if expr is None:
        return "~"
    if isinstance(expr, Const):
        literals.append(_literal(expr.value))
        return "?"
    if isinstance(expr, Col):
        return "@" + expr.name
    if isinstance(expr, Cmp):
        return (
            f"({_expr_shape(expr.left, literals)}{expr.op}"
            f"{_expr_shape(expr.right, literals)})"
        )
    if isinstance(expr, And):
        return "and(" + ",".join(_expr_shape(p, literals) for p in expr.parts) + ")"
    if isinstance(expr, Or):
        return "or(" + ",".join(_expr_shape(p, literals) for p in expr.parts) + ")"
    if isinstance(expr, Not):
        return "not(" + _expr_shape(expr.inner, literals) + ")"
    if isinstance(expr, IsNull):
        tag = "notnull" if expr.negated else "isnull"
        return tag + "(" + _expr_shape(expr.inner, literals) + ")"
    if isinstance(expr, InList):
        # the option *count* stays in the shape: the planner builds one
        # key range per option, so different counts are different plans
        literals.extend(_literal(option) for option in expr.options)
        return (
            f"in({_expr_shape(expr.inner, literals)},#{len(expr.options)})"
        )
    if isinstance(expr, PrefixMatch):
        literals.append(expr.prefix)
        return f"prefix(@{expr.column.name},?)"
    # unknown Expr extension: repr is its identity (nothing parameterized)
    return repr(expr)


def query_fingerprint(query: Query) -> Tuple[str, Tuple[Any, ...]]:
    """``(shape, literals)`` for one query: the normalized query shape
    with literals parameterized out, plus the literal values in shape
    order.  Two queries with equal shapes differ only in constants; the
    shape (plus the stats epoch) keys the plan cache's statistics
    snapshots, and ``(shape, literals)`` keys whole cached plans."""
    literals: List[Any] = []
    parts = [f"t:{query.table.name}/{query.table.alias or ''}"]
    for join in query.joins:
        pair_shapes = ",".join(
            f"{_expr_shape(left, literals)}={_expr_shape(right, literals)}"
            for left, right in join.pairs
        )
        parts.append(
            f"j:{join.table.name}/{join.table.alias or ''}"
            f"[{pair_shapes}|{_expr_shape(join.residual, literals)}]"
        )
    parts.append("w:" + _expr_shape(query.where, literals))
    if query.outputs is None:
        parts.append("o:*")
    else:
        parts.append(
            "o:"
            + ",".join(
                f"{name}={_expr_shape(expr, literals)}"
                for name, expr in query.outputs
            )
        )
    parts.append(
        "g:"
        + ",".join(
            f"{name}={_expr_shape(expr, literals)}" for name, expr in query.group_by
        )
    )
    parts.append(
        "a:"
        + ",".join(
            f"{name}={fn}:{_expr_shape(expr, literals)}"
            for name, fn, expr in query.aggregates
        )
    )
    parts.append(
        "ord:"
        + ",".join(
            _expr_shape(expr, literals) + ("-" if descending else "+")
            for expr, descending in query.order_by
        )
    )
    parts.append("h:" + _expr_shape(query.having, literals))
    # LIMIT/OFFSET/DISTINCT are plan structure (LimitNode arguments),
    # not predicate literals — they stay in the shape
    parts.append(f"lim:{query.limit}/{query.offset}/{int(query.distinct)}")
    return ";".join(parts), tuple(literals)


class PlanCache:
    """Caches physical plans keyed on (query shape, literals, stats epoch).

    Two layers, both epoch-guarded and LRU-bounded:

    * **plans** — ``(shape, literals) -> plan``: an exact repeat reuses
      the plan object outright (plans are stateless between executions);
    * **statistics snapshots** — ``shape -> PlannerStats``: a repeat of
      the same shape with *different* literals re-costs against the
      recorded statistics instead of sampling the tables, then caches
      the resulting plan under its own literals.

    The epoch (built by ``QueryEngine._stats_epoch``) covers every involved
    table's ``_version`` mutation counter and index-spec fingerprint
    plus a catalog DDL counter, so any mutation, index DDL, or
    drop/recreate invalidates lazily on the next lookup.  Counters:
    ``hits`` (plan reuse), ``shape_hits`` (snapshot re-plan), ``misses``
    (full plan with sampling), ``invalidations`` (entries discarded for
    a stale epoch).
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = max(1, capacity)
        self._plans: "OrderedDict[Tuple[Any, ...], Tuple[PlanNode, Tuple[Any, ...]]]" = (
            OrderedDict()
        )
        self._snapshots: "OrderedDict[str, Tuple[PlannerStats, Tuple[Any, ...]]]" = (
            OrderedDict()
        )
        self.counters: Dict[str, int] = {
            "hits": 0,
            "shape_hits": 0,
            "misses": 0,
            "invalidations": 0,
        }
        #: outcome of the most recent :meth:`plan` call — EXPLAIN's
        #: cache annotation reads this
        self.last_lookup: str = "miss"

    def plan(
        self, tables: Dict[str, Table], query: Query, epoch: Tuple[Any, ...]
    ) -> PlanNode:
        shape, literals = query_fingerprint(query)
        plan_key = (shape, literals)
        entry = self._plans.get(plan_key)
        if entry is not None:
            plan, plan_epoch = entry
            if plan_epoch == epoch:
                self.counters["hits"] += 1
                self.last_lookup = "hit"
                self._plans.move_to_end(plan_key)
                return plan
            del self._plans[plan_key]
            self.counters["invalidations"] += 1
        stats: Optional[PlannerStats] = None
        snapshot_entry = self._snapshots.get(shape)
        if snapshot_entry is not None:
            snapshot, snapshot_epoch = snapshot_entry
            if snapshot_epoch == epoch:
                stats = snapshot
                self._snapshots.move_to_end(shape)
                self.counters["shape_hits"] += 1
                self.last_lookup = "shape_hit"
            else:
                del self._snapshots[shape]
                if entry is None:
                    # don't double-count a lookup that already counted
                    # its stale plan entry above
                    self.counters["invalidations"] += 1
        if stats is None:
            stats = PlannerStats()
            self.counters["misses"] += 1
            self.last_lookup = "miss"
        plan = plan_query(tables, query, stats=stats)
        self._plans[plan_key] = (plan, epoch)
        self._snapshots[shape] = (stats, epoch)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
        while len(self._snapshots) > self.capacity:
            self._snapshots.popitem(last=False)
        return plan


def _split_predicate_for(
    binding: str, table: Table, predicate: Optional[Expr], qualified: bool = True
) -> Tuple[List[Expr], Optional[Expr]]:
    """Partition conjuncts into those referencing only ``binding``'s
    columns (pushable) and the residual predicate.

    ``qualified=False`` recognizes only bare column names — the DML
    paths evaluate residuals against unqualified row dicts, so a
    ``binding.column`` reference must stay residual (and raise on
    evaluation) exactly as it would without any planner."""
    if predicate is None:
        return [], None
    local: List[Expr] = []
    residual: List[Expr] = []
    known = set(table.schema.column_names)
    if qualified:
        known |= {f"{binding}.{name}" for name in table.schema.column_names}
    for part in conjuncts(predicate):
        if part.columns() and part.columns() <= known:
            local.append(part)
        else:
            residual.append(part)
    residual_expr: Optional[Expr]
    if not residual:
        residual_expr = None
    elif len(residual) == 1:
        residual_expr = residual[0]
    else:
        residual_expr = And(*residual)
    return local, residual_expr


def _strip_alias(name: str, binding: str) -> str:
    prefix = binding + "."
    return name[len(prefix):] if name.startswith(prefix) else name


# ----------------------------------------------------------------------
# Interval analysis
# ----------------------------------------------------------------------


class _Interval:
    """Merged comparison bounds for one column.

    ``low``/``high`` are ``(value, inclusive)`` or ``None`` (open);
    ``sources`` are the conjuncts the merged bounds subsume.  Merging
    incomparable values (mixed-type bounds) marks the interval unusable
    — those conjuncts stay in the filter, where ``Cmp.eval`` defines
    their semantics.
    """

    __slots__ = ("low", "high", "sources", "usable")

    def __init__(self) -> None:
        self.low: Optional[Tuple[Any, bool]] = None
        self.high: Optional[Tuple[Any, bool]] = None
        self.sources: List[Expr] = []
        self.usable = True

    @property
    def bounded(self) -> bool:
        return self.low is not None or self.high is not None

    def tighten(self, op: str, value: Any, source: Expr) -> None:
        if not self.usable:
            return
        inclusive = op in (">=", "<=")
        try:
            if op in (">", ">="):
                if self.low is None or value > self.low[0]:
                    self.low = (value, inclusive)
                elif value == self.low[0]:
                    self.low = (value, self.low[1] and inclusive)
            else:  # "<" or "<="
                if self.high is None or value < self.high[0]:
                    self.high = (value, inclusive)
                elif value == self.high[0]:
                    self.high = (value, self.high[1] and inclusive)
        except TypeError:
            self.usable = False
            return
        self.sources.append(source)


def _analyze_intervals(local: List[Expr], binding: str) -> Dict[str, _Interval]:
    """Merge the local ``< <= > >=`` conjuncts into per-column intervals."""
    intervals: Dict[str, _Interval] = {}
    for part in local:
        bound = column_bound(part)
        if bound is None or bound[1] == "=":
            continue
        column, op, value = bound
        column = _strip_alias(column, binding)
        intervals.setdefault(column, _Interval()).tighten(op, value, part)
    return {column: iv for column, iv in intervals.items() if iv.usable and iv.bounded}


def _point_interval(value: Any, source: Expr) -> _Interval:
    """The degenerate interval ``[value, value]`` (an IN-list member or
    an equality disjunct)."""
    interval = _Interval()
    interval.tighten(">=", value, source)
    interval.tighten("<=", value, source)
    return interval


def _is_point(interval: _Interval) -> bool:
    return (
        interval.low is not None
        and interval.high is not None
        and interval.low == interval.high
        and interval.low[1]
    )


# ----------------------------------------------------------------------
# Disjunction analysis (IN lists, OR-of-sargable-conjuncts)
# ----------------------------------------------------------------------


def _in_list_intervals(
    expr: InList, binding: str
) -> Optional[Tuple[str, List[_Interval]]]:
    """``col IN (...)`` as de-duplicated per-value point intervals."""
    if not isinstance(expr.inner, Col):
        return None
    column = _strip_alias(expr.inner.name, binding)
    seen: set = set()
    intervals: List[_Interval] = []
    for value in expr.options:
        if value is None:
            continue  # ``col = NULL`` matches nothing an index could hold
        try:
            if value in seen:
                continue
            seen.add(value)
        except TypeError:
            return None  # unhashable literal: the IN stays in the filter
        intervals.append(_point_interval(value, expr))
    return column, intervals


def _disjunct_intervals(
    part: Expr, binding: str
) -> Optional[Tuple[str, List[_Interval]]]:
    """One OR disjunct — a sargable conjunction over a single column —
    as ``(column, [intervals])``; ``None`` when not sargable."""
    if isinstance(part, InList):
        return _in_list_intervals(part, binding)
    column: Optional[str] = None
    interval = _Interval()
    for conj in conjuncts(part):
        bound = column_bound(conj)
        if bound is None:
            return None
        name, op, value = bound
        name = _strip_alias(name, binding)
        if column is None:
            column = name
        elif name != column:
            return None
        if op == "=":
            interval.tighten(">=", value, part)
            interval.tighten("<=", value, part)
        else:
            interval.tighten(op, value, part)
    if column is None or not interval.usable or not interval.bounded:
        return None
    return column, [interval]


def _disjunction_intervals(
    expr: Expr, binding: str
) -> Optional[Tuple[str, List[_Interval]]]:
    """Normalize a conjunct into per-disjunct intervals over one column.

    Two shapes qualify: ``col IN (...)`` and a top-level OR whose every
    disjunct is a sargable conjunction (comparison bounds, equalities,
    nested IN lists) over the *same* column — e.g. ``(a > 1 AND a < 5)
    OR a = 9 OR a IN (11, 13)``.  Anything else returns ``None`` and
    stays a filter conjunct.  The interval union is exactly equivalent
    to the predicate for non-NULL column values, which index probes
    require anyway (:func:`_bound_safe`)."""
    if isinstance(expr, InList):
        return _in_list_intervals(expr, binding)
    if not isinstance(expr, Or) or not expr.parts:
        return None
    column: Optional[str] = None
    intervals: List[_Interval] = []
    for part in expr.parts:
        got = _disjunct_intervals(part, binding)
        if got is None:
            return None
        part_column, part_intervals = got
        if column is None:
            column = part_column
        elif part_column != column:
            return None
        intervals.extend(part_intervals)
    if column is None:
        return None
    return column, intervals


_NUMERIC = (ColumnType.INT, ColumnType.REAL)
_TEXTUAL = (ColumnType.TEXT, ColumnType.CHAR)


def _bound_safe(table: Table, column: str, values: Sequence[Any]) -> bool:
    """True when index-probing ``column`` with ``values`` cannot raise.

    Ordered-index bisection compares bound constants against stored
    values, so the column must be NOT NULL (a NULL key would make the
    comparison raise, where the equivalent ``Cmp`` filter is simply
    False) and the constants must live in the column's type family.
    """
    if not table.schema.has_column(column):
        return False
    spec = table.schema.column(column)
    if spec.nullable:
        return False
    if spec.type in _NUMERIC:
        return all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        )
    if spec.type in _TEXTUAL:
        return all(isinstance(v, str) for v in values)
    return False


# ----------------------------------------------------------------------
# Interesting orders
# ----------------------------------------------------------------------


def _order_columns(
    query: Query, binding: str, table: Table
) -> Optional[List[Tuple[str, bool]]]:
    """The ORDER BY as ``(base-table column, descending)`` pairs, or
    ``None`` when it cannot be attributed to the base access path
    (joins, grouping, non-column keys, unknown columns).

    ``SortNode`` runs above the projection, so with explicit outputs an
    ORDER BY key must resolve *through* the projection to a plain base
    column; otherwise elision is refused and the plan keeps the sort —
    including the case where the sort would fail on a projected-away
    column, which must fail identically with or without indexes.
    """
    if not query.order_by or query.joins or query.aggregates or query.group_by:
        return None
    outputs: Optional[Dict[str, Expr]] = None
    if query.outputs is not None:
        outputs = dict(query.outputs)
    spec: List[Tuple[str, bool]] = []
    for expr, descending in query.order_by:
        if not isinstance(expr, Col):
            return None
        if outputs is not None:
            projected = outputs.get(expr.name)
            if not isinstance(projected, Col):
                return None
            expr = projected
        column = _strip_alias(expr.name, binding)
        if not table.schema.has_column(column):
            return None
        spec.append((column, descending))
    return spec


def _trivial_order(
    order_spec: Optional[List[Tuple[str, bool]]], eq_columns: Sequence[str]
) -> bool:
    """Every ORDER BY column pinned to a constant → any row order works."""
    return order_spec is not None and all(c in eq_columns for c, _d in order_spec)


def _match_index_order(
    index_columns: Sequence[str],
    eq_columns: Sequence[str],
    order_spec: Optional[List[Tuple[str, bool]]],
) -> Optional[bool]:
    """Whether a scan of an ordered index satisfies the ORDER BY.

    Equality-bound columns are constant in the output, so they can be
    dropped from both the ORDER BY and the index key.  The remaining
    ORDER BY columns must be a prefix of the remaining index columns
    with one shared direction.  Returns ``None`` (unsatisfiable),
    ``False`` (forward scan), or ``True`` (reverse scan).
    """
    if order_spec is None:
        return None
    keys = [(c, d) for c, d in order_spec if c not in eq_columns]
    if not keys:
        return False
    direction = keys[0][1]
    if any(d != direction for _c, d in keys):
        return None
    available = [c for c in index_columns if c not in eq_columns]
    if [c for c, _d in keys] != available[: len(keys)]:
        return None
    return direction


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
#
# Candidate costs are *estimated rows touched*, not wall time: the
# expected scanned-row count times a per-access-kind factor, plus a
# setup charge per probed range or bucket, plus — when the query has an
# ORDER BY the candidate's output order does not satisfy — an n·log n
# surcharge for the SortNode it would feed.  Selectivities come from
# table statistics (row count; distinct-key counts, exact for hash
# indexes and bounded-sample estimates for ordered ones — see
# ``Table.index_stats``).  The figures only need to *rank* candidates;
# exact ties fall back to the legacy rule priority (eq > prefix > range
# > disjunction > seq) so plans stay deterministic.

_HASH_ROW_COST = 1.0      # per row out of a hash bucket
_ORDERED_ROW_COST = 1.1   # per row off an ordered index (block walk)
_SEQ_ROW_COST = 1.0       # per row of a full heap scan
_PROBE_COST = 1.0         # per probed range/bucket: bisections + setup
_PREFIX_SELECTIVITY = 0.25
#: fraction of rows surviving 0/1/2 comparison bounds on a column
_BOUND_SELECTIVITY = {0: 1.0, 1: 0.4, 2: 0.15}


def _candidate_cost(
    est_rows: float,
    row_cost: float,
    probes: int,
    satisfies_order: bool,
    wants_order: bool,
    total_rows: int,
) -> float:
    est = min(max(est_rows, 0.0), float(total_rows))
    cost = row_cost * est + _PROBE_COST * probes
    if wants_order and not satisfies_order:
        cost += est * log2(est + 2.0)  # the SortNode this plan would feed
    return cost


def _eq_prefix_selectivity(stats: IndexStats, eq_len: int, width: int) -> float:
    """Fraction of rows surviving ``eq_len`` equality-bound leading
    columns of a ``width``-column index: the distinct full keys are
    assumed to spread geometrically over the key columns."""
    if eq_len <= 0:
        return 1.0
    per_column = float(max(1, stats.keys)) ** (1.0 / width)
    return per_column ** -eq_len


@dataclass
class _Candidate:
    """One costed access path: the physical node, the conjuncts it did
    not absorb, and whether its output satisfies the ORDER BY."""

    cost: float
    rank: int  # enumeration order = legacy rule priority, the tie-break
    node: TableScanNode
    leftover: List[Expr]
    ordered: bool
    est: float = 0.0  # estimated rows out of the access path (EXPLAIN)


# ----------------------------------------------------------------------
# Access-path selection
# ----------------------------------------------------------------------


def _key_range(
    prefix: Tuple[Any, ...], width: int, interval: Optional[_Interval]
) -> KeyRange:
    """Convert merged bounds on one column into index-key bounds.

    ``prefix`` carries the equality-bound leading columns and ``width``
    the index's total column count.  The ``MAX_KEY`` padding discipline
    lives in :func:`repro.storage.plan._probe_key_range` (shared with
    the join operator's probe ranges); the one difference is that with
    no equality prefix an unbounded side stays ``None`` (fully open)
    rather than degenerating to an empty-tuple bound.
    """
    low_pair = interval.low if interval is not None else None
    high_pair = interval.high if interval is not None else None
    low, high, include_low, include_high = _probe_key_range(
        prefix, width, low_pair, high_pair
    )
    if not prefix:
        if low_pair is None:
            low = None
        if high_pair is None:
            high = None
    return low, high, include_low, include_high


def _hashable_values(values: Sequence[Any]) -> bool:
    try:
        for value in values:
            hash(value)
    except TypeError:
        return False
    return True


def _choose_access_path(
    table: Table,
    binding: str,
    alias: Optional[str],
    local: List[Expr],
    order_spec: Optional[List[Tuple[str, bool]]] = None,
) -> Tuple[TableScanNode, List[Expr], bool]:
    """Enumerate candidate access paths, cost each, and keep the
    cheapest; returns the access node, leftover conjuncts that must
    still be filtered, and whether the node already yields rows in the
    requested ORDER BY order."""
    eq_bindings: Dict[str, Any] = {}
    eq_sources: Dict[str, Expr] = {}
    for part in local:
        bound = column_bound(part)
        if bound is not None and bound[1] == "=":
            column = _strip_alias(bound[0], binding)
            eq_bindings[column] = bound[2]
            eq_sources[column] = part
    eq_columns = tuple(eq_bindings)
    total_rows = table.row_count
    wants_order = order_spec is not None
    trivially_ordered = _trivial_order(order_spec, eq_columns)
    candidates: List[_Candidate] = []
    rank = 0

    # Statistics are computed lazily and cached per planning call: a
    # query that resolves to a SeqScan or a plain probe never pays the
    # ordered indexes' key-count sampling.
    specs = list(table.index_specs.values())
    stats_cache: Dict[str, IndexStats] = {}

    def stats_of(name: str) -> IndexStats:
        stats = stats_cache.get(name)
        if stats is None:
            stats = stats_cache[name] = _table_index_stats(table, name)
        return stats

    # Distinct-key counts per covered column set: any index over exactly
    # those columns measures their joint selectivity, whichever access
    # path ends up using it.  Falls back to the geometric spread
    # assumption (_eq_prefix_selectivity) for uncovered prefixes.
    distinct_by_columns: Dict[Tuple[str, ...], int] = {}

    def eq_rows(
        columns: Sequence[str], fallback_index: str, width: int, depth: int
    ) -> float:
        """Expected rows matching equality on ``columns``."""
        if not distinct_by_columns:
            for spec in specs:
                key = tuple(sorted(spec.columns))
                keys = stats_of(spec.name).keys
                distinct_by_columns[key] = max(distinct_by_columns.get(key, 0), keys)
        distinct = distinct_by_columns.get(tuple(sorted(columns)))
        if distinct:
            return total_rows / distinct
        return total_rows * _eq_prefix_selectivity(
            stats_of(fallback_index), depth, width
        )

    # Equality candidates: indexes fully covered by equality conjuncts
    # (including the primary-key-backed ones).
    for spec in specs:
        rank += 1
        if not all(column in eq_bindings for column in spec.columns):
            continue
        key = tuple(eq_bindings[column] for column in spec.columns)
        if not _hashable_values(key):
            continue  # an unhashable constant cannot probe a bucket
        if any(value is None for value in key):
            # `col = NULL` is always False under Cmp semantics, but a
            # hash probe with a NULL key would *find* NULL rows — keep
            # the conjunct in the filter instead
            continue
        if spec.ordered and not all(
            _bound_safe(table, column, [eq_bindings[column]])
            for column in spec.columns
        ):
            # ordered lookups bisect: a mixed-type or NULL-adjacent
            # probe would raise where the equivalent filter is False
            continue
        stats = stats_of(spec.name)
        used = {eq_sources[column] for column in spec.columns}
        leftover = [part for part in local if part not in used]
        est = 1.0 if stats.unique else total_rows / max(1, stats.keys)
        row_cost = _ORDERED_ROW_COST if spec.ordered else _HASH_ROW_COST
        cost = _candidate_cost(
            est, row_cost, 1, trivially_ordered, wants_order, total_rows
        )
        candidates.append(
            _Candidate(
                cost,
                rank,
                IndexEqScan(table, spec.name, key, alias),
                leftover,
                trivially_ordered,
                est,
            )
        )

    # Range candidates: three sources of key ranges over an ordered
    # index — a LIKE prefix, one merged interval, a disjunction — each
    # with its own row estimate, feeding one IndexRangeScan builder.
    def add_range(
        rank: int,
        spec_name: str,
        ranges: List[KeyRange],
        used: Iterable[Expr],
        est: float,
        direction: Optional[bool],
    ) -> None:
        satisfied = direction is not None
        cost = _candidate_cost(
            est, _ORDERED_ROW_COST, len(ranges), satisfied, wants_order, total_rows
        )
        node = IndexRangeScan(
            table, spec_name, ranges, alias, reverse=direction is True, presorted=True
        )
        # by identity: the absorbed conjuncts are these objects, and a
        # conjunct holding an unhashable constant must not raise here
        absorbed = {id(part) for part in used}
        leftover = [p for p in local if id(p) not in absorbed]
        candidates.append(_Candidate(cost, rank, node, leftover, satisfied, est))

    # A PrefixMatch on the leading TEXT/CHAR column of an ordered index
    # (the descendant-of pattern) is the range [p, succ(p)).  On any
    # other column the LIKE stays a filter: bisecting a string bound
    # against non-string keys raises.
    for part in local:
        if not isinstance(part, PrefixMatch):
            continue
        column = _strip_alias(part.column.name, binding)
        textual = (
            table.schema.has_column(column)
            and table.schema.column(column).type in _TEXTUAL
        )
        for spec in specs:
            rank += 1
            if not textual or not spec.ordered or spec.columns[0] != column:
                continue
            add_range(
                rank,
                spec.name,
                [prefix_range(part.prefix)],
                [part],
                max(1.0, total_rows * _PREFIX_SELECTIVITY),
                _match_index_order(spec.columns, eq_columns, order_spec),
            )

    # Equality-bound leading columns, then either one merged interval or
    # a disjunction (IN list / OR-of-ranges) on the next column.
    intervals = _analyze_intervals(local, binding)
    disjunctions: List[Tuple[Expr, str, List[_Interval]]] = []
    for part in local:
        got = _disjunction_intervals(part, binding)
        if got is not None:
            disjunctions.append((part, got[0], got[1]))

    for spec in specs:
        if not spec.ordered:
            rank += 2
            continue
        width = len(spec.columns)
        eq_len = 0
        while (
            eq_len < width
            and spec.columns[eq_len] in eq_bindings
            and _bound_safe(
                table, spec.columns[eq_len], [eq_bindings[spec.columns[eq_len]]]
            )
        ):
            eq_len += 1
        # a fully equality-bound index is the eq candidate's business
        eq_len = min(eq_len, width - 1)
        range_column = spec.columns[eq_len]
        prefix = tuple(eq_bindings[c] for c in spec.columns[:eq_len])
        prefix_used = [eq_sources[c] for c in spec.columns[:eq_len]]
        prefix_rows = (
            eq_rows(spec.columns[:eq_len], spec.name, width, eq_len)
            if eq_len
            else float(total_rows)
        )
        direction = _match_index_order(spec.columns, eq_columns, order_spec)

        # one merged interval on the range column
        rank += 1
        interval = intervals.get(range_column)
        if interval is not None:
            bound_values = [pair[0] for pair in (interval.low, interval.high) if pair]
            if not _bound_safe(table, range_column, bound_values):
                interval = None
        if eq_len > 0 or interval is not None or direction is not None:
            fraction: Optional[float] = None
            if interval is not None:
                # histogram-measured bound tightness when available; the
                # fixed per-bound factors remain the fallback
                histogram = _table_histogram(table, range_column)
                if histogram is not None:
                    fraction = histogram.range_fraction(interval.low, interval.high)
            if fraction is None:
                bounds = int(interval is not None and interval.low is not None) + int(
                    interval is not None and interval.high is not None
                )
                fraction = _BOUND_SELECTIVITY[bounds]
            add_range(
                rank,
                spec.name,
                [_key_range(prefix, width, interval)],
                prefix_used + (interval.sources if interval is not None else []),
                prefix_rows * fraction,
                direction,
            )

        # a disjunction on the range column: the multi-range union
        rank += 1
        for part, column, part_intervals in disjunctions:
            if column != range_column:
                continue
            values = [
                pair[0]
                for iv in part_intervals
                for pair in (iv.low, iv.high)
                if pair is not None
            ]
            # checked even with zero intervals: an all-NULL IN list is
            # only "matches nothing" on a NOT NULL column — the filter's
            # Python-`in` semantics make NULL IN (NULL) *true*, so a
            # nullable column must keep the conjunct in the filter
            if not _bound_safe(table, range_column, values):
                continue
            ranges = [_key_range(prefix, width, iv) for iv in part_intervals]
            # the sweep's canonical order: sorted once here, and the node
            # carries presorted=True so executions skip the re-sort.
            # Cannot raise: _bound_safe confined every bound to one type
            # family, and the key handles None lows and MAX_KEY padding.
            ranges.sort(key=_range_start_key)
            point_rows = eq_rows(
                spec.columns[: eq_len + 1], spec.name, width, eq_len + 1
            )
            histogram = _table_histogram(table, range_column)
            est = 0.0
            for iv in part_intervals:
                if _is_point(iv):
                    est += point_rows
                    continue
                fraction = (
                    histogram.range_fraction(iv.low, iv.high)
                    if histogram is not None
                    else None
                )
                if fraction is None:
                    bounds = int(iv.low is not None) + int(iv.high is not None)
                    fraction = _BOUND_SELECTIVITY[bounds]
                est += prefix_rows * fraction
            add_range(rank, spec.name, ranges, prefix_used + [part], est, direction)

    # The fallback everyone competes against.
    rank += 1
    seq_cost = _candidate_cost(
        float(total_rows), _SEQ_ROW_COST, 0, trivially_ordered, wants_order, total_rows
    )
    candidates.append(
        _Candidate(
            seq_cost,
            rank,
            SeqScan(table, alias),
            list(local),
            trivially_ordered,
            float(total_rows),
        )
    )

    best = min(candidates, key=lambda candidate: (candidate.cost, candidate.rank))
    best.node.est_rows = min(max(best.est, 0.0), float(total_rows))  # EXPLAIN estimate
    return best.node, best.leftover, best.ordered


# ----------------------------------------------------------------------
# Join planning
# ----------------------------------------------------------------------
#
# Joins are planned as a *join graph*: each table binding is a node and
# every equality condition between two bindings — whether written in an
# ``ON`` clause (any operand order, multi-conjunct) or as a WHERE
# conjunct — is an edge.  Join order is chosen by cost (dynamic
# programming over subsets up to ``_DP_RELATIONS`` relations, greedy
# smallest-estimated-intermediate beyond), and each step picks its
# physical operator: an ``IndexNestedLoopJoin`` probing the new table's
# index with batched left-side keys, or a ``HashJoinNode`` whose build
# side is the smaller estimated input.  Equi-join selectivity is
# ``1 / max(distinct(left column), distinct(right column))`` with
# distinct counts from per-column equi-depth histograms
# (``Table.column_histogram``).
#
# Reordering and operator substitution must be *invisible* next to the
# naive left-deep oracle — same result multiset, same errors.  The
# checks in ``_reorder_safe`` guarantee that: every join condition must
# attribute each side to exactly one relation (so its value cannot
# depend on evaluation order), shared unqualified column names require
# aliases (so env merging cannot raise for one order and not another),
# and non-equi ON residuals must be shapes whose evaluation cannot
# raise (so deferring them to a different intermediate cannot hide an
# error).  Queries that fail the checks keep the written join order,
# with physical-operator selection still active where it is provably
# equivalent.  ``_plan_joins`` has no other tier; the naive left-deep
# plan (``naive=True``) is the oracle both paths are tested against.


@dataclass
class _Relation:
    """One table binding in the join graph."""

    ref: TableRef
    table: Table
    local: List[Expr]
    est: float = 0.0  # estimated rows after local predicates

    @property
    def binding(self) -> str:
        return self.ref.binding


@dataclass
class _JoinCondition:
    """A JoinSpec, normalized: binding-attributed equality pairs plus
    any non-equi residual, for the relation at index ``right``."""

    right: int
    pairs: List[Tuple[Expr, Expr]]
    residual: Optional[Expr]


@dataclass
class _Pair:
    """One equality condition at a join step: ``left`` evaluates on the
    accumulated side, ``right`` on the newly joined relation."""

    left: Expr
    right: Expr
    left_owner: Optional[int]  # unique owning relation, when attributable
    right_col: Optional[str]   # unqualified column on the joined table


@dataclass
class _InljPlan:
    """A costed IndexNestedLoopJoin candidate for one join step."""

    index_name: str
    left_exprs: Tuple[Expr, ...]
    uncovered: List[_Pair]
    residual: Optional[Expr]
    tail_low: Optional[Tuple[Any, bool]]
    tail_high: Optional[Tuple[Any, bool]]
    cost: float


@dataclass
class _StepPlan:
    """The chosen physical operator for one join step."""

    op: str  # "inlj" | "hash" | "nlj"
    cost: float
    out: float
    pairs: List[_Pair]
    inlj: Optional[_InljPlan] = None
    build_left: bool = False


#: exhaustive DP join ordering up to this many relations; greedy beyond
_DP_RELATIONS = 4
_HASH_BUILD_COST = 1.5  # per build-side row: materialize + hash insert


def _and_all(parts: Sequence[Expr]) -> Optional[Expr]:
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def _owners(name: str, relations: Sequence[_Relation]) -> List[int]:
    """Relations where a ``Col(name)`` reference resolves *at runtime*:
    unqualified names exist in every relation whose table has the
    column; qualified ``a.c`` only where ``a`` is the relation's alias
    (environments carry qualified keys only for aliased tables)."""
    if "." in name:
        qualifier, column = name.split(".", 1)
        return [
            index
            for index, rel in enumerate(relations)
            if rel.ref.alias == qualifier and rel.table.schema.has_column(column)
        ]
    return [
        index
        for index, rel in enumerate(relations)
        if rel.table.schema.has_column(name)
    ]


def _resolves_on(name: str, rel: _Relation) -> Optional[str]:
    """The unqualified column of ``rel`` that ``Col(name)`` reads, or
    ``None`` when the reference does not resolve on this relation."""
    if "." in name:
        qualifier, column = name.split(".", 1)
        if rel.ref.alias == qualifier and rel.table.schema.has_column(column):
            return column
        return None
    return name if rel.table.schema.has_column(name) else None


def _unique_owner(expr: Expr, relations: Sequence[_Relation]) -> Optional[int]:
    if not isinstance(expr, Col):
        return None
    owners = _owners(expr.name, relations)
    return owners[0] if len(owners) == 1 else None


def _normalize_condition(
    spec: JoinSpec, right_index: int, relations: Sequence[_Relation]
) -> _JoinCondition:
    """Normalize a JoinSpec's equality pairs by binding: a pair written
    ``ON b.x = a.x`` (new table first) is swapped so the left expression
    references prior bindings and the right the joined table.  Sides
    that stay ambiguous or unresolvable keep their written order, which
    preserves the legacy behavior (including its errors) exactly."""
    pairs: List[Tuple[Expr, Expr]] = []
    for left, right in spec.pairs:
        if isinstance(left, Col) and isinstance(right, Col):
            left_owners = _owners(left.name, relations)
            right_owners = _owners(right.name, relations)
            if (
                left_owners == [right_index]
                and right_owners
                and right_index not in right_owners
            ):
                left, right = right, left
        pairs.append((left, right))
    return _JoinCondition(right_index, pairs, spec.residual)


_FAMILY_OF_TYPE = {
    ColumnType.INT: "n",
    ColumnType.REAL: "n",
    ColumnType.TEXT: "s",
    ColumnType.CHAR: "s",
}


def _type_family(column_type: ColumnType) -> Optional[str]:
    return _FAMILY_OF_TYPE.get(column_type)


def _value_family(value: Any) -> Optional[str]:
    if value is None:
        return "null"  # comparisons with NULL are False, never raising
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return "n"
    if isinstance(value, str):
        return "s"
    return None


def _shape_safe(part: Expr, family_of) -> bool:
    """Whether evaluating ``part`` can be deferred to a different row
    set than the oracle evaluates it on: True only when evaluation can
    never raise (columns pre-checked resolvable by the caller;
    ``family_of`` maps a column name to its type family).  Equality and
    membership use ``==`` (total in Python); ordering comparisons are
    safe only within one type family."""
    if isinstance(part, (And, Or)):
        return all(_shape_safe(inner, family_of) for inner in part.parts)
    if isinstance(part, Not):
        return _shape_safe(part.inner, family_of)
    if isinstance(part, (IsNull, InList)):
        return isinstance(part.inner, Col)
    if isinstance(part, PrefixMatch):
        return True
    if isinstance(part, Cmp):
        if part.op in ("=", "!="):
            return isinstance(part.left, (Col, Const)) and isinstance(
                part.right, (Col, Const)
            )
        families = set()
        for side in (part.left, part.right):
            if isinstance(side, Col):
                family = family_of(side.name)
            elif isinstance(side, Const):
                family = _value_family(side.value)
                if family == "null":
                    continue
            else:
                return False
            if family is None:
                return False
            families.add(family)
        return len(families) <= 1
    return False


def _eval_safe(rel: _Relation, part: Expr) -> bool:
    """Whether ``part`` (a local conjunct of ``rel``) can be evaluated
    lazily on probed rows instead of on every row of the relation, as
    IndexNestedLoopJoin residuals are."""
    columns = part.columns()
    if any(_resolves_on(name, rel) is None for name in columns):
        return False

    def family_of(name: str) -> Optional[str]:
        column = _resolves_on(name, rel)
        assert column is not None
        return _type_family(rel.table.schema.column(column).type)

    return _shape_safe(part, family_of)


def _cross_safe(part: Expr, relations: Sequence[_Relation], step: int) -> bool:
    """Whether an ON residual can move to a different join step under
    reordering: every column must have exactly one owner no later than
    the condition's own step (so its value is order-independent and the
    oracle could evaluate it), and the shape must be non-raising."""
    owner_of: Dict[str, int] = {}
    for name in part.columns():
        owners = _owners(name, relations)
        if len(owners) != 1 or owners[0] > step:
            return False
        owner_of[name] = owners[0]

    def family_of(name: str) -> Optional[str]:
        rel = relations[owner_of[name]]
        column = _resolves_on(name, rel)
        assert column is not None
        return _type_family(rel.table.schema.column(column).type)

    return _shape_safe(part, family_of)


def _shared_names(relations: Sequence[_Relation]) -> Dict[str, List[int]]:
    shared: Dict[str, List[int]] = {}
    for index, rel in enumerate(relations):
        for name in rel.table.schema.column_names:
            shared.setdefault(name, []).append(index)
    return {name: owners for name, owners in shared.items() if len(owners) > 1}


def _shared_names_order_free(
    relations: Sequence[_Relation],
    edges: Sequence[Tuple[int, int, Expr, Expr]],
) -> bool:
    """Whether every shared unqualified column name yields the same
    merged value under any join order.

    A name owned by several relations is shadowed in the merged
    environment by whichever side merged first, so reordering may only
    proceed when the shadowing cannot matter: for each shared name, the
    owning relations must be connected by equality edges equating *that
    very column* (same declared type, so equal values are also
    indistinguishable values) — then every owner agrees on the value in
    every output row, whatever the order.  The provenance workload's
    ``p JOIN t ON p.tid = t.tid`` is exactly this shape."""
    for name, owners in _shared_names(relations).items():
        adjacency: Dict[int, set] = {index: set() for index in owners}
        column_type = None
        types_match = True
        for index in owners:
            owner_type = relations[index].table.schema.column(name).type
            if column_type is None:
                column_type = owner_type
            elif owner_type is not column_type:
                types_match = False
        if not types_match:
            return False
        for a, b, a_expr, b_expr in edges:
            if a not in adjacency or b not in adjacency:
                continue
            if not (isinstance(a_expr, Col) and isinstance(b_expr, Col)):
                continue
            if (
                _resolves_on(a_expr.name, relations[a]) == name
                and _resolves_on(b_expr.name, relations[b]) == name
            ):
                adjacency[a].add(b)
                adjacency[b].add(a)
        seen = {owners[0]}
        frontier = [owners[0]]
        while frontier:
            for peer in adjacency[frontier.pop()]:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        if seen != set(owners):
            return False
    return True


def _reorder_safe(
    relations: Sequence[_Relation], conditions: Sequence[_JoinCondition]
) -> bool:
    """Whether join-order enumeration is provably invisible (see the
    section comment).  False falls back to the written order.  A second
    gate, :func:`_shared_names_order_free`, runs once the full edge set
    (including WHERE-implied edges) is known."""
    for owners in _shared_names(relations).values():
        if any(relations[index].ref.alias is None for index in owners):
            return False  # unaliased shared names: merge behavior is order-sensitive
    for condition in conditions:
        if not condition.pairs:
            return False  # non-equi-only joins keep their written place
        for left, right in condition.pairs:
            left_owner = _unique_owner(left, relations)
            right_owner = _unique_owner(right, relations)
            if (
                left_owner is None
                or right_owner != condition.right
                or left_owner >= condition.right
            ):
                return False
        if condition.residual is not None:
            for part in conjuncts(condition.residual):
                if not _cross_safe(part, relations, condition.right):
                    return False
    return True


# ---- statistics ------------------------------------------------------


def _column_distinct(table: Table, column: str) -> float:
    """Estimated distinct values of one column: histogram first, an
    index over exactly that column second, square-root heuristic last."""
    histogram = _table_histogram(table, column)
    if histogram is not None:
        return float(histogram.distinct)
    for spec in table.index_specs.values():
        if spec.columns == (column,):
            return float(max(1, _table_index_stats(table, spec.name).keys))
    return max(1.0, float(table.row_count) ** 0.5)


def _conjunct_selectivity(table: Table, binding: str, part: Expr) -> float:
    """Fraction of a relation's rows expected to survive one local
    conjunct — only has to rank join orders, not be right."""
    bound = column_bound(part)
    if bound is not None:
        column = _strip_alias(bound[0], binding)
        if not table.schema.has_column(column):
            return 1.0
        if bound[1] == "=":
            return min(1.0, 1.0 / _column_distinct(table, column))
        histogram = _table_histogram(table, column)
        if histogram is not None:
            pair = (bound[2], bound[1] in (">=", "<="))
            fraction = histogram.range_fraction(
                pair if bound[1] in (">", ">=") else None,
                pair if bound[1] in ("<", "<=") else None,
            )
            if fraction is not None:
                return fraction
        return _BOUND_SELECTIVITY[1]
    if isinstance(part, InList) and isinstance(part.inner, Col):
        column = _strip_alias(part.inner.name, binding)
        if table.schema.has_column(column):
            return min(1.0, len(part.options) / _column_distinct(table, column))
        return 0.5
    if isinstance(part, PrefixMatch):
        return _PREFIX_SELECTIVITY
    if isinstance(part, IsNull):
        return 0.9 if part.negated else 0.1
    return 0.5


def _estimate_relation_rows(table: Table, binding: str, local: List[Expr]) -> float:
    rows = float(table.row_count)
    selectivity = 1.0
    for part in local:
        selectivity *= _conjunct_selectivity(table, binding, part)
    return min(rows, max(rows * selectivity, 0.0))


def _pair_distinct(relations: Sequence[_Relation], pair: _Pair, right: int) -> float:
    d_right = (
        _column_distinct(relations[right].table, pair.right_col)
        if pair.right_col is not None
        else 1.0
    )
    d_left = d_right
    if pair.left_owner is not None and isinstance(pair.left, Col):
        column = _resolves_on(pair.left.name, relations[pair.left_owner])
        if column is not None:
            d_left = _column_distinct(relations[pair.left_owner].table, column)
    return max(d_left, d_right)


# ---- physical operator selection per join step -----------------------


def _ordered_probe_safe(
    relations: Sequence[_Relation],
    placed: Sequence[int],
    pair: _Pair,
    table: Table,
    column: str,
) -> bool:
    """Whether probing an *ordered* index column with this pair's left
    values can never raise: the index column NOT NULL and orderable,
    and every relation the left side could read from agreeing on the
    type family (probe values bisect against stored keys)."""
    column_spec = table.schema.column(column)
    if column_spec.nullable:
        return False
    family = _type_family(column_spec.type)
    if family is None:
        return False
    if not isinstance(pair.left, Col):
        return False
    owners = (
        [pair.left_owner]
        if pair.left_owner is not None
        else [
            index
            for index in placed
            if _resolves_on(pair.left.name, relations[index]) is not None
        ]
    )
    if not owners:
        return False
    for index in owners:
        left_column = _resolves_on(pair.left.name, relations[index])
        if left_column is None:
            return False
        left_family = _type_family(relations[index].table.schema.column(left_column).type)
        if left_family != family:
            return False
    return True


def _pair_filter_safe(
    pair: _Pair, relations: Sequence[_Relation], placed: Sequence[int], right: int
) -> bool:
    """Whether an uncovered pair may be checked as an equality filter
    above the join: both sides must resolve to exactly one relation (so
    the merged environment cannot shadow either side)."""
    left_owner = _unique_owner(pair.left, relations)
    right_owner = _unique_owner(pair.right, relations)
    return left_owner in placed and right_owner == right


def _best_inlj(
    relations: Sequence[_Relation],
    placed: Sequence[int],
    placed_est: float,
    right: int,
    pairs: List[_Pair],
) -> Optional[_InljPlan]:
    """The cheapest IndexNestedLoopJoin candidate for this step, or
    ``None`` when no index of the joined table can serve the equality
    pairs safely (see the safety helpers above — the local conjuncts it
    would defer must be non-raising, probe families must match, and
    uncovered pairs must be filterable without ambiguity)."""
    rel = relations[right]
    table = rel.table
    if not pairs:
        return None
    if not all(_eval_safe(rel, part) for part in rel.local):
        return None
    by_col: Dict[str, _Pair] = {}
    for pair in pairs:
        if pair.right_col is not None and pair.right_col not in by_col:
            by_col[pair.right_col] = pair
    if not by_col:
        return None
    rows = float(table.row_count)
    intervals = _analyze_intervals(rel.local, rel.binding)
    best: Optional[_InljPlan] = None
    for name, spec in table.index_specs.items():
        tail_low: Optional[Tuple[Any, bool]] = None
        tail_high: Optional[Tuple[Any, bool]] = None
        tail_sources: set = set()
        fraction = 1.0
        if spec.ordered:
            eq_len = 0
            while eq_len < len(spec.columns):
                pair = by_col.get(spec.columns[eq_len])
                if pair is None or not _ordered_probe_safe(
                    relations, placed, pair, table, spec.columns[eq_len]
                ):
                    break
                eq_len += 1
            if eq_len == 0:
                continue
            covered = [by_col[column] for column in spec.columns[:eq_len]]
            if eq_len < len(spec.columns):
                interval = intervals.get(spec.columns[eq_len])
                if interval is not None:
                    values = [p[0] for p in (interval.low, interval.high) if p]
                    if _bound_safe(table, spec.columns[eq_len], values):
                        tail_low, tail_high = interval.low, interval.high
                        tail_sources = set(map(id, interval.sources))
                        histogram = _table_histogram(table, spec.columns[eq_len])
                        tail_fraction = (
                            histogram.range_fraction(tail_low, tail_high)
                            if histogram is not None
                            else None
                        )
                        if tail_fraction is None:
                            tail_fraction = _BOUND_SELECTIVITY[
                                int(tail_low is not None) + int(tail_high is not None)
                            ]
                        fraction = tail_fraction
            row_cost = _ORDERED_ROW_COST
        else:
            if not all(column in by_col for column in spec.columns):
                continue
            covered = [by_col[column] for column in spec.columns]
            row_cost = _HASH_ROW_COST
        covered_ids = {id(pair) for pair in covered}
        uncovered = [pair for pair in pairs if id(pair) not in covered_ids]
        if any(
            not _pair_filter_safe(pair, relations, placed, right) for pair in uncovered
        ):
            continue
        selectivity = 1.0
        for pair in covered:
            selectivity /= max(_pair_distinct(relations, pair, right), 1.0)
        fetched = placed_est * rows * selectivity * fraction
        cost = placed_est * (1.0 + _PROBE_COST) + fetched * row_cost
        if best is None or cost < best.cost:
            residual = _and_all(
                [part for part in rel.local if id(part) not in tail_sources]
            )
            left_exprs = tuple(pair.left for pair in covered)
            best = _InljPlan(
                name, left_exprs, uncovered, residual, tail_low, tail_high, cost
            )
    return best


def _plan_join_step(
    relations: Sequence[_Relation],
    placed: Sequence[int],
    placed_est: float,
    right: int,
    pairs: List[_Pair],
) -> _StepPlan:
    """Cost the physical alternatives for joining ``right`` into the
    accumulated plan and keep the cheapest."""
    rel = relations[right]
    if not pairs:
        out = placed_est * rel.est * 0.5
        return _StepPlan("nlj", placed_est * max(rel.est, 1.0), out, pairs)
    selectivity = 1.0
    for pair in pairs:
        selectivity /= max(_pair_distinct(relations, pair, right), 1.0)
    out = placed_est * rel.est * selectivity
    build = min(placed_est, rel.est)
    probe = max(placed_est, rel.est)
    hash_cost = _HASH_BUILD_COST * build + probe + out
    # Swapping the build side also swaps which input is *evaluated*
    # first; that is only invisible when the right side's filters
    # cannot raise (else the oracle, which always builds right first,
    # could surface a different error type).
    build_left = placed_est < rel.est and all(
        _eval_safe(rel, part) for part in rel.local
    )
    step = _StepPlan("hash", hash_cost, out, pairs, build_left=build_left)
    inlj = _best_inlj(relations, placed, placed_est, right, pairs)
    if inlj is not None and inlj.cost < hash_cost:
        step = _StepPlan("inlj", inlj.cost, out, pairs, inlj=inlj)
    return step


# ---- join-order enumeration ------------------------------------------


def _pairs_between(
    relations: Sequence[_Relation],
    placed: Sequence[int],
    right: int,
    edges: Sequence[Tuple[int, int, Expr, Expr]],
) -> List[_Pair]:
    placed_set = set(placed)
    pairs: List[_Pair] = []
    for a, b, a_expr, b_expr in edges:
        if b == right and a in placed_set:
            left, right_expr, owner = a_expr, b_expr, a
        elif a == right and b in placed_set:
            left, right_expr, owner = b_expr, a_expr, b
        else:
            continue
        right_col = (
            _resolves_on(right_expr.name, relations[right])
            if isinstance(right_expr, Col)
            else None
        )
        pairs.append(_Pair(left, right_expr, owner, right_col))
    return pairs


def _enumerate_join_order(
    relations: Sequence[_Relation], edges: Sequence[Tuple[int, int, Expr, Expr]]
) -> List[int]:
    """Pick a left-deep join order: exhaustive DP over subsets for small
    queries, greedy smallest-estimated-intermediate beyond.  The edge
    set is connected (every ON clause links its table to an earlier
    one), so cross products never arise."""
    n = len(relations)

    def connects(mask: int, j: int) -> bool:
        return any(
            (a == j and (mask >> b) & 1) or (b == j and (mask >> a) & 1)
            for a, b, _ae, _be in edges
        )

    if n <= _DP_RELATIONS:
        best: Dict[int, Tuple[float, float, Tuple[int, ...]]] = {
            1 << i: (relations[i].est, relations[i].est, (i,)) for i in range(n)
        }
        full = (1 << n) - 1
        for mask in range(1, full):
            entry = best.get(mask)
            if entry is None:
                continue
            cost, est, order = entry
            for j in range(n):
                if (mask >> j) & 1 or not connects(mask, j):
                    continue
                pairs = _pairs_between(relations, order, j, edges)
                step = _plan_join_step(relations, order, est, j, pairs)
                candidate = (cost + step.cost, step.out, order + (j,))
                key = mask | (1 << j)
                existing = best.get(key)
                if existing is None or (candidate[0], candidate[2]) < (
                    existing[0],
                    existing[2],
                ):
                    best[key] = candidate
        return list(best[full][2])

    start = min(range(n), key=lambda i: (relations[i].est, i))
    order = [start]
    mask = 1 << start
    est = relations[start].est
    while len(order) < n:
        chosen: Optional[Tuple[float, float, int]] = None
        for j in range(n):
            if (mask >> j) & 1 or not connects(mask, j):
                continue
            pairs = _pairs_between(relations, order, j, edges)
            step = _plan_join_step(relations, order, est, j, pairs)
            key = (step.out, step.cost, j)
            if chosen is None or key < chosen:
                chosen = key
        assert chosen is not None  # the graph is connected by construction
        order.append(chosen[2])
        mask |= 1 << chosen[2]
        est = chosen[0]
    return order


# ---- plan assembly ---------------------------------------------------


def _access_with_filter(rel: _Relation) -> Tuple[PlanNode, bool]:
    node, leftover, _order = _choose_access_path(
        rel.table, rel.binding, rel.ref.alias, rel.local
    )
    result: PlanNode = node
    if leftover:
        result = FilterNode(result, _and_all(leftover))
    return result, not leftover


def _assemble_joins(
    relations: Sequence[_Relation],
    first: int,
    steps: Sequence[Tuple[int, List[_Pair], List[Expr], Optional[Expr]]],
) -> PlanNode:
    """Build the physical join tree: ``steps`` lists, per join, the new
    relation, its equality pairs, the filters to apply once the join's
    bindings are all present, and (for pair-less steps) the nested-loop
    predicate."""
    node, _clean = _access_with_filter(relations[first])
    placed: List[int] = [first]
    placed_est = relations[first].est
    for right, pairs, post_filters, nlj_predicate in steps:
        rel = relations[right]
        step = _plan_join_step(relations, placed, placed_est, right, pairs)
        if step.op == "inlj":
            plan = step.inlj
            assert plan is not None
            node = IndexNestedLoopJoin(
                node,
                rel.table,
                plan.index_name,
                plan.left_exprs,
                rel.ref.alias,
                plan.residual,
                plan.tail_low,
                plan.tail_high,
            )
            node.est_rows = step.out
            for pair in plan.uncovered:
                node = FilterNode(node, Cmp("=", pair.left, pair.right))
        elif step.op == "hash":
            right_node, _clean = _access_with_filter(rel)
            node = HashJoinNode(
                node,
                right_node,
                tuple(pair.left for pair in pairs),
                tuple(pair.right for pair in pairs),
                build_left=step.build_left,
            )
            node.est_rows = step.out
        else:
            right_node, _clean = _access_with_filter(rel)
            node = NestedLoopJoinNode(node, right_node, nlj_predicate)
            node.est_rows = step.out
        for part in post_filters:
            node = FilterNode(node, part)
        placed.append(right)
        placed_est = step.out
    return node


def _plan_joins(
    relations: List[_Relation],
    conditions: List[_JoinCondition],
    residual: Optional[Expr],
) -> Tuple[PlanNode, Optional[Expr]]:
    """The cost-based join path; returns the join tree and whatever
    WHERE residual was not absorbed as join edges."""
    for rel in relations:
        rel.est = _estimate_relation_rows(rel.table, rel.binding, rel.local)

    if _reorder_safe(relations, conditions):
        edges: List[Tuple[int, int, Expr, Expr]] = []
        on_filters: List[Tuple[frozenset, Expr]] = []
        for condition in conditions:
            for left, right in condition.pairs:
                owner = _unique_owner(left, relations)
                assert owner is not None  # _reorder_safe checked
                edges.append((owner, condition.right, left, right))
            if condition.residual is not None:
                for part in conjuncts(condition.residual):
                    owners = frozenset(
                        _owners(name, relations)[0] for name in part.columns()
                    )
                    on_filters.append((owners or frozenset({condition.right}), part))
        # WHERE-implied edges: cross-binding equality conjuncts with
        # uniquely attributable sides join the graph
        residual_parts: List[Expr] = []
        for part in conjuncts(residual) if residual is not None else ():
            if (
                isinstance(part, Cmp)
                and part.op == "="
                and isinstance(part.left, Col)
                and isinstance(part.right, Col)
            ):
                left_owner = _unique_owner(part.left, relations)
                right_owner = _unique_owner(part.right, relations)
                if (
                    left_owner is not None
                    and right_owner is not None
                    and left_owner != right_owner
                ):
                    a, b = sorted((left_owner, right_owner))
                    if left_owner == a:
                        edges.append((a, b, part.left, part.right))
                    else:
                        edges.append((a, b, part.right, part.left))
                    continue
            residual_parts.append(part)

        if _shared_names_order_free(relations, edges):
            residual = _and_all(residual_parts)
            order = _enumerate_join_order(relations, edges)
            steps: List[Tuple[int, List[_Pair], List[Expr], Optional[Expr]]] = []
            placed: List[int] = [order[0]]
            pending = list(on_filters)
            for right in order[1:]:
                pairs = _pairs_between(relations, placed, right, edges)
                placed.append(right)
                available = set(placed)
                ready = [part for owners, part in pending if owners <= available]
                pending = [
                    (owners, part)
                    for owners, part in pending
                    if not owners <= available
                ]
                steps.append((right, pairs, ready, None))
            return _assemble_joins(relations, order[0], steps), residual

    # Written order, physical selection still on where provably safe.
    steps = []
    for condition in conditions:
        rel = relations[condition.right]
        pairs = [
            _Pair(
                left,
                right,
                _unique_owner(left, relations),
                _resolves_on(right.name, rel) if isinstance(right, Col) else None,
            )
            for left, right in condition.pairs
        ]
        if pairs:
            post = list(conjuncts(condition.residual)) if condition.residual else []
            steps.append((condition.right, pairs, post, None))
        else:
            steps.append((condition.right, pairs, [], condition.residual))
    return _assemble_joins(relations, 0, steps), residual


def _reducible_joins(
    query: Query,
    relations: Sequence[_Relation],
    conditions: Sequence[_JoinCondition],
    residual: Optional[Expr],
) -> Dict[int, _JoinCondition]:
    """Relations a DISTINCT query can *semi-join-reduce*, keyed by
    relation index, each with its equality pairs oriented ``(kept side,
    reduced side)``.

    Under ``SELECT DISTINCT`` a joined relation that contributes nothing
    downstream — no output, ORDER BY, or WHERE-residual reference, no
    other join edge through its binding — only multiplies row
    multiplicity, and DISTINCT erases multiplicity.  An existence check
    (:class:`~repro.storage.plan.HashSemiJoinNode`) is therefore
    set-equivalent to the full join, skips the reduced relation's
    environment merging entirely, and never re-inflates the DISTINCT
    input.  Checks are conservative by column *resolution*: a name that
    could resolve on the reduced relation at runtime counts as a
    reference, so ambiguous unqualified columns disqualify."""
    if not query.distinct or query.outputs is None:
        return {}
    if query.aggregates or query.group_by or query.having is not None:
        return {}

    def resolvers(exprs: Iterable[Expr]) -> Set[int]:
        touched: Set[int] = set()
        for expr in exprs:
            for name in expr.columns():
                touched.update(_owners(name, relations))
        return touched

    downstream: List[Expr] = [expr for _name, expr in query.outputs]
    downstream.extend(expr for expr, _asc in query.order_by)
    if residual is not None:
        downstream.append(residual)
    outside = resolvers(downstream)

    reduced: Dict[int, _JoinCondition] = {}
    for condition in conditions:
        idx = condition.right
        if idx in outside or condition.residual is not None or not condition.pairs:
            continue
        oriented: List[Tuple[Expr, Expr]] = []
        for left, right in condition.pairs:
            if not (isinstance(left, Col) and isinstance(right, Col)):
                break
            left_owners = _owners(left.name, relations)
            right_owners = _owners(right.name, relations)
            if right_owners == [idx] and left_owners and idx not in left_owners:
                oriented.append((left, right))
            elif left_owners == [idx] and right_owners and idx not in right_owners:
                oriented.append((right, left))
            else:
                break
        else:
            other_exprs: List[Expr] = []
            for other in conditions:
                if other.right == idx:
                    continue
                other_exprs.extend(expr for pair in other.pairs for expr in pair)
                if other.residual is not None:
                    other_exprs.append(other.residual)
            if idx not in resolvers(other_exprs):
                reduced[idx] = _JoinCondition(idx, oriented, None)

    # A reduced relation's kept-side keys must evaluate on the surviving
    # join tree: drop candidates keyed through another reduced relation.
    changed = True
    while changed:
        changed = False
        for idx, condition in list(reduced.items()):
            for kept_expr, _reduced_expr in condition.pairs:
                owners = set(_owners(kept_expr.name, relations))  # type: ignore[union-attr]
                if owners & (reduced.keys() - {idx}):
                    del reduced[idx]
                    changed = True
                    break
    return reduced


def _naive_join_plan(
    relations: Sequence[_Relation], conditions: Sequence[_JoinCondition]
) -> PlanNode:
    """The forced seq-scan/hash-join oracle: written order, SeqScan per
    table with its local filter, one hash join (or nested loop, for
    pair-less joins) per step."""
    first = relations[0]
    node: PlanNode = SeqScan(first.table, first.ref.alias)
    if first.local:
        node = FilterNode(node, _and_all(first.local))
    for condition in conditions:
        rel = relations[condition.right]
        right_node: PlanNode = SeqScan(rel.table, rel.ref.alias)
        if rel.local:
            right_node = FilterNode(right_node, _and_all(rel.local))
        if condition.pairs:
            node = HashJoinNode(
                node,
                right_node,
                tuple(left for left, _right in condition.pairs),
                tuple(right for _left, right in condition.pairs),
            )
            if condition.residual is not None:
                node = FilterNode(node, condition.residual)
        else:
            node = NestedLoopJoinNode(node, right_node, condition.residual)
    return node


# ----------------------------------------------------------------------
# Query compilation
# ----------------------------------------------------------------------


def plan_query(
    tables: Dict[str, Table],
    query: Query,
    *,
    naive: bool = False,
    stats: Optional[PlannerStats] = None,
) -> PlanNode:
    """Compile a logical query to a physical plan.

    ``naive=True`` disables every planner rule: each table access is a
    forced ``SeqScan`` with all pushable conjuncts in ``FilterNode``s,
    joins stay left-deep hash joins in written order, and ORDER BY is
    always realized by a ``SortNode`` — the seed planner's behavior,
    kept as the oracle for differential plan-equivalence testing and
    the baseline for planner benchmarks.

    ``stats`` (a :class:`PlannerStats`) records — or, when already
    populated for this query's shape, replays — every index-stats and
    histogram consultation: the plan cache's zero-sampling re-planning
    path.  ``None`` consults the tables directly (the default,
    unchanged behavior).
    """
    global _ACTIVE_STATS
    previous = _ACTIVE_STATS
    _ACTIVE_STATS = None if naive else stats
    try:
        return _plan_query_impl(tables, query, naive=naive)
    finally:
        _ACTIVE_STATS = previous


def _plan_query_impl(
    tables: Dict[str, Table], query: Query, *, naive: bool = False
) -> PlanNode:
    def get_table(ref: TableRef) -> Table:
        try:
            return tables[ref.name]
        except KeyError:
            raise UnknownTableError(f"unknown table {ref.name!r}") from None

    base_table = get_table(query.table)
    local, residual = _split_predicate_for(query.table.binding, base_table, query.where)
    if not query.joins:
        order_satisfied = False
        if naive:
            node: PlanNode = SeqScan(base_table, query.table.alias)
            leftover = local
        else:
            order_spec = _order_columns(query, query.table.binding, base_table)
            node, leftover, order_satisfied = _choose_access_path(
                base_table, query.table.binding, query.table.alias, local, order_spec
            )
        if leftover:
            node = FilterNode(node, And(*leftover) if len(leftover) > 1 else leftover[0])
    else:
        order_satisfied = False
        relations = [_Relation(query.table, base_table, local)]
        for join in query.joins:
            right_table = get_table(join.table)
            right_local, residual = _split_predicate_for(
                join.table.binding, right_table, residual
            )
            relations.append(_Relation(join.table, right_table, right_local))
        conditions = [
            _normalize_condition(spec, index + 1, relations)
            for index, spec in enumerate(query.joins)
        ]
        if naive:
            node = _naive_join_plan(relations, conditions)
        else:
            reduced = _reducible_joins(query, relations, conditions, residual)
            if reduced:
                keep = [i for i in range(len(relations)) if i not in reduced]
                remap = {old: new for new, old in enumerate(keep)}
                kept_relations = [relations[i] for i in keep]
                kept_conditions = [
                    _JoinCondition(remap[cond.right], cond.pairs, cond.residual)
                    for cond in conditions
                    if cond.right not in reduced
                ]
                if kept_conditions:
                    node, residual = _plan_joins(
                        kept_relations, kept_conditions, residual
                    )
                else:
                    node, _clean = _access_with_filter(kept_relations[0])
                for idx in sorted(reduced):
                    condition = reduced[idx]
                    right_node, _clean = _access_with_filter(relations[idx])
                    node = HashSemiJoinNode(
                        node,
                        right_node,
                        tuple(kept for kept, _red in condition.pairs),
                        tuple(red for _kept, red in condition.pairs),
                    )
            else:
                node, residual = _plan_joins(relations, conditions, residual)

    if residual is not None:
        node = FilterNode(node, residual)

    if query.aggregates or query.group_by:
        node = AggregateNode(node, query.group_by, query.aggregates)
        if query.having is not None:
            # HAVING filters *groups*: it runs over aggregate outputs
            node = FilterNode(node, query.having)
    elif query.outputs is not None:
        node = ProjectNode(node, query.outputs)

    if query.distinct:
        node = DistinctNode(node)
    if query.order_by and not order_satisfied:
        node = SortNode(node, query.order_by)
    if query.limit is not None or query.offset:
        node = LimitNode(node, query.limit, query.offset)
    return node


def plan_mutation(
    table: Table, predicate: Optional[Expr], *, naive: bool = False
) -> Tuple[TableScanNode, Optional[Expr]]:
    """Compile a DML predicate to an access path plus residual filter.

    The planner's entry point for ``QueryEngine.delete_where`` /
    ``update_where``: victim enumeration runs the returned node's
    ``rows()`` stream of ``(rowid, row)`` pairs — probing the same
    indexes a SELECT with this WHERE clause would — and applies the
    residual predicate (the conjuncts the access path did not absorb)
    to each row.  Only unqualified column references are plannable:
    residuals evaluate against plain row dicts, so a ``t.col``
    reference fails during evaluation exactly as it does on the naive
    path, with or without indexes.  ``naive=True`` forces the
    full-scan + filter-everything oracle used by the differential DML
    tests.
    """
    binding = table.schema.name
    local, residual = _split_predicate_for(binding, table, predicate, qualified=False)
    if naive:
        node: TableScanNode = SeqScan(table)
        leftover: List[Expr] = local
    else:
        node, leftover, _order = _choose_access_path(table, binding, None, local)
    parts = list(leftover)
    if residual is not None:
        parts.extend(conjuncts(residual))
    if not parts:
        combined: Optional[Expr] = None
    elif len(parts) == 1:
        combined = parts[0]
    else:
        combined = And(*parts)
    return node, combined


def mutation_victims(
    table: Table, predicate: Optional[Expr], *, naive: bool = False
) -> List[int]:
    """The row ids a DML statement with ``predicate`` affects, found
    through :func:`plan_mutation`'s access path and residual filter.
    Materialized before any mutation so index scans never observe
    their own statement's writes."""
    node, residual = plan_mutation(table, predicate, naive=naive)
    if residual is None:
        return [rowid for rowid, _row in node.rows()]
    as_dict = table.schema.row_as_dict
    return [rowid for rowid, row in node.rows() if residual.eval(as_dict(row))]


# ----------------------------------------------------------------------
# The query layer's entry over one storage-kernel Database
# ----------------------------------------------------------------------


class QueryEngine:
    """Planning, the plan cache, EXPLAIN, SQL and predicate DML over one
    storage-kernel :class:`~repro.storage.db.Database` (rows,
    transactions, rowid DML, the WAL), which knows nothing of plans.

    Owns the :class:`PlanCache` and its stats epoch;
    ``plan_cache_size=0`` disables caching (every ``plan`` call re-plans
    with live statistics, the benchmark baseline).  Its statement
    surface is the one :class:`~repro.storage.mvcc.MVCCTransaction` has,
    so :func:`repro.storage.sql.execute_sql` serves both.
    """

    def __init__(self, db: Database, *, plan_cache_size: int = 128) -> None:
        self.db = db
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(plan_cache_size) if plan_cache_size > 0 else None
        )

    # the kernel calls a SQL statement makes
    def table(self, name: str) -> Table:
        return self.db.table(name)

    def create_table(self, schema: TableSchema) -> Table:
        return self.db.create_table(schema)

    def drop_table(self, name: str) -> None:
        self.db.drop_table(name)

    def insert_many(
        self, table_name: str, rows: Sequence["Sequence[Any] | Dict[str, Any]"]
    ) -> List[int]:
        return self.db.insert_many(table_name, rows)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def cached_plan(
        self,
        tables: Dict[str, Table],
        query: Query,
        epoch: Callable[[], Tuple[Any, ...]],
    ) -> PlanNode:
        """Plan ``query`` over ``tables`` through the plan cache: the one
        cached-planning path.  :meth:`plan` passes the live tables with
        :meth:`_stats_epoch`, an MVCC transaction its snapshot's tables
        with a snapshot epoch; ``epoch`` is called only when caching is
        on.  An exact repeat (same shape, literals and epoch) returns
        the cached plan; a same-shape repeat with new literals re-costs
        against the cached statistics snapshot without sampling."""
        if self.plan_cache is None:
            return plan_query(tables, query)
        return self.plan_cache.plan(tables, query, epoch())

    def _stats_epoch(self, query: Query) -> Tuple[Any, ...]:
        """The plan-cache epoch for every table ``query`` touches:
        the kernel's catalog version plus, per table, its ``_version``
        mutation counter and index-spec fingerprint.  Any insert,
        delete, update, ``create_index``, or drop/recreate moves some
        component, so stale cache entries can never match."""
        names = {query.table.name}
        names.update(join.table.name for join in query.joins)
        parts: List[Tuple[Any, ...]] = []
        for name in sorted(names):
            table = self.db.table(name)
            fingerprint = tuple(sorted(table.index_specs.items()))
            parts.append((name, table._version, fingerprint))
        return (self.db._ddl_epoch, tuple(parts))

    def plan(self, query: Query, *, naive: bool = False) -> PlanNode:
        """The physical plan for ``query``; ``naive=True`` forces the
        rule-free SeqScan+Sort oracle plan (differential testing), which
        bypasses the cache."""
        if naive:
            return plan_query(self.db.tables, query, naive=True)
        return self.cached_plan(self.db.tables, query, lambda: self._stats_epoch(query))

    def plan_mutation(
        self, table_name: str, predicate: Optional[Expr] = None, *, naive: bool = False
    ) -> Tuple[TableScanNode, Optional[Expr]]:
        """The access path + residual filter ``delete_where`` /
        ``update_where`` would use for ``predicate``: EXPLAIN-style
        inspection for planned DML (see :func:`plan_mutation`)."""
        return plan_mutation(self.db.table(table_name), predicate, naive=naive)

    def explain(
        self,
        query: Query,
        *,
        naive: bool = False,
        estimates: bool = False,
        cache_status: bool = False,
    ) -> str:
        """EXPLAIN: the plan for ``query`` rendered as indented text.

        ``estimates=True`` appends the planner's estimated row count to
        every access path and join operator (``est_rows=N``) — the
        figures the cost model ranked candidates and join orders by, so
        a surprising plan can be traced to the estimate that caused it.
        ``cache_status=True`` prefixes a ``plan cache: hit|shape_hit|
        miss`` line reporting how this very call resolved.  The default
        output matches :func:`repro.storage.plan.explain` exactly
        (snapshot-stable across estimator changes).
        """
        rendered = explain_plan(self.plan(query, naive=naive), estimates=estimates)
        if cache_status and not naive and self.plan_cache is not None:
            rendered = f"plan cache: {self.plan_cache.last_lookup}\n{rendered}"
        return rendered

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> List[Dict[str, Any]]:
        return list(self.plan(query).execute())

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse a SQL statement once for repeated execution.

        ``?`` placeholders mark bind positions; each ``execute(params)``
        substitutes values and runs through the plan cache, so repeated
        executions skip parsing entirely and planning re-samples no
        table statistics (same shape ⇒ cached stats snapshot; same
        values ⇒ the whole cached plan).
        """
        from .sql import PreparedStatement  # deferred: sql.py imports this module

        return PreparedStatement(self, sql)

    def delete_where(
        self, table_name: str, predicate: Optional[Expr] = None, *, naive: bool = False
    ) -> int:
        """Delete matching rows; returns the count.

        Victims are enumerated through the planner
        (:func:`mutation_victims`): an indexable predicate probes the
        same access paths a SELECT with this WHERE clause would — IN
        lists ride the multi-range union — instead of paying a raw full
        scan.  ``naive=True`` forces the full-scan oracle (the
        differential DML tests).  The kernel's
        :meth:`~repro.storage.db.Database.delete_rowids` then deletes
        them as one atomic statement.
        """
        victims = mutation_victims(self.db.table(table_name), predicate, naive=naive)
        return len(self.db.delete_rowids(table_name, victims))

    def update_where(
        self,
        table_name: str,
        changes: Dict[str, Any],
        predicate: Optional[Expr] = None,
        *,
        naive: bool = False,
    ) -> int:
        """Update matching rows (modeled as delete+insert in the WAL).

        Victim enumeration is planner-routed exactly like
        :meth:`delete_where`; the kernel's
        :meth:`~repro.storage.db.Database.update_rowids` applies the
        changes atomically: a failure leaves the transaction — and, for
        implicit transactions, the table — exactly as before the call.
        """
        victims = mutation_victims(self.db.table(table_name), predicate, naive=naive)
        return len(self.db.update_rowids(table_name, victims, changes))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """The kernel's per-table figures plus the plan cache's counters
        under the reserved ``"plan_cache"`` key (hits / shape_hits /
        misses / invalidations; all zero when caching is disabled)."""
        out = self.db.stats()
        out["plan_cache"] = (
            dict(self.plan_cache.counters)
            if self.plan_cache is not None
            else {"hits": 0, "shape_hits": 0, "misses": 0, "invalidations": 0}
        )
        return out
