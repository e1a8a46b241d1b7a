"""Physical query plan operators (iterator model).

Each operator yields *environments* (dicts from column name to value) so
that joins can merge bindings from several tables; qualified output uses
``alias.column`` keys when an alias is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import AmbiguousColumnError
from .expr import Col, Expr, compile_expr
from .index import MAX_KEY, KeyRange
from .table import Table

__all__ = [
    "PlanNode",
    "TableScanNode",
    "SeqScan",
    "IndexEqScan",
    "IndexRangeScan",
    "ValuesNode",
    "FilterNode",
    "ProjectNode",
    "HashJoinNode",
    "HashSemiJoinNode",
    "IndexNestedLoopJoin",
    "NestedLoopJoinNode",
    "SortNode",
    "LimitNode",
    "AggregateNode",
    "DistinctNode",
    "explain",
]

Env = Dict[str, Any]

def _env_from_row(table: Table, row: Tuple[Any, ...], alias: Optional[str]) -> Env:
    names = table.schema.column_names
    env = dict(zip(names, row))
    if alias:
        for name, value in zip(names, row):
            env[f"{alias}.{name}"] = value
    return env


class PlanNode:
    """Base class for physical operators.

    One execution surface: :meth:`execute` streams the operator's
    environments row at a time.  The scan → filter → project spine
    builds them in generator expressions (no per-row method dispatch),
    so a LIMIT above it stops pulling rows at the cutoff.
    """

    def execute(self) -> Iterator[Env]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def children(self) -> Sequence["PlanNode"]:
        return ()


class TableScanNode(PlanNode):
    """Base of every table access path.

    Subclasses implement :meth:`rows` — ``(rowid, row)`` pairs straight
    off the table — and inherit :meth:`execute`.  Keeping the row-id
    stream public lets DML (``QueryEngine.delete_where`` /
    ``update_where``) enumerate victims through the same planned access
    paths a SELECT would use instead of a raw heap scan.
    """

    table: Table
    alias: Optional[str]

    def rows(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        raise NotImplementedError

    def execute(self) -> Iterator[Env]:
        names = self.table.schema.column_names
        alias = self.alias
        if alias is None:
            return (dict(zip(names, row)) for _rowid, row in self.rows())
        names += tuple(f"{alias}.{name}" for name in names)
        return (dict(zip(names, row + row)) for _rowid, row in self.rows())


@dataclass
class SeqScan(TableScanNode):
    table: Table
    alias: Optional[str] = None

    def rows(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        return self.table.scan()

    def describe(self) -> str:
        return f"SeqScan({self.table.schema.name})"


@dataclass
class IndexEqScan(TableScanNode):
    table: Table
    index_name: str
    key: Tuple[Any, ...]
    alias: Optional[str] = None

    def rows(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        return self.table.lookup_index(self.index_name, self.key)

    def describe(self) -> str:
        return f"IndexEqScan({self.table.schema.name}.{self.index_name} = {self.key!r})"


def _bracketed(
    low: Any, high: Any, include_low: bool, include_high: bool
) -> str:
    low_bracket = "[" if include_low else "("
    high_bracket = "]" if include_high else ")"
    return f"{low_bracket}{low!r}, {high!r}{high_bracket}"


@dataclass
class IndexRangeScan(TableScanNode):
    """Sorted, de-duplicated union of key ranges over one ordered index
    — every ordered-index access path the planner builds.

    The planner writes merged comparison bounds (``k >= lo AND k <
    hi``, equality-bound leading columns, an open scan that only serves
    an ORDER BY) as one range, ``col LIKE 'p%'`` as the half-open
    :func:`~repro.storage.index.prefix_range`, and ``col IN (...)`` or
    an OR-of-sargable-conjuncts as one range per disjunct.
    :meth:`Table.multi_range_scan` streams the union in one pass, in
    global ``(key, rowid)`` order (descending with ``reverse``), each
    row exactly once even when ranges overlap — so an ORDER BY on the
    index key needs no sort.

    ``presorted`` promises ``ranges`` is already in the union sweep's
    canonical order (``repro.storage.index._range_start_key``); the
    planner sorts once at plan time and sets it so each execution skips
    the re-sort.  Hand-built nodes should leave it False.
    """

    table: Table
    index_name: str
    ranges: List[KeyRange] = field(default_factory=list)
    alias: Optional[str] = None
    reverse: bool = False
    presorted: bool = False

    def rows(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        return self.table.multi_range_scan(
            self.index_name, self.ranges, self.reverse, self.presorted
        )

    def describe(self) -> str:
        direction = " desc" if self.reverse else ""
        rendered = " ∪ ".join(_bracketed(*key_range) for key_range in self.ranges)
        return (
            f"IndexRangeScan({self.table.schema.name}.{self.index_name} in "
            f"{rendered}{direction})"
        )


@dataclass
class ValuesNode(PlanNode):
    """A literal relation: a fixed list of environments.

    The driver side of planner-external joins — e.g. the provenance
    store's batched location probes join a values list of locations
    against the ``(loc, tid)`` index via :class:`IndexNestedLoopJoin`.
    """

    values: List[Env]

    def execute(self) -> Iterator[Env]:
        return iter(self.values)

    def describe(self) -> str:
        return f"Values({len(self.values)} rows)"


@dataclass
class FilterNode(PlanNode):
    """Residual predicate over the child's rows.

    The predicate is compiled into a specialized closure once, at plan
    construction (so a cached plan pays it once across all executions).
    """

    child: PlanNode
    predicate: Expr

    def __post_init__(self) -> None:
        self._compiled = compile_expr(self.predicate)

    def execute(self) -> Iterator[Env]:
        predicate = self._compiled
        return (env for env in self.child.execute() if predicate(env))

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


@dataclass
class ProjectNode(PlanNode):
    """Projection; output expressions are compiled once per plan, like
    :class:`FilterNode`'s predicate."""

    child: PlanNode
    outputs: List[Tuple[str, Expr]]  # (output name, expression)

    def __post_init__(self) -> None:
        self._compiled = [(name, compile_expr(expr)) for name, expr in self.outputs]

    def execute(self) -> Iterator[Env]:
        compiled = self._compiled
        return ({name: fn(env) for name, fn in compiled} for env in self.child.execute())

    def describe(self) -> str:
        return "Project(" + ", ".join(name for name, _ in self.outputs) + ")"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


class _EnvMerger:
    """Merges a left and right environment into one join output row.

    The merged dict keeps every key from both sides, the left value
    winning on collision — *except* that a colliding unqualified column
    whose two sides disagree and that no alias can disambiguate raises
    :class:`~repro.storage.errors.AmbiguousColumnError` (the engine used
    to silently prefer the left row, turning a shared column name on an
    unaliased join into wrong answers).  When both sides also carry a
    qualified (``alias.column``) variant of the name, the collision is
    resolvable by qualification and the legacy left-wins merge stands.

    One instance per join execution: the key sets of each side are fixed
    for a given plan, so the colliding-key analysis runs once, on the
    first pair, and every later merge only compares those values.
    """

    __slots__ = ("_checked",)

    def __init__(self) -> None:
        self._checked: Optional[Tuple[str, ...]] = None

    def merge(self, left_env: Env, right_env: Env) -> Env:
        checked = self._checked
        if checked is None:
            checked = self._checked = self._conflict_keys(left_env, right_env)
        for key in checked:
            if left_env[key] != right_env[key]:
                raise AmbiguousColumnError(
                    f"column {key!r} is ambiguous across joined tables "
                    f"(values {left_env[key]!r} and {right_env[key]!r}); "
                    f"alias the tables and qualify the reference"
                )
        merged = dict(right_env)
        merged.update(left_env)
        return merged

    @staticmethod
    def _conflict_keys(left_env: Env, right_env: Env) -> Tuple[str, ...]:
        checked = []
        for key in left_env:
            if "." in key or key not in right_env:
                continue
            dotted = "." + key
            if any(k.endswith(dotted) for k in left_env) and any(
                k.endswith(dotted) for k in right_env
            ):
                continue  # both sides reachable via alias qualification
            checked.append(key)
        return tuple(checked)


JoinKey = Union[Expr, Tuple[Expr, ...]]


def _as_exprs(key: JoinKey) -> Tuple[Expr, ...]:
    if isinstance(key, Expr):
        return (key,)
    return tuple(key)


def _compile_key(key: JoinKey) -> Callable[[Env], Optional[Tuple[Any, ...]]]:
    """The per-row closure a join evaluates its probe/build key
    through — ``None`` when any component is NULL, which never
    equi-joins (``Cmp`` semantics)."""
    fns = [compile_expr(expr) for expr in _as_exprs(key)]
    if len(fns) == 1:
        fn = fns[0]

        def single(env: Env) -> Optional[Tuple[Any, ...]]:
            value = fn(env)
            return None if value is None else (value,)

        return single

    def key_fn(env: Env) -> Optional[Tuple[Any, ...]]:
        values = []
        for fn in fns:
            value = fn(env)
            if value is None:
                return None
            values.append(value)
        return tuple(values)

    return key_fn


def _render_key(key: JoinKey) -> str:
    exprs = _as_exprs(key)
    if len(exprs) == 1:
        return repr(exprs[0])
    return "(" + ", ".join(repr(expr) for expr in exprs) + ")"


@dataclass
class HashJoinNode(PlanNode):
    """Equi-join: build a hash table on one input, probe with the other.

    ``left_key``/``right_key`` are single expressions or equal-length
    tuples (multi-conjunct ``ON a.x = b.x AND a.y = b.y`` joins hash the
    composite key).  ``build_left`` selects the build side: the default
    builds on the right input (the legacy shape); the planner sets it
    when the left side's estimated cardinality is smaller, so the
    materialized hash table is always the cheaper input while the
    larger one streams.  Output environments are identical either way
    (left values win qualified-resolvable collisions; disagreeing
    unresolvable ones raise — see :class:`_EnvMerger`).
    """

    left: PlanNode
    right: PlanNode
    left_key: JoinKey
    right_key: JoinKey
    build_left: bool = False

    def __post_init__(self) -> None:
        self._left_key_fn = _compile_key(self.left_key)
        self._right_key_fn = _compile_key(self.right_key)

    def execute(self) -> Iterator[Env]:
        left_key_fn = self._left_key_fn
        right_key_fn = self._right_key_fn
        merger = _EnvMerger()
        buckets: Dict[Tuple[Any, ...], List[Env]] = {}
        if self.build_left:
            for env in self.left.execute():
                key = left_key_fn(env)
                if key is not None:
                    buckets.setdefault(key, []).append(env)
            for right_env in self.right.execute():
                key = right_key_fn(right_env)
                if key is None:
                    continue
                for left_env in buckets.get(key, ()):
                    yield merger.merge(left_env, right_env)
        else:
            for env in self.right.execute():
                key = right_key_fn(env)
                if key is not None:
                    buckets.setdefault(key, []).append(env)
            for left_env in self.left.execute():
                key = left_key_fn(left_env)
                if key is None:
                    continue
                for right_env in buckets.get(key, ()):
                    yield merger.merge(left_env, right_env)

    def describe(self) -> str:
        build = ", build=left" if self.build_left else ""
        return f"HashJoin({_render_key(self.left_key)} = {_render_key(self.right_key)}{build})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


@dataclass
class HashSemiJoinNode(PlanNode):
    """Equi-semi-join: emit each left row at most once if the right
    input has at least one key match.

    The semi-join reduction for ``DISTINCT`` over a join: when the
    reduced relation contributes nothing to the output (no output,
    ORDER BY, or residual reference) and no later join edge needs its
    bindings, DISTINCT makes join multiplicity invisible, so an
    existence check is set-equivalent to the full join.  The right
    input collapses to a key *set* (no environment lists, no
    :class:`_EnvMerger` work) and left rows stream through unduplicated
    — the downstream :class:`DistinctNode` sees exactly the left row
    set, in left order.
    """

    left: PlanNode
    right: PlanNode
    left_key: JoinKey
    right_key: JoinKey

    def __post_init__(self) -> None:
        self._left_key_fn = _compile_key(self.left_key)
        self._right_key_fn = _compile_key(self.right_key)

    def execute(self) -> Iterator[Env]:
        right_key_fn = self._right_key_fn
        keys = set()
        for env in self.right.execute():
            key = right_key_fn(env)
            if key is not None:
                keys.add(key)
        left_key_fn = self._left_key_fn
        for env in self.left.execute():
            if left_key_fn(env) in keys:
                yield env

    def describe(self) -> str:
        return (
            f"HashSemiJoin({_render_key(self.left_key)} = "
            f"{_render_key(self.right_key)})"
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


def _probe_key_range(
    prefix: Tuple[Any, ...],
    width: int,
    low: Optional[Tuple[Any, bool]],
    high: Optional[Tuple[Any, bool]],
) -> KeyRange:
    """Key bounds for one probe: ``prefix`` pins the index's leading
    columns, ``low``/``high`` optionally bound the next column.  Same
    padding discipline as the planner's ``_key_range``: a short tuple
    sorts before its extensions, so inclusive-high and exclusive-low
    bounds are padded with ``MAX_KEY``."""
    eq_len = len(prefix)
    extra = max(0, width - eq_len - 1)
    include_low = include_high = True
    if low is not None:
        value, inclusive = low
        if inclusive:
            low_key = prefix + (value,)
        else:
            low_key, include_low = prefix + (value,) + (MAX_KEY,) * extra, False
    else:
        low_key = prefix
    if high is not None:
        value, inclusive = high
        if inclusive:
            high_key = prefix + (value,) + (MAX_KEY,) * extra
        else:
            high_key, include_high = prefix + (value,), False
    else:
        high_key = prefix + (MAX_KEY,) * (width - eq_len)
    return low_key, high_key, include_low, include_high


#: left rows per IndexNestedLoopJoin probe batch: large enough that the
#: per-batch multi-range sweep amortizes its setup, small enough that a
#: streaming left side is not fully materialized.
INLJ_CHUNK = 256


@dataclass
class IndexNestedLoopJoin(PlanNode):
    """Equi-join that probes an index of the right table with keys from
    the left input, instead of materializing the right side.

    Left rows are batched into chunks of ``chunk`` rows (at least 1).
    Per chunk, the distinct non-NULL probe keys are evaluated once; on
    an *ordered* index they become one presorted
    :meth:`Table.multi_range_scan` — a single sweep over the index per
    chunk, the same machinery behind ``IN`` lists — while a hash index
    takes one equality probe per distinct key.  ``left_exprs`` supply
    values for the index's leading columns; ``tail_low``/``tail_high``
    optionally push a static interval on the next index column into
    every probe range (a time-travel ``tid <= bound`` window, say).
    ``residual`` is a right-table-only predicate applied to probed rows
    before merging.

    Each probe batch increments ``table.access_counts["inlj_probe"]``,
    so tests can assert how many batches a planner join issued.
    """

    left: PlanNode
    table: Table
    index_name: str
    left_exprs: Tuple[Expr, ...]
    alias: Optional[str] = None
    residual: Optional[Expr] = None
    tail_low: Optional[Tuple[Any, bool]] = None
    tail_high: Optional[Tuple[Any, bool]] = None
    chunk: int = INLJ_CHUNK

    def __post_init__(self) -> None:
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        self._key_fn = _compile_key(self.left_exprs)
        self._residual_fn = (
            compile_expr(self.residual) if self.residual is not None else None
        )

    def execute(self) -> Iterator[Env]:
        spec = self.table.index_specs[self.index_name]
        width = len(spec.columns)
        eq_len = len(self.left_exprs)
        table, alias = self.table, self.alias
        key_fn, residual = self._key_fn, self._residual_fn
        lead_positions = tuple(
            table.schema.column_index(column) for column in spec.columns[:eq_len]
        )
        merger = _EnvMerger()
        left_iter = self.left.execute()
        while True:
            batch = list(islice(left_iter, self.chunk))
            if not batch:
                return
            groups: Dict[Tuple[Any, ...], List[Env]] = {}
            for env in batch:
                key = key_fn(env)
                if key is not None:
                    groups.setdefault(key, []).append(env)
            if groups:
                table.access_counts["inlj_probe"] += 1
                if spec.ordered:
                    # one presorted multi-range sweep for the whole chunk
                    ranges = [
                        _probe_key_range(key, width, self.tail_low, self.tail_high)
                        for key in sorted(groups)
                    ]
                    for _rowid, row in table.multi_range_scan(
                        self.index_name, ranges, presorted=True
                    ):
                        right_env = _env_from_row(table, row, alias)
                        if residual is not None and not residual(right_env):
                            continue
                        probe_key = tuple(row[p] for p in lead_positions)
                        for left_env in groups.get(probe_key, ()):
                            yield merger.merge(left_env, right_env)
                else:
                    for key, envs in groups.items():
                        for _rowid, row in table.lookup_index(self.index_name, key):
                            right_env = _env_from_row(table, row, alias)
                            if residual is not None and not residual(right_env):
                                continue
                            for left_env in envs:
                                yield merger.merge(left_env, right_env)

    def describe(self) -> str:
        probes = ", ".join(repr(expr) for expr in self.left_exprs)
        extras = []
        if self.tail_low is not None or self.tail_high is not None:
            low = self.tail_low[0] if self.tail_low else None
            high = self.tail_high[0] if self.tail_high else None
            extras.append(f"tail in [{low!r}, {high!r}]")
        if self.residual is not None:
            extras.append(f"filter {self.residual!r}")
        tail = (", " + ", ".join(extras)) if extras else ""
        return (
            f"IndexNestedLoopJoin({self.table.schema.name}.{self.index_name}"
            f" <- ({probes}){tail})"
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.left,)


@dataclass
class NestedLoopJoinNode(PlanNode):
    """General join with an arbitrary predicate — the physical operator
    non-equi join conditions fall back to (an ``ON`` clause with no
    usable equality pair cannot hash or probe)."""

    left: PlanNode
    right: PlanNode
    predicate: Optional[Expr] = None

    def __post_init__(self) -> None:
        self._predicate_fn = (
            compile_expr(self.predicate) if self.predicate is not None else None
        )

    def execute(self) -> Iterator[Env]:
        merger = _EnvMerger()
        predicate = self._predicate_fn
        right_rows = list(self.right.execute())
        for left_env in self.left.execute():
            for right_env in right_rows:
                merged = merger.merge(left_env, right_env)
                if predicate is None or predicate(merged):
                    yield merged

    def describe(self) -> str:
        return f"NestedLoopJoin({self.predicate!r})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


@dataclass
class SortNode(PlanNode):
    child: PlanNode
    keys: List[Tuple[Expr, bool]]  # (expression, descending)

    def __post_init__(self) -> None:
        self._compiled = [
            (compile_expr(expr), descending) for expr, descending in self.keys
        ]

    def execute(self) -> Iterator[Env]:
        rows = list(self.child.execute())

        # Stable multi-key sort: apply keys right-to-left.
        for key_fn, descending in reversed(self._compiled):
            rows.sort(
                key=lambda env, fn=key_fn: _null_safe_key(fn(env)),
                reverse=descending,
            )
        return iter(rows)

    def describe(self) -> str:
        return f"Sort({len(self.keys)} keys)"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


def _null_safe_key(value: Any) -> Tuple[int, Any]:
    """NULLs sort first; mixed types sort by type name then value."""
    if value is None:
        return (0, "", "")
    return (1, type(value).__name__, value)


def _hashable_key(value: Any) -> Any:
    """A hashable, type-discriminating stand-in for ``value``.

    Built on :func:`_null_safe_key` so NULL is distinct from every real
    value and ``0``/``False``/``0.0`` (equal and hash-equal in Python)
    stay distinct across types.  Unhashable containers are converted
    structurally; anything else falls back to its ``repr``.
    """
    marker, type_name, value = _null_safe_key(value)
    try:
        hash(value)
    except TypeError:
        if isinstance(value, (list, tuple)):
            value = tuple(_hashable_key(part) for part in value)
        elif isinstance(value, (set, frozenset)):
            value = frozenset(_hashable_key(part) for part in value)
        elif isinstance(value, dict):
            value = tuple(
                sorted((repr(k), _hashable_key(v)) for k, v in value.items())
            )
        else:
            value = repr(value)
    return (marker, type_name, value)


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: Optional[int]
    offset: int = 0

    def execute(self) -> Iterator[Env]:
        produced = 0
        for count, env in enumerate(self.child.execute()):
            if count < self.offset:
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield env

    def describe(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": lambda values: len(values),
    "sum": lambda values: sum(values) if values else 0,
    "avg": lambda values: (sum(values) / len(values)) if values else None,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
}


@dataclass
class AggregateNode(PlanNode):
    """Hash aggregation with optional GROUP BY.

    ``aggregates`` maps output names to ``(function, expression)``;
    ``expression`` may be ``None`` for ``count(*)``.
    """

    child: PlanNode
    group_by: List[Tuple[str, Expr]]
    aggregates: List[Tuple[str, str, Optional[Expr]]]

    def __post_init__(self) -> None:
        self._group_fns = [compile_expr(expr) for _name, expr in self.group_by]
        self._agg_fns = [
            (name, function, compile_expr(expr) if expr is not None else None)
            for name, function, expr in self.aggregates
        ]

    def execute(self) -> Iterator[Env]:
        group_fns = self._group_fns
        groups: Dict[Tuple[Any, ...], List[Env]] = {}
        for env in self.child.execute():
            key = tuple(fn(env) for fn in group_fns)
            groups.setdefault(key, []).append(env)
        if not self.group_by and not groups:
            groups[()] = []
        for key, rows in groups.items():
            out: Env = {name: part for (name, _expr), part in zip(self.group_by, key)}
            for out_name, function, fn in self._agg_fns:
                if function not in _AGGREGATES:
                    raise ValueError(f"unknown aggregate {function!r}")
                if fn is None:
                    values: List[Any] = [1] * len(rows)
                else:
                    values = [v for v in (fn(env) for env in rows) if v is not None]
                out[out_name] = _AGGREGATES[function](values)
            yield out

    def describe(self) -> str:
        names = ", ".join(name for name, _f, _e in self.aggregates)
        return f"Aggregate({names})"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode

    def execute(self) -> Iterator[Env]:
        seen = set()
        for env in self.child.execute():
            key = tuple(
                (name, _hashable_key(env[name])) for name in sorted(env)
            )
            if key not in seen:
                seen.add(key)
                yield env

    def describe(self) -> str:
        return "Distinct"

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


def explain(node: PlanNode, indent: int = 0, estimates: bool = False) -> str:
    """Render a plan tree as indented text (for tests and debugging).

    ``estimates=True`` appends the planner's estimated row count to
    every node that carries one (the planner annotates access paths and
    join operators with ``est_rows``); the default output is unchanged,
    so plan snapshots stay stable across estimator tweaks.
    """
    line = "  " * indent + node.describe()
    est = getattr(node, "est_rows", None)
    if estimates and est is not None:
        line += f"  (est_rows={est:.0f})"
    lines = [line]
    for child in node.children():
        lines.append(explain(child, indent + 1, estimates))
    return "\n".join(lines)
