"""Differential plan-equivalence testing for the query planner.

Every planner rule (index selection, interval merging, sort elision,
reverse scans) must be *result-equivalent* to the rule-free plan — the
Codd's-theorem-flavored argument that a smarter evaluation strategy may
not change the answer.  Hypothesis draws random schemas (index subsets),
data, and ``Query`` objects covering ranges, equalities, prefixes,
ORDER BY, LIMIT/OFFSET, and DISTINCT; each query runs twice:

* through ``plan_query`` with all rules enabled, and
* through the oracle ``plan_query(..., naive=True)`` — a forced
  ``SeqScan`` + ``FilterNode`` + ``SortNode`` pipeline;

then the result multisets must be identical, and when the query has an
ORDER BY the planner's output must additionally *be* in that order.
LIMIT/OFFSET windows are only comparable under a total order, so the
strategy forces those queries to ORDER BY a permutation of every column
(identical sorted sequences → identical windows).

The example budget is profile-driven so CI runs a fixed, bounded,
derandomized pass: ``REPRO_HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage import AmbiguousColumnError, ConstraintError, Database
from repro.storage.expr import And, Cmp, Col, Const, InList, Or, PrefixMatch
from repro.storage.plan import (
    IndexMultiRangeScan,
    IndexRangeScan,
    PlanNode,
    SortNode,
    _hashable_key,
    _null_safe_key,
    explain,
)
from repro.storage.query import JoinSpec, Query, QueryEngine, TableRef, plan_query
from repro.storage.schema import Column, IndexSpec, TableSchema
from repro.storage.types import ColumnType

# ----------------------------------------------------------------------
# Profiles: CI runs a fixed derandomized budget (bounded wall time);
# local runs keep the default randomized search.
# ----------------------------------------------------------------------

_PROFILES = {
    "default": {"max_examples": 80, "deadline": None},
    "ci": {"max_examples": 200, "deadline": None, "derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)

COLUMNS = ("a", "b", "s", "x")
S_VALUES = ["a", "ab", "ab/c", "ab/d", "b", "b/x", "c", "c/d", "cd"]
S_PREFIXES = ["", "a", "ab", "ab/", "b", "c/", "z"]

_INDEX_POOL = [
    IndexSpec("ix_a_hash", ("a",)),
    IndexSpec("ix_a", ("a",), ordered=True),
    IndexSpec("ix_s", ("s",), ordered=True),
    IndexSpec("ix_ab", ("a", "b"), ordered=True),
    IndexSpec("ix_sa", ("s", "a"), ordered=True),
    # hash on the nullable column: NULL-key probes must never serve
    # `x = NULL` / `x IN (NULL)`, whose filter semantics match nothing
    IndexSpec("ix_x_hash", ("x",)),
    # ordered on the nullable column: rows with x IS NULL are *rejected*
    # with a typed ConstraintError (NULL keys have no total order), so
    # the generators insert through _insert_tolerant below
    IndexSpec("ix_x", ("x",), ordered=True),
]

_small_ints = st.integers(min_value=0, max_value=7)


def _schema(indexes: Tuple[IndexSpec, ...]) -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("a", ColumnType.INT, nullable=False),
            Column("b", ColumnType.INT, nullable=False),
            Column("s", ColumnType.TEXT, nullable=False),
            Column("x", ColumnType.INT),  # nullable; hash- or ordered-indexed
        ],
        indexes=indexes,
    )


def _insert_tolerant(table, row: Tuple[Any, ...]) -> None:
    """Insert a generated row; an ordered index on the nullable column
    rejects NULL keys with a typed error and must leave no phantom state
    behind, so later inserts (and every query) still work."""
    try:
        table.insert(row)
    except ConstraintError:
        assert row[3] is None and "ix_x" in table.index_specs


@st.composite
def databases(draw) -> Database:
    indexes = tuple(
        spec for spec in _INDEX_POOL if draw(st.booleans())
    )
    rows = draw(
        st.lists(
            st.tuples(
                _small_ints,
                _small_ints,
                st.sampled_from(S_VALUES),
                st.one_of(st.none(), _small_ints),
            ),
            max_size=30,
        )
    )
    db = Database("diff")
    table = db.create_table(_schema(indexes))
    for row in rows:
        _insert_tolerant(table, row)
    return db


def _const_strategy(column: str):
    if column == "s":
        return st.sampled_from(S_VALUES + ["ab/cc", "0", "zz"])
    return st.integers(min_value=-1, max_value=8)


def _mixed_const_strategy(column: str):
    """Mostly family-typed constants, occasionally the other family or
    NULL — the planner must keep mixed-type IN members out of index
    probes, and NULL members out of probes on nullable columns (where
    the filter's Python-``in`` makes ``NULL IN (NULL)`` true)."""
    return st.one_of(
        _const_strategy(column),
        _const_strategy(column),
        _const_strategy(column),
        st.sampled_from([0, "0", "zz", -1, None]),
    )


@st.composite
def in_lists(draw, column: Optional[str] = None) -> InList:
    if column is None:
        column = draw(st.sampled_from(COLUMNS))
    options = draw(st.lists(_mixed_const_strategy(column), min_size=1, max_size=4))
    return InList(Col(column), tuple(options))


@st.composite
def simple_bounds(draw, column: str) -> Cmp:
    op = draw(st.sampled_from(["=", "<", "<=", ">", ">="]))
    value = draw(_const_strategy(column))
    if draw(st.booleans()):
        return Cmp(op, Col(column), Const(value))
    return Cmp(op, Const(value), Col(column))


@st.composite
def disjunctions(draw) -> Or:
    """OR of (mostly) sargable disjuncts: bounds, BETWEEN-shaped pairs,
    and nested IN lists — usually all on one column (the multi-range
    shape), sometimes crossing columns (must stay a filter)."""
    column = draw(st.sampled_from(COLUMNS))
    parts = []
    for _ in range(draw(st.integers(2, 3))):
        part_column = (
            column if draw(st.integers(0, 3)) else draw(st.sampled_from(COLUMNS))
        )
        shape = draw(st.integers(0, 2))
        if shape == 0:
            parts.append(draw(simple_bounds(part_column)))
        elif shape == 1:
            parts.append(
                And(
                    draw(simple_bounds(part_column)), draw(simple_bounds(part_column))
                )
            )
        else:
            parts.append(draw(in_lists(part_column)))
    return Or(*parts)


@st.composite
def conjuncts_(draw):
    roll = draw(st.integers(0, 5))
    if roll == 0:
        return PrefixMatch(Col("s"), draw(st.sampled_from(S_PREFIXES)))
    if roll == 1:
        return draw(in_lists())
    if roll == 2:
        return draw(disjunctions())
    column = draw(st.sampled_from(COLUMNS))
    op = draw(st.sampled_from(["=", "=", "<", "<=", ">", ">=", "!="]))
    value = draw(_const_strategy(column))
    if draw(st.booleans()):
        return Cmp(op, Col(column), Const(value))
    return Cmp(op, Const(value), Col(column))


@st.composite
def queries(draw) -> Query:
    parts = draw(st.lists(conjuncts_(), max_size=4))
    where = None
    if len(parts) == 1:
        where = parts[0]
    elif parts:
        where = And(*parts)
    distinct = draw(st.booleans())
    windowed = draw(st.integers(0, 3)) == 0
    limit: Optional[int] = None
    offset = 0
    if windowed:
        # LIMIT/OFFSET are only differential-comparable under a total
        # order: ORDER BY a permutation of every column
        order_columns = draw(st.permutations(list(COLUMNS)))
        order_by = [(Col(c), draw(st.booleans())) for c in order_columns]
        limit = draw(st.one_of(st.none(), st.integers(0, 10)))
        offset = draw(st.integers(0, 5))
        if limit is None and offset == 0:
            limit = 3
    else:
        count = draw(st.integers(0, 2))
        order_columns = draw(st.permutations(list(COLUMNS)))[:count]
        order_by = [(Col(c), draw(st.booleans())) for c in order_columns]
    outputs = None
    shape = draw(st.integers(0, 3))
    if shape == 1:
        outputs = [(c, Col(c)) for c in COLUMNS]
    elif shape == 2:
        # subset projection — may drop ORDER BY columns, in which case
        # both plans must fail identically (never "works with an index,
        # errors without one")
        kept = [c for c in COLUMNS if draw(st.booleans())] or ["a"]
        outputs = [(c, Col(c)) for c in kept]
    elif shape == 3:
        outputs = [("q", Col(draw(st.sampled_from(COLUMNS)))), ("s", Col("s"))]
    return Query(
        TableRef("t"),
        where=where,
        outputs=outputs,
        order_by=order_by,
        limit=limit,
        offset=offset,
        distinct=distinct,
    )


# ----------------------------------------------------------------------
# Join strategies: 2–3 tables, random join graphs
# ----------------------------------------------------------------------

_U_INDEX_POOL = [
    IndexSpec("u_a_hash", ("a",)),
    IndexSpec("u_a", ("a",), ordered=True),
    IndexSpec("u_ac", ("a", "c"), ordered=True),
    IndexSpec("u_c_hash", ("c",)),
]
_V_INDEX_POOL = [
    IndexSpec("v_b", ("b",), ordered=True),
    IndexSpec("v_d_hash", ("d",)),
]


def _u_schema(indexes: Tuple[IndexSpec, ...]) -> TableSchema:
    return TableSchema(
        "u",
        [
            Column("a", ColumnType.INT, nullable=False),
            Column("c", ColumnType.INT, nullable=False),
        ],
        indexes=indexes,
    )


def _v_schema(indexes: Tuple[IndexSpec, ...]) -> TableSchema:
    return TableSchema(
        "v",
        [
            Column("b", ColumnType.INT, nullable=False),
            Column("d", ColumnType.INT, nullable=False),
        ],
        indexes=indexes,
    )


@st.composite
def join_databases(draw) -> Database:
    db = Database("joined")
    t = db.create_table(
        _schema(tuple(spec for spec in _INDEX_POOL if draw(st.booleans())))
    )
    for row in draw(
        st.lists(
            st.tuples(
                _small_ints,
                _small_ints,
                st.sampled_from(S_VALUES),
                st.one_of(st.none(), _small_ints),
            ),
            max_size=15,
        )
    ):
        _insert_tolerant(t, row)
    u = db.create_table(
        _u_schema(tuple(spec for spec in _U_INDEX_POOL if draw(st.booleans())))
    )
    for row in draw(
        st.lists(st.tuples(_small_ints, _small_ints), max_size=12)
    ):
        u.insert(row)
    v = db.create_table(
        _v_schema(tuple(spec for spec in _V_INDEX_POOL if draw(st.booleans())))
    )
    for row in draw(
        st.lists(st.tuples(_small_ints, _small_ints), max_size=12)
    ):
        v.insert(row)
    return db


_U_EDGES = [
    (Col("p.a"), Col("q.a")),
    (Col("p.b"), Col("q.c")),
    (Col("p.a"), Col("q.c")),
]
_V_EDGES = [
    (Col("p.b"), Col("r.b")),
    (Col("q.c"), Col("r.d")),
]


@st.composite
def join_queries(draw) -> Query:
    """Random 2–3-table join queries over the t/u/v trio: reversed ON
    operand order, multi-conjunct ON, edges moved into WHERE, non-equi
    ON residuals, qualified local predicates, DISTINCT, ORDER BY, and
    total-order LIMIT/OFFSET windows."""

    def oriented(pair):
        left, right = pair
        return (right, left) if draw(st.booleans()) else (left, right)

    where_parts = []
    use_v = draw(st.booleans())
    first = oriented(draw(st.sampled_from(_U_EDGES)))
    extra: Tuple = ()
    if draw(st.integers(0, 2)) == 0:
        extra = (oriented(draw(st.sampled_from(_U_EDGES))),)
    on_residual = None
    if draw(st.integers(0, 3)) == 0:
        on_residual = Cmp(
            draw(st.sampled_from(["<", "<=", ">", ">="])), Col("p.a"), Col("q.c")
        )
    joins = [JoinSpec(TableRef("u", "q"), first[0], first[1], extra, on_residual)]
    if use_v:
        v_pair = oriented(draw(st.sampled_from(_V_EDGES)))
        if draw(st.integers(0, 2)) == 0:
            # the drawn edge moves into WHERE; ON keeps a baseline pair
            joins.append(JoinSpec(TableRef("v", "r"), Col("p.b"), Col("r.b")))
            where_parts.append(Cmp("=", v_pair[0], v_pair[1]))
        else:
            joins.append(JoinSpec(TableRef("v", "r"), v_pair[0], v_pair[1]))
    columns = ["p.a", "p.b", "p.s", "p.x", "q.a", "q.c"]
    if use_v:
        columns += ["r.b", "r.d"]
    for qualified in ("p.a", "p.s", "q.c", "r.d" if use_v else "q.a"):
        if draw(st.integers(0, 2)) == 0:
            base_column = qualified.split(".")[1]
            op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "!="]))
            where_parts.append(
                Cmp(op, Col(qualified), Const(draw(_const_strategy(base_column))))
            )
    where = None
    if len(where_parts) == 1:
        where = where_parts[0]
    elif where_parts:
        where = And(*where_parts)
    distinct = draw(st.booleans())
    windowed = draw(st.integers(0, 3)) == 0
    limit = None
    offset = 0
    if windowed:
        order_by = [(Col(c), draw(st.booleans())) for c in draw(st.permutations(columns))]
        limit = draw(st.one_of(st.none(), st.integers(0, 8)))
        offset = draw(st.integers(0, 4))
        if limit is None and offset == 0:
            limit = 4
    else:
        count = draw(st.integers(0, 2))
        order_by = [
            (Col(c), draw(st.booleans()))
            for c in draw(st.permutations(columns))[:count]
        ]
    outputs = None
    shape = draw(st.integers(0, 2))
    if shape == 1:
        outputs = [(c, Col(c)) for c in columns]
    elif shape == 2:
        outputs = [(c, Col(c)) for c in columns if draw(st.booleans())] or [
            ("p.a", Col("p.a"))
        ]
    return Query(
        TableRef("t", "p"),
        joins=joins,
        where=where,
        outputs=outputs,
        order_by=order_by,
        limit=limit,
        offset=offset,
        distinct=distinct,
    )


# ----------------------------------------------------------------------
# Equivalence checks
# ----------------------------------------------------------------------


def _canonical(row: Dict[str, Any]) -> Tuple:
    return tuple((name, _hashable_key(row[name])) for name in sorted(row))


def _order_violation(
    order_by: List[Tuple[Col, bool]], previous: Dict[str, Any], current: Dict[str, Any]
) -> bool:
    """True when ``current`` may not follow ``previous`` under ORDER BY."""
    for expr, descending in order_by:
        key_prev = _null_safe_key(expr.eval(previous))
        key_cur = _null_safe_key(expr.eval(current))
        if key_prev == key_cur:
            continue
        return (key_prev < key_cur) if descending else (key_prev > key_cur)
    return False


def _run(plan: PlanNode) -> Tuple[Optional[List[Dict[str, Any]]], Optional[type]]:
    try:
        return list(plan.execute()), None
    except Exception as error:  # noqa: BLE001 — error *identity* is the oracle
        return None, type(error)


def assert_plan_equivalent(db: Database, query: Query) -> None:
    plan = plan_query(db.tables, query)
    oracle = plan_query(db.tables, query, naive=True)
    got, got_error = _run(plan)
    want, want_error = _run(oracle)
    context = f"plan:\n{explain(plan)}\noracle:\n{explain(oracle)}"
    # a query must succeed or fail independently of which indexes exist
    assert got_error == want_error, context
    if got_error is not None:
        return
    assert Counter(map(_canonical, got)) == Counter(map(_canonical, want)), context
    if query.order_by:
        for previous, current in zip(got, got[1:]):
            assert not _order_violation(query.order_by, previous, current), (
                f"ORDER BY violated between {previous!r} and {current!r}\n{context}"
            )


class TestDifferentialPlanEquivalence:
    @given(db=databases(), query=queries())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_random_queries_match_oracle(self, db: Database, query: Query) -> None:
        assert_plan_equivalent(db, query)

    @given(db=databases(), data=st.data())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_range_heavy_queries_match_oracle(self, db: Database, data) -> None:
        """A biased generator: every query is a (possibly contradictory)
        interval over an indexable column plus ORDER BY on that column —
        the exact shape the new rules rewrite most aggressively."""
        column = data.draw(st.sampled_from(["a", "s"]))
        low = data.draw(_const_strategy(column))
        high = data.draw(_const_strategy(column))
        ops = data.draw(
            st.tuples(st.sampled_from([">", ">="]), st.sampled_from(["<", "<="]))
        )
        descending = data.draw(st.booleans())
        query = Query(
            TableRef("t"),
            where=And(
                Cmp(ops[0], Col(column), Const(low)),
                Cmp(ops[1], Col(column), Const(high)),
            ),
            order_by=[(Col(column), descending)],
        )
        assert_plan_equivalent(db, query)

    @given(db=databases(), query=queries(), data=st.data())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_index_ddl_between_queries(self, db: Database, query: Query, data) -> None:
        """Creating an index between two runs of the same query must not
        change the answer — the new access path is equivalent, and a
        rejected CREATE (ordered index over existing NULLs) must leave
        no half-built index behind."""
        assert_plan_equivalent(db, query)
        table = db.table("t")
        missing = [
            spec for spec in _INDEX_POOL if spec.name not in table.index_specs
        ]
        if missing:
            spec = data.draw(st.sampled_from(missing))
            try:
                table.create_index(spec)
            except ConstraintError:
                assert spec.ordered and spec.name not in table.index_specs
        assert_plan_equivalent(db, query)


class TestDifferentialRegressions:
    """Deterministic shapes worth pinning independent of the generator."""

    def _db(self, *indexes: IndexSpec) -> Database:
        db = Database("diff")
        table = db.create_table(_schema(tuple(indexes)))
        rows = [
            (1, 4, "ab", None),
            (1, 2, "ab/c", 3),
            (2, 0, "a", 0),
            (2, 7, "c/d", 1),
            (3, 3, "ab", 5),
            (3, 3, "b/x", None),
            (5, 1, "cd", 2),
            (5, 1, "ab", 2),
        ]
        for row in rows:
            table.insert(row)
        return db

    def test_range_order_limit_streams_equivalently(self):
        db = self._db(IndexSpec("ix_ab", ("a", "b"), ordered=True))
        query = Query(
            TableRef("t"),
            where=And(Cmp(">=", Col("a"), Const(1)), Cmp("<", Col("a"), Const(5))),
            order_by=[(Col("a"), False), (Col("b"), False)],
            limit=4,
        )
        plan = plan_query(db.tables, query)
        rendered = explain(plan)
        assert "IndexRangeScan" in rendered and "Sort" not in rendered
        assert_plan_equivalent(db, query)

    def test_reverse_scan_equivalent(self):
        db = self._db(IndexSpec("ix_s", ("s",), ordered=True))
        query = Query(
            TableRef("t"),
            where=Cmp(">", Col("s"), Const("a")),
            order_by=[(Col("s"), True)],
        )
        plan = plan_query(db.tables, query)
        assert isinstance(plan, IndexRangeScan) and plan.reverse
        assert_plan_equivalent(db, query)

    def test_contradictory_interval_is_empty(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=And(Cmp(">", Col("a"), Const(5)), Cmp("<", Col("a"), Const(2))),
        )
        assert list(plan_query(db.tables, query).execute()) == []
        assert_plan_equivalent(db, query)

    def test_mixed_type_bounds_stay_in_filter(self):
        """Interval merging across incomparable constants must fall back
        to the filter, not crash the planner."""
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=And(Cmp(">", Col("a"), Const(1)), Cmp("<", Col("a"), Const("z"))),
        )
        # evaluation still raises (int < str), exactly like the oracle —
        # but planning must succeed and keep both conjuncts
        plan = plan_query(db.tables, query)
        assert "SeqScan" in explain(plan)

    def test_nullable_column_never_pushed_to_index(self):
        """x is nullable: bounds on it must not become index ranges even
        if an ordered index existed, because NULL keys cannot be probed."""
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(TableRef("t"), where=Cmp(">=", Col("x"), Const(1)))
        assert "SeqScan" in explain(plan_query(db.tables, query))
        assert_plan_equivalent(db, query)

    def test_distinct_with_order_and_range(self):
        db = self._db(IndexSpec("ix_sa", ("s", "a"), ordered=True))
        query = Query(
            TableRef("t"),
            where=Cmp(">=", Col("s"), Const("ab")),
            outputs=[(c, Col(c)) for c in COLUMNS],
            order_by=[(Col("s"), False)],
            distinct=True,
        )
        assert_plan_equivalent(db, query)

    def test_eq_prefix_plus_range_on_composite_index(self):
        db = self._db(IndexSpec("ix_ab", ("a", "b"), ordered=True))
        query = Query(
            TableRef("t"),
            where=And(Cmp("=", Col("a"), Const(3)), Cmp(">", Col("b"), Const(1))),
            order_by=[(Col("b"), False)],
        )
        plan = plan_query(db.tables, query)
        rendered = explain(plan)
        assert "IndexRangeScan" in rendered and "Sort" not in rendered
        assert_plan_equivalent(db, query)

    def test_offset_only_window_under_total_order(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            order_by=[(Col(c), False) for c in COLUMNS],
            offset=3,
        )
        assert_plan_equivalent(db, query)

    def test_order_by_projected_away_column_fails_like_oracle(self):
        """ORDER BY on a column the projection drops: the naive plan's
        SortNode raises UnknownColumnError above the projection, so the
        indexed plan must not elide the sort and silently succeed —
        query behavior may not depend on which indexes exist."""
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=Cmp(">=", Col("a"), Const(1)),
            outputs=[("b", Col("b"))],
            order_by=[(Col("a"), False)],
        )
        assert isinstance(plan_query(db.tables, query), SortNode)
        assert_plan_equivalent(db, query)

    def test_order_by_renamed_output_column_elides_through_projection(self):
        """ORDER BY on an output name that identity-projects a base
        column still supports elision (the rename resolves through the
        projection)."""
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=Cmp(">=", Col("a"), Const(1)),
            outputs=[("k", Col("a")), ("s", Col("s"))],
            order_by=[(Col("k"), False)],
        )
        rendered = explain(plan_query(db.tables, query))
        assert "Sort" not in rendered and "IndexRangeScan" in rendered
        assert_plan_equivalent(db, query)

    def test_sortnode_only_for_unsatisfied_order(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=Cmp(">=", Col("a"), Const(2)),
            order_by=[(Col("s"), False)],
        )
        plan = plan_query(db.tables, query)
        assert isinstance(plan, SortNode)
        assert_plan_equivalent(db, query)


# ----------------------------------------------------------------------
# Planned DML: delete_where/update_where vs the naive full-scan oracle
# ----------------------------------------------------------------------


def _clone_db(db: Database) -> Database:
    """An independent database with the same schema, indexes, and rows."""
    table = db.tables["t"]
    clone = Database("oracle")
    clone_table = clone.create_table(_schema(tuple(table.index_specs.values())))
    for _rowid, row in table.scan():
        clone_table.insert(row)
    return clone


def _table_counter(db: Database) -> Counter:
    return Counter(row for _rowid, row in db.tables["t"].scan())


@st.composite
def predicates(draw) -> Optional[Any]:
    parts = draw(st.lists(conjuncts_(), max_size=3))
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else And(*parts)


@st.composite
def change_sets(draw) -> Dict[str, Any]:
    changes: Dict[str, Any] = {}
    for column in draw(
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=2, unique=True)
    ):
        if column == "x":
            changes[column] = draw(st.one_of(st.none(), _small_ints))
        else:
            changes[column] = draw(_const_strategy(column))
    return changes


class TestPlannedDMLDifferential:
    """Planned victim enumeration must be invisible: delete_where and
    update_where leave exactly the rows the naive full-scan oracle
    leaves (multiset equality), raise exactly when it raises, and report
    the same affected counts — whatever indexes exist."""

    @given(db=databases(), predicate=predicates())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_delete_where_matches_naive_oracle(self, db, predicate) -> None:
        oracle = _clone_db(db)
        try:
            got = QueryEngine(db).delete_where("t", predicate)
            got_error = None
        except Exception as error:  # noqa: BLE001 — error identity is the oracle
            got, got_error = None, type(error)
        try:
            want = QueryEngine(oracle).delete_where("t", predicate, naive=True)
            want_error = None
        except Exception as error:  # noqa: BLE001
            want, want_error = None, type(error)
        assert got_error == want_error
        assert got == want
        assert _table_counter(db) == _table_counter(oracle)

    @given(db=databases(), predicate=predicates(), changes=change_sets())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_update_where_matches_naive_oracle(self, db, predicate, changes) -> None:
        oracle = _clone_db(db)
        try:
            got = QueryEngine(db).update_where("t", changes, predicate)
            got_error = None
        except Exception as error:  # noqa: BLE001
            got, got_error = None, type(error)
        try:
            want = QueryEngine(oracle).update_where("t", changes, predicate, naive=True)
            want_error = None
        except Exception as error:  # noqa: BLE001
            want, want_error = None, type(error)
        assert got_error == want_error
        assert got == want
        assert _table_counter(db) == _table_counter(oracle)


class TestDisjunctionRegressions:
    """Deterministic IN/OR shapes worth pinning."""

    _db = TestDifferentialRegressions._db

    def test_in_list_uses_multi_range_scan(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(TableRef("t"), where=InList(Col("a"), (5, 1)))
        plan = plan_query(db.tables, query)
        assert isinstance(plan, IndexMultiRangeScan)
        # values are de-duplicated and probed in sorted order
        assert [low for low, *_rest in plan.ranges] == [(1,), (5,)]
        assert_plan_equivalent(db, query)

    def test_in_list_streams_order_without_sort(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=InList(Col("a"), (5, 1, 2)),
            order_by=[(Col("a"), True)],
        )
        plan = plan_query(db.tables, query)
        assert isinstance(plan, IndexMultiRangeScan) and plan.reverse
        assert_plan_equivalent(db, query)

    def test_or_of_ranges_is_equivalent(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=Or(
                And(Cmp(">=", Col("a"), Const(1)), Cmp("<", Col("a"), Const(2))),
                Cmp("=", Col("a"), Const(5)),
            ),
        )
        plan = plan_query(db.tables, query)
        assert isinstance(plan, IndexMultiRangeScan)
        assert_plan_equivalent(db, query)

    def test_overlapping_or_deduplicates(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=Or(Cmp(">", Col("a"), Const(1)), Cmp(">", Col("a"), Const(3))),
        )
        assert_plan_equivalent(db, query)

    def test_cross_column_or_stays_in_filter(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(
            TableRef("t"),
            where=Or(Cmp("=", Col("a"), Const(1)), Cmp("=", Col("b"), Const(3))),
        )
        assert "SeqScan" in explain(plan_query(db.tables, query))
        assert_plan_equivalent(db, query)

    def test_mixed_type_in_members_stay_in_filter(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(TableRef("t"), where=InList(Col("a"), (1, "x", 3)))
        assert "SeqScan" in explain(plan_query(db.tables, query))
        assert_plan_equivalent(db, query)

    def test_null_only_in_list_matches_nothing(self):
        db = self._db(IndexSpec("ix_a", ("a",), ordered=True))
        query = Query(TableRef("t"), where=InList(Col("a"), (None,)))
        assert list(plan_query(db.tables, query).execute()) == []
        assert_plan_equivalent(db, query)


class TestDifferentialJoinEquivalence:
    """2–3-table join strategies vs the naive left-deep hash-join
    oracle: random join graphs (reversed ON operand order,
    multi-conjunct ON, WHERE-implied edges, non-equi ON residuals),
    random index subsets per table, DISTINCT/ORDER BY/LIMIT over the
    join — the cost-based join order, operator choice (index nested
    loop vs hash), and build-side selection must all be invisible."""

    @given(db=join_databases(), query=join_queries())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_join_queries_match_oracle(self, db: Database, query: Query) -> None:
        assert_plan_equivalent(db, query)


class TestJoinRegressions:
    """Deterministic join shapes worth pinning."""

    def _db(self) -> Database:
        db = Database("joins")
        t = db.create_table(
            _schema(
                (
                    IndexSpec("ix_a", ("a",), ordered=True),
                    IndexSpec("ix_ab", ("a", "b"), ordered=True),
                )
            )
        )
        for row in [(1, 4, "ab", None), (2, 0, "a", 0), (3, 3, "b/x", 5), (5, 1, "cd", 2)]:
            t.insert(row)
        u = db.create_table(_u_schema((IndexSpec("u_a", ("a",), ordered=True),)))
        for row in [(1, 9), (1, 3), (2, 0), (4, 3), (5, 1)]:
            u.insert(row)
        v = db.create_table(_v_schema((IndexSpec("v_b", ("b",), ordered=True),)))
        for row in [(0, 7), (1, 3), (3, 9), (4, 0)]:
            v.insert(row)
        return db

    def test_reversed_on_operands_bind_correctly(self):
        """`JOIN u ON q.a = p.a` (new table first) must behave exactly
        like `ON p.a = q.a` — the planner normalizes sides by binding."""
        db = self._db()
        reversed_query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("q.a"), Col("p.a"))],
        )
        forward_query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a"))],
        )
        got = [
            _canonical(row)
            for row in plan_query(db.tables, reversed_query).execute()
        ]
        want = [
            _canonical(row)
            for row in plan_query(db.tables, forward_query).execute()
        ]
        assert Counter(got) == Counter(want) and got
        assert_plan_equivalent(db, reversed_query)

    def test_multi_conjunct_on(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[
                JoinSpec(
                    TableRef("u", "q"),
                    Col("p.a"),
                    Col("q.a"),
                    ((Col("p.b"), Col("q.c")),),
                )
            ],
        )
        rows = list(plan_query(db.tables, query).execute())
        assert {(row["p.a"], row["p.b"]) for row in rows} == {(2, 0), (5, 1)}
        assert_plan_equivalent(db, query)

    def test_where_implied_edge_becomes_join(self):
        """An equality conjunct across bindings in WHERE plans as a join
        edge, not a post-join filter over a wider intermediate."""
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a"))],
            where=Cmp("=", Col("q.c"), Col("p.b")),
        )
        plan = plan_query(db.tables, query)
        first_line = explain(plan).splitlines()[0]
        assert first_line.startswith(("HashJoin", "IndexNestedLoopJoin"))
        assert_plan_equivalent(db, query)

    def test_non_equi_on_residual(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[
                JoinSpec(
                    TableRef("u", "q"),
                    Col("p.a"),
                    Col("q.a"),
                    (),
                    Cmp("<", Col("p.b"), Col("q.c")),
                )
            ],
        )
        rows = list(plan_query(db.tables, query).execute())
        assert all(row["p.b"] < row["q.c"] for row in rows) and rows
        assert_plan_equivalent(db, query)

    def test_pure_non_equi_on_uses_nested_loop(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[
                JoinSpec(
                    TableRef("u", "q"),
                    None,
                    None,
                    (),
                    Cmp(">", Col("p.a"), Col("q.a")),
                )
            ],
        )
        assert "NestedLoopJoin" in explain(plan_query(db.tables, query))
        assert_plan_equivalent(db, query)

    def test_three_table_chain_with_order_and_distinct(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[
                JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a")),
                JoinSpec(TableRef("v", "r"), Col("p.b"), Col("r.b")),
            ],
            where=Cmp(">=", Col("q.c"), Const(1)),
            distinct=True,
            order_by=[(Col("p.a"), False), (Col("r.d"), True)],
        )
        assert_plan_equivalent(db, query)


class TestAmbiguousColumnDetection:
    """A shared unqualified column on an unaliased join must raise
    AmbiguousColumnError when the joined rows disagree, instead of
    silently preferring the left row — and qualified (aliased) access
    must keep working."""

    def _dbs(self) -> Database:
        db = Database("amb")
        left = db.create_table(
            TableSchema(
                "l",
                [Column("k", ColumnType.INT, nullable=False),
                 Column("w", ColumnType.INT, nullable=False)],
            )
        )
        right = db.create_table(
            TableSchema(
                "r",
                [Column("k", ColumnType.INT, nullable=False),
                 Column("w", ColumnType.INT, nullable=False)],
            )
        )
        left.insert((1, 10))
        right.insert((1, 20))  # same join key, different w
        return db

    def test_unaliased_collision_raises_like_oracle(self):
        db = self._dbs()
        query = Query(
            TableRef("l"),
            joins=[JoinSpec(TableRef("r"), Col("k"), Col("k"))],
        )
        for naive in (False, True):
            plan = plan_query(db.tables, query, naive=naive)
            with pytest.raises(AmbiguousColumnError):
                list(plan.execute())
        assert_plan_equivalent(db, query)

    def test_unaliased_equal_values_do_not_raise(self):
        db = self._dbs()
        db.tables["r"].insert((2, 30))
        db.tables["l"].insert((2, 30))  # w agrees on this joined pair
        query = Query(
            TableRef("l"),
            joins=[JoinSpec(TableRef("r"), Col("k"), Col("k"))],
            where=Cmp("=", Col("k"), Const(2)),
        )
        rows = list(plan_query(db.tables, query).execute())
        assert rows == [{"k": 2, "w": 30}]
        assert_plan_equivalent(db, query)

    def test_qualified_path_keeps_working(self):
        db = self._dbs()
        query = Query(
            TableRef("l", "x"),
            joins=[JoinSpec(TableRef("r", "y"), Col("x.k"), Col("y.k"))],
            outputs=[("xw", Col("x.w")), ("yw", Col("y.w"))],
        )
        rows = list(plan_query(db.tables, query).execute())
        assert rows == [{"xw": 10, "yw": 20}]
        assert_plan_equivalent(db, query)


class TestNullProbeRegressions:
    """NULL constants may never reach an index probe: the expression
    language says ``col = NULL`` is False and ``NULL IN (NULL)`` is
    True (Python ``in``), while a physical probe with a NULL key would
    decide by what the index happens to hold."""

    def _nullable_db(self, *indexes: IndexSpec) -> Database:
        db = Database("nulls")
        table = db.create_table(
            TableSchema(
                "n",
                [Column("k", ColumnType.INT, nullable=False),
                 Column("c", ColumnType.TEXT)],
                indexes=tuple(indexes),
            )
        )
        table.insert((1, None))
        table.insert((2, None))
        return db

    def test_all_null_in_list_on_nullable_indexed_column(self):
        """Since the phantom-PK fix, a NULL can no longer *enter* an
        ordered index at all: the insert dies with a typed
        ``ConstraintError`` and leaves no phantom state behind, so the
        original scenario (NULL rows living under an ordered index,
        probed by an all-NULL IN list) is unrepresentable.  The planner
        rule itself — NULL constants never reach an index probe — is
        still covered by the hash-index variants below, where NULL keys
        are storable."""
        db = Database("nulls")
        table = db.create_table(
            TableSchema(
                "n",
                [Column("k", ColumnType.INT, nullable=False),
                 Column("c", ColumnType.TEXT)],
                indexes=(IndexSpec("n_c", ("c",), ordered=True),),
            )
        )
        with pytest.raises(ConstraintError, match="ordered index"):
            table.insert((1, None))
        assert table.row_count == 0
        table.insert((1, "x"))  # no phantom: the table stays fully usable
        query = Query(TableRef("n"), where=InList(Col("c"), (None,)))
        assert list(plan_query(db.tables, query).execute()) == []
        assert_plan_equivalent(db, query)
        assert QueryEngine(db).delete_where("n", InList(Col("c"), (None,))) == 0

    def test_eq_null_probe_on_nullable_hash_column(self):
        """`c = NULL` is always False under Cmp semantics; a hash probe
        with key (None,) would have found the NULL rows."""
        db = self._nullable_db(IndexSpec("n_c_hash", ("c",)))
        query = Query(TableRef("n"), where=Cmp("=", Col("c"), Const(None)))
        assert "IndexEqScan" not in explain(plan_query(db.tables, query))
        assert list(plan_query(db.tables, query).execute()) == []
        assert_plan_equivalent(db, query)
        assert QueryEngine(db).delete_where("n", Cmp("=", Col("c"), Const(None))) == 0


# ----------------------------------------------------------------------
# Semi-join reduction (DISTINCT over join)
# ----------------------------------------------------------------------


@st.composite
def semijoin_queries(draw) -> Query:
    """Query shapes orbiting the semi-join reduction's applicability
    boundary: always a join from ``t`` to ``u`` (sometimes also ``v``),
    usually DISTINCT with outputs confined to ``p`` — the reducible
    shape — but each disqualifier (a ``q`` output reference, an ORDER BY
    through the joined binding, DISTINCT off) is drawn in deliberately
    so the differential check covers both the reduced and unreduced
    plans of near-identical queries."""

    def oriented(pair):
        left, right = pair
        return (right, left) if draw(st.booleans()) else (left, right)

    first = oriented(draw(st.sampled_from([(Col("p.a"), Col("q.a")), (Col("p.b"), Col("q.c"))])))
    joins = [JoinSpec(TableRef("u", "q"), first[0], first[1])]
    if draw(st.booleans()):
        v_pair = oriented((Col("p.b"), Col("r.b")))
        joins.append(JoinSpec(TableRef("v", "r"), v_pair[0], v_pair[1]))
    outputs = [(c, Col(c)) for c in ("p.a", "p.b", "p.s") if draw(st.booleans())] or [
        ("p.a", Col("p.a"))
    ]
    if draw(st.integers(0, 3)) == 0:
        outputs.append(("q.c", Col("q.c")))  # disqualifier: q escapes
    where_parts = []
    if draw(st.booleans()):
        where_parts.append(
            Cmp(draw(st.sampled_from(["=", "<", ">="])), Col("p.a"), Const(draw(_small_ints)))
        )
    if draw(st.integers(0, 3)) == 0:
        # local predicate on the reduced side: legal, stays inside the
        # semi-join's right input
        where_parts.append(Cmp("=", Col("q.c"), Const(draw(_small_ints))))
    where = None
    if len(where_parts) == 1:
        where = where_parts[0]
    elif where_parts:
        where = And(*where_parts)
    order_by = []
    if draw(st.booleans()):
        order_by = [(Col(name), draw(st.booleans())) for name, _expr in outputs]
    return Query(
        TableRef("t", "p"),
        joins=joins,
        where=where,
        outputs=outputs,
        order_by=order_by,
        distinct=draw(st.integers(0, 3)) != 0,
    )


class TestSemiJoinDifferential:
    @given(db=join_databases(), query=semijoin_queries())
    @settings(
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_PROFILE,
    )
    def test_semijoin_shapes_match_oracle(self, db: Database, query: Query) -> None:
        assert_plan_equivalent(db, query)
        # the reduction must actually fire on the fully reducible shape
        names = {name for name, _expr in query.outputs}
        order_names = {expr.name for expr, _asc in query.order_by}
        if query.distinct and all(n.startswith("p.") for n in names | order_names):
            assert "HashSemiJoin" in explain(plan_query(db.tables, query))


class TestSemiJoinRegressions:
    """Deterministic reduction shapes worth pinning."""

    def _db(self, *, indexes: bool = False) -> Database:
        db = Database("semi")
        t_indexes = (IndexSpec("ix_a", ("a",), ordered=True),) if indexes else ()
        t = db.create_table(_schema(t_indexes))
        for row in [(1, 4, "ab", None), (1, 2, "ab/c", 3), (2, 0, "a", 0), (3, 3, "b/x", 5)]:
            t.insert(row)
        u = db.create_table(_u_schema(()))
        for row in [(1, 9), (1, 3), (1, 0), (3, 3), (4, 3)]:
            u.insert(row)
        v = db.create_table(_v_schema(()))
        for row in [(2, 3), (4, 9)]:
            v.insert(row)
        return db

    def test_distinct_over_join_reduces_to_semi_join(self):
        """The explain snapshot: DISTINCT + outputs confined to ``p``
        turns the join into an existence check, and the duplicate-heavy
        build side never inflates the DISTINCT input."""
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a"))],
            outputs=[("a", Col("p.a")), ("s", Col("p.s"))],
            distinct=True,
        )
        plan = plan_query(db.tables, query)
        assert explain(plan) == (
            "Distinct\n"
            "  Project(a, s)\n"
            "    HashSemiJoin(Col(name='p.a') = Col(name='q.a'))\n"
            "      SeqScan(t)\n"
            "      SeqScan(u)"
        )
        got = sorted((row["a"], row["s"]) for row in plan.execute())
        assert got == [(1, "ab"), (1, "ab/c"), (3, "b/x")]
        assert_plan_equivalent(db, query)

    def test_output_reference_blocks_reduction(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a"))],
            outputs=[("a", Col("p.a")), ("c", Col("q.c"))],
            distinct=True,
        )
        rendered = explain(plan_query(db.tables, query))
        assert "HashSemiJoin" not in rendered and "Join" in rendered
        assert_plan_equivalent(db, query)

    def test_order_by_reference_blocks_reduction(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a"))],
            outputs=[("a", Col("p.a"))],
            order_by=[(Col("q.c"), False)],
            distinct=True,
        )
        assert "HashSemiJoin" not in explain(plan_query(db.tables, query))

    def test_where_residual_reference_blocks_reduction(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a"))],
            where=Cmp("<", Col("p.b"), Col("q.c")),  # cross-binding non-equi
            outputs=[("a", Col("p.a"))],
            distinct=True,
        )
        assert "HashSemiJoin" not in explain(plan_query(db.tables, query))
        assert_plan_equivalent(db, query)

    def test_without_distinct_no_reduction(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a"))],
            outputs=[("a", Col("p.a"))],
        )
        assert "HashSemiJoin" not in explain(plan_query(db.tables, query))
        assert_plan_equivalent(db, query)

    def test_chained_edge_keeps_bridge_reduces_leaf(self):
        """t-u-v chain where v joins through q: q's bindings feed a later
        edge, so only the true leaf v is reduced."""
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[
                JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a")),
                JoinSpec(TableRef("v", "r"), Col("q.c"), Col("r.d")),
            ],
            outputs=[("a", Col("p.a"))],
            distinct=True,
        )
        rendered = explain(plan_query(db.tables, query))
        assert rendered.count("HashSemiJoin") == 1
        assert "SeqScan(v)" in rendered
        assert_plan_equivalent(db, query)

    def test_local_predicate_stays_inside_reduced_side(self):
        db = self._db()
        query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("p.a"), Col("q.a"))],
            where=Cmp("=", Col("q.c"), Const(3)),
            outputs=[("a", Col("p.a")), ("b", Col("p.b"))],
            distinct=True,
        )
        plan = plan_query(db.tables, query)
        assert "HashSemiJoin" in explain(plan)
        got = sorted((row["a"], row["b"]) for row in plan.execute())
        assert got == [(1, 2), (1, 4), (3, 3)]
        assert_plan_equivalent(db, query)

    def test_reversed_on_operands_still_reduce(self):
        db = self._db(indexes=True)
        query = Query(
            TableRef("t", "p"),
            joins=[JoinSpec(TableRef("u", "q"), Col("q.a"), Col("p.a"))],
            outputs=[("s", Col("p.s"))],
            distinct=True,
        )
        assert "HashSemiJoin" in explain(plan_query(db.tables, query))
        assert_plan_equivalent(db, query)
