"""Tests for the query layer: planner access paths, SQL subset, joins,
aggregates — and the property that every plan is equivalent to a full
scan with post-filtering."""

import pytest

from repro.storage import Database, DuplicateKeyError, SQLError
from repro.storage.expr import And, Cmp, Col, Const, PrefixMatch
from repro.storage.mvcc import MVCCManager
from repro.storage.plan import (
    DistinctNode,
    IndexEqScan,
    IndexRangeScan,
    PlanNode,
    SeqScan,
    SortNode,
    explain,
)
from repro.storage.query import JoinSpec, Query, QueryEngine, TableRef
from repro.storage.sql import execute_sql


@pytest.fixture
def db():
    database = QueryEngine(Database("test"))
    execute_sql(
        database,
        "CREATE TABLE prov (tid INT NOT NULL, op CHAR NOT NULL, "
        "loc TEXT NOT NULL, src TEXT, PRIMARY KEY (tid, loc))",
    )
    execute_sql(database, "CREATE INDEX prov_tid ON prov (tid)")
    execute_sql(database, "CREATE ORDERED INDEX prov_loc ON prov (loc)")
    execute_sql(
        database,
        "INSERT INTO prov VALUES "
        "(121, 'D', 'T/c5', NULL), (122, 'C', 'T/c1/y', 'S1/a1/y'), "
        "(123, 'I', 'T/c2', NULL), (124, 'C', 'T/c2', 'S1/a2'), "
        "(124, 'C', 'T/c2/x', 'S1/a2/x')",
    )
    execute_sql(
        database,
        "CREATE TABLE txn (tid INT NOT NULL, who TEXT NOT NULL, PRIMARY KEY (tid))",
    )
    execute_sql(
        database,
        "INSERT INTO txn VALUES (121, 'alice'), (122, 'bob'), (123, 'alice'), (124, 'carol')",
    )
    return database


class TestPlanner:
    def test_equality_uses_index(self, db):
        query = Query(
            TableRef("prov"), where=Cmp("=", Col("tid"), Const(124)),
        )
        plan = db.plan(query)
        assert "IndexEqScan" in explain(plan)
        assert len(db.execute(query)) == 2

    def test_prefix_uses_ordered_index(self, db):
        query = Query(
            TableRef("prov"), where=PrefixMatch(Col("loc"), "T/c2"),
        )
        plan = db.plan(query)
        assert "IndexRangeScan(prov.prov_loc in" in explain(plan)
        assert len(db.execute(query)) == 3  # T/c2 (x2), T/c2/x

    def test_no_index_falls_back_to_scan(self, db):
        query = Query(TableRef("prov"), where=Cmp("=", Col("op"), Const("C")))
        assert "SeqScan" in explain(db.plan(query))
        assert len(db.execute(query)) == 3

    def test_residual_filter_kept(self, db):
        query = Query(
            TableRef("prov"),
            where=And(Cmp("=", Col("tid"), Const(124)), Cmp("=", Col("op"), Const("C"))),
        )
        rows = db.execute(query)
        assert len(rows) == 2
        assert all(row["op"] == "C" for row in rows)

    def test_plans_match_seqscan_semantics(self, db):
        """Every indexed plan returns the same rows as a full scan."""
        predicates = [
            Cmp("=", Col("tid"), Const(124)),
            PrefixMatch(Col("loc"), "T/c"),
            And(Cmp("=", Col("tid"), Const(121)), Cmp("=", Col("loc"), Const("T/c5"))),
        ]
        table = db.table("prov")
        for predicate in predicates:
            via_plan = db.execute(Query(TableRef("prov"), where=predicate))
            via_scan = [
                table.schema.row_as_dict(row)
                for _rid, row in table.scan()
                if predicate.eval(table.schema.row_as_dict(row))
            ]
            key = lambda r: sorted(r.items(), key=lambda kv: kv[0])
            assert sorted(via_plan, key=key) == sorted(via_scan, key=key)


def _plan_sql(db, sql):
    from repro.storage.sql import parse_statement

    return db.plan(parse_statement(sql).query)


class TestExplainSnapshots:
    """Exact access paths for representative queries: a planner-rule
    regression changes these strings and fails loudly."""

    def test_equality_snapshot(self, db):
        assert explain(_plan_sql(db, "SELECT * FROM prov WHERE tid = 124")) == (
            "IndexEqScan(prov.prov_tid = (124,))"
        )

    def test_primary_key_snapshot(self, db):
        plan = _plan_sql(db, "SELECT * FROM prov WHERE tid = 121 AND loc = 'T/c5'")
        assert explain(plan) == "IndexEqScan(prov.prov_pk_idx = (121, 'T/c5'))"

    def test_prefix_snapshot(self, db):
        plan = _plan_sql(db, "SELECT * FROM prov WHERE loc LIKE 'T/c2%'")
        assert explain(plan) == "IndexRangeScan(prov.prov_loc in [('T/c2',), ('T/c3',)))"

    def test_range_snapshot(self, db):
        plan = _plan_sql(
            db, "SELECT * FROM prov WHERE loc >= 'T/c2' AND loc < 'T/c4'"
        )
        assert explain(plan) == (
            "IndexRangeScan(prov.prov_loc in [('T/c2',), ('T/c4',)))"
        )

    def test_between_merges_to_one_range(self, db):
        plan = _plan_sql(db, "SELECT * FROM prov WHERE loc BETWEEN 'T/c2' AND 'T/c4'")
        assert explain(plan) == (
            "IndexRangeScan(prov.prov_loc in [('T/c2',), ('T/c4',)])"
        )

    def test_range_with_matching_order_elides_sort(self, db):
        plan = _plan_sql(
            db,
            "SELECT * FROM prov WHERE loc >= 'T/c2' AND loc < 'T/c4' "
            "ORDER BY loc LIMIT 2",
        )
        assert explain(plan) == (
            "Limit(2, offset=0)\n"
            "  IndexRangeScan(prov.prov_loc in [('T/c2',), ('T/c4',)))"
        )

    def test_descending_order_uses_reverse_scan(self, db):
        plan = _plan_sql(
            db, "SELECT * FROM prov WHERE loc >= 'T/c2' ORDER BY loc DESC"
        )
        assert explain(plan) == (
            "IndexRangeScan(prov.prov_loc in [('T/c2',), None] desc)"
        )

    def test_range_with_other_order_keeps_sort(self, db):
        plan = _plan_sql(
            db, "SELECT * FROM prov WHERE loc >= 'T/c2' ORDER BY tid"
        )
        assert explain(plan) == (
            "Sort(1 keys)\n"
            "  IndexRangeScan(prov.prov_loc in [('T/c2',), None])"
        )

    def test_residual_conjunct_stays_in_filter(self, db):
        plan = _plan_sql(
            db, "SELECT * FROM prov WHERE loc >= 'T/c2' AND op = 'C'"
        )
        rendered = explain(plan)
        assert rendered.startswith("Filter(")
        assert "IndexRangeScan(prov.prov_loc in [('T/c2',), None])" in rendered

    def test_unindexable_range_falls_back_to_seqscan(self, db):
        # prov_tid is a hash index: a tid range cannot use it
        plan = _plan_sql(db, "SELECT * FROM prov WHERE tid >= 122 AND tid < 124")
        rendered = explain(plan)
        assert "SeqScan(prov)" in rendered and "IndexRangeScan" not in rendered


class TestRangePlans:
    def test_range_results_match_filtered_scan(self, db):
        rows = execute_sql(
            db, "SELECT loc FROM prov WHERE loc >= 'T/c2' AND loc <= 'T/c2/x' ORDER BY loc"
        )
        assert [row["loc"] for row in rows] == ["T/c2", "T/c2", "T/c2/x"]

    def test_reverse_scan_streams_descending(self, db):
        rows = execute_sql(db, "SELECT loc FROM prov ORDER BY loc DESC")
        assert [row["loc"] for row in rows] == sorted(
            (row["loc"] for row in execute_sql(db, "SELECT loc FROM prov")),
            reverse=True,
        )

    def test_between_results(self, db):
        rows = execute_sql(db, "SELECT tid FROM prov WHERE tid BETWEEN 122 AND 123")
        assert sorted(row["tid"] for row in rows) == [122, 123]

    def test_contradictory_range_is_empty(self, db):
        rows = execute_sql(db, "SELECT * FROM prov WHERE loc > 'T/c4' AND loc < 'T/c2'")
        assert rows == []


class _RowsNode(PlanNode):
    """A stub producer for operator-level tests."""

    def __init__(self, rows):
        self.rows = rows

    def execute(self):
        return iter(self.rows)

    def describe(self):
        return "Rows"


class TestDistinctDedupKey:
    def test_unhashable_values_deduplicate(self):
        rows = [
            {"v": [1, 2]},
            {"v": [1, 2]},
            {"v": [2, 1]},
            {"v": {"k": [3]}},
            {"v": {"k": [3]}},
        ]
        out = list(DistinctNode(_RowsNode(rows)).execute())
        assert out == [{"v": [1, 2]}, {"v": [2, 1]}, {"v": {"k": [3]}}]

    def test_cross_type_values_stay_distinct(self):
        # 0 == False == 0.0 in Python (and they share a hash): a naive
        # dedup key would collapse them
        rows = [{"v": 0}, {"v": False}, {"v": 0.0}, {"v": None}, {"v": ""}]
        out = list(DistinctNode(_RowsNode(rows)).execute())
        assert out == rows

    def test_incomparable_values_do_not_crash(self):
        rows = [{"v": 1}, {"v": "x"}, {"v": 1}, {"v": object()}]
        out = list(DistinctNode(_RowsNode(rows)).execute())
        assert len(out) == 3

    def test_distinct_via_sql_unchanged(self, db):
        rows = execute_sql(db, "SELECT DISTINCT op FROM prov ORDER BY op")
        assert [row["op"] for row in rows] == ["C", "D", "I"]


class TestSQL:
    def test_select_star_order_limit(self, db):
        rows = execute_sql(db, "SELECT * FROM prov ORDER BY tid DESC, loc LIMIT 2")
        assert [row["tid"] for row in rows] == [124, 124]
        assert rows[0]["loc"] < rows[1]["loc"]

    def test_select_columns_and_where(self, db):
        rows = execute_sql(db, "SELECT loc, src FROM prov WHERE op = 'C' AND tid = 124")
        assert sorted(row["loc"] for row in rows) == ["T/c2", "T/c2/x"]
        assert set(rows[0]) == {"loc", "src"}

    def test_like_prefix(self, db):
        rows = execute_sql(db, "SELECT loc FROM prov WHERE loc LIKE 'T/c2%'")
        assert len(rows) == 3

    def test_like_non_prefix_rejected(self, db):
        with pytest.raises(SQLError):
            execute_sql(db, "SELECT * FROM prov WHERE loc LIKE '%c2'")

    def test_is_null(self, db):
        rows = execute_sql(db, "SELECT tid FROM prov WHERE src IS NULL")
        assert sorted(row["tid"] for row in rows) == [121, 123]
        rows = execute_sql(db, "SELECT tid FROM prov WHERE src IS NOT NULL")
        assert len(rows) == 3

    def test_in_list(self, db):
        rows = execute_sql(db, "SELECT * FROM prov WHERE tid IN (121, 123)")
        assert len(rows) == 2

    def test_count_group_by(self, db):
        rows = execute_sql(
            db, "SELECT op, count(*) AS n FROM prov GROUP BY op ORDER BY op"
        )
        assert [(row["op"], row["n"]) for row in rows] == [("C", 3), ("D", 1), ("I", 1)]

    def test_aggregates(self, db):
        row = execute_sql(db, "SELECT min(tid) AS lo, max(tid) AS hi, avg(tid) AS mid FROM prov")[0]
        assert row["lo"] == 121 and row["hi"] == 124
        assert 121 < row["mid"] < 124

    def test_join(self, db):
        rows = execute_sql(
            db,
            "SELECT loc, who FROM prov p JOIN txn t ON p.tid = t.tid "
            "WHERE who = 'carol'",
        )
        assert sorted(row["loc"] for row in rows) == ["T/c2", "T/c2/x"]

    def test_distinct(self, db):
        rows = execute_sql(db, "SELECT DISTINCT op FROM prov")
        assert len(rows) == 3

    def test_delete_where(self, db):
        affected = execute_sql(db, "DELETE FROM prov WHERE tid = 124")[0]["affected"]
        assert affected == 2
        assert execute_sql(db, "SELECT count(*) AS n FROM prov")[0]["n"] == 3

    def test_update(self, db):
        execute_sql(db, "UPDATE txn SET who = 'dave' WHERE tid = 121")
        rows = execute_sql(db, "SELECT who FROM txn WHERE tid = 121")
        assert rows[0]["who"] == "dave"

    def test_create_insert_select_fresh_table(self, db):
        execute_sql(db, "CREATE TABLE note (id INT NOT NULL, body TEXT, PRIMARY KEY (id))")
        execute_sql(db, "INSERT INTO note (id, body) VALUES (1, 'it''s fine')")
        assert execute_sql(db, "SELECT body FROM note")[0]["body"] == "it's fine"

    @pytest.mark.parametrize("through", ["engine", "mvcc"])
    def test_multi_row_insert_is_atomic(self, db, through):
        """A multi-row INSERT is one statement: the duplicate third row
        leaves neither of the first two behind, whether the statement
        runs on the engine (autocommit) or inside an MVCC transaction
        that then commits."""
        execute_sql(db, "CREATE TABLE note (id INT NOT NULL, body TEXT, PRIMARY KEY (id))")
        bad = "INSERT INTO note VALUES (1, 'a'), (2, 'b'), (1, 'c')"
        if through == "engine":
            with pytest.raises(DuplicateKeyError):
                execute_sql(db, bad)
        else:
            txn = MVCCManager(db.db).begin()
            with pytest.raises(DuplicateKeyError):
                txn.sql(bad)
            assert txn.scan("note") == []
            txn.commit()
        assert db.table("note").row_count == 0
        assert execute_sql(db, "SELECT * FROM note") == []

    def test_drop_table(self, db):
        execute_sql(db, "DROP TABLE txn")
        assert not db.db.has_table("txn")

    def test_syntax_errors(self, db):
        for bad in (
            "SELEKT * FROM prov",
            "SELECT * FROM",
            "SELECT * FROM prov WHERE",
            "INSERT INTO prov",
        ):
            with pytest.raises(SQLError):
                execute_sql(db, bad)

    def test_having_filters_groups(self, db):
        rows = execute_sql(
            db,
            "SELECT op, count(*) AS n FROM prov GROUP BY op HAVING n > 1 ORDER BY op",
        )
        assert [(row["op"], row["n"]) for row in rows] == [("C", 3)]

    def test_having_with_comparison_to_group_key(self, db):
        rows = execute_sql(
            db, "SELECT op, count(*) AS n FROM prov GROUP BY op HAVING op = 'D'"
        )
        assert rows == [{"op": "D", "n": 1}]

    def test_limit_offset_pagination(self, db):
        page1 = execute_sql(db, "SELECT tid, loc FROM prov ORDER BY tid, loc LIMIT 2")
        page2 = execute_sql(
            db, "SELECT tid, loc FROM prov ORDER BY tid, loc LIMIT 2 OFFSET 2"
        )
        page3 = execute_sql(
            db, "SELECT tid, loc FROM prov ORDER BY tid, loc LIMIT 2 OFFSET 4"
        )
        everything = execute_sql(db, "SELECT tid, loc FROM prov ORDER BY tid, loc")
        assert page1 + page2 + page3 == everything
        assert len(page3) == 1  # 5 rows total

    def test_offset_requires_integer(self, db):
        with pytest.raises(SQLError):
            execute_sql(db, "SELECT * FROM prov LIMIT 2 OFFSET 'x'")

    def test_null_comparisons_are_false(self, db):
        rows = execute_sql(db, "SELECT * FROM prov WHERE src = 'S1/a2' OR src != 'S1/a2'")
        # NULL src rows match neither side
        assert len(rows) == 3


@pytest.fixture
def events_db():
    """A table big enough that the cost model prefers index probes over
    the 5-row prov fixture's near-tie seq scans."""
    database = QueryEngine(Database("events"))
    execute_sql(
        database,
        "CREATE TABLE ev (k INT NOT NULL, g INT NOT NULL, v TEXT NOT NULL, "
        "PRIMARY KEY (k))",
    )
    execute_sql(database, "CREATE ORDERED INDEX ev_k ON ev (k)")
    execute_sql(database, "CREATE INDEX ev_g_hash ON ev (g)")
    execute_sql(database, "CREATE ORDERED INDEX ev_gk ON ev (g, k)")
    values = ", ".join(f"({i}, {i % 4}, 'v{i}')" for i in range(40))
    execute_sql(database, f"INSERT INTO ev VALUES {values}")
    return database


class TestMultiRangeSnapshots:
    """Exact plans for the disjunction access paths (IN lists, OR) and
    the cost-based tie-break — regressions change these strings."""

    def test_in_list_snapshot(self, events_db):
        plan = _plan_sql(events_db, "SELECT * FROM ev WHERE k IN (3, 1, 3, 7)")
        assert explain(plan) == (
            "IndexRangeScan(ev.ev_k in "
            "[(1,), (1,)] ∪ [(3,), (3,)] ∪ [(7,), (7,)])"
        )

    def test_or_of_ranges_snapshot(self, events_db):
        plan = _plan_sql(events_db, "SELECT * FROM ev WHERE k < 2 OR k >= 38")
        assert explain(plan) == (
            "IndexRangeScan(ev.ev_k in [None, (2,)) ∪ [(38,), None])"
        )

    def test_in_list_desc_order_elides_sort(self, events_db):
        plan = _plan_sql(
            events_db, "SELECT * FROM ev WHERE k IN (1, 5, 9) ORDER BY k DESC"
        )
        assert explain(plan) == (
            "IndexRangeScan(ev.ev_k in "
            "[(1,), (1,)] ∪ [(5,), (5,)] ∪ [(9,), (9,)] desc)"
        )

    def test_eq_prefix_plus_in_list_on_composite(self, events_db):
        plan = _plan_sql(
            events_db, "SELECT * FROM ev WHERE g = 2 AND k IN (2, 30) ORDER BY k"
        )
        rendered = explain(plan)
        assert "IndexRangeScan" in rendered and " ∪ " in rendered
        assert "Sort" not in rendered

    def test_cost_tie_break_prefers_order_serving_index(self, events_db):
        """The PR 2 planner always picked the fully-eq-covered hash index
        (static eq > range priority) and paid a sort; the cost model
        routes the same query through the composite ordered index and
        streams."""
        plan = _plan_sql(events_db, "SELECT * FROM ev WHERE g = 2 ORDER BY k")
        assert explain(plan) == "IndexRangeScan(ev.ev_gk in [(2,), (2, _MAX)])"

    def test_cost_tie_break_without_order_keeps_hash(self, events_db):
        plan = _plan_sql(events_db, "SELECT * FROM ev WHERE g = 2")
        assert explain(plan) == "IndexEqScan(ev.ev_g_hash = (2,))"

    def test_multi_range_rows_match_filter(self, events_db):
        rows = execute_sql(
            events_db, "SELECT k FROM ev WHERE k IN (3, 1, 7) ORDER BY k"
        )
        assert [row["k"] for row in rows] == [1, 3, 7]


class TestPlannedDMLExplain:
    def test_planned_delete_uses_multi_range(self, events_db):
        from repro.storage.expr import Col, InList

        node, residual = events_db.plan_mutation("ev", InList(Col("k"), (1, 7)))
        assert explain(node) == (
            "IndexRangeScan(ev.ev_k in [(1,), (1,)] ∪ [(7,), (7,)])"
        )
        assert residual is None

    def test_planned_delete_keeps_residual(self, events_db):
        from repro.storage.expr import And, Cmp, Col, Const

        predicate = And(Cmp("<", Col("k"), Const(5)), Cmp("=", Col("v"), Const("v1")))
        node, residual = events_db.plan_mutation("ev", predicate)
        assert "IndexRangeScan" in explain(node)
        assert residual is not None and "v1" in repr(residual)

    def test_sql_delete_with_in_list(self, events_db):
        affected = execute_sql(events_db, "DELETE FROM ev WHERE k IN (1, 3, 5)")
        assert affected == [{"affected": 3}]
        assert execute_sql(events_db, "SELECT count(*) AS n FROM ev")[0]["n"] == 37

    def test_sql_update_with_or(self, events_db):
        affected = execute_sql(
            events_db, "UPDATE ev SET v = 'edge' WHERE k < 1 OR k > 38"
        )
        assert affected == [{"affected": 2}]
        rows = execute_sql(events_db, "SELECT k FROM ev WHERE v = 'edge' ORDER BY k")
        assert [row["k"] for row in rows] == [0, 39]


@pytest.fixture
def join_db():
    """Three tables sized so join costs differentiate: a 200-row fact
    table with ordered indexes, an 8-row dimension, a 4-row driver."""
    db = QueryEngine(Database("joins"))
    execute_sql(
        db,
        "CREATE TABLE fact (id INT NOT NULL, grp INT NOT NULL, val TEXT NOT NULL, "
        "PRIMARY KEY (id))",
    )
    execute_sql(db, "CREATE ORDERED INDEX fact_id ON fact (id)")
    execute_sql(db, "CREATE ORDERED INDEX fact_grp ON fact (grp, id)")
    values = ", ".join(f"({i}, {i % 8}, 'v{i}')" for i in range(200))
    execute_sql(db, f"INSERT INTO fact VALUES {values}")
    execute_sql(
        db, "CREATE TABLE dim (grp INT NOT NULL, label TEXT NOT NULL, PRIMARY KEY (grp))"
    )
    execute_sql(
        db, "INSERT INTO dim VALUES " + ", ".join(f"({g}, 'g{g}')" for g in range(8))
    )
    execute_sql(
        db, "CREATE TABLE tiny (id INT NOT NULL, tag TEXT NOT NULL, PRIMARY KEY (id))"
    )
    execute_sql(db, "INSERT INTO tiny VALUES (1, 'x'), (3, 'y'), (5, 'x'), (7, 'z')")
    return db


class TestJoinPlanSnapshots:
    """Exact plans for the cost-based join subsystem: join order, index
    nested loop vs hash choice, and build-side swap — regressions change
    these strings and fail loudly."""

    def test_small_driver_probes_index_nested_loop(self, join_db):
        plan = _plan_sql(join_db, "SELECT * FROM tiny t JOIN fact f ON t.id = f.id")
        assert explain(plan) == (
            "IndexNestedLoopJoin(fact.fact_pk_idx <- (Col(name='t.id')))\n"
            "  SeqScan(tiny)"
        )

    def test_three_table_join_reorders_to_smallest_driver(self, join_db):
        """As written the query starts from the 200-row fact table; the
        join-graph order starts from the 4-row driver and probes up the
        chain instead."""
        plan = _plan_sql(
            join_db,
            "SELECT * FROM fact f JOIN dim d ON f.grp = d.grp "
            "JOIN tiny t ON f.id = t.id",
        )
        assert explain(plan) == (
            "IndexNestedLoopJoin(dim.dim_pk_idx <- (Col(name='f.grp')))\n"
            "  IndexNestedLoopJoin(fact.fact_pk_idx <- (Col(name='t.id')))\n"
            "    SeqScan(tiny)"
        )

    def test_unindexed_join_key_swaps_build_side(self, join_db):
        """No index serves t.tag = f.val, so the join hashes — building
        on the 4-row side while the 200-row side streams."""
        plan = _plan_sql(join_db, "SELECT * FROM tiny t JOIN fact f ON t.tag = f.val")
        assert explain(plan) == (
            "HashJoin(Col(name='t.tag') = Col(name='f.val'), build=left)\n"
            "  SeqScan(tiny)\n"
            "  SeqScan(fact)"
        )

    def test_local_predicate_rides_the_probe_as_residual(self, join_db):
        plan = _plan_sql(
            join_db,
            "SELECT label FROM tiny t JOIN fact f ON t.id = f.id "
            "JOIN dim d ON f.grp = d.grp WHERE f.grp <= 3",
        )
        rendered = explain(plan)
        assert "filter Cmp(op='<=', left=Col(name='f.grp')" in rendered
        assert rendered.splitlines()[0] == "Project(label)"

    def test_explain_estimates_annotate_every_operator(self, join_db):
        from repro.storage.sql import parse_statement

        query = parse_statement(
            "SELECT * FROM tiny t JOIN fact f ON t.id = f.id"
        ).query
        rendered = join_db.explain(query, estimates=True)
        assert "(est_rows=4)" in rendered
        # and the default rendering stays estimate-free
        assert "est_rows" not in join_db.explain(query)

    def test_naive_oracle_keeps_written_left_deep_hash_joins(self, join_db):
        from repro.storage.sql import parse_statement

        query = parse_statement(
            "SELECT * FROM fact f JOIN dim d ON f.grp = d.grp "
            "JOIN tiny t ON f.id = t.id"
        ).query
        assert join_db.explain(query, naive=True) == (
            "HashJoin(Col(name='f.id') = Col(name='t.id'))\n"
            "  HashJoin(Col(name='f.grp') = Col(name='d.grp'))\n"
            "    SeqScan(fact)\n"
            "    SeqScan(dim)\n"
            "  SeqScan(tiny)"
        )


class TestIndexNestedLoopChunking:
    """Operator-level: chunked probing is invisible apart from the
    number of probe batches issued."""

    def test_chunked_probes_match_single_batch(self, join_db):
        from repro.storage.plan import INLJ_CHUNK, IndexNestedLoopJoin, SeqScan
        from repro.storage.expr import Col

        tiny = join_db.table("tiny")
        fact = join_db.table("fact")

        def rows(**chunk):
            node = IndexNestedLoopJoin(
                SeqScan(tiny, "t"), fact, "fact_id", (Col("t.id"),),
                alias="f", **chunk,
            )
            return sorted(
                (env["t.id"], env["f.val"]) for env in node.execute()
            )

        assert tiny.row_count == 4 < INLJ_CHUNK
        before = dict(fact.access_counts)
        single = rows()  # the default chunk: 4 driver rows -> 1 probe batch
        assert fact.access_counts["inlj_probe"] == before["inlj_probe"] + 1
        assert fact.access_counts["multi_range_scan"] == before["multi_range_scan"] + 1
        chunked = rows(chunk=2)  # 4 driver rows -> 2 probe batches
        assert fact.access_counts["inlj_probe"] == before["inlj_probe"] + 3
        assert fact.access_counts["multi_range_scan"] == before["multi_range_scan"] + 3
        assert chunked == single == [(1, "v1"), (3, "v3"), (5, "v5"), (7, "v7")]

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_is_rejected(self, join_db, chunk):
        from repro.storage.plan import IndexNestedLoopJoin, SeqScan
        from repro.storage.expr import Col

        with pytest.raises(ValueError, match="chunk must be >= 1"):
            IndexNestedLoopJoin(
                SeqScan(join_db.table("tiny"), "t"), join_db.table("fact"),
                "fact_id", (Col("t.id"),), alias="f", chunk=chunk,
            )


class TestJoinSQL:
    def test_reversed_on_operand_order(self, join_db):
        forward = execute_sql(
            join_db, "SELECT val, tag FROM tiny t JOIN fact f ON t.id = f.id"
        )
        reversed_ = execute_sql(
            join_db, "SELECT val, tag FROM tiny t JOIN fact f ON f.id = t.id"
        )
        key = lambda row: sorted(row.items())
        assert sorted(forward, key=key) == sorted(reversed_, key=key)
        assert len(forward) == 4

    def test_multi_conjunct_on(self, join_db):
        rows = execute_sql(
            join_db,
            "SELECT label FROM fact f JOIN dim d ON f.grp = d.grp AND f.id = d.grp",
        )
        # only rows where id == grp, i.e. id in 0..7
        assert len(rows) == 8

    def test_non_equi_on_conjunct(self, join_db):
        rows = execute_sql(
            join_db,
            "SELECT tag, label FROM tiny t JOIN dim d ON t.id = d.grp AND t.id < 5",
        )
        assert sorted(row["tag"] for row in rows) == ["x", "y"]

    def test_on_requires_a_comparison(self, join_db):
        with pytest.raises(SQLError):
            execute_sql(join_db, "SELECT * FROM tiny t JOIN fact f ON t.id LIKE 'x%'")

    def test_three_table_join_results(self, join_db):
        rows = execute_sql(
            join_db,
            "SELECT label, val FROM tiny t JOIN fact f ON t.id = f.id "
            "JOIN dim d ON f.grp = d.grp",
        )
        assert sorted((row["label"], row["val"]) for row in rows) == [
            ("g1", "v1"), ("g3", "v3"), ("g5", "v5"), ("g7", "v7"),
        ]

    def test_ambiguous_unaliased_shared_column_raises(self):
        from repro.storage import AmbiguousColumnError

        db = QueryEngine(Database("amb"))
        execute_sql(db, "CREATE TABLE l (k INT NOT NULL, w INT NOT NULL)")
        execute_sql(db, "CREATE TABLE r (k INT NOT NULL, w INT NOT NULL)")
        execute_sql(db, "INSERT INTO l VALUES (1, 10)")
        execute_sql(db, "INSERT INTO r VALUES (1, 20)")
        with pytest.raises(AmbiguousColumnError):
            execute_sql(db, "SELECT * FROM l JOIN r ON k = k")
        # aliased + qualified: the same data reads fine
        rows = execute_sql(
            db, "SELECT x.w AS xw, y.w AS yw FROM l x JOIN r y ON x.k = y.k"
        )
        assert rows == [{"xw": 10, "yw": 20}]


class TestNegatedAtoms:
    def test_not_in(self, db):
        rows = execute_sql(db, "SELECT tid FROM prov WHERE tid NOT IN (121, 123)")
        assert sorted(row["tid"] for row in rows) == [122, 124, 124]

    def test_not_between(self, db):
        rows = execute_sql(db, "SELECT tid FROM prov WHERE tid NOT BETWEEN 122 AND 123")
        assert sorted(row["tid"] for row in rows) == [121, 124, 124]

    def test_not_like(self, db):
        rows = execute_sql(db, "SELECT loc FROM prov WHERE loc NOT LIKE 'T/c2%'")
        assert sorted(row["loc"] for row in rows) == ["T/c1/y", "T/c5"]

    def test_not_requires_atom_keyword(self, db):
        with pytest.raises(SQLError):
            execute_sql(db, "SELECT * FROM prov WHERE tid NOT = 5")
