"""Tests for the virtual clock, cost model, and round-trip-counting
client (over the in-process transport)."""

import pytest

from repro.common.clock import CostModel, VirtualClock
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.client import Client, LocalTransport
from repro.storage.server import DatabaseServer


class TestVirtualClock:
    def test_charges_accumulate(self):
        clock = VirtualClock()
        clock.charge("a", 10)
        clock.charge("a", 5)
        clock.charge("b", 1)
        assert clock.now_ms == 16
        assert clock.total("a") == 15
        assert clock.count("a") == 2
        assert clock.average("a") == 7.5
        assert clock.average("missing") == 0.0

    def test_negative_charge_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.charge("a", -1)

    def test_reset(self):
        clock = VirtualClock()
        clock.charge("a", 10)
        clock.reset()
        assert clock.now_ms == 0
        assert clock.categories() == {}


class TestCostModel:
    def test_cost_shapes(self):
        model = CostModel()
        # batched commit rows are cheaper per row than statement rows —
        # the round-trip saving credited to transactional provenance
        assert model.batch_write_cost(10) < model.statement_write_cost(10)
        # a bigger statement costs more
        assert model.statement_write_cost(4) > model.statement_write_cost(1)
        # query cost grows with rows scanned
        assert model.query_cost(1000) > model.query_cost(10)

    def test_naive_copy_overhead_band(self):
        """The calibration invariant behind Figure 10: a naive copy of a
        size-4 subtree costs 25-32% of a target interaction ("it can
        increase the time to process each update by 28%")."""
        model = CostModel()
        overhead = model.statement_write_cost(4) / model.target_op_ms
        assert 0.25 <= overhead <= 0.32

    def test_ht_check_band(self):
        """HT basic operations must stay under the paper's ~6%."""
        model = CostModel()
        assert model.check_ms / model.target_op_ms <= 0.06


def make_db():
    db = Database("d")
    db.create_table(TableSchema(
        "t",
        [Column("k", ColumnType.INT, nullable=False), Column("v", ColumnType.TEXT)],
        primary_key=("k",),
    ))
    return db


def make_client(clock=None, category="store"):
    return Client(LocalTransport(DatabaseServer(make_db())), clock=clock, category=category)


class TestStoreClient:
    """The client as a provenance store uses it: round trips and clock
    charges, over the in-process transport."""

    def test_each_call_is_one_round_trip(self):
        clock = VirtualClock()
        client = make_client(clock, category="src")
        client.insert("t", (1, "a"))
        client.insert_many("t", [(2, "b"), (3, "c")])
        client.sql("SELECT * FROM t")
        assert client.round_trips == 3

    def test_batching_is_cheaper_than_singles(self):
        clock_single = VirtualClock()
        single = make_client(clock_single)
        for k in range(5):
            single.insert("t", (k, "x"))

        clock_batch = VirtualClock()
        batch = make_client(clock_batch)
        batch.insert_many("t", [(k, "x") for k in range(5)])

        assert clock_batch.now_ms < clock_single.now_ms

    def test_sql_and_stats(self):
        client = make_client()
        client.sql("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        rows = client.sql("SELECT * FROM t ORDER BY k")
        assert [row["k"] for row in rows] == [1, 2]
        assert client.stats()["t"]["rows"] == 2
        assert client.stats()["t"]["bytes"] > 0
        assert client.sql("DELETE FROM t")[0]["affected"] == 2

    def test_update_where(self):
        client = make_client()
        client.insert("t", (1, "x"))
        assert client.sql("UPDATE t SET v = 'z'")[0]["affected"] == 1
        assert client.sql("SELECT v FROM t")[0]["v"] == "z"

    def test_charges_the_rows_each_message_moved(self):
        """One statement charge per message, for the rows it inserted,
        returned or (for DML) affected."""
        clock = VirtualClock()
        client = make_client(clock, category="src")
        client.batch([
            {"op": "insert", "table": "t", "row": [1, "a"]},
            {"op": "insert_many", "table": "t", "rows": [[2, "b"], [3, "c"]]},
        ])
        client.get("t", [1])
        client.get("t", [9])
        client.sql("SELECT * FROM t")
        client.sql("UPDATE t SET v = 'z' WHERE k > 1")
        model = client.cost_model
        assert clock.total("src.batch") == model.statement_write_cost(3)
        assert clock.total("src.get") == (
            model.statement_write_cost(1) + model.statement_write_cost(0)
        )
        assert clock.total("src.sql") == (
            model.statement_write_cost(3) + model.statement_write_cost(2)
        )
        assert clock.now_ms == sum(
            model.statement_write_cost(rows) for rows in (3, 1, 0, 3, 2)
        )
