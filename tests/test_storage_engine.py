"""Tests for the embedded relational engine: schema, codec, indexes, table."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.db import Database
from repro.storage.errors import (
    ConstraintError,
    DuplicateKeyError,
    SchemaError,
    UnknownColumnError,
)
from repro.storage.index import HashIndex, OrderedIndex, prefix_range
from repro.storage.mvcc import MVCCManager
from repro.storage.query import QueryEngine
from repro.storage.schema import Column, IndexSpec, TableSchema
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.table import Table
from repro.storage.types import ColumnType

# ``REPRO_HYPOTHESIS_PROFILE=ci`` derandomizes the properties here (same
# example budgets), so a storage-oracle regression fails deterministically.
_PROFILES = {
    "default": {},
    "ci": {"derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)


def prov_schema():
    return TableSchema(
        "prov",
        [
            Column("tid", ColumnType.INT, nullable=False),
            Column("op", ColumnType.CHAR, nullable=False),
            Column("loc", ColumnType.TEXT, nullable=False),
            Column("src", ColumnType.TEXT),
        ],
        primary_key=("tid", "loc"),
        indexes=(
            IndexSpec("prov_tid", ("tid",)),
            IndexSpec("prov_loc", ("loc",), ordered=True),
        ),
    )


class TestTypes:
    def test_parse_aliases(self):
        assert ColumnType.parse("integer") is ColumnType.INT
        assert ColumnType.parse("VARCHAR") is ColumnType.TEXT
        assert ColumnType.parse("double") is ColumnType.REAL
        with pytest.raises(SchemaError):
            ColumnType.parse("BLOB")

    def test_validation(self):
        schema = prov_schema()
        with pytest.raises(SchemaError):
            schema.normalize_row((1, "CC", "a", None))  # CHAR must be length 1
        with pytest.raises(SchemaError):
            schema.normalize_row(("x", "C", "a", None))  # INT column
        with pytest.raises(SchemaError):
            schema.normalize_row((1, "C", None, None))  # NOT NULL

    def test_int_real_coercion(self):
        schema = TableSchema("t", [Column("x", ColumnType.REAL)])
        assert schema.normalize_row((3,)) == (3.0,)

    def test_bool_is_not_int(self):
        schema = TableSchema("t", [Column("x", ColumnType.INT)])
        with pytest.raises(SchemaError):
            schema.normalize_row((True,))


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", ColumnType.INT), Column("a", ColumnType.INT)])

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", ColumnType.INT)], primary_key=("b",))

    def test_row_mapping_form(self):
        schema = prov_schema()
        row = schema.normalize_row({"tid": 1, "op": "C", "loc": "T/a", "src": "S/a"})
        assert row == (1, "C", "T/a", "S/a")
        with pytest.raises(UnknownColumnError):
            schema.normalize_row({"tid": 1, "op": "C", "loc": "a", "zzz": 1})

    def test_defaults(self):
        schema = TableSchema(
            "t", [Column("a", ColumnType.INT), Column("b", ColumnType.TEXT, default="x")]
        )
        assert schema.normalize_row({"a": 1}) == (1, "x")

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            prov_schema().normalize_row((1, "C"))


scalar_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.booleans(),
)


class TestCodec:
    def test_roundtrip_simple(self):
        codec = prov_schema().codec
        row = (121, "C", "T/c1/y", "S1/a1/y")
        assert codec.decode(codec.encode(row)) == (row, len(codec.encode(row)))

    def test_roundtrip_nulls(self):
        codec = prov_schema().codec
        row = (121, "D", "T/c5", None)
        assert codec.decode(codec.encode(row))[0] == row

    def test_length_prefixed(self):
        codec = prov_schema().codec
        row = (1, "I", "T/x", None)
        data = codec.encode(row) + codec.encode((2, "I", "T/y", None))
        first, offset = codec.decode(data, 0)
        second, end = codec.decode(data, offset)
        assert first == row
        assert second[0] == 2
        assert end == len(data)

    def test_unicode_char(self):
        codec = TableSchema("t", [Column("c", ColumnType.CHAR)]).codec
        row = ("é",)
        assert codec.decode(codec.encode(row))[0] == row

    @settings(**_PROFILE)
    @given(st.lists(st.tuples(st.integers(-1000, 1000), st.text(max_size=10)), max_size=5))
    def test_roundtrip_many(self, pairs):
        codec = TableSchema(
            "t", [Column("n", ColumnType.INT), Column("s", ColumnType.TEXT)]
        ).codec
        for n, s in pairs:
            assert codec.decode(codec.encode((n, s)))[0] == (n, s)

    def test_row_bytes_matches_schema_estimate(self):
        schema = prov_schema()
        row = schema.normalize_row((121, "C", "T/c1/y", "S1/a1/y"))
        # schema.row_bytes is the byte accounting; it is the codec's exact size
        assert schema.row_bytes(row) == len(schema.codec.encode(row))


class TestIndexes:
    def test_hash_index(self):
        index = HashIndex("i")
        index.insert((1,), 10)
        index.insert((1,), 11)
        assert index.lookup((1,)) == {10, 11}
        index.delete((1,), 10)
        assert index.lookup((1,)) == {11}
        assert len(index) == 1

    def test_unique_hash_index(self):
        index = HashIndex("i", unique=True)
        index.insert((1,), 10)
        with pytest.raises(DuplicateKeyError):
            index.insert((1,), 11)

    def test_ordered_range(self):
        index = OrderedIndex("i")
        for value, rowid in ((3, 1), (1, 2), (2, 3), (5, 4)):
            index.insert((value,), rowid)
        assert list(index.multi_range([((2,), (3,), True, True)])) == [3, 1]
        assert list(index.multi_range([((4,), None, True, True)])) == [4]
        assert index.min_key() == (1,)
        assert index.max_key() == (5,)

    def test_ordered_prefix_scan(self):
        index = OrderedIndex("i")
        for text, rowid in (("T/a", 1), ("T/a/x", 2), ("T/ab", 3), ("T/b", 4)):
            index.insert((text,), rowid)
        assert set(index.multi_range([prefix_range("T/a")])) == {1, 2, 3}
        assert set(index.multi_range([prefix_range("T/a/")])) == {2}


class TestTable:
    def test_insert_and_pk_lookup(self):
        table = Table(prov_schema())
        table.insert((1, "I", "T/a", None))
        found = table.lookup_pk((1, "T/a"))
        assert found is not None
        assert found[1][1] == "I"

    def test_pk_uniqueness(self):
        table = Table(prov_schema())
        table.insert((1, "I", "T/a", None))
        with pytest.raises(DuplicateKeyError):
            table.insert((1, "C", "T/a", "S/a"))
        # the failed insert must not corrupt the table
        assert table.row_count == 1
        table.insert((2, "C", "T/a", "S/a"))
        assert table.row_count == 2

    def test_pk_null_rejected(self):
        schema = TableSchema(
            "t", [Column("k", ColumnType.INT), Column("v", ColumnType.TEXT)],
            primary_key=("k",),
        )
        table = Table(schema)
        with pytest.raises(ConstraintError):
            table.insert((None, "x"))

    def test_delete_maintains_indexes(self):
        table = Table(prov_schema())
        rowid = table.insert((1, "I", "T/a", None))
        table.insert((2, "I", "T/b", None))
        table.delete_row(rowid)
        assert table.lookup_pk((1, "T/a")) is None
        assert not list(table.lookup_index("prov_tid", (1,)))
        assert table.row_count == 1

    def test_update_row(self):
        table = Table(prov_schema())
        rowid = table.insert((1, "I", "T/a", None))
        old, new = table.update_row(rowid, {"op": "C", "src": "S/a"})
        assert old[1] == "I" and new[1] == "C"
        assert table.get(rowid)[3] == "S/a"

    def test_byte_accounting(self):
        table = Table(prov_schema())
        assert table.byte_size == 0
        rowid = table.insert((1, "I", "T/a", None))
        size = table.byte_size
        assert size > 0
        table.insert((2, "C", "T/b", "S/b"))
        assert table.byte_size > size
        table.delete_row(rowid)
        table.delete_row(2)
        assert table.byte_size == 0

    def test_scan_in_insertion_order(self):
        table = Table(prov_schema())
        table.insert((3, "I", "T/c", None))
        table.insert((1, "I", "T/a", None))
        assert [row[0] for _rid, row in table.scan()] == [3, 1]

    def test_create_index_backfills(self):
        table = Table(prov_schema())
        table.insert((1, "I", "T/a", None))
        table.create_index(IndexSpec("by_op", ("op",)))
        assert len(list(table.lookup_index("by_op", ("I",)))) == 1

    def test_range_scan(self):
        table = Table(prov_schema())
        for tid, loc in ((1, "T/a"), (2, "T/b"), (3, "T/c"), (4, "T/d")):
            table.insert((tid, "I", loc, None))
        rows = list(table.multi_range_scan("prov_loc", [(("T/b",), ("T/c",), True, True)]))
        assert [row[2] for _rid, row in rows] == ["T/b", "T/c"]
        rows = list(table.multi_range_scan("prov_loc", [(("T/b",), None, False, True)]))
        assert [row[2] for _rid, row in rows] == ["T/c", "T/d"]
        with pytest.raises(ConstraintError):
            list(table.multi_range_scan("prov_tid", [((1,), None, True, True)]))


def _pk_indexes(table):
    """Names of the unique indexes over exactly the primary-key columns."""
    key = table.schema.primary_key
    return [
        name
        for name, spec in table.index_specs.items()
        if spec.unique and spec.columns == key
    ]


def _prov_schema_plus(extra):
    """``prov_schema`` with one more declared index."""
    schema = prov_schema()
    return TableSchema(
        "prov",
        list(schema.columns),
        primary_key=schema.primary_key,
        indexes=schema.indexes + (extra,),
    )


def _declared_pk_schema():
    """A declared unique index over exactly the key: the one to reuse."""
    return _prov_schema_plus(IndexSpec("prov_key", ("tid", "loc"), unique=True, ordered=True))


def _nonunique_pk_schema():
    """A declared index over exactly the key that does not enforce it."""
    return _prov_schema_plus(IndexSpec("prov_key", ("tid", "loc")))


class TestPrimaryKeyIndex:
    """The primary key is an ordinary unique index, chosen the same way
    on every construction path: a declared unique index over exactly the
    key columns is reused; otherwise ``<table>_pk_idx`` is added after
    the declared indexes.  Either way there is exactly one."""

    CASES = [
        (prov_schema, ["prov_tid", "prov_loc", "prov_pk_idx"], "prov_pk_idx"),
        (_declared_pk_schema, ["prov_tid", "prov_loc", "prov_key"], "prov_key"),
        (
            _nonunique_pk_schema,
            ["prov_tid", "prov_loc", "prov_key", "prov_pk_idx"],
            "prov_pk_idx",
        ),
    ]

    def check(self, table, names, pk_name):
        assert list(table.index_specs) == names
        assert _pk_indexes(table) == [pk_name]
        found = table.lookup_pk((1, "T/a"))
        assert found is not None and found[1] == (1, "I", "T/a", None)
        assert table.lookup_pk((2, "T/a")) is None
        with pytest.raises(DuplicateKeyError, match=pk_name):
            table.insert((1, "C", "T/a", None))

    @pytest.mark.parametrize("make_schema,names,pk_name", CASES)
    def test_table_constructor(self, make_schema, names, pk_name):
        table = Table(make_schema())
        table.insert((1, "I", "T/a", None))
        self.check(table, names, pk_name)

    @pytest.mark.parametrize("make_schema,names,pk_name", CASES)
    def test_create_table(self, make_schema, names, pk_name):
        db = Database()
        db.create_table(make_schema())
        db.insert("prov", (1, "I", "T/a", None))
        self.check(db.table("prov"), names, pk_name)

    @pytest.mark.parametrize("make_schema,names,pk_name", CASES)
    def test_load_snapshot(self, tmp_path, make_schema, names, pk_name):
        db = Database()
        db.create_table(make_schema())
        db.insert("prov", (1, "I", "T/a", None))
        path = str(tmp_path / "db.snap")
        save_snapshot(db, path)
        self.check(load_snapshot(path).table("prov"), names, pk_name)

    @pytest.mark.parametrize("make_schema,names,pk_name", CASES)
    def test_mvcc_view(self, make_schema, names, pk_name):
        db = Database()
        db.create_table(make_schema())
        db.insert("prov", (1, "I", "T/a", None))
        manager = MVCCManager(db)
        reader = manager.begin()
        writer = manager.begin()
        writer.insert("prov", (3, "I", "T/c", None))
        writer.commit()
        # a commit newer than the reader's snapshot forces a rebuilt view
        view = manager.read_view("prov", reader.snapshot_ts)
        assert view is not db.table("prov")
        assert view.lookup_pk((3, "T/c")) is None
        self.check(view, names, pk_name)

    @pytest.mark.parametrize("make_schema,names,pk_name", CASES)
    def test_from_snapshot_without_a_pk_spec(self, make_schema, names, pk_name):
        schema = make_schema()
        view = Table._from_snapshot(
            schema, {7: (1, "I", "T/a", None)}, list(schema.indexes)
        )
        self.check(view, names, pk_name)
        assert view.lookup_pk((1, "T/a"))[0] == 7

    def test_snapshot_bytes_hold_declared_indexes_only(self, tmp_path):
        db = Database()
        db.create_table(prov_schema())
        path = str(tmp_path / "db.snap")
        save_snapshot(db, path)
        with open(path, "rb") as handle:
            data = handle.read()
        assert b"prov_loc" in data and b"prov_pk_idx" not in data


class TestBulkInsert:
    """The batch lifecycle path: one validation pass, one index pass."""

    def rows(self, n, start=0):
        return [(start + i, "I", f"T/c{(start + i) % 7}/x{start + i}", None) for i in range(n)]

    def test_bulk_matches_incremental_inserts(self):
        bulk, incremental = Table(prov_schema()), Table(prov_schema())
        rows = self.rows(40)
        assert bulk.bulk_insert(rows) == [incremental.insert(row) for row in rows]
        assert list(bulk.scan()) == list(incremental.scan())
        assert bulk.byte_size == incremental.byte_size
        subtree = [prefix_range("T/c3/")]
        assert list(bulk.multi_range_scan("prov_loc", subtree)) == list(
            incremental.multi_range_scan("prov_loc", subtree)
        )
        assert bulk.lookup_pk((3, "T/c3/x3")) == incremental.lookup_pk((3, "T/c3/x3"))

    def test_bulk_into_populated_table_merges_indexes(self):
        table = Table(prov_schema())
        for row in self.rows(5):
            table.insert(row)
        # batch much larger than the index: exercises the merge-rebuild arm
        table.bulk_insert(self.rows(40, start=100))
        # batch smaller than the index: exercises the incremental arm
        table.bulk_insert(self.rows(3, start=500))
        oracle = Table(prov_schema())
        for row in self.rows(5) + self.rows(40, start=100) + self.rows(3, start=500):
            oracle.insert(row)
        assert [row for _rid, row in table.scan()] == [
            row for _rid, row in oracle.scan()
        ]
        window = [(("T/c2",), ("T/c5",), True, True)]
        assert list(table.multi_range_scan("prov_loc", window)) == list(
            oracle.multi_range_scan("prov_loc", window)
        )

    def test_batch_pk_violation_leaves_table_unchanged(self):
        table = Table(prov_schema())
        table.insert((1, "I", "T/a", None))
        with pytest.raises(DuplicateKeyError):
            table.bulk_insert([(2, "I", "T/b", None), (1, "I", "T/a", None)])
        with pytest.raises(DuplicateKeyError):  # duplicate inside the batch
            table.bulk_insert([(3, "I", "T/c", None), (3, "I", "T/c", None)])
        assert table.row_count == 1
        assert len(table._indexes["prov_tid"]) == 1
        assert len(table._indexes["prov_loc"]) == 1

    def test_batch_null_pk_rejected(self):
        table = Table(prov_schema())
        # normalize_row rejects the NULL in the NOT NULL pk column first
        # (SchemaError); either way the table must be left untouched
        with pytest.raises((ConstraintError, SchemaError)):
            table.bulk_insert([(None, "I", "T/a", None)])
        assert table.row_count == 0

    def test_empty_batch(self):
        table = Table(prov_schema())
        assert table.bulk_insert([]) == []

    def test_create_index_backfills_bulk(self):
        table = Table(prov_schema())
        rows = self.rows(30)
        table.bulk_insert(rows)
        table.create_index(IndexSpec("prov_src", ("loc", "tid"), ordered=True))
        scanned = [
            row for _rid, row in table.multi_range_scan("prov_src", [(None, None, True, True)])
        ]
        assert scanned == sorted(rows, key=lambda row: (row[2], row[0]))

    def test_bulk_insert_respects_max_stats(self):
        table = Table(prov_schema())
        table.track_max("tid")
        table.bulk_insert(self.rows(10))
        assert table.max_value("tid") == 9


def oracle_schema(nullable_ordered_key):
    """Every index kind over NOT NULL and nullable key columns: a unique
    ordered index first, a non-unique hash index, a non-unique ordered
    index over ``(a, b)`` (nullable or not), a unique hash index, then
    the primary key's."""
    return TableSchema(
        "o",
        [
            Column("k", ColumnType.INT, nullable=False),
            Column("a", ColumnType.TEXT, nullable=nullable_ordered_key),
            Column("b", ColumnType.INT, nullable=nullable_ordered_key),
            Column("c", ColumnType.TEXT, nullable=False),
            Column("d", ColumnType.REAL),
        ],
        primary_key=("k",),
        indexes=(
            IndexSpec("o_c", ("c",), unique=True, ordered=True),
            IndexSpec("o_d", ("d",)),
            IndexSpec("o_ab", ("a", "b"), ordered=True),
            IndexSpec("o_bk", ("b", "k"), unique=True),
        ),
    )


@st.composite
def oracle_batches(draw):
    nullable = draw(st.booleans())
    maybe = (lambda values: st.none() | values) if nullable else (lambda values: values)
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 12),
                maybe(st.sampled_from(["x", "y", "é"])),
                maybe(st.integers(-2, 2)),
                st.sampled_from(["p", "q", "r", "s", "t", "u", "v", "w"]),
                st.none() | st.floats(-3, 3),
            ),
            max_size=8,
        )
    )
    return oracle_schema(nullable), rows


def index_entries(table):
    """Every index's entries: a hash index's buckets with their row ids
    in order, an ordered index's ``(key, rowid)`` pairs in order."""
    return {
        name: list(index.items())
        if isinstance(index, OrderedIndex)
        else [(key, list(bucket)) for key, bucket in index._buckets.items()]
        for name, index in table._indexes.items()
    }


def expected_batch_error(table, rows):
    """The error a batch into ``table`` raises, as the validate phase
    defines it: a NULL primary-key component, then index by index in
    the table's order, a NULL in an ordered key, then a key repeated
    in a unique index — each the first in batch order."""
    if any(table.schema.key_of(row)[0] is None for row in rows):
        return ConstraintError, None
    for name, index in table._indexes.items():
        keys = [table._key_getters[name](row) for row in rows]
        if isinstance(index, OrderedIndex) and any(None in key for key in keys):
            return ConstraintError, None
        if index.unique:
            seen = set()
            for key in keys:
                if key in seen:
                    return DuplicateKeyError, f"duplicate key {key!r} in unique index {name!r}"
                seen.add(key)
    return None, None


class TestEmptyTableBulkPath:
    """``_bulk_insert`` into an empty table builds each index whole with
    its ``bulk_build``; the result must be the table row-at-a-time
    inserts build, and a failing batch must leave the table empty."""

    @settings(max_examples=300, **_PROFILE)
    @given(oracle_batches())
    def test_bulk_build_equals_row_at_a_time_inserts(self, case):
        schema, raw = case
        rows = [schema.codec.normalize(row) for row in raw]
        bulk = Table(schema)
        bulk.track_max("k")
        bulk.track_max("d")
        error, message = expected_batch_error(bulk, rows)
        if error is not None:
            with pytest.raises(error) as raised:
                bulk._bulk_insert(rows, sum(map(schema.codec.size, rows)))
            if message is not None:
                assert str(raised.value) == message
            assert bulk.row_count == 0 and bulk.byte_size == 0
            assert all(entries == [] for entries in index_entries(bulk).values())
            assert bulk.max_value("k") is None and bulk.max_value("d") is None
            return
        oracle = Table(schema)
        oracle.track_max("k")
        oracle.track_max("d")
        rowids = [oracle.insert(row) for row in rows]
        assert bulk._bulk_insert(rows, sum(map(schema.codec.size, rows))) == rowids
        assert list(bulk.scan()) == list(oracle.scan())
        assert index_entries(bulk) == index_entries(oracle)
        for column in ("k", "d"):
            assert bulk.max_value(column) == oracle.max_value(column)
            assert bulk._max_stats[column][1]._counts == oracle._max_stats[column][1]._counts
        assert bulk.byte_size == oracle.byte_size

    def test_in_batch_duplicate_names_the_first_repeat(self):
        table = Table(oracle_schema(False))
        rows = [(1, "x", 0, "q", None), (2, "x", 0, "p", None), (3, "x", 0, "q", None),
                (4, "x", 0, "p", None)]
        # the first repeat in batch order is "q", though the ordered
        # index's sorted build meets "p" first
        with pytest.raises(DuplicateKeyError, match=r"key \('q',\) in unique index 'o_c'"):
            table.bulk_insert(rows)
        assert table.row_count == 0 and index_entries(table)["o_c"] == []

    def test_null_in_a_nullable_ordered_key_is_rejected(self):
        table = Table(oracle_schema(True))
        with pytest.raises(ConstraintError, match="ordered index 'o_ab'"):
            table.bulk_insert([(1, "x", 0, "p", None), (2, None, 1, "q", None)])
        assert table.row_count == 0 and index_entries(table)["o_ab"] == []


class TestUpdateRow:
    """Regression: a failing update must never destroy the old row.

    The seed implemented update as delete_row + insert, so a constraint
    violation in the new row deleted the old one before failing.
    """

    def test_pk_collision_keeps_old_row(self):
        table = Table(prov_schema())
        table.insert((1, "I", "T/a", None))
        rowid = table.insert((2, "I", "T/b", None))
        with pytest.raises(DuplicateKeyError):
            table.update_row(rowid, {"tid": 1, "loc": "T/a"})
        # the row is intact, in the heap and in every index
        assert table.get(rowid) == (2, "I", "T/b", None)
        assert table.lookup_pk((2, "T/b")) == (rowid, (2, "I", "T/b", None))
        assert [rid for rid, _row in table.lookup_index("prov_tid", (2,))] == [rowid]
        assert [rid for rid, _row in table.lookup_index("prov_loc", ("T/b",))] == [rowid]
        assert table.row_count == 2

    def test_unique_secondary_collision_keeps_old_row(self):
        schema = TableSchema(
            "t",
            [Column("k", ColumnType.INT), Column("u", ColumnType.TEXT)],
            primary_key=("k",),
            indexes=(IndexSpec("t_u", ("u",), unique=True),),
        )
        table = Table(schema)
        table.insert((1, "a"))
        rowid = table.insert((2, "b"))
        with pytest.raises(DuplicateKeyError):
            table.update_row(rowid, {"u": "a"})
        assert table.get(rowid) == (2, "b")
        assert [rid for rid, _row in table.lookup_index("t_u", ("b",))] == [rowid]

    def test_null_pk_rejected_keeps_old_row(self):
        schema = TableSchema(
            "t",
            [Column("k", ColumnType.INT, nullable=False), Column("v", ColumnType.TEXT)],
            primary_key=("k",),
        )
        table = Table(schema)
        rowid = table.insert((1, "x"))
        with pytest.raises(SchemaError):
            # NOT NULL is caught by row normalization before any mutation
            table.update_row(rowid, {"k": None})
        assert table.get(rowid) == (1, "x")
        assert table.lookup_pk((1,)) == (rowid, (1, "x"))

    def test_delta_maintenance_only_touches_changed_indexes(self):
        table = Table(prov_schema())
        rowid = table.insert((1, "I", "T/a", None))
        # op is not covered by any index: the loc/tid indexes keep their
        # entries (same projections), and the heap row changes in place
        old, new = table.update_row(rowid, {"op": "C", "src": "S/a"})
        assert old == (1, "I", "T/a", None) and new == (1, "C", "T/a", "S/a")
        assert table.lookup_pk((1, "T/a")) == (rowid, new)
        assert [rid for rid, _row in table.lookup_index("prov_loc", ("T/a",))] == [rowid]
        # and a key-column change moves the entry
        table.update_row(rowid, {"loc": "T/z"})
        assert not list(table.lookup_index("prov_loc", ("T/a",)))
        assert [rid for rid, _row in table.lookup_index("prov_loc", ("T/z",))] == [rowid]

    def test_update_preserves_scan_order(self):
        table = Table(prov_schema())
        table.insert((1, "I", "T/a", None))
        rowid = table.insert((2, "I", "T/b", None))
        table.insert((3, "I", "T/c", None))
        table.update_row(rowid, {"loc": "T/zzz"})
        assert [row[0] for _rid, row in table.scan()] == [1, 2, 3]

    def test_max_stat_tracks_updates_and_deletes(self):
        table = Table(prov_schema())
        table.track_max("tid")
        assert table.max_value("tid") is None
        r1 = table.insert((5, "I", "T/a", None))
        table.insert((9, "I", "T/b", None))
        assert table.max_value("tid") == 9
        table.update_row(r1, {"tid": 12})
        assert table.max_value("tid") == 12
        table.delete_row(r1)
        assert table.max_value("tid") == 9
        table.clear()
        assert table.max_value("tid") is None


class TestMultiRangeScan:
    def _table(self):
        table = Table(prov_schema())
        for tid, loc in [
            (1, "T/a"), (2, "T/a"), (3, "T/b"), (4, "T/c"),
            (5, "T/c/x"), (6, "T/d"), (7, "T/e"),
        ]:
            table.insert((tid, "I", loc, None))
        return table

    def test_union_streams_key_order_once(self):
        table = self._table()
        ranges = [
            (("T/a",), ("T/b",), True, True),
            (("T/b",), ("T/c",), True, True),  # overlaps the first at T/b
            (("T/e",), ("T/e",), True, True),
        ]
        locs = [row[2] for _rid, row in table.multi_range_scan("prov_loc", ranges)]
        assert locs == ["T/a", "T/a", "T/b", "T/c", "T/e"]  # sorted, deduped

    def test_reverse_union(self):
        table = self._table()
        ranges = [
            (("T/a",), ("T/b",), True, True),
            (("T/d",), None, True, True),
        ]
        locs = [row[2] for _rid, row in table.multi_range_scan("prov_loc", ranges, reverse=True)]
        assert locs == ["T/e", "T/d", "T/b", "T/a", "T/a"]

    def test_duplicate_and_empty_ranges(self):
        table = self._table()
        ranges = [
            (("T/c",), ("T/c",), True, True),
            (("T/c",), ("T/c",), True, True),  # duplicate probe
            (("T/z",), ("T/q",), True, True),  # contradictory: empty
        ]
        locs = [row[2] for _rid, row in table.multi_range_scan("prov_loc", ranges)]
        assert locs == ["T/c"]
        assert list(table.multi_range_scan("prov_loc", [])) == []

    def test_counts_one_pass(self):
        table = self._table()
        before = dict(table.access_counts)
        list(table.multi_range_scan("prov_loc", [(("T/a",), None, True, True)]))
        assert table.access_counts["multi_range_scan"] == before["multi_range_scan"] + 1
        assert sum(table.access_counts.values()) == sum(before.values()) + 1

    def test_requires_ordered_index(self):
        table = self._table()
        with pytest.raises(ConstraintError):
            table.multi_range_scan("prov_tid", [((1,), (2,), True, True)])


class TestPlannedDML:
    """delete_where/update_where route victim enumeration through the
    planner and are statement-atomic under mid-batch failures."""

    def _db(self, wal_dir=None):
        from repro.storage.db import Database

        db = Database("dml", wal_dir=wal_dir)
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("k", ColumnType.INT, nullable=False),
                    Column("u", ColumnType.INT, nullable=False),
                    Column("v", ColumnType.TEXT),
                ],
                primary_key=("k",),
                indexes=(
                    IndexSpec("t_u", ("u",), unique=True),
                    IndexSpec("t_k", ("k",), ordered=True),
                ),
            )
        )
        for k in range(6):
            db.insert("t", (k, k * 10, f"v{k}"))
        return db

    @staticmethod
    def _update(entry, db, changes, predicate, keys):
        """One update statement through ``entry``: the query layer's
        ``update_where`` with ``predicate``, or the kernel's plural
        rowid update with the rowids of ``keys`` (the rows ``predicate``
        matches, in the planner's key order).  Returns the count."""
        if entry == "query":
            return QueryEngine(db).update_where("t", changes, predicate)
        table = db.table("t")
        rowids = [table.lookup_pk((k,))[0] for k in keys]
        return len(db.update_rowids("t", rowids, changes))

    def test_delete_uses_index_scan(self):
        from repro.storage.expr import Cmp, Col, Const, InList
        from repro.storage.plan import IndexRangeScan

        db = self._db()
        engine = QueryEngine(db)
        table = db.table("t")
        node, residual = engine.plan_mutation("t", Cmp("<", Col("k"), Const(2)))
        assert isinstance(node, IndexRangeScan) and residual is None
        assert len(node.ranges) == 1
        node, residual = engine.plan_mutation("t", InList(Col("k"), (1, 4)))
        assert isinstance(node, IndexRangeScan) and residual is None
        assert len(node.ranges) == 2
        before = dict(table.access_counts)
        assert engine.delete_where("t", InList(Col("k"), (1, 4))) == 2
        assert table.access_counts["multi_range_scan"] == before["multi_range_scan"] + 1
        assert table.access_counts["scan"] == before["scan"]  # no full scan
        assert sorted(row[0] for _r, row in table.scan()) == [0, 2, 3, 5]

    def test_delete_matches_naive_oracle(self):
        from repro.storage.expr import Cmp, Col, Const, Or

        predicate = Or(Cmp("<", Col("k"), Const(2)), Cmp(">=", Col("k"), Const(5)))
        planned, naive = self._db(), self._db()
        assert QueryEngine(planned).delete_where("t", predicate) == QueryEngine(
            naive
        ).delete_where("t", predicate, naive=True)
        key = lambda item: item[1]
        assert sorted(planned.table("t").scan(), key=key) == sorted(
            naive.table("t").scan(), key=key
        )

    @pytest.mark.parametrize("entry", ["kernel", "query"])
    def test_update_where_unique_collision_rolls_back_applied_victims(self, entry):
        """A unique-key collision on the Nth victim must leave the table
        exactly as before the call: victims 1..N-1 are reverted, nothing
        reaches the undo log, and no transaction stays open."""
        from repro.storage.expr import Cmp, Col, Const

        db = self._db()
        table = db.table("t")
        snapshot = sorted(table.scan(), key=lambda item: item[1])
        # every k < 3 victim gets u=99: k=0 succeeds, then k=1 collides
        # with the just-updated k=0 — a genuine mid-batch failure with
        # one victim already applied
        with pytest.raises(DuplicateKeyError):
            self._update(entry, db, {"u": 99}, Cmp("<", Col("k"), Const(3)), (0, 1, 2))
        assert sorted(table.scan(), key=lambda item: item[1]) == snapshot
        assert not db.in_transaction
        # the table is fully usable afterwards: the same statement with a
        # non-colliding value applies cleanly
        assert self._update(
            entry, db, {"v": "w"}, Cmp("<", Col("k"), Const(3)), (0, 1, 2)
        ) == 3

    @pytest.mark.parametrize("entry", ["kernel", "query"])
    def test_update_collision_leaves_wal_clean(self, tmp_path, entry):
        """Nothing of a failed update statement may reach the WAL: after
        a crash + recovery the table matches its pre-call state."""
        from repro.storage.expr import Cmp, Col, Const

        db = self._db(wal_dir=str(tmp_path))
        table = db.table("t")
        snapshot = sorted(row for _rid, row in table.scan())
        with pytest.raises(DuplicateKeyError):
            self._update(entry, db, {"u": 99}, Cmp("<", Col("k"), Const(3)), (0, 1, 2))
        db.crash()
        db.recover()
        assert sorted(row for _rid, row in table.scan()) == snapshot

    @pytest.mark.parametrize("entry", ["kernel", "query"])
    def test_update_collision_inside_explicit_txn_reverts_statement_only(self, entry):
        from repro.storage.expr import Cmp, Col, Const

        db = self._db()
        table = db.table("t")
        db.begin()
        self._update(entry, db, {"v": "first"}, Cmp("=", Col("k"), Const(0)), (0,))
        with pytest.raises(DuplicateKeyError):
            self._update(entry, db, {"u": 99}, Cmp("<", Col("k"), Const(3)), (0, 1, 2))
        assert db.in_transaction  # statement reverted, txn still open
        db.commit()
        rows = {row[0]: row for _rid, row in table.scan()}
        assert rows[0][2] == "first"  # the earlier statement survived
        assert [rows[k][1] for k in range(6)] == [0, 10, 20, 30, 40, 50]

    def test_delete_rowids_missing_row_reverts_statement(self, tmp_path):
        """The kernel's plural rowid delete is atomic too: a missing
        rowid after two applied deletes restores both rows, leaves no
        transaction open, and logs nothing that a recovery replays."""
        db = self._db(wal_dir=str(tmp_path))
        table = db.table("t")
        snapshot = sorted(table.scan(), key=lambda item: item[1])
        rowids = [table.lookup_pk((k,))[0] for k in (1, 2)]
        with pytest.raises(ConstraintError):
            db.delete_rowids("t", rowids + [max(table._rows) + 1])
        assert sorted(table.scan(), key=lambda item: item[1]) == snapshot
        assert not db.in_transaction
        db.crash()
        db.recover()
        # recovery reloads rows under fresh rowids: compare the rows
        assert sorted(row for _rid, row in table.scan()) == [row for _rid, row in snapshot]
        rowids = [table.lookup_pk((k,))[0] for k in (1, 2)]
        assert [row for _rowid, row in db.delete_rowids("t", rowids)] == [
            (1, 10, "v1"),
            (2, 20, "v2"),
        ]

    def test_qualified_column_fails_identically(self):
        from repro.storage.errors import UnknownColumnError
        from repro.storage.expr import Cmp, Col, Const

        predicate = Cmp("=", Col("t.k"), Const(1))
        for naive in (False, True):
            db = self._db()
            with pytest.raises(UnknownColumnError):
                QueryEngine(db).delete_where("t", predicate, naive=naive)
            assert db.table("t").row_count == 6
