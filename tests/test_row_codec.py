"""The compiled row codec (``TableSchema.codec``).

* Golden bytes: a row of every column type encodes to the exact bytes
  the per-value codec wrote before the codec was compiled, so WAL
  segments and snapshots stay readable both ways.
* Exact sizes: ``size`` equals the length of ``encode`` for every type,
  NULL and non-ASCII text included.
* Typed decode errors: every truncation or corruption a decoder can see
  raises ``WALError``, never a raw ``struct.error``/``IndexError``.
* Differential normalize: the compiled normalizer against the
  column-by-column ``coerce_value`` chain — same tuple, or the same
  exception type and message.
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.checksum import ALG_CRC32
from repro.storage.db import Database
from repro.storage.errors import SchemaError, UnknownColumnError, WALError
from repro.storage.schema import Column, TableSchema
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.types import ColumnType, coerce_value
from repro.storage.wal import (
    KIND_BEGIN,
    KIND_COMMIT,
    KIND_DELETE,
    KIND_INSERT,
    WalRecord,
    WriteAheadLog,
    _encode_payload,
)

# ``REPRO_HYPOTHESIS_PROFILE=ci`` derandomizes the properties here (same
# example budgets), so a codec regression fails deterministically.
_PROFILES = {
    "default": {},
    "ci": {"derandomize": True},
}
_PROFILE = _PROFILES.get(
    os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"), _PROFILES["default"]
)


def golden_schema():
    return TableSchema(
        "golden",
        [
            Column("i", ColumnType.INT),
            Column("r", ColumnType.REAL),
            Column("t", ColumnType.TEXT),
            Column("c", ColumnType.CHAR),
            Column("b", ColumnType.BOOL),
        ],
    )


#: raw rows: negative INT, REAL given as an int, empty TEXT, non-ASCII
#: CHAR, both BOOLs, NULLs, unicode TEXT, and an ASCII CHAR
GOLDEN_ROWS = [
    (-5, 3, "", "é", True),
    (None, None, "naïve ☃", "C", False),
    (2**62, -0.5, "T/c1/y", None, None),
]
#: their length-prefixed encodings
GOLDEN_HEX = [
    "2000000001fbffffffffffffff02000000000000084003000000000302000000c3a90401",
    "150000000000030a0000006e61c3af766520e2988305430400",
    "1f00000001000000000000004002000000000000e0bf0306000000542f63312f790000",
]
#: BEGIN, INSERT row 0, DELETE row 1, COMMIT of txn 7, CRC-32 sealed
GOLDEN_SEGMENT_HEX = (
    "57414c3202000000010000000000000009000000e7338c44010000000000000000070000"
    "0000000000350000000b18993d02000000000000000307000000000000000600676f6c64"
    "656e2000000001fbffffffffffffff02000000000000084003000000000302000000c3a9"
    "04012a00000038f5764203000000000000000407000000000000000600676f6c64656e15"
    "0000000000030a0000006e61c3af766520e29883054304000900000028cb59a704000000"
    "00000000010700000000000000"
)


def golden_records(schema):
    rows = [schema.normalize_row(row) for row in GOLDEN_ROWS]
    return [
        WalRecord(KIND_BEGIN, 7),
        WalRecord(KIND_INSERT, 7, "golden", rows[0]),
        WalRecord(KIND_DELETE, 7, "golden", rows[1]),
        WalRecord(KIND_COMMIT, 7),
    ]


class TestGoldenBytes:
    def test_rows_encode_to_pinned_bytes(self):
        schema = golden_schema()
        for raw, expected in zip(GOLDEN_ROWS, GOLDEN_HEX):
            row = schema.normalize_row(raw)
            data = schema.codec.encode(row)
            assert data.hex() == expected
            assert schema.codec.decode(data) == (row, len(data))
            assert schema.row_bytes(row) == len(data)

    def test_normalized_golden_rows(self):
        rows = [golden_schema().normalize_row(row) for row in GOLDEN_ROWS]
        assert rows[0] == (-5, 3.0, "", "é", True)
        assert type(rows[0][1]) is float  # REAL from int is stored as float

    def test_wal_segment_bytes_pinned(self, tmp_path):
        schema = golden_schema()
        log = WriteAheadLog(
            str(tmp_path / "g.wal"), {"golden": schema}, checksum_alg=ALG_CRC32
        )
        for record in golden_records(schema):
            log.append(record)
        log.close()
        (segment,) = log.segment_paths()
        with open(segment, "rb") as handle:
            assert handle.read().hex() == GOLDEN_SEGMENT_HEX
        scanned = list(log.scan())
        assert [(r.kind, r.row) for r in scanned] == [
            (r.kind, r.row) for r in golden_records(schema)
        ]

    def test_pre_encoded_record_logs_the_same_payload(self):
        schema = golden_schema()
        schemas = {"golden": schema}
        for record in golden_records(schema):
            if record.row is None:
                continue
            carried = WalRecord(
                record.kind, record.txn_id, record.table, record.row,
                encoded=schema.codec.encode(record.row),
            )
            assert _encode_payload(carried, schemas) == _encode_payload(record, schemas)
            assert carried == record  # the carried bytes are not part of equality

    def test_snapshot_row_section_pinned(self, tmp_path):
        db = Database("g")
        db.create_table(golden_schema())
        for row in GOLDEN_ROWS:
            db.insert("golden", row)
        path = str(tmp_path / "g.snap")
        save_snapshot(db, path)
        with open(path, "rb") as handle:
            data = handle.read()
        rows = struct.pack("<I", 3) + b"".join(bytes.fromhex(h) for h in GOLDEN_HEX)
        assert data[:6] == b"RPRO\x02\x00"
        assert data[-8 - len(rows) : -8] == rows
        assert data[-8:-4] == b"RPND"
        restored = load_snapshot(path)
        assert [row for _rid, row in restored.table("golden").scan()] == [
            row for _rid, row in db.table("golden").scan()
        ]
        assert restored.table("golden").byte_size == db.table("golden").byte_size


# ----------------------------------------------------------------------
# Exact sizes
# ----------------------------------------------------------------------
_VALUES = {
    ColumnType.INT: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ColumnType.REAL: st.floats(allow_nan=False),
    ColumnType.TEXT: st.text(max_size=12),
    ColumnType.CHAR: st.characters(),
    ColumnType.BOOL: st.booleans(),
}


@st.composite
def typed_rows(draw):
    types = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=6))
    schema = TableSchema(
        "t", [Column(f"c{i}", kind) for i, kind in enumerate(types)]
    )
    row = tuple(draw(st.none() | _VALUES[kind]) for kind in types)
    return schema, row


class TestExactSize:
    def test_non_ascii_char_is_charged_its_text_encoding(self):
        schema = TableSchema("t", [Column("c", ColumnType.CHAR)])
        assert len(schema.codec.encode(("é",))) == 11
        assert schema.row_bytes(("é",)) == 11
        assert schema.row_bytes(("C",)) == 6
        assert schema.row_bytes((None,)) == 5

    @settings(**_PROFILE)
    @given(typed_rows())
    def test_size_is_encoded_length(self, case):
        schema, row = case
        data = schema.codec.encode(row)
        assert schema.codec.size(row) == len(data) == 4 + struct.unpack_from("<I", data)[0]
        assert schema.codec.decode(data) == (row, len(data))

    def test_table_bytes_follow_the_codec(self):
        db = Database("d")
        table = db.create_table(golden_schema())
        rowids = [db.insert("golden", row) for row in GOLDEN_ROWS]
        assert table.byte_size == sum(len(bytes.fromhex(h)) for h in GOLDEN_HEX)
        db.update_rowids("golden", [rowids[0]], {"c": "ü"})
        db.delete_rowids("golden", [rowids[1]])
        assert table.byte_size == sum(
            len(table.schema.codec.encode(row)) for _rid, row in table.scan()
        )


# ----------------------------------------------------------------------
# Typed decode errors
# ----------------------------------------------------------------------
def _with_body(body: bytes) -> bytes:
    return struct.pack("<I", len(body)) + body


class TestTypedDecodeErrors:
    @pytest.mark.parametrize("hex_row", GOLDEN_HEX)
    def test_every_cut_of_the_body_is_a_wal_error(self, hex_row):
        codec = golden_schema().codec
        body = bytes.fromhex(hex_row)[4:]
        for cut in range(len(body)):
            with pytest.raises(WALError):
                codec.decode(_with_body(body[:cut]))

    @pytest.mark.parametrize("hex_row", GOLDEN_HEX)
    def test_every_cut_of_the_framed_row_is_a_wal_error(self, hex_row):
        codec = golden_schema().codec
        data = bytes.fromhex(hex_row)
        for cut in range(len(data)):
            with pytest.raises(WALError):
                codec.decode(data[:cut])

    def test_truncated_int_and_real(self):
        codec = TableSchema(
            "t", [Column("i", ColumnType.INT), Column("r", ColumnType.REAL)]
        ).codec
        with pytest.raises(WALError, match="truncated row: value 0 of 2"):
            codec.decode(_with_body(b"\x01\x00\x00"))
        with pytest.raises(WALError, match="truncated row: value 1 of 2"):
            codec.decode(_with_body(struct.pack("<Bq", 1, 5) + b"\x02\x00"))

    def test_missing_tag(self):
        codec = golden_schema().codec
        with pytest.raises(WALError, match="truncated row: value 1 of 5"):
            codec.decode(_with_body(b"\x00"))

    def test_unknown_tag_trailing_bytes_and_bad_utf8(self):
        codec = TableSchema("t", [Column("s", ColumnType.TEXT)]).codec
        with pytest.raises(WALError, match="unknown value tag 9"):
            codec.decode(_with_body(b"\x09"))
        with pytest.raises(WALError, match="trailing bytes"):
            codec.decode(_with_body(b"\x00\x00"))
        with pytest.raises(WALError, match="not UTF-8"):
            codec.decode(_with_body(b"\x03\x01\x00\x00\x00\xff"))


# ----------------------------------------------------------------------
# Differential normalize
# ----------------------------------------------------------------------
def reference_normalize(schema, row):
    """The column-by-column chain: defaults, NOT NULL, ``coerce_value``."""
    names = {column.name for column in schema.columns}
    if isinstance(row, dict):
        unknown = set(row) - names
        if unknown:
            raise UnknownColumnError(
                f"unknown column(s) {sorted(unknown)} for table {schema.name!r}"
            )
        values = [row.get(column.name, column.default) for column in schema.columns]
    else:
        values = list(row)
        if len(values) != len(schema.columns):
            raise SchemaError(
                f"table {schema.name!r} expects {len(schema.columns)} values, "
                f"got {len(values)}"
            )
    normalized = []
    for column, value in zip(schema.columns, values):
        if value is None:
            value = column.default
        if value is None and not column.nullable:
            raise SchemaError(f"column {column.name!r} is NOT NULL")
        normalized.append(coerce_value(column.type, value))
    return tuple(normalized)


class _Int(int):
    pass


class _Str(str):
    pass


#: values of every shape a caller might pass: exact types, bool for INT,
#: int for REAL, subclasses, wrong-length CHARs, and outright wrong types
_ANY_VALUE = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from(["C", "é", "", "ab"]),
    st.integers(-5, 5).map(_Int),
    st.text(max_size=2).map(_Str),
    st.just([1]),
)
_DEFAULTS = {
    ColumnType.INT: st.integers(-5, 5),
    ColumnType.REAL: st.floats(allow_nan=False, allow_infinity=False),
    ColumnType.TEXT: st.text(max_size=3),
    ColumnType.CHAR: st.sampled_from(["C", "é"]),
    ColumnType.BOOL: st.booleans(),
}


@st.composite
def normalize_cases(draw):
    columns = []
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(list(ColumnType)))
        columns.append(
            Column(
                f"c{i}",
                kind,
                nullable=draw(st.booleans()),
                default=draw(st.none() | _DEFAULTS[kind]),
            )
        )
    schema = TableSchema("t", columns)
    if draw(st.booleans()):
        names = [column.name for column in columns] + ["zzz"]
        keys = draw(st.lists(st.sampled_from(names), unique=True))
        row = {key: draw(_ANY_VALUE) for key in keys}
    else:
        arity = len(columns) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        row = tuple(draw(_ANY_VALUE) for _ in range(max(arity, 0)))
    return schema, row


def _outcome(fn, *args):
    try:
        return "ok", [(type(value), value) for value in fn(*args)]
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)


class TestNormalizeDifferential:
    @settings(max_examples=400, **_PROFILE)
    @given(normalize_cases())
    def test_compiled_normalizer_matches_the_coerce_chain(self, case):
        schema, row = case
        assert _outcome(schema.codec.normalize, row) == _outcome(
            reference_normalize, schema, row
        )

    @pytest.mark.parametrize(
        "row",
        [
            (True, 1.0, "a", "C", True),  # bool is not INT
            (1, 2, "a", "C", True),  # int widens to REAL
            (_Int(1), 1.0, _Str("a"), _Str("C"), False),  # subclasses
            (1, 1.0, "a", "CC", True),  # CHAR must be one character
            (1, 1.0, "a", "C"),  # wrong arity
            {"i": 1, "zzz": 2},  # unknown column
            {"t": "x"},  # missing columns take their defaults
        ],
    )
    def test_named_shapes(self, row):
        schema = golden_schema()
        assert _outcome(schema.codec.normalize, row) == _outcome(
            reference_normalize, schema, row
        )

    def test_defaults_and_not_null(self):
        schema = TableSchema(
            "t",
            [
                Column("a", ColumnType.INT, nullable=False),
                Column("b", ColumnType.REAL, nullable=False, default=2),
            ],
        )
        assert schema.codec.normalize((1, None)) == (1, 2.0)
        with pytest.raises(SchemaError, match="column 'a' is NOT NULL"):
            schema.codec.normalize((None, 1.0))
