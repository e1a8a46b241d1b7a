"""The compiled row codec (``TableSchema.codec``).

* Golden bytes: a row of every column type encodes to the exact bytes
  the per-value codec wrote before the codec was compiled, so WAL
  segments and images stay readable both ways.
* Exact sizes: ``size`` equals the length of ``encode`` for every type,
  NULL and non-ASCII text included.
* Typed decode errors: every truncation or corruption a decoder can see
  raises ``WALError``, never a raw ``struct.error``/``IndexError``.
* Differential normalize: the compiled normalizer against the
  column-by-column ``coerce_value`` chain — same tuple, or the same
  exception type and message.
* Differential decode: the compiled decoder against the column loop on
  every cut and every single-byte change of a row's encoding — the same
  row and offset, or a ``WALError`` with the same message — and it
  reads the provenance rows a recovery replays without falling back.
"""

import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.provenance import prov_schema
from repro.storage.db import Database
from repro.storage.errors import SchemaError, UnknownColumnError, WALError
from repro.storage.schema import Column, TableSchema
from repro.storage.snapshot import load_snapshot, save_snapshot
from repro.storage.types import ColumnType, coerce_value
from repro.storage.wal import KIND_DELETE, KIND_INSERT, WriteAheadLog

# ``REPRO_HYPOTHESIS_PROFILE=ci`` derandomizes the properties here (same
# example budgets), so a codec regression fails deterministically.  No
# deadline and no too_slow health check in either profile: a host pause
# during input generation says nothing about the codec.
_SLOW_HOST = {"deadline": None, "suppress_health_check": [HealthCheck.too_slow]}
_PROFILES = {
    "default": dict(_SLOW_HOST),
    "ci": dict(_SLOW_HOST, derandomize=True),
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
#: txn 7's ops: INSERT row 0, DELETE row 1 (kind, u16 name length,
#: "golden", the row's encoding)
GOLDEN_OPS_HEX = (
    "010600676f6c64656e2000000001fbffffffffffffff02000000000000084003000000"
    "000302000000c3a90401020600676f6c64656e150000000000030a0000006e61c3af76"
    "6520e2988305430400"
)
#: a segment holding txn 7's frame, CRC-32 sealed: the segment header
#: (magic, version 4, alg 0, no flags, base LSN 1), the frame header (79
#: bytes of ops, their crc, LSN 1, txn 7, the crc of those 20 bytes),
#: then the ops
GOLDEN_SEGMENT_HEX = (
    "57414c32040000000100000000000000"
    "4f00000037d005170100000000000000070000009c58e8c1" + GOLDEN_OPS_HEX
)


def golden_ops(schema):
    rows = [schema.normalize_row(row) for row in GOLDEN_ROWS]
    return [(KIND_INSERT, "golden", rows[0]), (KIND_DELETE, "golden", rows[1])]


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
        log = WriteAheadLog(str(tmp_path / "g.wal"), {"golden": schema})
        for kind, table, row in golden_ops(schema):
            log.append((kind, table, schema.codec.encode(row)))
        assert log.flush(7) == 1
        log.close()
        (segment,) = log.segment_paths()
        with open(segment, "rb") as handle:
            assert handle.read().hex() == GOLDEN_SEGMENT_HEX
        [frame] = log.scan()
        assert (frame.lsn, frame.txn_id) == (1, 7)
        assert frame.ops == [
            (kind, table, row, len(schema.codec.encode(row)))
            for kind, table, row in golden_ops(schema)
        ]

    def test_pre_encoded_record_logs_the_same_payload(self, tmp_path):
        """An insert logs the bytes it sized its row from; a delete
        encodes its row as it logs it.  Both give the golden ops."""
        db = Database("g", wal_dir=str(tmp_path))
        db.create_table(golden_schema())
        db.insert("golden", GOLDEN_ROWS[1])
        db.begin()
        db.insert("golden", GOLDEN_ROWS[0])
        db.delete_rowids("golden", [1])
        db.commit()
        (segment,) = db._wal.segment_paths()
        with open(segment, "rb") as handle:
            data = handle.read()
        ops = bytes.fromhex(GOLDEN_OPS_HEX)
        # the second frame: txn 2's id and the header check end its
        # header, its ops follow
        assert data.endswith(ops)
        assert data[-len(ops) - 8 : -len(ops) - 4] == struct.pack("<I", 2)

    def test_snapshot_row_section_pinned(self, tmp_path):
        """An image is a segment flagged as one: its frame's ops are the
        rows as INSERTs, each the golden row bytes."""
        db = Database("g")
        db.create_table(golden_schema())
        for row in GOLDEN_ROWS:
            db.insert("golden", row)
        path = str(tmp_path / "g.snap")
        save_snapshot(db, path)
        with open(path, "rb") as handle:
            data = handle.read()
        insert = bytes.fromhex("010600") + b"golden"
        ops = b"".join(insert + bytes.fromhex(h) for h in GOLDEN_HEX)
        assert data[:8] == b"WAL2\x04\x00\x01\x00"  # version 4, crc32, image
        assert data.endswith(ops)
        (ops_len,) = struct.unpack_from("<I", data, len(data) - len(ops) - 24)
        assert ops_len == len(ops)
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
# Decode checks what normalize checks
# ----------------------------------------------------------------------
@st.composite
def stored_rows(draw):
    """A schema with random nullability and defaults, and a row as the
    table stores it (normalized)."""
    columns = [
        Column(
            f"c{i}",
            kind,
            nullable=draw(st.booleans()),
            default=draw(st.none() | _DEFAULTS[kind]),
        )
        for i, kind in enumerate(
            draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=5))
        )
    ]
    schema = TableSchema("t", columns)
    row = tuple(
        draw(_VALUES[column.type] | st.none())
        if column.nullable or column.default is not None
        else draw(_VALUES[column.type])
        for column in columns
    )
    return schema, schema.codec.normalize(row)


#: values a "set" mutation writes: every value tag, and bytes either side
#: of the ASCII boundary
_BYTES = [0, 1, 2, 3, 4, 5, 0x7F, 0x80, 0xE9, 0xFF]


class TestDecodeValidates:
    """WAL recovery stores decoded rows without normalizing them, so
    ``decode`` rejects every row ``normalize`` would not pass through
    unchanged, and every encoding that is not the row's own."""

    def schema(self):
        return TableSchema(
            "t",
            [
                Column("i", ColumnType.INT, nullable=False),
                Column("c", ColumnType.CHAR),
                Column("d", ColumnType.TEXT, default="x"),
                Column("b", ColumnType.BOOL),
            ],
        )

    @pytest.mark.parametrize(
        "body, message",
        [
            # a REAL where the INT column is
            (struct.pack("<Bd", 2, 1.0) + b"\x00\x00\x00", "value 0 has tag 2"),
            # NULL in a NOT NULL column
            (b"\x00\x00\x00\x00", "value 0 has tag 0"),
            # NULL in a column whose default replaces NULL
            (struct.pack("<Bq", 1, 5) + b"\x00\x00\x00", "value 2 has tag 0"),
            # a CHAR byte past ASCII
            (struct.pack("<Bq", 1, 5) + b"\x05\xe9", "CHAR value 1 is not ASCII"),
            # an ASCII CHAR, or two characters, as text
            (struct.pack("<Bq", 1, 5) + b"\x03\x01\x00\x00\x00C", "not a non-ASCII CHAR"),
            (struct.pack("<Bq", 1, 5) + b"\x03\x02\x00\x00\x00CC", "not a non-ASCII CHAR"),
            # a BOOL other than 0 or 1
            (struct.pack("<Bq", 1, 5) + b"\x00\x03\x00\x00\x00\x00\x04\x02", "BOOL value 3 is 2"),
        ],
    )
    def test_rejects_what_normalize_would_not_pass(self, body, message):
        with pytest.raises(WALError, match=message):
            self.schema().codec.decode(_with_body(body))

    def test_accepts_a_non_ascii_char_as_text(self):
        codec = self.schema().codec
        row = (5, "é", "", False)
        assert codec.decode(codec.encode(row)) == (row, codec.size(row))

    @settings(max_examples=300, **_PROFILE)
    @given(st.data())
    def test_decode_of_any_cut_or_flip_is_an_error_or_a_normal_row(self, data):
        schema, stored = data.draw(stored_rows())
        codec = schema.codec
        encoded = codec.encode(stored)
        assert codec.decode(encoded) == (stored, len(encoded))
        mutation = data.draw(st.sampled_from(["cut", "flip", "set"]))
        position = data.draw(st.integers(0, len(encoded) - 1))
        if mutation == "cut":
            mutated = encoded[:position]
        else:
            changed = bytearray(encoded)
            if mutation == "flip":
                changed[position] ^= 1 << data.draw(st.integers(0, 7))
            else:  # a byte set to another tag, or past ASCII
                changed[position] = data.draw(st.sampled_from(_BYTES))
            mutated = bytes(changed)
        try:
            decoded, end = codec.decode(mutated)
        except WALError:
            return
        # a row normalize passes through as it is, and the bytes read
        # are its own encoding, so their length is its size
        assert codec.normalize(decoded) is decoded
        assert codec.encode(decoded) == mutated[:end]
        assert codec.size(decoded) == end


# ----------------------------------------------------------------------
# Differential decode
# ----------------------------------------------------------------------
def _decode_outcome(decode, data, offset):
    """What ``decode`` makes of ``data[offset:]``; floats by ``repr``, so
    NaN payloads and -0.0 compare too."""
    try:
        row, end = decode(data, offset)
    except WALError as exc:
        return "raised", str(exc)
    return "ok", [(type(value), repr(value)) for value in row], end


#: bytes around the row: the compiled decoder must read none of them
_BEFORE, _AFTER = b"\x03\x01\x00", b"\x00\x01\x05\x03\xff\xff\xff\xff"


class TestDecodeDifferential:
    """``decode`` takes a compiled path for rows in their usual form and
    hands every other row to the column loop, ``_decode_columns``; both
    must answer alike whatever the bytes."""

    @settings(max_examples=200, **_PROFILE)
    @given(stored_rows())
    def test_compiled_decoder_matches_the_column_loop(self, case):
        schema, stored = case
        codec = schema.codec
        encoded = codec.encode(stored)
        before = codec.fallbacks
        assert codec.decode(encoded) == (stored, len(encoded))
        # only a non-ASCII CHAR, written as text, leaves the compiled path
        irregular = any(
            column.type is ColumnType.CHAR and value is not None and not value.isascii()
            for column, value in zip(schema.columns, stored)
        )
        assert codec.fallbacks - before == int(irregular)
        variants = [encoded[:cut] for cut in range(len(encoded))]
        for position in range(len(encoded)):
            for byte in {*_BYTES, *(encoded[position] ^ (1 << bit) for bit in range(8))}:
                changed = bytearray(encoded)
                changed[position] = byte
                variants.append(bytes(changed))
        for variant in variants:
            for data, offset in ((variant, 0), (_BEFORE + variant + _AFTER, len(_BEFORE))):
                assert _decode_outcome(codec.decode, data, offset) == _decode_outcome(
                    codec._decode_columns, data, offset
                ), (schema, stored, data.hex(), offset)

    def test_recovered_prov_rows_take_the_compiled_path(self, tmp_path):
        """Recovery decodes every provenance row — the image's and the
        frames' after it — without one fallback to the column loop."""
        db = Database("p", wal_dir=str(tmp_path))
        db.create_table(prov_schema())
        rows = [
            (tid, "ICDX"[tid % 4], f"T/c{tid}/naïve ☃" if tid % 5 == 0 else f"T/c{tid}",
             None if tid % 3 else f"S/p{tid}")
            for tid in range(60)
        ]
        db.insert_many("prov", rows[:40])
        db.checkpoint()
        for row in rows[40:]:
            db.insert("prov", row)
        db.crash()
        fresh = Database("p", wal_dir=str(tmp_path))
        fresh.recover()  # the image's catalog creates the table
        prov = fresh.table("prov")
        assert sorted(row for _rowid, row in prov.scan()) == sorted(rows)
        assert prov.schema.codec.fallbacks == 0


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
