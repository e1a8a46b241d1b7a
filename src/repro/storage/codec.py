"""Binary row codec, compiled once per table schema.

Rows are encoded to a compact binary form both for persistence (heap file
snapshots, WAL records) and for *byte-accurate storage accounting* — the
paper reports provenance store sizes in megabytes (Figure 8), so sizes must
come from a real encoding rather than guesses.

Encoding: a 4-byte little-endian row length, then one tagged value per
column.  Tags: ``0`` null, ``1`` int (8-byte signed), ``2`` real (8-byte
IEEE double), ``3`` text (4-byte length + UTF-8 bytes), ``4`` bool,
``5`` char (single byte, ASCII fast path with UTF-8 fallback as text).

:class:`RowCodec` is the single place a row's validation, byte size,
index keys and bytes come from.  Every :class:`~repro.storage.schema.TableSchema`
builds one when it is constructed; ``Table`` mutations, the WAL's record
payloads and snapshot rows all go through it.  Each operation is one loop
over per-column facts worked out at construction, with no helper call per
value.  ``decode`` is compiled further: a function generated for the
schema reads a row in its usual form with one ``struct`` unpack per run
of fixed-width columns, and hands anything else to the column loop (see
:func:`_compile_decoder`).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, Sequence, Tuple

from .errors import SchemaError, UnknownColumnError, WALError
from .types import ColumnType, coerce_value

if TYPE_CHECKING:  # pragma: no cover - the schema builds the codec
    from .schema import TableSchema

__all__ = ["RowCodec"]

Row = Tuple[Any, ...]

_TAG_NULL = 0
_TAG_INT = 1
_TAG_REAL = 2
_TAG_TEXT = 3
_TAG_BOOL = 4
_TAG_CHAR = 5

#: column type -> (its value tag, the one Python type it stores without
#: coercion; ``bool`` is not ``int`` here, as ``type(True) is bool``)
_COLUMN_TYPES = {
    ColumnType.INT: (_TAG_INT, int),
    ColumnType.REAL: (_TAG_REAL, float),
    ColumnType.TEXT: (_TAG_TEXT, str),
    ColumnType.BOOL: (_TAG_BOOL, bool),
    ColumnType.CHAR: (_TAG_CHAR, str),
}

_U32 = struct.Struct("<I")
_INT = struct.Struct("<q")
_REAL = struct.Struct("<d")
_TAGGED_INT = struct.Struct("<Bq")
_TAGGED_REAL = struct.Struct("<Bd")
_TAGGED_LENGTH = struct.Struct("<BI")
_NULL_BYTES = bytes([_TAG_NULL])
_CHAR_TAG_BYTES = bytes([_TAG_CHAR])
_BOOL_BYTES = (bytes([_TAG_BOOL, 0]), bytes([_TAG_BOOL, 1]))


class RowCodec:
    """One table's row path: normalize, size, key, encode and decode.

    ``normalize`` passes a row through untouched when every value already
    has its column's exact type (``type(v) is int`` for INT, and so on;
    NULL where the column is nullable with no default; one character for
    CHAR).  Any other row — a coercion, a default, a NOT NULL violation,
    a type error — takes the column-by-column :func:`coerce_value` chain,
    so results and error messages are those of that chain.
    """

    def __init__(self, schema: "TableSchema") -> None:
        self._table = schema.name
        self._columns = schema.columns
        self._positions: Dict[str, int] = schema._positions
        self._column_index = schema.column_index
        self._tags = tuple(_COLUMN_TYPES[column.type][0] for column in schema.columns)
        #: per column, the value types ``normalize`` passes through as
        #: they are (NULL only where it stays NULL and is allowed)
        self._accepted = tuple(
            (_COLUMN_TYPES[column.type][1], type(None))
            if column.nullable and column.default is None
            else (_COLUMN_TYPES[column.type][1],)
            for column in schema.columns
        )
        #: per column, the value tag ``decode`` expects and whether it
        #: takes NULL (where ``normalize`` keeps NULL)
        self._decoding = tuple(
            (tag, type(None) in accepted)
            for tag, accepted in zip(self._tags, self._accepted)
        )
        #: CHAR columns, whose strings must also be one character long
        self._chars = tuple(
            position
            for position, column in enumerate(schema.columns)
            if column.type is ColumnType.CHAR
        )
        #: rows ``decode`` handed from its compiled path to the column
        #: loop: a non-ASCII CHAR, or bytes the loop then rejects
        self.fallbacks = 0
        #: ``decode(data, offset=0) -> (row, next_offset)``: the compiled
        #: decoder, with :meth:`_decode_columns` as its fallback and its
        #: contract
        code, namespace = _compile_decoder(self._decoding)
        namespace = dict(namespace, fallback=self._fallback)
        exec(code, namespace)
        self.decode = namespace["decode"]

    # ------------------------------------------------------------------
    def normalize(self, row: "Sequence[Any] | Dict[str, Any]") -> Row:
        """Validate and coerce a row (tuple in column order, or a mapping).

        Applies defaults and NOT NULL checks; raises on arity or type
        mismatches.  Returns the canonical value tuple.
        """
        if isinstance(row, dict):
            unknown = row.keys() - self._positions.keys()
            if unknown:
                raise UnknownColumnError(
                    f"unknown column(s) {sorted(unknown)} for table {self._table!r}"
                )
            values = tuple(row.get(column.name, column.default) for column in self._columns)
        else:
            values = tuple(row)
            if len(values) != len(self._columns):
                raise SchemaError(
                    f"table {self._table!r} expects {len(self._columns)} values, "
                    f"got {len(values)}"
                )
        for value, accepted in zip(values, self._accepted):
            if type(value) not in accepted:
                return self._coerce(values)
        for position in self._chars:
            value = values[position]
            if value is not None and len(value) != 1:
                return self._coerce(values)
        return values

    def _coerce(self, values: Row) -> Row:
        normalized = []
        for column, value in zip(self._columns, values):
            if value is None:
                value = column.default
            if value is None and not column.nullable:
                raise SchemaError(f"column {column.name!r} is NOT NULL")
            normalized.append(coerce_value(column.type, value))
        return tuple(normalized)

    def key_getter(self, columns: Sequence[str]) -> Callable[[Sequence[Any]], Row]:
        """A function returning the key tuple of ``columns`` from a
        normalized row: an ``itemgetter`` over their positions."""
        positions = [self._column_index(name) for name in columns]
        if len(positions) > 1:
            return itemgetter(*positions)
        # no column or one: a slice of the row keeps the key a tuple
        start = positions[0] if positions else 0
        return itemgetter(slice(start, start + len(positions)))

    # ------------------------------------------------------------------
    def size(self, row: Sequence[Any]) -> int:
        """Exact byte length of :meth:`encode`'s output for ``row``."""
        total = 4
        for value, tag in zip(row, self._tags):
            if value is None:
                total += 1
            elif tag == _TAG_TEXT or tag == _TAG_CHAR:
                length = len(value) if value.isascii() else len(value.encode("utf-8"))
                total += 2 if length == 1 and tag == _TAG_CHAR else 5 + length
            elif tag == _TAG_BOOL:
                total += 2
            else:
                total += 9
        return total

    def encode(self, row: Sequence[Any]) -> bytes:
        """``row`` as a length-prefixed byte string."""
        pack_length = _TAGGED_LENGTH.pack
        parts = []
        append = parts.append
        for value, tag in zip(row, self._tags):
            if value is None:
                append(_NULL_BYTES)
            elif tag == _TAG_TEXT:
                raw = value.encode("utf-8")
                append(pack_length(_TAG_TEXT, len(raw)))
                append(raw)
            elif tag == _TAG_INT:
                append(_TAGGED_INT.pack(_TAG_INT, value))
            elif tag == _TAG_CHAR:
                raw = value.encode("utf-8")
                if len(raw) == 1:
                    append(_CHAR_TAG_BYTES)
                else:  # non-ASCII char: fall back to text encoding
                    append(pack_length(_TAG_TEXT, len(raw)))
                append(raw)
            elif tag == _TAG_REAL:
                append(_TAGGED_REAL.pack(_TAG_REAL, float(value)))
            else:
                append(_BOOL_BYTES[1 if value else 0])
        body = b"".join(parts)
        return _U32.pack(len(body)) + body

    def _fallback(self, data: bytes, offset: int) -> Tuple[Row, int]:
        self.fallbacks += 1
        return self._decode_columns(data, offset)

    def _decode_columns(self, data: bytes, offset: int = 0) -> Tuple[Row, int]:
        """Decode the length-prefixed row starting at ``offset``, value
        by value; what ``decode`` returns or raises.

        Returns ``(row, next_offset)``.  The row is checked as
        :meth:`normalize` would check it, so a caller may store it
        without normalizing it again: each value's tag must be its
        column's (a CHAR may carry a non-ASCII character as text), NULL
        only where ``normalize`` keeps NULL, a CHAR one character.  The
        bytes read are also the row's canonical encoding (an ASCII CHAR
        never as text, a BOOL only as 0 or 1), so their length is the
        row's :meth:`size`.  A violation, a truncated prefix, body or
        value, an unknown tag, a text value that is not UTF-8, or bytes
        left over in the body all raise :class:`WALError`.
        """
        if offset + 4 > len(data):
            raise WALError("truncated row length prefix")
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        body = data[offset : offset + length]
        if len(body) != length:
            raise WALError("truncated row body")
        unpack_length = _U32.unpack_from
        values = []
        append = values.append
        at = 0
        try:
            for expected, nullable in self._decoding:
                tag = body[at]
                at += 1
                if tag == _TAG_TEXT and (expected == _TAG_TEXT or expected == _TAG_CHAR):
                    (size,) = unpack_length(body, at)
                    at += 4
                    raw = body[at : at + size]
                    if len(raw) != size:
                        raise WALError("truncated text value")
                    value = raw.decode("utf-8")
                    if expected == _TAG_CHAR and (len(value) != 1 or size == 1):
                        raise WALError(
                            f"value {len(values)} is not a non-ASCII CHAR: {value!r}"
                        )
                    append(value)
                    at += size
                elif tag == expected:
                    if tag == _TAG_INT:
                        append(_INT.unpack_from(body, at)[0])
                        at += 8
                    elif tag == _TAG_CHAR:
                        code = body[at]
                        if code > 0x7F:
                            raise WALError(f"CHAR value {len(values)} is not ASCII")
                        append(chr(code))
                        at += 1
                    elif tag == _TAG_REAL:
                        append(_REAL.unpack_from(body, at)[0])
                        at += 8
                    else:  # _TAG_BOOL
                        flag = body[at]
                        if flag > 1:
                            raise WALError(f"BOOL value {len(values)} is {flag}")
                        append(flag == 1)
                        at += 1
                elif tag == _TAG_NULL and nullable:
                    append(None)
                elif tag > _TAG_CHAR:
                    raise WALError(f"unknown value tag {tag}")
                else:
                    column = self._columns[len(values)]
                    raise WALError(
                        f"value {len(values)} has tag {tag}, which column "
                        f"{column.name!r} ({column.type.value}) does not take"
                    )
        except (struct.error, IndexError) as exc:
            raise WALError(
                f"truncated row: value {len(values)} of {len(self._tags)} ({exc})"
            ) from exc
        except UnicodeDecodeError as exc:
            raise WALError(f"text value {len(values)} is not UTF-8 ({exc})") from exc
        if at != length:
            raise WALError(f"trailing bytes in encoded row ({length - at})")
        return tuple(values), offset + length


#: one-character strings of the ASCII codes, by code
_ASCII = tuple(map(chr, range(0x80)))
#: value tag -> the struct format of what follows the tag: the value, or
#: a TEXT value's byte length
_AFTER_TAG = {_TAG_INT: "q", _TAG_REAL: "d", _TAG_TEXT: "I", _TAG_BOOL: "B", _TAG_CHAR: "B"}


@lru_cache(maxsize=128)
def _compile_decoder(decoding: Tuple[Tuple[int, bool], ...]) -> Tuple[Any, Dict[str, Any]]:
    """Generate the decode function of a schema whose columns take the
    ``(tag, nullable)`` pairs of ``decoding``: the code defining it and
    the names it reads, but for ``fallback``.  Schemas of one shape
    share the code (a session builds its tables' schemas again on each
    reopen).

    The function reads a row in its usual form: every value with its
    column's own tag, a CHAR as one ASCII byte, a BOOL as 0 or 1.  The
    row length and each run of NOT NULL columns, up to and including a
    TEXT's tag and length, are one ``struct`` unpack; the TEXT's bytes
    are then one slice, and a nullable column reads its tag first.  Any
    other tag or byte, a read past the row or bytes left over in it send
    the row to ``fallback``, the column loop, which returns the row or
    raises the ``WALError`` naming what is wrong.  So a row the function
    returns is the one the loop returns, at the same offset.
    """
    namespace: Dict[str, Any] = {
        "_ASCII": _ASCII, "_U32": _U32, "_INT": _INT, "_REAL": _REAL, "error": struct.error,
    }
    lines = ["at = offset"]
    values = []
    # the run of fixed-width fields not unpacked yet: the row length first
    run_format, run_fields, run_checks = "<I", ["length"], []

    def unpack_run() -> None:
        nonlocal run_format, run_fields, run_checks
        if run_fields:
            name = f"_run{len(namespace)}"
            namespace[name] = unpacker = struct.Struct(run_format)
            lines.append(f"{', '.join(run_fields)}, = {name}.unpack_from(data, at)")
            lines.append(f"at += {unpacker.size}")
            if run_checks:
                lines.append(f"if not ({' and '.join(run_checks)}):")
                lines.append("    return fallback(data, offset)")
        run_format, run_fields, run_checks = "<", [], []

    for column, (tag, nullable) in enumerate(decoding):
        value = f"v{column}"
        values.append(value)
        if not nullable:
            run_format += "B" + _AFTER_TAG[tag]
            run_checks.append(f"t{column} == {tag}")
            if tag == _TAG_TEXT:
                run_fields += [f"t{column}", f"n{column}"]
                unpack_run()
                lines.append(f"{value} = data[at : at + n{column}].decode('utf-8')")
                lines.append(f"at += n{column}")
                continue
            run_fields += [f"t{column}", value]
            if tag == _TAG_BOOL:
                run_checks.append(f"{value} < 2")
                values[-1] = f"{value} == 1"
            elif tag == _TAG_CHAR:
                run_checks.append(f"{value} < 0x80")
                values[-1] = f"_ASCII[{value}]"
            continue
        unpack_run()
        lines += ["tag = data[at]", "if tag == 0:", f"    {value} = None", "    at += 1"]
        if tag == _TAG_TEXT:
            lines += [
                f"elif tag == {tag}:",
                "    size, = _U32.unpack_from(data, at + 1)",
                f"    {value} = data[at + 5 : at + 5 + size].decode('utf-8')",
                "    at += 5 + size",
            ]
        elif tag == _TAG_INT or tag == _TAG_REAL:
            unpacker = "_INT" if tag == _TAG_INT else "_REAL"
            lines += [
                f"elif tag == {tag}:",
                f"    {value}, = {unpacker}.unpack_from(data, at + 1)",
                "    at += 9",
            ]
        else:  # a BOOL or CHAR byte
            if tag == _TAG_BOOL:
                limit, convert = "2", "data[at + 1] == 1"
            else:
                limit, convert = "0x80", "_ASCII[data[at + 1]]"
            lines += [
                f"elif tag == {tag} and data[at + 1] < {limit}:",
                f"    {value} = {convert}",
                "    at += 2",
            ]
        lines += ["else:", "    return fallback(data, offset)"]
    unpack_run()
    lines += [
        "if at == offset + 4 + length <= len(data):",
        f"    return ({', '.join(values)},), at",
    ]
    source = "\n".join(
        ["def decode(data, offset=0):", "    try:"]
        + ["        " + line for line in lines]
        + [
            "    except (error, IndexError, UnicodeDecodeError):",
            "        pass",
            "    return fallback(data, offset)",
        ]
    )
    return compile(source, "<row decoder>", "exec"), namespace
