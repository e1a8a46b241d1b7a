"""Column types for the embedded relational engine.

The engine supports the handful of scalar types the reproduction needs
(the paper's provenance table is ``Prov(Tid INT, Op CHAR(1), Loc TEXT,
Src TEXT NULL)``).  Values are plain Python objects; each type knows how
to validate and coerce values (their size on disk is the row codec's,
:mod:`repro.storage.codec`).
"""

from __future__ import annotations

import enum
from typing import Any

from .errors import SchemaError

__all__ = ["ColumnType", "validate_value", "coerce_value"]


class ColumnType(enum.Enum):
    """Supported scalar column types."""

    INT = "INT"
    REAL = "REAL"
    TEXT = "TEXT"
    CHAR = "CHAR"  # single-character codes such as the provenance Op column
    BOOL = "BOOL"

    @classmethod
    def parse(cls, name: str) -> "ColumnType":
        normalized = name.strip().upper()
        aliases = {
            "INTEGER": "INT",
            "BIGINT": "INT",
            "FLOAT": "REAL",
            "DOUBLE": "REAL",
            "VARCHAR": "TEXT",
            "STRING": "TEXT",
            "BOOLEAN": "BOOL",
        }
        normalized = aliases.get(normalized, normalized)
        try:
            return cls(normalized)
        except ValueError:
            raise SchemaError(f"unknown column type: {name!r}") from None


def validate_value(column_type: ColumnType, value: Any) -> None:
    """Raise :class:`SchemaError` unless ``value`` fits ``column_type``.

    ``None`` is always accepted here; nullability is checked by the schema.
    """
    if value is None:
        return
    if column_type is ColumnType.INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"expected INT, got {value!r}")
    elif column_type is ColumnType.REAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"expected REAL, got {value!r}")
    elif column_type is ColumnType.TEXT:
        if not isinstance(value, str):
            raise SchemaError(f"expected TEXT, got {value!r}")
    elif column_type is ColumnType.CHAR:
        if not isinstance(value, str) or len(value) != 1:
            raise SchemaError(f"expected CHAR (length-1 string), got {value!r}")
    elif column_type is ColumnType.BOOL:
        if not isinstance(value, bool):
            raise SchemaError(f"expected BOOL, got {value!r}")
    else:  # pragma: no cover - exhaustive over enum
        raise SchemaError(f"unhandled column type {column_type}")


def coerce_value(column_type: ColumnType, value: Any) -> Any:
    """Best-effort coercion used by the SQL layer (e.g. int literal → REAL)."""
    if value is None:
        return None
    if column_type is ColumnType.REAL and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    validate_value(column_type, value)
    return value

