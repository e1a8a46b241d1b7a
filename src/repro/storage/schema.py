"""Table schemas: columns, nullability, keys, and index declarations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .codec import RowCodec
from .errors import SchemaError, UnknownColumnError
from .types import ColumnType, validate_value

__all__ = ["Column", "IndexSpec", "TableSchema"]


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    type: ColumnType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if isinstance(self.type, str):
            # accept SQL-style spellings ("INTEGER", "varchar", ...) so
            # the ColumnType.parse alias table applies to programmatic
            # DDL too, not only the SQL front-end
            object.__setattr__(self, "type", ColumnType.parse(self.type))
        if self.default is not None:
            validate_value(self.type, self.default)


@dataclass(frozen=True)
class IndexSpec:
    """A secondary index over one or more columns.

    ``unique`` enforces at-most-one row per key; ``ordered`` builds a
    sorted index supporting key-range scans, a prefix being one range
    (needed for the provenance store's ``Loc LIKE 'T/c2/%'`` descendant
    lookups).
    """

    name: str
    columns: Tuple[str, ...]
    unique: bool = False
    ordered: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"index {self.name!r} must cover at least one column")


class TableSchema:
    """Schema of one table: ordered columns, primary key, secondary indexes.

    >>> schema = TableSchema(
    ...     "prov",
    ...     [Column("tid", ColumnType.INT, nullable=False),
    ...      Column("op", ColumnType.CHAR, nullable=False),
    ...      Column("loc", ColumnType.TEXT, nullable=False),
    ...      Column("src", ColumnType.TEXT)],
    ...     primary_key=("tid", "loc"),
    ... )
    >>> schema.column_index("loc")
    2
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        indexes: Sequence[IndexSpec] = (),
    ) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name: {name!r}")
        if not columns:
            raise SchemaError("a table must have at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._positions: Dict[str, int] = {c.name: i for i, c in enumerate(self.columns)}
        for key_column in primary_key:
            if key_column not in self._positions:
                raise SchemaError(f"primary key column {key_column!r} not in table {name!r}")
        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        seen_index_names = set()
        for spec in indexes:
            if spec.name in seen_index_names:
                raise SchemaError(f"duplicate index name {spec.name!r}")
            seen_index_names.add(spec.name)
            for column in spec.columns:
                if column not in self._positions:
                    raise SchemaError(f"index column {column!r} not in table {name!r}")
        self.indexes: Tuple[IndexSpec, ...] = tuple(indexes)
        # precomputed once: row->env construction touches this per row on
        # every scan and join probe, so a fresh per-call tuple shows up
        # directly in the hot-path profiles
        self._column_names: Tuple[str, ...] = tuple(
            column.name for column in self.columns
        )
        #: the compiled row path: validation, size, index keys and bytes
        self.codec = RowCodec(self)
        self._primary_key_of = self.codec.key_getter(self.primary_key)

    # ------------------------------------------------------------------
    @property
    def column_names(self) -> Tuple[str, ...]:
        return self._column_names

    def column(self, name: str) -> Column:
        try:
            return self.columns[self._positions[name]]
        except KeyError:
            raise UnknownColumnError(f"no column {name!r} in table {self.name!r}") from None

    def column_index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownColumnError(f"no column {name!r} in table {self.name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._positions

    # ------------------------------------------------------------------
    def normalize_row(self, row: "Sequence[Any] | Dict[str, Any]") -> Tuple[Any, ...]:
        """Validate and coerce a row (tuple in column order, or a mapping);
        see :meth:`RowCodec.normalize`."""
        return self.codec.normalize(row)

    def row_as_dict(self, row: Sequence[Any]) -> Dict[str, Any]:
        return dict(zip(self.column_names, row))

    def key_of(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Extract the primary-key tuple from a normalized row."""
        return self._primary_key_of(row)

    def row_bytes(self, row: Sequence[Any]) -> int:
        """Byte size of a row under the storage codec (header + values)."""
        return self.codec.size(row)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.type.value}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"
