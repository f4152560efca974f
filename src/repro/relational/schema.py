"""Relation schemas: typed, fixed-width columns addressable by name.

Every relation in the reproduction (fact tables, partitions, cube node
relations, the shared AGGREGATES relation) is described by a
:class:`TableSchema`.  Schemas are deliberately simple — fixed-width integer
columns dominate because dimension members are dictionary-encoded integer
codes, as is standard in ROLAP engines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class ColumnType(enum.Enum):
    """Physical column types supported by the substrate.

    ``INT32`` covers dimension codes, row-ids, and node ids.  ``INT64``
    covers measures and aggregates (sums over many tuples overflow 32
    bits).  ``FLOAT64`` exists for completeness; cube aggregates in this
    reproduction stay integral so that equality of aggregate values (the
    basis of CAT detection) is exact.
    """

    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"

    @property
    def size_bytes(self) -> int:
        """Physical width of one value of this type."""
        return NUMPY_DTYPES[self].itemsize


#: Each type's little-endian numpy dtype — its packed on-disk layout.
NUMPY_DTYPES: dict[ColumnType, np.dtype] = {
    ColumnType.INT32: np.dtype("<i4"),
    ColumnType.INT64: np.dtype("<i8"),
    ColumnType.FLOAT64: np.dtype("<f8"),
}


@dataclass(frozen=True)
class Column:
    """A named, typed column of a relation."""

    name: str
    type: ColumnType = ColumnType.INT32

    @property
    def size_bytes(self) -> int:
        return self.type.size_bytes


@dataclass(frozen=True)
class TableSchema:
    """An ordered list of columns describing a relation's tuples.

    The schema determines the on-disk record layout (via ``numpy_dtype``)
    and the logical tuple width used by the memory manager and the storage
    accounting in :mod:`repro.core.storage`.
    """

    columns: tuple[Column, ...]
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")
        object.__setattr__(
            self, "_index", {name: i for i, name in enumerate(names)}
        )

    @classmethod
    def of(cls, *columns: Column | str) -> "TableSchema":
        """Build a schema from columns, or bare names (defaulting to INT32)."""
        built = tuple(
            column if isinstance(column, Column) else Column(column)
            for column in columns
        )
        return cls(built)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def row_size_bytes(self) -> int:
        """Width of one packed record, in bytes."""
        return sum(column.size_bytes for column in self.columns)

    @property
    def numpy_dtype(self) -> np.dtype:
        """The packed structured dtype of one on-disk record.

        Fields follow the columns in order, little-endian and without
        padding, so heap-file record bytes reinterpret as a structured
        array (and its fields as zero-copy column views).
        """
        return np.dtype(
            [
                (column.name, NUMPY_DTYPES[column.type])
                for column in self.columns
            ]
        )

    def position(self, name: str) -> int:
        """Index of column ``name`` within a tuple.

        Raises ``KeyError`` with a helpful message for unknown columns.
        """
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; schema has {list(self.names)}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def validate_row(self, row: tuple) -> None:
        """Check that ``row`` has the right arity (types are duck-checked)."""
        if len(row) != self.arity:
            raise ValueError(
                f"row arity {len(row)} does not match schema arity {self.arity}"
            )
