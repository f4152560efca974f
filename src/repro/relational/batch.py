"""Columnar batches: the vectorized execution substrate.

A :class:`ColumnBatch` is the columnar dual of a list of tuples — one
numpy array per schema column, all of equal length.  Heap scans, the
partition pass, the query layer (:mod:`repro.query`) and the ``cube.v2``
writers (:mod:`repro.storage2`) move data in batches so that filtering,
projection and routing run as whole-column numpy kernels instead of
per-tuple Python loops, while ``from_rows`` / ``to_rows`` bridge to the
row-based APIs.

Dtypes are explicit and derived from the schema (INT32 → ``int32``,
INT64 → ``int64``, FLOAT64 → ``float64``), matching the packed on-disk
layout of :class:`~repro.relational.heap.HeapFile` records so heap scans
can reinterpret raw record bytes as column views without copying.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.relational.schema import ColumnType, TableSchema

NUMPY_DTYPES: dict[ColumnType, np.dtype] = {
    ColumnType.INT32: np.dtype("<i4"),
    ColumnType.INT64: np.dtype("<i8"),
    ColumnType.FLOAT64: np.dtype("<f8"),
}


def column_dtype(column_type: ColumnType) -> np.dtype:
    """The numpy dtype matching a column type's packed record layout."""
    return NUMPY_DTYPES[column_type]


@runtime_checkable
class RowSource(Protocol):
    """Anything that serves fact rows by row-id.

    This is the surface :class:`repro.query.cache.FactCache` needs from a
    disk-backed relation — satisfied by
    :class:`~repro.relational.heap.HeapFile` without the query layer
    importing the heap module (cubelint R1 keeps heap internals private
    to ``relational/``).
    """

    def __len__(self) -> int: ...

    def read_row(self, rowid: int) -> tuple: ...

    def read_rows_sequential(self, sorted_rowids: list[int]) -> list[tuple]: ...


@dataclass(frozen=True)
class ColumnBatch:
    """A fixed-length run of tuples stored column-wise.

    ``arrays[i]`` holds column ``schema.columns[i]`` for all ``length``
    rows.  Batches are immutable values: every transformation returns a
    new batch (the arrays may be views of the originals — callers must
    not mutate them in place).
    """

    schema: TableSchema
    arrays: tuple[np.ndarray, ...]
    length: int

    def __post_init__(self) -> None:
        if len(self.arrays) != self.schema.arity:
            raise ValueError(
                f"{len(self.arrays)} arrays for arity-{self.schema.arity} schema"
            )
        for column, array in zip(self.schema.columns, self.arrays):
            if array.ndim != 1 or len(array) != self.length:
                raise ValueError(
                    f"column {column.name!r}: array shape {array.shape} "
                    f"does not match batch length {self.length}"
                )

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, schema: TableSchema) -> "ColumnBatch":
        """A zero-row batch of the given schema."""
        arrays = tuple(
            np.empty(0, dtype=column_dtype(column.type))
            for column in schema.columns
        )
        return cls(schema, arrays, 0)

    @classmethod
    def from_rows(
        cls, schema: TableSchema, rows: Sequence[tuple]
    ) -> "ColumnBatch":
        """Transpose a list of tuples into schema-typed column arrays."""
        if not rows:
            return cls.empty(schema)
        columns = tuple(zip(*rows))
        if len(columns) != schema.arity:
            raise ValueError(
                f"rows have arity {len(columns)}, schema has {schema.arity}"
            )
        arrays = tuple(
            np.asarray(values, dtype=column_dtype(column.type))
            for column, values in zip(schema.columns, columns)
        )
        return cls(schema, arrays, len(rows))

    @classmethod
    def from_arrays(
        cls, schema: TableSchema, arrays: Sequence[np.ndarray]
    ) -> "ColumnBatch":
        """Wrap pre-built arrays (no copy, no dtype coercion)."""
        arrays = tuple(arrays)
        length = len(arrays[0]) if arrays else 0
        return cls(schema, arrays, length)

    @classmethod
    def concat(
        cls, schema: TableSchema, batches: Sequence["ColumnBatch"]
    ) -> "ColumnBatch":
        """Stack batches of one schema into a single batch."""
        batches = [batch for batch in batches if batch.length]
        if not batches:
            return cls.empty(schema)
        if len(batches) == 1:
            return batches[0]
        arrays = tuple(
            np.concatenate([batch.arrays[i] for batch in batches])
            for i in range(schema.arity)
        )
        return cls(schema, arrays, sum(batch.length for batch in batches))

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def column(self, name: str) -> np.ndarray:
        """One column's array, by name."""
        return self.arrays[self.schema.position(name)]

    def to_rows(self) -> list[tuple]:
        """Transpose back to a list of tuples of Python scalars."""
        if not self.length:
            return []
        return list(zip(*(array.tolist() for array in self.arrays)))

    def iter_rows(self) -> Iterator[tuple]:
        """Iterate tuples (the row-compatibility bridge)."""
        return iter(self.to_rows())

    # -- transformations ----------------------------------------------------

    def project(self, names: Sequence[str]) -> "ColumnBatch":
        """Keep (and reorder) the named columns; arrays are shared."""
        positions = [self.schema.position(name) for name in names]
        return ColumnBatch(
            self.schema.project(list(names)),
            tuple(self.arrays[p] for p in positions),
            self.length,
        )

    def filter(self, mask: np.ndarray) -> "ColumnBatch":
        """Rows where the boolean ``mask`` is true."""
        if mask.dtype != np.bool_ or len(mask) != self.length:
            raise ValueError(
                f"mask must be bool[{self.length}], got "
                f"{mask.dtype}[{len(mask)}]"
            )
        arrays = tuple(array[mask] for array in self.arrays)
        length = len(arrays[0]) if arrays else int(np.count_nonzero(mask))
        return ColumnBatch(self.schema, arrays, length)

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """Rows at ``indices`` (fancy indexing; duplicates allowed)."""
        arrays = tuple(array[indices] for array in self.arrays)
        return ColumnBatch(self.schema, arrays, len(indices))

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Rows in ``[start, stop)`` as views (no copy)."""
        arrays = tuple(array[start:stop] for array in self.arrays)
        length = len(arrays[0]) if arrays else max(0, stop - start)
        return ColumnBatch(self.schema, arrays, length)
