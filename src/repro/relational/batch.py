"""Columnar batches: the vectorized execution substrate.

A :class:`ColumnBatch` holds a relation's rows column-wise — one numpy
array per schema column, all of equal length.  Heap reads, the partition
pass, the query layer (:mod:`repro.query`) and the ``cube.v2`` writers
(:mod:`repro.storage2`) move data only in batches, so filtering,
projection and routing run as whole-column numpy kernels; nothing in the
engine transposes a batch into tuples.

Dtypes are explicit and derived from the schema (INT32 → ``int32``,
INT64 → ``int64``, FLOAT64 → ``float64``), matching the packed on-disk
layout of :class:`~repro.relational.heap.HeapFile` records so heap scans
can reinterpret raw record bytes as column views without copying.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.relational.schema import NUMPY_DTYPES, ColumnType, TableSchema


def column_dtype(column_type: ColumnType) -> np.dtype:
    """The numpy dtype matching a column type's packed record layout."""
    return NUMPY_DTYPES[column_type]


@dataclass(frozen=True)
class ColumnBatch:
    """A fixed-length run of rows stored column-wise.

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

    # -- transformations ----------------------------------------------------

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
