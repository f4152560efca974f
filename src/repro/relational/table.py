"""In-memory relations with stable row-ids.

A :class:`Table` is the working representation of a relation that "fits in
memory" in the paper's sense: the fact table after loading, a partition
after loading.  It holds columns, not tuples — one typed numpy array per
schema column (a :class:`~repro.relational.batch.ColumnBatch`) — because
that is what the data is at both ends: text columns in the CSV, int32 /
int64 columns in the heap file and in ``cube.v2``.  Row-ids are a tuple's
position, matching the heap-file row addressing in
:mod:`repro.relational.heap` so that a table loaded from a heap file keeps
the same row-ids the file uses.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.relational.batch import ColumnBatch, column_dtype
from repro.relational.schema import TableSchema


class Table:
    """A relation held in memory as one column array per schema column.

    Appends arrive as column chunks and the first read consolidates them
    with one concatenation per column (as
    :class:`repro.core.storage.ArrayRelation` does for cube relations):
    computed aside and installed by a single assignment, so readers may
    race each other, though not an append.  :meth:`as_batch` *is* the
    relation: there is no tuple view of it.

    The row-id of a tuple is its position.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._chunks: list[ColumnBatch] = []
        self._length = 0

    @classmethod
    def from_batch(cls, batch: ColumnBatch) -> "Table":
        """A table over ``batch``'s columns (shared, not copied)."""
        table = cls(batch.schema)
        table.append_batch(batch)
        return table

    @classmethod
    def from_columns(
        cls, schema: TableSchema, columns: Sequence[Sequence[int] | np.ndarray]
    ) -> "Table":
        """A table over one value sequence per schema column, each cast
        to its column's dtype."""
        arrays = [
            np.asarray(values, dtype=column_dtype(column.type))
            for column, values in zip(schema.columns, columns, strict=True)
        ]
        return cls.from_batch(ColumnBatch.from_arrays(schema, arrays))

    def __repr__(self) -> str:
        return f"Table({list(self.schema.names)}, {self._length} rows)"

    def __len__(self) -> int:
        return self._length

    def append_batch(self, batch: ColumnBatch) -> None:
        """Append a columnar batch as one chunk, columns cast to the
        schema's dtypes (no copy when they already match)."""
        if batch.schema.names != self.schema.names:
            raise ValueError(
                f"batch schema {batch.schema.names} does not match "
                f"table schema {self.schema.names}"
            )
        if not batch.length:
            return
        arrays = tuple(
            np.asarray(array, dtype=column_dtype(column.type))
            for column, array in zip(self.schema.columns, batch.arrays)
        )
        self._chunks.append(ColumnBatch(self.schema, arrays, batch.length))
        self._length += batch.length

    def as_batch(self) -> ColumnBatch:
        """The whole table as one columnar batch."""
        chunks = self._chunks
        if len(chunks) == 1:
            return chunks[0]
        merged = ColumnBatch.concat(self.schema, chunks)
        if chunks:
            self._chunks = [merged]
        return merged

    def column_at(self, position: int) -> np.ndarray:
        """One column's array, by position."""
        return self.as_batch().arrays[position]

    @property
    def size_bytes(self) -> int:
        """Logical size: rows times the packed record width."""
        return self._length * self.schema.row_size_bytes
