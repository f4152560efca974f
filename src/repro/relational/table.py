"""In-memory relations with stable row-ids.

A :class:`Table` is the working representation of a relation that "fits in
memory" in the paper's sense: the fact table after loading, a partition
after loading, or a cube node relation under construction.  Row-ids are the
tuple's position, matching the heap-file row addressing in
:mod:`repro.relational.heap` so that a table loaded from a heap file keeps
the same row-ids the file uses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.relational.batch import ColumnBatch
from repro.relational.schema import TableSchema


@dataclass
class Table:
    """A relation held in memory as a list of tuples.

    The row-id of a tuple is its index in ``rows``.  When a table is a
    slice of another relation (a loaded partition, for example), the
    original row-ids are carried in ``base_rowids`` so that references
    written into the cube (R-rowids) still point into the full fact table.
    """

    schema: TableSchema
    rows: list[tuple] = field(default_factory=list)
    base_rowids: list[int] | None = None
    _batch: ColumnBatch | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.base_rowids is not None and len(self.base_rowids) != len(self.rows):
            raise ValueError(
                "base_rowids length must match rows length "
                f"({len(self.base_rowids)} != {len(self.rows)})"
            )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __getitem__(self, rowid: int) -> tuple:
        return self.rows[rowid]

    def rowid_of(self, local_index: int) -> int:
        """The global row-id of the tuple at ``local_index``.

        For a table that is not a slice, this is the index itself.
        """
        if self.base_rowids is None:
            return local_index
        return self.base_rowids[local_index]

    def append(self, row: tuple) -> int:
        """Append ``row`` and return its row-id."""
        self.schema.validate_row(row)
        self.rows.append(row)
        return len(self.rows) - 1

    def extend(self, rows: Iterable[tuple]) -> None:
        for row in rows:
            self.append(row)

    def append_batch(self, batch: ColumnBatch) -> None:
        """Append a columnar batch (bridged through tuples).

        A current columnar view (:meth:`as_batch`) is extended alongside
        the rows instead of going stale, so a fact table that grows by
        small deltas never re-transposes what it already holds.
        """
        if batch.schema.names != self.schema.names:
            raise ValueError(
                f"batch schema {batch.schema.names} does not match "
                f"table schema {self.schema.names}"
            )
        cached = self._batch if self.rows else ColumnBatch.empty(self.schema)
        current = cached is not None and cached.length == len(self.rows)
        self.rows.extend(batch.to_rows())
        if current:
            self._batch = ColumnBatch.concat(self.schema, [cached, batch])

    def as_batch(self) -> ColumnBatch:
        """The whole table as one columnar batch (cached).

        The cache is keyed on the row count: appends invalidate it, and
        callers that mutate ``rows`` in place without changing its length
        must not rely on a fresh view.
        """
        cached = self._batch
        if cached is None or cached.length != len(self.rows):
            cached = ColumnBatch.from_rows(self.schema, self.rows)
            self._batch = cached
        return cached

    def column_values(self, name: str) -> list:
        """All values of one column, in row order."""
        position = self.schema.position(name)
        return [row[position] for row in self.rows]

    def project(self, names: list[str] | tuple[str, ...]) -> "Table":
        """A new table with only the named columns (row order preserved)."""
        positions = [self.schema.position(name) for name in names]
        projected = [tuple(row[p] for p in positions) for row in self.rows]
        return Table(
            self.schema.project(names),
            projected,
            base_rowids=list(self.base_rowids) if self.base_rowids else None,
        )

    def slice_rows(self, local_indices: list[int]) -> "Table":
        """A new table holding the tuples at ``local_indices``.

        Global row-ids are preserved through ``base_rowids``.
        """
        rows = [self.rows[i] for i in local_indices]
        rowids = [self.rowid_of(i) for i in local_indices]
        return Table(self.schema, rows, base_rowids=rowids)

    @property
    def size_bytes(self) -> int:
        """Logical size: rows times the packed record width."""
        return len(self.rows) * self.schema.row_size_bytes
