"""Columnar working sets: the in-memory unit BUC-style recursion runs over.

A :class:`WorkingSet` holds (possibly pre-aggregated) input tuples in
columnar numpy arrays: one array of base-level member codes per dimension,
a matrix of partial aggregate vectors, a weight (how many fact tuples each
row summarizes), and the minimum original R-rowid per row.

Three sources produce working sets:

* the fact table itself (weights all 1, aggregates are singleton values),
* a mapped partition (same, but carrying original row-ids), and
* the coarse node ``N`` built during partitioning (weights > 1 possible) —
  which is why recursion state carries *partial aggregates* rather than
  raw measures: observation 3 of Section 4 only needs mergeability.

The uniform treatment makes the trivial-tuple test precise in the
partitioned case: a segment of one row is a TT only when that row's weight
is 1, i.e. it really is a single fact tuple.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.model import CubeSchema
from repro.relational.table import Table


@dataclass
class WorkingSet:
    """Columnar tuples for cube construction.

    Attributes
    ----------
    dims:
        ``dims[d][i]`` is row ``i``'s base-level code in dimension ``d``.
    aggs:
        ``aggs[i, y]`` is row ``i``'s partial value of aggregate ``y``.
    weights:
        How many fact tuples row ``i`` summarizes (1 for raw facts).
    rowids:
        The minimum original fact row-id among row ``i``'s source tuples.
    """

    schema: CubeSchema
    dims: list[np.ndarray]
    aggs: np.ndarray
    weights: np.ndarray
    rowids: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.weights)
        if len(self.dims) != self.schema.n_dimensions:
            raise ValueError(
                f"{self.schema.n_dimensions} dimension columns expected, "
                f"got {len(self.dims)}"
            )
        for column in self.dims:
            if len(column) != n:
                raise ValueError("dimension column length mismatch")
        if self.aggs.shape != (n, self.schema.n_aggregates):
            raise ValueError(
                f"aggregate matrix shape {self.aggs.shape} != "
                f"({n}, {self.schema.n_aggregates})"
            )
        if len(self.rowids) != n:
            raise ValueError("rowid column length mismatch")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum()) if len(self) else 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def _from_fact_columns(
        cls,
        schema: CubeSchema,
        columns: Sequence[np.ndarray],
        rowids: np.ndarray,
    ) -> "WorkingSet":
        """Raw fact tuples given as columns in fact-schema order (weights
        1, singleton aggregates through ``spec.function.from_column``)."""
        n = len(rowids)
        d = schema.n_dimensions
        dims = [
            np.ascontiguousarray(columns[dim], dtype=np.int32)
            for dim in range(d)
        ]
        aggs = np.empty((n, schema.n_aggregates), dtype=np.int64)
        for y, spec in enumerate(schema.aggregates):
            column = np.asarray(
                columns[d + spec.measure_index], dtype=np.int64
            )
            aggs[:, y] = spec.function.from_column(column)
        weights = np.ones(n, dtype=np.int64)
        return cls(schema, dims, aggs, weights, rowids)

    @classmethod
    def from_fact_table(cls, schema: CubeSchema, table: Table) -> "WorkingSet":
        """Wrap a fact table's columns (row-ids from ``base_rowids`` when
        the table is a slice, else positions)."""
        if table.base_rowids is not None:
            rowids = table.base_rowids
        else:
            rowids = np.arange(len(table), dtype=np.int64)
        return cls._from_fact_columns(schema, table.as_batch().arrays, rowids)

    @classmethod
    def from_records(
        cls, schema: CubeSchema, records: np.ndarray
    ) -> "WorkingSet":
        """Wrap a mapped fact or partition relation (:meth:`Engine.load`).

        Dimension columns are the leading INT32 fields, measures the
        INT64 fields after them; a trailing ``r_rowid`` field — a
        partition's — supplies the original fact row-ids, else rows are
        numbered by position.  Columns are copied out of the map, so
        releasing it afterwards is safe.
        """
        names = records.dtype.names
        if names[-1] == "r_rowid":
            rowids = np.ascontiguousarray(records["r_rowid"], dtype=np.int64)
        else:
            rowids = np.arange(len(records), dtype=np.int64)
        return cls._from_fact_columns(
            schema, [records[name] for name in names], rowids
        )

    @classmethod
    def from_coarse(
        cls, schema: CubeSchema, records: np.ndarray
    ) -> "WorkingSet":
        """Wrap a mapped coarse node.

        Coarse relations are positionally uniform regardless of flavor
        (``coarseN`` / ``coarseN1`` / ``coarseN2``): ``n_dimensions``
        INT32 codes, ``n_aggregates`` INT64 partials, weight, min rowid.
        Columns are copied out of the map, so releasing it afterwards is
        safe.
        """
        columns = [records[name] for name in records.dtype.names]
        d = schema.n_dimensions
        y = schema.n_aggregates
        dims = [
            np.ascontiguousarray(columns[dim], dtype=np.int32)
            for dim in range(d)
        ]
        aggs = np.empty((len(records), y), dtype=np.int64)
        for i in range(y):
            aggs[:, i] = columns[d + i]
        weights = np.ascontiguousarray(columns[d + y], dtype=np.int64)
        rowids = np.ascontiguousarray(columns[d + y + 1], dtype=np.int64)
        return cls(schema, dims, aggs, weights, rowids)

    @classmethod
    def empty(cls, schema: CubeSchema) -> "WorkingSet":
        return cls(
            schema,
            [np.empty(0, dtype=np.int32) for _ in range(schema.n_dimensions)],
            np.empty((0, schema.n_aggregates), dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    @property
    def size_bytes(self) -> int:
        """Logical memory footprint (what the memory manager accounts)."""
        per_row = 4 * self.schema.n_dimensions + 8 * (
            self.schema.n_aggregates + 2
        )
        return len(self) * per_row
