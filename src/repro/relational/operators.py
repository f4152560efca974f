"""Physical operators over relations: columnar batches with a row shim.

The substrate's query-execution layer.  Every operator executes
vectorized over :class:`~repro.relational.batch.ColumnBatch` runs —
mask-based selection, fancy-index projection, sort/`reduceat`
aggregation, sort-merge joins — via :meth:`Operator.batches`, which is
the default execution path.  The tuple ``__iter__`` of the old Volcano
design survives as a thin compatibility shim over ``batches()``, and
:meth:`Operator.rows` keeps the original tuple-at-a-time implementations
as a reference path (the row/batch equivalence property tests use it).

CURE itself uses specialized bulk paths for cube construction
(:mod:`repro.core.segments`), but the operator layer is what makes the
engine a *relational* engine — cube relations persisted by
:meth:`CubeStorage.persist` are ordinary relations and can be scanned,
filtered, projected, joined and aggregated like any other, which is the
ROLAP-compatibility story of the paper.

>>> from repro.relational.schema import TableSchema
>>> from repro.relational.table import Table
>>> table = Table(TableSchema.of("a", "b"), [(1, 10), (2, 20), (1, 30)])
>>> plan = HashAggregate(
...     TableScan(table), group_by=["a"], aggregates=[("sum", "b")]
... )
>>> sorted(plan)
[(1, 40), (2, 20)]
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.relational.aggregates import AggregateFunction, make_aggregates
from repro.relational.batch import ColumnBatch
from repro.relational.heap import HeapFile
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table


class Operator:
    """Base class: a columnar-batch producer with a known output schema.

    Iterating an operator yields tuples (bridged from its batches);
    ``columns()`` exposes the output schema names.
    """

    def output_schema(self) -> TableSchema:
        raise NotImplementedError

    def columns(self) -> list[str]:
        return list(self.output_schema().names)

    def batches(self) -> Iterator[ColumnBatch]:
        """Vectorized execution: yield the output as columnar batches."""
        raise NotImplementedError

    def rows(self) -> Iterator[tuple]:
        """Reference tuple-at-a-time execution (pre-batch semantics)."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple]:
        for batch in self.batches():
            yield from batch.to_rows()

    def materialize(self) -> ColumnBatch:
        """The operator's whole output as one batch."""
        return ColumnBatch.concat(self.output_schema(), list(self.batches()))

    def to_table(self) -> Table:
        """Materialize the operator's output as an in-memory table."""
        return Table.from_batch(self.materialize())


class TableScan(Operator):
    """Scan an in-memory table (one zero-copy columnar view)."""

    def __init__(self, table: Table) -> None:
        self._table = table

    def output_schema(self) -> TableSchema:
        return self._table.schema

    def batches(self) -> Iterator[ColumnBatch]:
        yield self._table.as_batch()

    def rows(self) -> Iterator[tuple]:
        return iter(self._table)


class HeapScan(Operator):
    """Sequential scan of a disk-backed relation."""

    def __init__(self, heap: HeapFile) -> None:
        self._heap = heap

    def output_schema(self) -> TableSchema:
        return self._heap.schema

    def batches(self) -> Iterator[ColumnBatch]:
        return self._heap.scan_batches()

    def rows(self) -> Iterator[tuple]:
        return self._heap.scan()


class Selection(Operator):
    """Filter rows by a predicate over named columns.

    A plain callable receives a dict of column name → value per row (the
    readable, slow path).  Predicates that additionally implement
    ``mask(batch) -> bool array`` — e.g.
    :class:`~repro.relational.batch.ColumnEquals` /
    :class:`~repro.relational.batch.ColumnIn` — are evaluated as one
    whole-batch numpy kernel.
    """

    def __init__(
        self, child: Operator, predicate: Callable[[dict], bool]
    ) -> None:
        self._child = child
        self._predicate = predicate
        self._names = child.columns()

    def output_schema(self) -> TableSchema:
        return self._child.output_schema()

    def _mask(self, batch: ColumnBatch) -> np.ndarray:
        vectorized = getattr(self._predicate, "mask", None)
        if vectorized is not None:
            mask: np.ndarray = vectorized(batch)
            return mask
        names = self._names
        predicate = self._predicate
        return np.fromiter(
            (predicate(dict(zip(names, row))) for row in batch.to_rows()),
            dtype=np.bool_,
            count=batch.length,
        )

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self._child.batches():
            yield batch.filter(self._mask(batch))

    def rows(self) -> Iterator[tuple]:
        names = self._names
        for row in self._child.rows():
            if self._predicate(dict(zip(names, row))):
                yield row


class Projection(Operator):
    """Keep (and reorder) the named columns (shared-array views)."""

    def __init__(self, child: Operator, names: list[str]) -> None:
        child_names = child.columns()
        missing = [n for n in names if n not in child_names]
        if missing:
            raise KeyError(f"projection of unknown columns: {missing}")
        self._child = child
        self._names = list(names)
        self._positions = [child_names.index(n) for n in names]

    def output_schema(self) -> TableSchema:
        return self._child.output_schema().project(self._names)

    def batches(self) -> Iterator[ColumnBatch]:
        for batch in self._child.batches():
            yield batch.project(self._names)

    def rows(self) -> Iterator[tuple]:
        positions = self._positions
        for row in self._child.rows():
            yield tuple(row[p] for p in positions)


class HashAggregate(Operator):
    """Group-by with the substrate's aggregate functions.

    ``aggregates`` is a list of ``(function_name, column_name)`` pairs;
    output columns are the group-by columns followed by one column per
    aggregate, named ``<fn>_<column>``.  The batch path factorizes the
    key columns with a stable lexicographic sort and reduces each
    aggregate with its ufunc's ``reduceat`` over the group segments
    (the idiom of :mod:`repro.core.segments`), so output arrives in
    key order; the reference row path emits first-seen order.
    """

    def __init__(
        self,
        child: Operator,
        group_by: list[str],
        aggregates: list[tuple[str, str]],
    ) -> None:
        child_names = child.columns()
        for name in group_by + [column for _fn, column in aggregates]:
            if name not in child_names:
                raise KeyError(f"unknown column {name!r}")
        self._child = child
        self._group_by = list(group_by)
        self._group_positions = [child_names.index(n) for n in group_by]
        self._agg_positions = [
            child_names.index(column) for _fn, column in aggregates
        ]
        self._functions: list[AggregateFunction] = [
            spec.function
            for spec in make_aggregates(
                *[(fn, 0) for fn, _column in aggregates]
            )
        ]
        self._names = list(group_by) + [
            f"{fn}_{column}" for fn, column in aggregates
        ]

    def output_schema(self) -> TableSchema:
        child_schema = self._child.output_schema()
        columns = [child_schema.columns[p] for p in self._group_positions]
        for name, fn, position in zip(
            self._names[len(self._group_by) :],
            self._functions,
            self._agg_positions,
        ):
            source_type = child_schema.columns[position].type
            # Integer aggregates widen to INT64 (sums overflow 32 bits);
            # float sources stay FLOAT64; COUNT is always INT64.
            if fn.name != "count" and source_type is ColumnType.FLOAT64:
                columns.append(Column(name, ColumnType.FLOAT64))
            else:
                columns.append(Column(name, ColumnType.INT64))
        return TableSchema(tuple(columns))

    def columns(self) -> list[str]:
        return list(self._names)

    def batches(self) -> Iterator[ColumnBatch]:
        if any(fn.ufunc is None for fn in self._functions):
            # Holistic aggregate: no segmented-reduction kernel exists,
            # so the reference path (and its merge-refusal semantics)
            # is the only correct execution.
            yield ColumnBatch.from_rows(self.output_schema(), list(self.rows()))
            return
        source = self._child.materialize()
        if source.length == 0:
            return
        keys = [source.arrays[p] for p in self._group_positions]
        if keys:
            order = np.lexsort(tuple(reversed(keys)))
            sorted_keys = [key[order] for key in keys]
            changed = np.zeros(source.length - 1, dtype=np.bool_)
            for key in sorted_keys:
                changed |= key[1:] != key[:-1]
            starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.flatnonzero(changed) + 1)
            )
            group_arrays = [key[starts] for key in sorted_keys]
        else:
            order = np.arange(source.length, dtype=np.int64)
            starts = np.zeros(1, dtype=np.int64)
            group_arrays = []
        agg_arrays = []
        for fn, position in zip(self._functions, self._agg_positions):
            values = fn.from_column(source.arrays[position][order])
            if values.dtype.kind in "iu":
                values = values.astype(np.int64, copy=False)
            if fn.ufunc is None:  # pragma: no cover - guarded above
                raise TypeError(f"{fn.name} has no segmented kernel")
            agg_arrays.append(fn.ufunc.reduceat(values, starts))
        yield ColumnBatch(
            self.output_schema(),
            tuple(group_arrays + agg_arrays),
            len(starts),
        )

    def rows(self) -> Iterator[tuple]:
        groups: dict[tuple, list] = {}
        for row in self._child.rows():
            key = tuple(row[p] for p in self._group_positions)
            partial = [
                fn.from_value(row[p])
                for fn, p in zip(self._functions, self._agg_positions)
            ]
            existing = groups.get(key)
            if existing is None:
                groups[key] = partial
            else:
                for index, fn in enumerate(self._functions):
                    existing[index] = fn.merge(existing[index], partial[index])
        for key, values in groups.items():
            yield key + tuple(values)


class OrderBy(Operator):
    """Sort the child's output by the named columns (materializing).

    The batch path is a stable ``np.lexsort``; descending order negates
    the (int64-widened) key columns, which matches the stable
    ``sorted(..., reverse=True)`` tie order of the row path.
    """

    def __init__(
        self, child: Operator, names: list[str], descending: bool = False
    ) -> None:
        child_names = child.columns()
        missing = [n for n in names if n not in child_names]
        if missing:
            raise KeyError(f"order by unknown columns: {missing}")
        self._child = child
        self._positions = [child_names.index(n) for n in names]
        self._descending = descending
        self._names = child_names

    def output_schema(self) -> TableSchema:
        return self._child.output_schema()

    def batches(self) -> Iterator[ColumnBatch]:
        source = self._child.materialize()
        keys = []
        for position in reversed(self._positions):  # lexsort: primary last
            key = source.arrays[position]
            if self._descending:
                if key.dtype.kind in "iu":
                    key = -key.astype(np.int64, copy=False)
                else:
                    key = -key
            keys.append(key)
        if keys:
            order = np.lexsort(tuple(keys))
            yield source.take(order)
        else:
            yield source

    def rows(self) -> Iterator[tuple]:
        ordered = sorted(
            self._child.rows(),
            key=lambda row: tuple(row[p] for p in self._positions),
            reverse=self._descending,
        )
        return iter(ordered)


class Limit(Operator):
    """Stop after ``n`` rows."""

    def __init__(self, child: Operator, n: int) -> None:
        if n < 0:
            raise ValueError("limit must be non-negative")
        self._child = child
        self._n = n

    def output_schema(self) -> TableSchema:
        return self._child.output_schema()

    def batches(self) -> Iterator[ColumnBatch]:
        remaining = self._n
        for batch in self._child.batches():
            if remaining <= 0:
                return
            if batch.length > remaining:
                yield batch.slice(0, remaining)
                return
            yield batch
            remaining -= batch.length

    def rows(self) -> Iterator[tuple]:
        remaining = self._n
        for row in self._child.rows():
            if remaining <= 0:
                return
            yield row
            remaining -= 1


class HashJoin(Operator):
    """Equi-join on one column per side.

    The batch path is a sort-merge: a stable argsort of the left key
    plus two ``searchsorted`` probes locate each right row's match run,
    and one ``repeat``/``cumsum`` expansion materializes all pairs at
    once.  Output order (right-major, left matches in original order)
    is identical to the row path's build-left/probe-right loop.
    """

    def __init__(
        self, left: Operator, right: Operator, left_on: str, right_on: str
    ) -> None:
        left_names = left.columns()
        right_names = right.columns()
        if left_on not in left_names:
            raise KeyError(f"unknown left column {left_on!r}")
        if right_on not in right_names:
            raise KeyError(f"unknown right column {right_on!r}")
        self._left = left
        self._right = right
        self._left_position = left_names.index(left_on)
        self._right_position = right_names.index(right_on)
        self._left_names = left_names
        self._names = left_names + [
            f"r_{n}" if n in left_names else n for n in right_names
        ]

    def output_schema(self) -> TableSchema:
        left_schema = self._left.output_schema()
        right_schema = self._right.output_schema()
        renamed = tuple(
            Column(name, column.type)
            for name, column in zip(
                self._names[len(self._left_names) :], right_schema.columns
            )
        )
        return TableSchema(left_schema.columns + renamed)

    def columns(self) -> list[str]:
        return list(self._names)

    def batches(self) -> Iterator[ColumnBatch]:
        left = self._left.materialize()
        right = self._right.materialize()
        if left.length == 0 or right.length == 0:
            return
        left_key = left.arrays[self._left_position]
        right_key = right.arrays[self._right_position]
        left_order = np.argsort(left_key, kind="stable")
        left_sorted = left_key[left_order]
        run_start = np.searchsorted(left_sorted, right_key, side="left")
        run_end = np.searchsorted(left_sorted, right_key, side="right")
        counts = run_end - run_start
        total = int(counts.sum())
        if total == 0:
            return
        right_index = np.repeat(
            np.arange(right.length, dtype=np.int64), counts
        )
        prefix = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1])
        )
        within_run = np.arange(total, dtype=np.int64) - np.repeat(
            prefix, counts
        )
        left_index = left_order[np.repeat(run_start, counts) + within_run]
        arrays = tuple(array[left_index] for array in left.arrays) + tuple(
            array[right_index] for array in right.arrays
        )
        yield ColumnBatch(self.output_schema(), arrays, total)

    def rows(self) -> Iterator[tuple]:
        build: dict[object, list[tuple]] = {}
        for row in self._left.rows():
            build.setdefault(row[self._left_position], []).append(row)
        for row in self._right.rows():
            for match in build.get(row[self._right_position], ()):
                yield match + row
