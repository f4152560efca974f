"""Relations as Python row lists — the adapter the test side uses.

Production holds every relation as columns: a fact table or heap file as
one array per schema column (:class:`repro.relational.batch.ColumnBatch`),
a cube relation as one int64 array
(:class:`repro.core.storage.ArrayRelation`).  The tuple-at-a-time oracles
(``row_engine``, ``record_merger``, ``row_partition``) and the assertions
that spell out expected rows want lists of tuples; this module is the one
place that converts, in both directions, so no test reaches into how a
relation holds its columns.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from repro.core.storage import CubeStorage, NodeStore
from repro.relational.batch import ColumnBatch, column_dtype
from repro.relational.heap import HeapFile
from repro.relational.schema import TableSchema
from repro.relational.table import Table


def _tuples(matrix: np.ndarray) -> list[tuple]:
    return list(map(tuple, matrix.tolist()))


def _matrix(rows: list) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def batch_of(schema: TableSchema, rows: Iterable[tuple]) -> ColumnBatch:
    """Tuples transposed into one schema-typed column batch."""
    rows = list(rows)
    for row in rows:
        schema.validate_row(row)
    columns = list(zip(*rows)) or [()] * schema.arity
    return ColumnBatch(
        schema,
        tuple(
            np.asarray(values, dtype=column_dtype(column.type))
            for column, values in zip(schema.columns, columns)
        ),
        len(rows),
    )


def table_of(schema: TableSchema, rows: Iterable[tuple] = ()) -> Table:
    """A table holding ``rows``."""
    return Table.from_batch(batch_of(schema, rows))


def append_rows(heap: HeapFile, rows: Iterable[tuple]) -> int:
    """Append tuples to a heap file as one batch; returns the count."""
    return heap.append_batch(batch_of(heap.schema, rows))


def rows_of(relation: Table | ColumnBatch | HeapFile) -> list[tuple]:
    """Every row of a table, batch or heap file, as tuples of Python
    scalars in row-id order (a heap is read in one sequential pass)."""
    if isinstance(relation, HeapFile):
        batches = list(relation.scan_batches())
        relation = ColumnBatch.concat(relation.schema, batches)
    elif isinstance(relation, Table):
        relation = relation.as_batch()
    return list(zip(*(array.tolist() for array in relation.arrays)))


def row_at(table: Table, rowid: int) -> tuple:
    """One row of a table, as a tuple of Python scalars."""
    return tuple(array[rowid].item() for array in table.as_batch().arrays)


def rows_digest(table: Table) -> str:
    """SHA-256 of a table's tuples as Python ints — how the generator
    tests pin a seed's output across representations of the table."""
    return hashlib.sha256(repr(rows_of(table)).encode()).hexdigest()


def nt_rows(store: NodeStore) -> list[tuple]:
    return _tuples(store.nt_matrix())


def tt_rowids(store: NodeStore) -> list[int]:
    return store.tt_array().tolist()


def cat_rows(store: NodeStore) -> list[tuple]:
    return _tuples(store.cat_matrix())


def aggregates_rows(storage: CubeStorage) -> list[tuple]:
    return _tuples(storage.aggregates_matrix())


def set_rows(
    store: NodeStore,
    nt: list[tuple] | None = None,
    tt: list[int] | None = None,
    cat: list[tuple] | None = None,
) -> None:
    """Replace the named relations of ``store`` by the given row lists."""
    if nt is not None:
        store.nt.replace(_matrix(nt))
    if tt is not None:
        store.tt.replace(_matrix(tt))
    if cat is not None:
        store.cat.replace(_matrix(cat))


def set_aggregates_rows(storage: CubeStorage, rows: list[tuple]) -> None:
    storage.aggregates.replace(_matrix(rows))


def cube_bytes(storage: CubeStorage):
    """Everything on-disk state determines: per-node relations in stored
    order, AGGREGATES, the CAT format and the drift accounting."""
    nodes = {
        node_id: (nt_rows(store), tt_rowids(store), cat_rows(store))
        for node_id, store in sorted(storage.nodes.items())
    }
    return (
        nodes,
        aggregates_rows(storage),
        storage.cat_format,
        storage.update_drift_bytes,
    )


class NodeRows:
    """One node's relations as lists, converted on first use."""

    def __init__(self, store: NodeStore) -> None:
        self._store = store

    @cached_property
    def nt_rows(self) -> list[tuple]:
        return nt_rows(self._store)

    @cached_property
    def tt_rowids(self) -> list[int]:
        return tt_rowids(self._store)

    @cached_property
    def cat_rows(self) -> list[tuple]:
        return cat_rows(self._store)

    def write_back(self) -> None:
        """Store the (possibly edited) lists that were read or assigned."""
        edited = vars(self)
        set_rows(
            self._store,
            nt=edited.get("nt_rows"),
            tt=edited.get("tt_rowids"),
            cat=edited.get("cat_rows"),
        )


class CubeRows:
    """A ``CubeStorage`` seen as row lists, for one oracle call.

    Everything but the relations (schema, formats, flags) reads through
    to the storage; ``get_node_store`` / ``node_store`` hand out
    :class:`NodeRows`, ``aggregates_rows`` is the AGGREGATES list.  An
    oracle that edits the lists calls :meth:`write_back` when done.
    """

    def __init__(self, storage: CubeStorage) -> None:
        self._storage = storage
        self._nodes: dict[int, NodeRows] = {}

    def __getattr__(self, name: str):
        return getattr(self._storage, name)

    @cached_property
    def aggregates_rows(self) -> list[tuple]:
        return aggregates_rows(self._storage)

    def get_node_store(self, node_id: int) -> NodeRows | None:
        rows = self._nodes.get(node_id)
        if rows is None:
            store = self._storage.get_node_store(node_id)
            if store is None:
                return None
            rows = self._nodes[node_id] = NodeRows(store)
        return rows

    def node_store(self, node_id: int) -> NodeRows:
        self._storage.node_store(node_id)
        return self.get_node_store(node_id)

    def write_back(self) -> None:
        for rows in self._nodes.values():
            rows.write_back()
