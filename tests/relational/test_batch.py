"""Unit tests for the ColumnBatch columnar substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational.batch import (
    NUMPY_DTYPES,
    ColumnBatch,
    RowSource,
    column_dtype,
)
from repro.relational.heap import HeapFile
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table

MIXED = TableSchema.of(
    "a", Column("b", ColumnType.INT64), Column("c", ColumnType.FLOAT64)
)
ROWS = [(1, 10, 0.5), (2, 20, 1.5), (1, 30, -2.0), (3, 40, 0.0)]


def test_from_rows_roundtrip_and_dtypes():
    batch = ColumnBatch.from_rows(MIXED, ROWS)
    assert batch.length == 4
    assert len(batch) == 4
    assert batch.to_rows() == ROWS
    assert batch.arrays[0].dtype == np.dtype("<i4")
    assert batch.arrays[1].dtype == np.dtype("<i8")
    assert batch.arrays[2].dtype == np.dtype("<f8")


def test_empty_batch():
    batch = ColumnBatch.empty(MIXED)
    assert batch.length == 0
    assert batch.to_rows() == []
    assert ColumnBatch.from_rows(MIXED, []).length == 0


def test_column_dtype_table_is_total():
    for column_type in ColumnType:
        assert column_dtype(column_type) is NUMPY_DTYPES[column_type]


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity"):
        ColumnBatch.from_rows(MIXED, [(1, 2)])
    with pytest.raises(ValueError, match="arity"):
        ColumnBatch(MIXED, (np.zeros(1, dtype=np.int32),), 1)


def test_length_mismatch_rejected():
    arrays = (
        np.zeros(2, dtype=np.int32),
        np.zeros(3, dtype=np.int64),
        np.zeros(2, dtype=np.float64),
    )
    with pytest.raises(ValueError, match="length"):
        ColumnBatch(MIXED, arrays, 2)


def test_column_by_name():
    batch = ColumnBatch.from_rows(MIXED, ROWS)
    assert batch.column("b").tolist() == [10, 20, 30, 40]


def test_project_reorders_and_shares():
    batch = ColumnBatch.from_rows(MIXED, ROWS)
    projected = batch.project(["c", "a"])
    assert projected.schema.names == ("c", "a")
    assert projected.to_rows() == [(c, a) for a, _b, c in ROWS]
    assert projected.arrays[1] is batch.arrays[0]  # zero-copy


def test_filter_mask():
    batch = ColumnBatch.from_rows(MIXED, ROWS)
    mask = batch.column("a") == 1
    assert batch.filter(mask).to_rows() == [ROWS[0], ROWS[2]]
    with pytest.raises(ValueError, match="mask"):
        batch.filter(np.ones(2, dtype=np.bool_))
    with pytest.raises(ValueError, match="mask"):
        batch.filter(np.ones(4, dtype=np.int64))


def test_take_and_slice():
    batch = ColumnBatch.from_rows(MIXED, ROWS)
    taken = batch.take(np.array([3, 0, 0], dtype=np.int64))
    assert taken.to_rows() == [ROWS[3], ROWS[0], ROWS[0]]
    assert batch.slice(1, 3).to_rows() == ROWS[1:3]
    assert batch.slice(2, 2).length == 0


def test_concat():
    first = ColumnBatch.from_rows(MIXED, ROWS[:2])
    second = ColumnBatch.from_rows(MIXED, ROWS[2:])
    empty = ColumnBatch.empty(MIXED)
    combined = ColumnBatch.concat(MIXED, [first, empty, second])
    assert combined.to_rows() == ROWS
    assert ColumnBatch.concat(MIXED, [empty, empty]).length == 0
    assert ColumnBatch.concat(MIXED, [empty, first]) is first  # single run


def test_from_arrays_no_copy():
    values = np.asarray([1, 2, 3], dtype=np.int64)
    schema = TableSchema((Column("x", ColumnType.INT64),))
    batch = ColumnBatch.from_arrays(schema, (values,))
    assert batch.arrays[0] is values
    assert batch.length == 3


def test_iter_rows_bridge():
    batch = ColumnBatch.from_rows(MIXED, ROWS)
    assert list(batch.iter_rows()) == ROWS


def test_table_as_batch_is_cached_columnar_view():
    table = Table(MIXED, list(ROWS))
    first = table.as_batch()
    assert first.to_rows() == ROWS
    assert table.as_batch() is first  # the batch is the table, not a copy
    table.append(ROWS[0])
    assert table.as_batch().to_rows() == ROWS + [ROWS[0]]


def test_table_append_batch():
    table = Table(MIXED, list(ROWS[:1]))
    table.append_batch(ColumnBatch.from_rows(MIXED, ROWS[1:]))
    assert table.to_rows() == ROWS


def test_heapfile_satisfies_rowsource(tmp_path):
    with HeapFile(tmp_path / "t.dat", MIXED) as heap:
        heap.append_many(ROWS)
        assert isinstance(heap, RowSource)
        assert heap.read_rows_sequential([0, 2]) == [ROWS[0], ROWS[2]]


def test_heapfile_batch_roundtrip(tmp_path):
    with HeapFile(tmp_path / "t.dat", MIXED) as heap:
        written = heap.append_batch(ColumnBatch.from_rows(MIXED, ROWS))
        assert written == len(ROWS)
        assert list(heap.scan()) == ROWS
        chunks = list(heap.scan_batches(chunk_rows=3))
        assert [chunk.length for chunk in chunks] == [3, 1]
        assert [row for c in chunks for row in c.to_rows()] == ROWS
