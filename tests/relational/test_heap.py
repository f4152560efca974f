"""Unit tests for disk-backed heap files."""

import numpy as np
import pytest

from repro.relational.heap import HeapFile
from repro.relational.schema import Column, ColumnType, TableSchema
from tests.support.rows import append_rows, rows_of


@pytest.fixture
def schema() -> TableSchema:
    return TableSchema.of("a", Column("m", ColumnType.INT64))


@pytest.fixture
def heap(tmp_path, schema) -> HeapFile:
    with HeapFile(tmp_path / "t.dat", schema) as built:
        yield built


def test_append_and_read_row(heap):
    assert append_rows(heap, [(1, 100)]) == 1
    assert append_rows(heap, [(2, 200)]) == 1
    assert rows_of(heap.read_batch([1])) == [(2, 200)]
    assert rows_of(heap.read_batch([0])) == [(1, 100)]
    assert len(heap) == 2


def test_read_out_of_range(heap):
    append_rows(heap, [(1, 1)])
    with pytest.raises(IndexError, match="row-id 5"):
        heap.read_batch([0, 5])
    with pytest.raises(IndexError, match="row-id -1"):
        heap.read_batch([-1], sorted_hint=True)


def test_append_many_and_scan(heap):
    rows = [(i, i * 10) for i in range(100)]
    assert append_rows(heap, rows) == 100
    assert rows_of(heap) == rows
    assert len(heap) == 100


def test_scan_spans_chunk_boundaries(tmp_path, schema):
    heap = HeapFile(tmp_path / "big.dat", schema)
    rows = [(i, i) for i in range(20_000)]  # > one 8192-row chunk
    append_rows(heap, rows)
    assert [batch.length for batch in heap.scan_batches()] == [8192, 8192, 3616]
    assert rows_of(heap) == rows
    heap.close()


def test_read_rows_sequential_matches_random(heap):
    rows = [(i, i * 3) for i in range(50)]
    append_rows(heap, rows)
    wanted = [3, 7, 8, 9, 20, 48, 49]
    heap.stats.reset()
    sequential = rows_of(heap.read_batch(wanted, sorted_hint=True))
    assert heap.stats.runs == 4  # {3}, {7, 8, 9}, {20}, {48, 49}
    assert heap.stats.sequential_passes == 1
    assert sequential == rows_of(heap.read_batch(wanted))
    assert sequential == [rows[rowid] for rowid in wanted]
    assert heap.stats.runs == 4 + len(wanted)  # one seek per row-id


def test_read_rows_sequential_requires_ascending(heap):
    append_rows(heap, [(i, i) for i in range(5)])
    with pytest.raises(ValueError, match="ascending"):
        heap.read_batch([3, 1], sorted_hint=True)
    with pytest.raises(ValueError, match="ascending"):
        heap.read_batch([1, 1], sorted_hint=True)
    assert rows_of(heap.read_batch([3, 1, 3])) == [(3, 3), (1, 1), (3, 3)]


def test_read_rows_sequential_empty(heap):
    batch = heap.read_batch(np.empty(0, dtype=np.int64), sorted_hint=True)
    assert batch.length == 0
    assert [array.dtype for array in batch.arrays] == [
        np.dtype("<i4"),
        np.dtype("<i8"),
    ]
    assert heap.stats.runs == 0


def test_stats_counters(heap):
    append_rows(heap, [(i, i) for i in range(10)])
    heap.stats.reset()
    heap.read_batch([4])
    assert heap.stats.random_reads == 1
    rows_of(heap)
    assert heap.stats.sequential_passes == 1
    assert heap.stats.rows_read == 11
    assert heap.stats.runs == 1


def test_persistence_across_reopen(tmp_path, schema):
    path = tmp_path / "p.dat"
    with HeapFile(path, schema) as heap:
        append_rows(heap, [(7, 70)])
        heap.flush()
    with HeapFile(path, schema) as reopened:
        assert len(reopened) == 1
        assert rows_of(reopened.read_batch([0])) == [(7, 70)]


def test_size_bytes(heap, schema):
    append_rows(heap, [(i, i) for i in range(4)])
    assert heap.size_bytes == 4 * schema.row_size_bytes == 4 * 12
