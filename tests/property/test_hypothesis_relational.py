"""Property-based tests for the relational substrate."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.relational.bitmap import Bitmap
from repro.relational.heap import HeapFile
from repro.relational.schema import Column, ColumnType, TableSchema


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 199)), st.integers(200, 300))
def test_bitmap_roundtrip(rowids, universe):
    bitmap = Bitmap.from_rowids(rowids, universe)
    assert list(bitmap.iter_set()) == sorted(rowids)
    assert bitmap.count() == len(rowids)
    for rowid in range(universe):
        assert bitmap.test(rowid) == (rowid in rowids)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-2**31, 2**31 - 1), st.integers(-2**62, 2**62)),
        max_size=50,
    )
)
def test_heap_file_roundtrip(tmp_path_factory, rows):
    schema = TableSchema.of("a", Column("b", ColumnType.INT64))
    path = tmp_path_factory.mktemp("heap") / "t.dat"
    with HeapFile(path, schema) as heap:
        heap.append_many(rows)
        assert list(heap.scan()) == rows
        for rowid, row in enumerate(rows):
            assert heap.read_row(rowid) == row
