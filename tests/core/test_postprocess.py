"""Unit tests for CURE+ post-processing."""

import pytest

from repro import CatFormat, build_cube
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CubeStorage
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer


def test_tt_lists_sorted(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    # Scramble a TT list to prove the pass sorts it.
    for store in result.storage.nodes.values():
        store.tt_rowids.reverse()
    report = postprocess_plus(result.storage, convert_bitmaps=False)
    assert report.tt_lists_sorted > 0
    for store in result.storage.nodes.values():
        assert store.tt_rowids == sorted(store.tt_rowids)
    assert result.storage.plus_processed


def test_bitmap_conversion_only_when_beneficial(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.fact_row_count = 64  # 8-byte bitmap
    storage.cat_format = CatFormat.COINCIDENTAL
    storage.node_store(0).tt_rowids = list(range(40))  # 160 B list > 8 B map
    storage.node_store(1).tt_rowids = [1]  # 4 B list < 8 B map
    report = postprocess_plus(storage)
    assert report.tt_bitmaps == 1
    assert storage.node_store(0).tt_bitmap is not None
    assert storage.node_store(0).tt_rowids == []
    assert storage.node_store(1).tt_bitmap is None


def test_bitmap_roundtrips_rowids(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.fact_row_count = 64
    storage.cat_format = CatFormat.COINCIDENTAL
    rowids = sorted({7, 3, 40, 22, 9, 12, 33, 5} | set(range(20)))
    storage.node_store(0).tt_rowids = list(rowids)
    postprocess_plus(storage)
    assert list(storage.node_store(0).tt_bitmap.iter_set()) == sorted(rowids)


def test_cat_bitmap_only_for_format_a_without_duplicates(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.fact_row_count = 8
    storage.cat_format = CatFormat.COMMON_SOURCE
    storage.aggregates_rows = [(0, 1)] * 80
    storage.node_store(0).cat_rows = [(i,) for i in range(40)]
    storage.node_store(1).cat_rows = [(1,), (1,)]  # duplicates: keep list
    report = postprocess_plus(storage)
    assert report.cat_bitmaps == 1
    assert storage.node_store(0).cat_bitmap is not None
    assert storage.node_store(1).cat_bitmap is None
    assert storage.node_store(1).cat_rows == [(1,), (1,)]


def test_queries_unchanged_after_plus(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    postprocess_plus(result.storage)
    cache = FactCache(flat_schema, table=figure9_table)
    for node in flat_schema.lattice.nodes():
        expected = reference_group_by(flat_schema, figure9_table.rows, node)
        got = normalize_answer(
            answer_cure_query(result.storage, cache, node)
        )
        assert got == expected


def test_plus_never_grows_storage(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    before = result.storage.size_report().total_bytes
    postprocess_plus(result.storage)
    after = result.storage.size_report().total_bytes
    assert after <= before


def test_elapsed_recorded(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    report = postprocess_plus(result.storage)
    assert report.elapsed_seconds >= 0
