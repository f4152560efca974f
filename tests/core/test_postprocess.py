"""Unit tests for CURE+ post-processing."""

import pytest

from repro import CatFormat, build_cube
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CubeStorage
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.support.rows import (
    cat_rows,
    set_aggregates_rows,
    set_rows,
    tt_rowids,
)


def test_tt_lists_sorted(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    # Scramble a TT list to prove the pass sorts it.
    for store in result.storage.nodes.values():
        set_rows(store, tt=tt_rowids(store)[::-1])
    report = postprocess_plus(result.storage)
    assert report.tt_lists_sorted > 0
    for store in result.storage.nodes.values():
        assert tt_rowids(store) == sorted(tt_rowids(store))
    assert result.storage.plus_processed


def test_bitmap_conversion_only_when_beneficial(flat_schema):
    """A CURE+ TT list is charged as a bitmap over the fact table only
    when that is smaller; either way the list itself is what is held."""
    storage = CubeStorage(flat_schema)
    storage.fact_row_count = 64  # 8-byte bitmap
    storage.cat_format = CatFormat.COINCIDENTAL
    set_rows(storage.node_store(0), tt=list(range(40)))  # 160 B list > 8 B map
    set_rows(storage.node_store(1), tt=[1])  # 4 B list < 8 B map
    assert storage.size_report().tt_bytes == 160 + 4
    postprocess_plus(storage)
    assert storage.size_report().tt_bytes == 8 + 4
    assert tt_rowids(storage.node_store(0)) == list(range(40))
    assert tt_rowids(storage.node_store(1)) == [1]


def test_bitmap_roundtrips_rowids(flat_schema):
    """The sorted list is the CURE+ form: no row-id is lost or added."""
    storage = CubeStorage(flat_schema)
    storage.fact_row_count = 64
    storage.cat_format = CatFormat.COINCIDENTAL
    rowids = sorted({7, 3, 40, 22, 9, 12, 33, 5} | set(range(20)))
    set_rows(storage.node_store(0), tt=rowids[::-1])
    postprocess_plus(storage)
    assert tt_rowids(storage.node_store(0)) == rowids
    assert storage.size_report().tt_bytes == 8


def test_cat_bitmap_only_for_format_a_without_duplicates(flat_schema):
    """Format (a) A-rowid lists are charged as a bitmap over AGGREGATES
    when smaller, but only without repeats (a bitmap holds a set);
    format (b) pairs never are."""
    storage = CubeStorage(flat_schema)
    storage.fact_row_count = 8
    storage.cat_format = CatFormat.COMMON_SOURCE
    set_aggregates_rows(storage, [(0, 1)] * 80)  # 10-byte bitmap
    set_rows(storage.node_store(0), cat=[(i,) for i in range(40)][::-1])
    set_rows(storage.node_store(1), cat=[(1,), (1,)] * 3)  # repeats: a list
    postprocess_plus(storage)
    assert storage.size_report().cat_bytes == 10 + 6 * 4
    assert cat_rows(storage.node_store(0)) == [(i,) for i in range(40)]
    assert cat_rows(storage.node_store(1)) == [(1,)] * 6

    storage = CubeStorage(flat_schema)
    storage.cat_format = CatFormat.COINCIDENTAL
    set_aggregates_rows(storage, [(1,)] * 80)
    set_rows(storage.node_store(0), cat=[(i, i) for i in range(40)])
    postprocess_plus(storage)
    assert storage.size_report().cat_bytes == 40 * 2 * 4


def test_queries_unchanged_after_plus(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    postprocess_plus(result.storage)
    cache = FactCache(flat_schema, table=figure9_table)
    for node in flat_schema.lattice.nodes():
        expected = reference_group_by(flat_schema, figure9_table.to_rows(), node)
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


def test_size_report_counts_equal_before_and_after_plus(monkeypatch):
    """CURE+ changes what TTs and CATs are charged, never how many there
    are: the NT / TT / CAT / AGGREGATES counts ``describe()`` prints are
    the same before and after, bitmap-sized lists included."""
    from tests.server.conftest import serving_fact, serving_schema

    monkeypatch.setattr(
        "repro.core.storage.choose_cat_format",
        lambda _stats, _y: CatFormat.COMMON_SOURCE,
    )
    schema = serving_schema()
    storage = build_cube(schema, table=serving_fact(schema)).storage
    before = storage.size_report()
    postprocess_plus(storage)
    after = storage.size_report()
    # Some TT and some CAT list is now charged as a bitmap.
    assert after.tt_bytes < before.tt_bytes
    assert after.cat_bytes < before.cat_bytes
    assert (after.n_nt, after.n_tt, after.n_cat, after.n_aggregate_rows) == (
        before.n_nt,
        before.n_tt,
        before.n_cat,
        before.n_aggregate_rows,
    )
    assert after.n_cat > 0
