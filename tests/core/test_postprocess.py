"""Unit tests for CURE+ post-processing."""

from unittest import mock

import pytest

from repro import CatFormat, build_cube
from repro.core.postprocess import PlusReport, postprocess_plus
from repro.core.storage import CubeStorage
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.support.rows import (
    cat_rows,
    rows_of,
    set_aggregates_rows,
    set_rows,
    table_of,
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
        expected = reference_group_by(flat_schema, rows_of(figure9_table), node)
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


def _random_cube(schema, monkeypatch, cat_format, dr_mode=False, n=300):
    import random

    monkeypatch.setattr(
        "repro.core.storage.choose_cat_format", lambda _stats, _y: cat_format
    )
    rng = random.Random(29)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(40))
        for _ in range(n)
    ]
    table = table_of(schema.fact_schema, rows)
    return table, build_cube(schema, table=table, dr_mode=dr_mode).storage


def _stored(storage):
    return {
        node_id: (
            sorted(map(tuple, store.nt_matrix().tolist())),
            sorted(tt_rowids(store)),
            sorted(cat_rows(store)),
        )
        for node_id, store in storage.nodes.items()
    }


def _falls(values) -> bool:
    return bool(len(values) > 1 and (values[1:] < values[:-1]).any())


@pytest.mark.parametrize(
    "cat_format", [CatFormat.COINCIDENTAL, CatFormat.COMMON_SOURCE]
)
def test_every_row_id_list_sorted_rows_kept_whole(
    paper_schema, monkeypatch, cat_format
):
    """CURE+ orders every NT and CAT relation by its first column (the
    R-rowid; a format (a) CAT's A-rowid) as well as every TT list,
    moving whole rows: each relation keeps its multiset of rows."""
    table, storage = _random_cube(paper_schema, monkeypatch, cat_format)
    before = _stored(storage)
    unsorted_nts = sum(
        _falls(store.nt_matrix()[:, 0]) for store in storage.nodes.values()
        if store.nt_count
    )
    assert unsorted_nts  # build order is not row-id order
    report = postprocess_plus(storage)
    assert report.nts_sorted == unsorted_nts
    # This build's format (a) A-rowid lists are already in order; its
    # format (b) ⟨R-rowid, A-rowid⟩ rows are not in R-rowid order.
    assert report.cats_sorted or cat_format is CatFormat.COMMON_SOURCE
    assert _stored(storage) == before
    for store in storage.nodes.values():
        for matrix in (store.nt_matrix(), store.cat_matrix()):
            if len(matrix):
                assert not _falls(matrix[:, 0])
        assert not _falls(store.tt_array())
    cache = FactCache(paper_schema, table=table)
    for node in paper_schema.lattice.nodes():
        assert normalize_answer(answer_cure_query(storage, cache, node)) == (
            reference_group_by(paper_schema, rows_of(table), node)
        )


def test_dr_nts_keep_their_order(paper_schema, monkeypatch):
    """A DR NT stores codes, not an R-rowid: the pass leaves it alone."""
    _table, storage = _random_cube(
        paper_schema, monkeypatch, CatFormat.COINCIDENTAL, dr_mode=True
    )
    nts = {n: s.nt_matrix() for n, s in storage.nodes.items()}
    assert postprocess_plus(storage).nts_sorted == 0
    for node_id, store in storage.nodes.items():
        assert store.nt_matrix() is nts[node_id]


def test_a_delta_keeps_row_id_order_and_a_rerun_sorts_only_what_falls(
    paper_schema, monkeypatch
):
    """The delta merger puts each added row before the first stored one
    with a larger row-id, so a CURE+ cube stays in order straight after
    the delta and a re-run of the pass sorts nothing; a relation put out
    of order is the only one a re-run replaces."""
    from repro.core.incremental import apply_delta

    table, storage = _random_cube(paper_schema, monkeypatch, CatFormat.COINCIDENTAL)
    postprocess_plus(storage)
    assert postprocess_plus(storage) == PlusReport(elapsed_seconds=mock.ANY)
    before = _stored(storage)
    report = apply_delta(
        storage, paper_schema, table, [(0, 1, 2, 5), (11, 7, 4, 9), (3, 3, 3, 1)]
    )
    assert report.nts_merged and report.tts_devalued and report.new_nts + report.new_tts
    assert _stored(storage) != before
    assert storage.plus_processed
    for store in storage.nodes.values():
        assert not _falls(store.tt_array())
        if store.nt_count:
            assert not _falls(store.nt_matrix()[:, 0])
        if store.cat_count:
            assert not _falls(store.cat_matrix()[:, 0])
    assert postprocess_plus(storage) == PlusReport(elapsed_seconds=mock.ANY)
    assert storage.plus_processed

    stores = [s for s in storage.nodes.values() if s.nt_count > 1 and s.tt_count > 1]
    set_rows(stores[0], nt=[tuple(row) for row in stores[0].nt_matrix()[::-1]])
    set_rows(stores[0], tt=tt_rowids(stores[0])[::-1])
    arrays = {id(s): (s.nt_matrix(), s.tt_array(), s.cat_matrix()) for s in stores}
    report = postprocess_plus(storage)
    assert (report.nts_sorted, report.tt_lists_sorted, report.cats_sorted) == (1, 1, 0)
    assert not _falls(stores[0].nt_matrix()[:, 0]) and not _falls(stores[0].tt_array())
    for store in stores[1:]:
        assert all(
            now is then
            for now, then in zip(
                (store.nt_matrix(), store.tt_array(), store.cat_matrix()),
                arrays[id(store)],
            )
        )
