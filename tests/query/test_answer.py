"""Unit tests for node-query answering across formats."""

import pytest

from repro import build_cube
from repro.baselines import build_bubst_cube, build_buc_cube
from repro.core.postprocess import postprocess_plus
from repro.lattice.node import CubeNode
from repro.query import (
    FactCache,
    QueryStats,
    answer_bubst_query,
    answer_buc_query,
    answer_cure_query,
    reference_group_by,
)
from repro.query.answer import normalize_answer, tt_source_ids
from tests.support.rows import rows_of


@pytest.fixture
def built(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    cache = FactCache(flat_schema, table=figure9_table)
    return flat_schema, figure9_table, result.storage, cache


def test_all_formats_agree_with_reference(built):
    schema, table, storage, cache = built
    buc, _s = build_buc_cube(schema, table)
    bubst, _s = build_bubst_cube(schema, table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        assert normalize_answer(answer_cure_query(storage, cache, node)) == expected
        assert normalize_answer(answer_buc_query(buc, node)) == expected
        assert normalize_answer(answer_bubst_query(bubst, node)) == expected


def test_query_stats_counters(built):
    schema, table, storage, cache = built
    stats = QueryStats()
    node = CubeNode((0, 1, 1))  # node A
    answer = answer_cure_query(storage, cache, node, stats)
    assert stats.tuples_returned == len(answer) == 3
    assert stats.fact_fetches >= 1
    stats.reset()
    assert stats.tuples_returned == 0


def test_tt_source_nodes_without_partitioning(built):
    schema, _table, storage, _cache = built
    node = CubeNode((0, 0, 0))
    chain = tt_source_ids(storage, node, schema.node_id(node))
    assert chain[0] == schema.node_id(node)
    assert chain[-1] == schema.node_id(schema.lattice.all_node)
    assert len(chain) == 4  # node + 3 plan ancestors in the flat...
    assert tt_source_ids(storage, node, chain[0]) is chain  # memoized


def test_empty_node_returns_empty(built):
    schema, table, storage, cache = built
    # min_count pruning empties the cube; querying must not crash.
    empty_result = build_cube(schema, table=table, min_count=100)
    node = CubeNode((0, 1, 1))
    assert answer_cure_query(empty_result.storage, cache, node) == []


def test_bubst_scan_cost_scales_with_cube(built):
    schema, table, _storage, _cache = built
    bubst, _s = build_bubst_cube(schema, table)
    stats = QueryStats()
    answer_bubst_query(bubst, CubeNode((1, 1, 1)), stats)
    assert stats.rows_scanned == bubst.total_tuples  # full scan, always


def test_buc_read_cost_is_node_local(built):
    schema, table, _storage, _cache = built
    buc, _s = build_buc_cube(schema, table)
    stats = QueryStats()
    node = CubeNode((1, 1, 0))  # node C: 3 tuples
    answer_buc_query(buc, node, stats)
    assert stats.rows_scanned == 3


def test_cure_plus_answers_identical(built):
    schema, table, storage, cache = built
    before = {
        node: normalize_answer(answer_cure_query(storage, cache, node))
        for node in schema.lattice.nodes()
    }
    postprocess_plus(storage)
    for node, expected in before.items():
        assert normalize_answer(answer_cure_query(storage, cache, node)) == expected


def test_heap_backed_cache_equivalent(tmp_path, flat_schema, figure9_table):
    from repro import Engine
    from repro.relational.catalog import Catalog
    from repro.relational.memory import MemoryManager

    engine = Engine(Catalog(tmp_path / "c"), MemoryManager())
    heap = engine.store_table("fact", figure9_table)
    result = build_cube(flat_schema, table=figure9_table)
    cold = FactCache(flat_schema, heap=heap, fraction=0.0)
    for node in flat_schema.lattice.nodes():
        expected = reference_group_by(flat_schema, rows_of(figure9_table), node)
        got = normalize_answer(answer_cure_query(result.storage, cold, node))
        assert got == expected
    engine.close()
