"""The query engine against the row-engine oracle, plus the caches.

``repro.query`` has one engine — the columnar relation reader
(:func:`repro.query.answer.read_node_relations`) that node, slice and
iceberg answering all go through.  The tuple-at-a-time engine it
replaced lives on as ``tests/support/row_engine.py``; these tests run
every entry point through both and require identical answers (node
answers in identical *row order*) and identical cost accounting —
``QueryStats`` and the fact cache's hits/misses — over CURE, CURE+
(sorted lists, some charged as bitmaps), CURE_DR and FCURE, both CAT
formats, on in-memory storage over the fact ``Table``, on the same storage
behind a half-warm cache over the bundle's fact heap, and on a mapped
``cube.v2``.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest

from repro import Table, build_cube
from repro.bundle import open_bundle, save_bundle
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CatFormat
from repro.core.variants import VARIANTS
from repro.lattice.node import CubeNode
from repro.query import (
    ColumnAnswer,
    DimensionSlice,
    FactCache,
    QueryStats,
    ResultCache,
    answer_cure_query,
    answer_cure_sliced,
    answer_rollup_from_flat,
    iceberg_over_cure,
)
from repro.query.planner import CubePlanner, QueryRequest, build_indices
from tests.server.conftest import serving_fact, serving_schema
from tests.support import row_engine

check = row_engine.assert_engine_matches


@pytest.fixture
def built(paper_schema):
    rng = random.Random(29)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5),
         rng.randrange(20))
        for _ in range(400)
    ]
    table = Table(paper_schema.fact_schema, rows)
    result = build_cube(paper_schema, table=table)
    cache = FactCache(paper_schema, table=table)
    return paper_schema, table, result.storage, cache


def test_node_queries_equivalent(built):
    schema, _table, storage, cache = built
    for node in schema.lattice.nodes():
        check(
            cache,
            lambda s: answer_cure_query(storage, cache, node, s),
            lambda s: row_engine.answer_cure_query(storage, cache, node, s),
            ordered=True,  # order-identical, not just the same set
        )


SLICE_CASES = [
    ((0, 0, 0), [DimensionSlice.of(0, 1, {0, 2})]),
    ((1, 0, 1), [DimensionSlice.of(0, 2, {0})]),
    ((0, 1, 0), [DimensionSlice.of(0, 1, {1}), DimensionSlice.of(2, 0, {0, 1})]),
    ((2, 2, 0), [DimensionSlice.of(2, 0, {2, 4})]),
]


@pytest.mark.parametrize("levels,slices", SLICE_CASES)
def test_sliced_queries_equivalent(built, levels, slices):
    schema, table, storage, cache = built
    node = CubeNode(levels)
    indices = build_indices(schema, table.as_batch())
    for index_arg in (None, indices):
        check(
            cache,
            lambda s: answer_cure_sliced(
                storage, cache, node, slices, index_arg, s
            ),
            lambda s: row_engine.answer_cure_sliced(
                storage, cache, node, slices, index_arg, s
            ),
        )


@pytest.mark.parametrize("min_count", [2, 3, 6])
def test_iceberg_equivalent(built, min_count):
    schema, _table, storage, cache = built
    for node in [CubeNode((0, 0, 0)), CubeNode((1, 1, 0)), CubeNode((0, 2, 1))]:
        check(
            cache,
            lambda s: iceberg_over_cure(storage, cache, node, min_count, s),
            lambda s: row_engine.iceberg_over_cure(
                storage, cache, node, min_count, s
            ),
        )


def test_rollup_equivalent(paper_schema):
    rng = random.Random(31)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5),
         rng.randrange(20))
        for _ in range(300)
    ]
    table = Table(paper_schema.fact_schema, rows)
    result, _plus = VARIANTS["FCURE"].build(schema=paper_schema, table=table)
    cache = FactCache(paper_schema, table=table)
    for levels in [(1, 0, 0), (2, 1, 0), (2, 2, 1), (1, 2, 1)]:
        node = CubeNode(levels)
        # The engine's rollup merges groups in key order, the oracle in
        # first-seen order; contents must agree exactly.
        check(
            cache,
            lambda s: answer_rollup_from_flat(result.storage, cache, node, s),
            lambda s: row_engine.answer_rollup_from_flat(
                result.storage, cache, node, s
            ),
        )


def test_dr_mode_queries_equivalent(built):
    schema, table, _storage, cache = built
    dr = build_cube(schema, table=table, dr_mode=True)
    node = CubeNode((0, 0, 0))
    slices = [DimensionSlice.of(0, 1, {0})]
    check(
        cache,
        lambda s: answer_cure_sliced(dr.storage, cache, node, slices, None, s),
        lambda s: row_engine.answer_cure_sliced(
            dr.storage, cache, node, slices, None, s
        ),
    )
    check(
        cache,
        lambda s: iceberg_over_cure(dr.storage, cache, node, 3, s),
        lambda s: row_engine.iceberg_over_cure(dr.storage, cache, node, 3, s),
    )


def test_plus_processed_queries_equivalent(built):
    schema, _table, storage, cache = built
    postprocess_plus(storage)
    for node in [CubeNode((0, 0, 0)), CubeNode((0, 1, 1)), CubeNode((2, 2, 1))]:
        check(
            cache,
            lambda s: answer_cure_query(storage, cache, node, s),
            lambda s: row_engine.answer_cure_query(storage, cache, node, s),
            ordered=True,
        )


# -- every lattice node, every variant, every backend ------------------------

#: id → (variant, forced CAT format or None for the paper's rule,
#: CURE+ pass: None, "lists", or "bitmaps").  The pass only sorts, so
#: "lists" and "bitmaps" build the same cube; "bitmaps" also checks that
#: long TT and CAT lists are charged as bitmaps, reloaded or not.
CONFIGS = {
    "CURE-a": ("CURE", CatFormat.COMMON_SOURCE, None),
    "CURE-b": ("CURE", CatFormat.COINCIDENTAL, None),
    "CURE+lists-a": ("CURE", CatFormat.COMMON_SOURCE, "lists"),
    "CURE+lists-b": ("CURE", CatFormat.COINCIDENTAL, "lists"),
    "CURE+bitmaps-a": ("CURE", CatFormat.COMMON_SOURCE, "bitmaps"),
    "CURE_DR": ("CURE_DR", None, None),
    "FCURE": ("FCURE", None, None),
}


def _build_config(variant, cat_format, plus):
    schema = serving_schema()
    fact = serving_fact(schema)
    if cat_format is None:
        result, _ = VARIANTS[variant].build(schema, table=fact)
    else:
        with mock.patch(
            "repro.core.storage.choose_cat_format",
            lambda _stats, _y: cat_format,
        ):
            result, _ = VARIANTS[variant].build(schema, table=fact)
        assert result.storage.cat_format is cat_format
    if plus is not None:
        postprocess_plus(result.storage)
    return schema, fact, result.storage


@pytest.fixture(scope="module", params=list(CONFIGS))
def backends(request, tmp_path_factory):
    """One built cube as ``{backend: planner}``: the in-memory storage
    over the fact ``Table``; the same storage behind a half-warm cache
    over the saved bundle's fact heap (so hits *and* misses are real);
    and the mapped ``cube.v2``."""
    variant, cat_format, plus = CONFIGS[request.param]
    schema, fact, storage = _build_config(variant, cat_format, plus)
    if plus == "bitmaps":
        report = storage.size_report()
        assert report.tt_bytes < 4 * report.n_tt
        assert report.cat_bytes < 4 * report.n_cat
    indices = None if storage.dr_mode else build_indices(schema, fact.as_batch())
    path = save_bundle(
        tmp_path_factory.mktemp("row-engine") / "bundle", schema, fact, storage
    )
    bundle = open_bundle(path)
    if plus == "bitmaps":  # one cube, one logical size, mapped or not
        assert bundle.storage.size_report() == storage.size_report()
    heap = bundle.catalog.open("fact")
    yield {
        "memory": CubePlanner(
            storage, FactCache(schema, table=fact), indices, results=None
        ),
        "heap": CubePlanner(
            storage, FactCache(schema, heap=heap, fraction=0.5), indices
        ),
        "mapped": bundle.planner(),
    }
    bundle.close()


def _slices_for(schema, node):
    """Up to two predicates valid at ``node``: the first grouping
    dimension at its coarsest real level, the last at the node's own."""
    grouping = node.grouping_dims(schema.dimensions)
    if not grouping:
        return []
    first, last = grouping[0], grouping[-1]
    slices = [
        DimensionSlice.of(first, schema.dimensions[first].n_levels - 1, {0, 1})
    ]
    if last != first:
        slices.append(DimensionSlice.of(last, node.levels[last], {0, 2, 3}))
    return slices


@pytest.mark.parametrize("backend", ["memory", "heap", "mapped"])
def test_every_node_matches_the_row_engine(backends, backend):
    planner = backends[backend]
    storage, cache = planner.storage, planner.cache
    schema = storage.schema
    fetched = 0
    for node in schema.lattice.nodes():
        materialized = planner.plan(QueryRequest.of(node)).strategy == "direct"
        if materialized:
            check(
                cache,
                lambda s: answer_cure_query(storage, cache, node, s),
                lambda s: row_engine.answer_cure_query(storage, cache, node, s),
                ordered=True,
            )
            for min_count in (2, 3):
                check(
                    cache,
                    lambda s: iceberg_over_cure(
                        storage, cache, node, min_count, s
                    ),
                    lambda s: row_engine.iceberg_over_cure(
                        storage, cache, node, min_count, s
                    ),
                )
        check(
            cache,
            lambda s: answer_rollup_from_flat(storage, cache, node, s),
            lambda s: row_engine.answer_rollup_from_flat(
                storage, cache, node, s
            ),
        )
        slices = _slices_for(schema, node)
        if materialized and slices:
            for index_arg in (None, planner.indices):
                check(
                    cache,
                    lambda s: answer_cure_sliced(
                        storage, cache, node, slices, index_arg, s
                    ),
                    lambda s: row_engine.answer_cure_sliced(
                        storage, cache, node, slices, index_arg, s
                    ),
                )
        request = QueryRequest(node, tuple(slices))
        check(
            cache,
            lambda s: planner.execute(request, s),
            lambda s: row_engine.answer_request(planner, request, s),
        )
        fetched += cache.stats.hits + cache.stats.misses
    if not storage.dr_mode:
        assert fetched > 0
    if backend == "heap":
        assert cache.heap is not None and 0 < len(cache._cached) < cache.row_count


# -- the result cache ---------------------------------------------------------


def _answer(pairs, arity=1, n_aggregates=1):
    return ColumnAnswer.from_pairs(pairs, arity, n_aggregates)


def test_result_cache_roundtrip():
    cache = ResultCache()
    answer = [((1, 2), (30, 4)), ((5, 6), (70, 8))]
    assert cache.get(9) is None
    assert cache.stats.misses == 1
    cache.put(9, (), _answer(answer, 2, 2))
    assert cache.get(9) == answer
    assert cache.stats.hits == 1
    assert len(cache) == 1


def test_result_cache_caches_empty_answers():
    cache = ResultCache()
    cache.put(3, (), _answer([], 2, 2))
    hit = cache.get(3)
    assert hit == []  # a cached empty answer is a hit, not None
    assert (hit.arity, hit.n_aggregates) == (2, 2)  # and keeps its shape
    assert cache.stats.hits == 1


def test_result_cache_slices_key_separation():
    cache = ResultCache()
    sliced = (DimensionSlice.of(0, 1, frozenset({0})),)
    cache.put(1, (), _answer([((0,), (1,))]))
    cache.put(1, sliced, _answer([((2,), (3,))]))
    assert cache.get(1, ()) == [((0,), (1,))]
    assert cache.get(1, sliced) == [((2,), (3,))]
    assert len(cache) == 2


def test_result_cache_fifo_eviction():
    cache = ResultCache(max_entries=2)
    for node_id in (1, 2, 3):
        cache.put(node_id, (), _answer([((node_id,), (node_id,))]))
    assert len(cache) == 2
    assert cache.get(1) is None  # the oldest entry was evicted
    assert cache.get(2) is not None
    assert cache.get(3) is not None


def test_result_cache_clear():
    cache = ResultCache()
    cache.put(1, (), _answer([((0,), (1,))]))
    cache.clear()
    assert len(cache) == 0
    assert cache.get(1) is None


def test_planner_memoizes_answers(built):
    schema, _table, storage, cache = built
    planner = CubePlanner(storage, cache)
    assert planner.results is not None
    request = QueryRequest.of(CubeNode((0, 1, 0)))
    first = planner.answer(request)
    assert len(planner.results) == 1
    assert planner.answer(request) == first
    assert planner.results.stats.hits == 1


def test_planner_bypasses_result_cache_when_profiling(built):
    schema, _table, storage, cache = built
    planner = CubePlanner(storage, cache)
    request = QueryRequest.of(CubeNode((0, 1, 0)))
    stats = QueryStats()
    planner.answer(request, stats)
    # Profiling runs must measure real work: nothing cached, nothing read.
    assert len(planner.results) == 0
    assert planner.results.stats.hits == planner.results.stats.misses == 0
    assert stats.tuples_returned > 0


# -- batched fact fetches -----------------------------------------------------


def test_fetch_batch_matches_fetch_many_table(built):
    schema, table, _storage, cache = built
    rowids = [5, 1, 1, 7, 0]
    cache.stats.reset()
    rows = cache.fetch_many(rowids)
    many_stats = (cache.stats.hits, cache.stats.misses)
    cache.stats.reset()
    batch = cache.fetch_batch(rowids)
    assert batch.to_rows() == rows
    assert (cache.stats.hits, cache.stats.misses) == many_stats


def test_fetch_batch_matches_fetch_many_heap(tmp_path, paper_schema):
    from repro import Engine
    from repro.relational.catalog import Catalog
    from repro.relational.memory import MemoryManager

    rng = random.Random(5)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5),
         rng.randrange(20))
        for _ in range(50)
    ]
    engine = Engine(Catalog(tmp_path / "c"), MemoryManager())
    heap = engine.store_table("fact", Table(paper_schema.fact_schema, rows))
    cold = FactCache(paper_schema, heap=heap, fraction=0.5)
    for sorted_hint, rowids in ((False, [9, 3, 3, 40]), (True, [2, 8, 30])):
        cold.stats.reset()
        expected = cold.fetch_many(list(rowids), sorted_hint=sorted_hint)
        many_stats = (cold.stats.hits, cold.stats.misses)
        cold.stats.reset()
        batch = cold.fetch_batch(
            np.asarray(rowids, dtype=np.int64), sorted_hint=sorted_hint
        )
        assert batch.to_rows() == expected
        assert (cold.stats.hits, cold.stats.misses) == many_stats
    engine.close()
