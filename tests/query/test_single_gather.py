"""One fact gather per answer, held to the row engine.

:func:`repro.query.answer.read_node_relations` filters each stored
relation, then dereferences the surviving row-ids of all of them — NT,
CAT, then the TTs down the plan path — in one
:meth:`FactCache.fetch_batch`.  These tests pick CURE+ nodes that store
all three relation kinds at once and hold node, slice and iceberg
answers to ``tests/support/row_engine.py`` — rows (node answers in row
order), ``QueryStats`` and the fact cache's hits/misses — over a
heap-backed cache that starts cold and half warm (whose slices
post-filter), and over the fact table itself (whose slices pre-filter),
on an in-memory build and on a partitioned one.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro import Engine
from repro.core.signature import SignaturePool
from repro.core.variants import VARIANTS
from repro.query import (
    DimensionSlice,
    FactCache,
    answer_cure_query,
    answer_cure_sliced,
    iceberg_over_cure,
)
from repro.query.answer import tt_source_ids
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from tests.server.conftest import serving_schema
from tests.support import row_engine
from tests.support.rows import table_of

check = row_engine.assert_engine_matches


@pytest.fixture(scope="module", params=["memory", "partitioned"])
def cube(request, tmp_path_factory):
    schema = serving_schema()
    rng = random.Random(37)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5),
         rng.randrange(6))
        for _ in range(500)
    ]
    table = table_of(schema.fact_schema, rows)
    root = tmp_path_factory.mktemp("single-gather")
    config = VARIANTS["CURE+"].with_pool(1_000)
    if request.param == "memory":
        result, _plus = config.build(schema, table=table)
    else:
        budget = (
            SignaturePool.size_bytes(1_000, schema.n_aggregates)
            + 120 * schema.partition_schema.row_size_bytes
        )
        engine = Engine(Catalog(root / "build"), MemoryManager(budget))
        engine.store_table("fact", table)
        result, _plus = config.build(schema, engine=engine, relation="fact")
        engine.destroy()
        assert result.storage.partition_level is not None
    heap_engine = Engine(Catalog(root / "heap"), MemoryManager())
    heap = heap_engine.store_table("fact", table)
    yield schema, table, result.storage, heap
    heap_engine.close()


def _full_nodes(storage):
    """Nodes storing an NT, a CAT and at least one shared TT relation."""
    schema = storage.schema
    nodes = []
    for node in schema.lattice.nodes():
        node_id = schema.node_id(node)
        store = storage.get_node_store(node_id)
        if store is None or not (store.nt_count and store.cat_count):
            continue
        sources = [
            storage.get_node_store(source)
            for source in tt_source_ids(storage, node, node_id)
        ]
        if any(s is not None and s.tt_count for s in sources):
            nodes.append(node)
    return nodes


@pytest.mark.parametrize("fraction", [0.0, 0.5])
def test_one_gather_matches_the_row_engine(cube, fraction):
    schema, table, storage, heap = cube
    cache = FactCache(schema, heap=heap, fraction=fraction)
    resident = FactCache(schema, table=table)
    nodes = _full_nodes(storage)
    assert len(nodes) >= 3
    hits = misses = 0
    gathers = mock.patch.object(
        cache, "fetch_batch", wraps=cache.fetch_batch
    )
    for node in nodes:
        first = node.grouping_dims(schema.dimensions)[0]
        slices = [DimensionSlice.of(first, node.levels[first], {0, 1, 3})]
        with gathers as fetch_batch:

            def production(stats):
                fetch_batch.reset_mock()  # the oracle fetches through it too
                return answer_cure_query(storage, cache, node, stats)

            check(
                cache,
                production,
                lambda s: row_engine.answer_cure_query(storage, cache, node, s),
                ordered=True,
            )
        assert fetch_batch.call_count == 1
        hits += cache.stats.hits
        misses += cache.stats.misses
        for slice_cache in (cache, resident):
            check(
                slice_cache,
                lambda s: answer_cure_sliced(
                    storage, slice_cache, node, slices, s
                ),
                lambda s: row_engine.answer_cure_sliced(
                    storage, slice_cache, node, slices, s
                ),
            )
        check(
            cache,
            lambda s: iceberg_over_cure(storage, cache, node, 2, s),
            lambda s: row_engine.iceberg_over_cure(
                storage, cache, node, 2, s
            ),
        )
    assert misses > 0
    assert (hits > 0) == (fraction > 0)
