"""The construction-phase TT cut of a partitioned cube, reached.

A cube built with §4 partitioning produces each node's tuples in one
construction phase, and a node shares TTs only with plan ancestors of
its own phase (:func:`repro.query.answer.tt_source_nodes`).  The cut
matters only when a coarse member holds a single fact row: the coarse
phase stores that row as a TT at the member's node, and the partition
phase stores it again below, so reading across the phase boundary
would count it twice.  The retail and serving cubes never have such a
member; this one does.

Schema A(48/12/3) × B(8/4) × C(5); 600 rows over the first two A2
members and one row in the third, built with CURE and CURE+, a
1,000-signature pool and 7,000 B beyond it — which partitions on A1
(L = 1).  Some cut-off plan ancestor holds a TT, and every node, slice
and iceberg answer equals the definition (:func:`reference_group_by`).
"""

from __future__ import annotations

import random

import pytest

from repro import CubeSchema, Engine, VARIANTS, linear_dimension, make_aggregates
from repro.core.signature import SignaturePool
from repro.query import (
    DimensionSlice,
    FactCache,
    answer_cure_query,
    answer_cure_sliced,
    iceberg_over_cure,
    reference_group_by,
)
from repro.query.answer import normalize_answer, plan_ancestors, tt_source_nodes
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from tests.query.test_slice import sliced_reference
from tests.support.rows import rows_of, table_of

POOL = 1_000
BUDGET_BEYOND_POOL = 7_000
COUNT = 1  # aggregates: (sum, count)


def phase_schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 48), ("A1", 12), ("A2", 3)])
    b = linear_dimension("B", [("B0", 8), ("B1", 4)])
    c = linear_dimension("C", [("C0", 5)])
    return CubeSchema(
        (a, b, c), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


@pytest.fixture(scope="module", params=["CURE", "CURE+"])
def phase_cube(request, tmp_path_factory):
    schema = phase_schema()
    rng = random.Random(601)
    rows = [
        (rng.randrange(32), rng.randrange(8), rng.randrange(5), rng.randrange(100))
        for _ in range(600)
    ]
    rows.append((40, 3, 2, 7))  # the only row of A2 member 2
    table = table_of(schema.fact_schema, rows)
    budget = SignaturePool.size_bytes(POOL, schema.n_aggregates) + BUDGET_BEYOND_POOL
    engine = Engine(
        Catalog(tmp_path_factory.mktemp("phase")), MemoryManager(budget)
    )
    try:
        engine.store_table("fact", table)
        result, _ = VARIANTS[request.param].with_pool(POOL).build(
            schema, engine=engine, relation="fact"
        )
    finally:
        engine.destroy()
    storage = result.storage
    assert (storage.partition_level, storage.partition_level2) == (1, None)
    return schema, rows_of(table), storage, FactCache(schema, table=table)


def test_some_cut_off_ancestor_holds_a_tt(phase_cube):
    schema, _rows, storage, _cache = phase_cube
    cut_off_tts = 0
    for node in schema.lattice.nodes():
        kept = tt_source_nodes(storage, node)
        for ancestor in plan_ancestors(schema.lattice, node, flat=storage.flat):
            store = storage.get_node_store(schema.node_id(ancestor))
            if ancestor not in kept and store is not None and store.tt_count:
                cut_off_tts += 1
    assert cut_off_tts


def test_every_answer_is_the_definition(phase_cube):
    schema, rows, storage, cache = phase_cube
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows, node)
        assert normalize_answer(answer_cure_query(storage, cache, node)) == (
            expected
        ), node
        for min_count in (2, 3):
            iceberg = [pair for pair in expected if pair[1][COUNT] >= min_count]
            assert normalize_answer(
                iceberg_over_cure(storage, cache, node, min_count)
            ) == iceberg, (node, min_count)
        for dim in node.grouping_dims(schema.dimensions):
            dimension = schema.dimensions[dim]
            for level in range(node.levels[dim], dimension.n_levels):
                members = {dimension.cardinality(level) - 1, 0}
                slices = [DimensionSlice.of(dim, level, members)]
                assert normalize_answer(
                    answer_cure_sliced(storage, cache, node, slices)
                ) == sliced_reference(schema, rows, node, slices), (node, slices)
