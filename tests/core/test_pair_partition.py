"""Tests for pair-of-dimensions partitioning (Section 4's omitted case)."""

import random

import pytest

from repro import (
    CubeSchema,
    Engine,
    build_cube,
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.core.partition_select import (
    search_partition_levels,
    select_partition_level,
)
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager
from tests.support.rows import rows_of, table_of


def pair_schema() -> CubeSchema:
    """Dimension 0 has only 4 coarse members — the single-dimension
    partitioner cannot produce more than 4 sound partitions."""
    a = flat_dimension("A", 4)
    b = linear_dimension("B", [("B0", 30), ("B1", 6)])
    c = flat_dimension("C", 5)
    return CubeSchema((a, b, c), make_aggregates(("sum", 0), ("count", 0)), 1)


def pair_table(schema, n=2400, seed=13):
    rng = random.Random(seed)
    rows = [
        (rng.randrange(4), rng.randrange(30), rng.randrange(5),
         rng.randrange(20))
        for _ in range(n)
    ]
    return table_of(schema.fact_schema, rows)


def engine_with(tmp_path, schema, table, budget):
    engine = Engine(Catalog(tmp_path / "cat"), MemoryManager(budget))
    engine.store_table("fact", table)
    return engine


@pytest.fixture
def setup(tmp_path):
    schema = pair_schema()
    table = pair_table(schema)
    # Budget: each of the 4 members of A weighs ~600 partition rows
    # (~21.6 KB); pick a budget below that so single-dimension selection
    # fails, but above the pair members' weight (~100 rows each).
    budget = 16_000
    engine = engine_with(tmp_path, schema, table, budget)
    yield schema, table, engine, budget
    engine.close()


def test_single_dimension_selection_fails(setup):
    schema, _table, engine, _budget = setup
    assert search_partition_levels(engine, "fact", schema, 1) is None


def test_pair_selection_succeeds(setup):
    schema, table, engine, budget = setup
    decision = select_partition_level(engine, "fact", schema)
    assert len(decision.levels) == 2
    assert decision == search_partition_levels(engine, "fact", schema, 2)
    row_bytes = schema.partition_schema.row_size_bytes
    assert decision.max_member_rows * row_bytes <= decision.available_bytes


def test_pair_partitioned_build_matches_reference(setup):
    schema, table, engine, budget = setup
    result = build_cube(
        schema, engine=engine, relation="fact", pool_capacity=200
    )
    decision = result.decision
    assert len(decision.levels) == 2
    assert result.storage.partition_level == decision.levels[0]
    assert result.storage.partition_level2 == decision.levels[1]
    assert result.stats.partitioned
    assert engine.memory.peak_bytes <= budget
    # Still 2 reads + 1 write of R (both coarse nodes built in the same
    # partitioning pass).
    assert result.stats.fact_read_passes == 2
    assert result.stats.fact_write_passes == 1

    cache = FactCache(schema, heap=engine.relation("fact"), fraction=1.0)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected, node.label(schema.dimensions)


def test_pair_partitioned_equals_in_memory(setup):
    schema, table, engine, _budget = setup
    partitioned = build_cube(
        schema, engine=engine, relation="fact", pool_capacity=200
    )
    in_memory = build_cube(schema, table=table, pool_capacity=200)
    memory_cache = FactCache(schema, table=table)
    disk_cache = FactCache(schema, heap=engine.relation("fact"), fraction=1.0)
    for node in schema.lattice.nodes():
        a = normalize_answer(
            answer_cure_query(partitioned.storage, disk_cache, node)
        )
        b = normalize_answer(
            answer_cure_query(in_memory.storage, memory_cache, node)
        )
        assert a == b


def test_pair_needs_two_dimensions(tmp_path):
    schema = CubeSchema(
        (flat_dimension("A", 3),), make_aggregates(("sum", 0)), 1
    )
    rows = [(i % 3, 1) for i in range(3000)]
    table = table_of(schema.fact_schema, rows)
    engine = engine_with(tmp_path, schema, table, budget=1_000)
    with pytest.raises(MemoryBudgetExceeded):
        build_cube(schema, engine=engine, relation="fact", pool_capacity=50)
    engine.close()


def test_budget_too_small_even_for_pairs(tmp_path):
    schema = pair_schema()
    table = pair_table(schema)
    engine = engine_with(tmp_path, schema, table, budget=900)
    with pytest.raises(MemoryBudgetExceeded, match="pair|no level"):
        build_cube(schema, engine=engine, relation="fact", pool_capacity=10)
    engine.close()
