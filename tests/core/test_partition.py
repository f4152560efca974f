"""Unit and integration tests for external partitioning (Section 4)."""

import pytest

from repro import (
    CubeSchema,
    Engine,
    build_cube,
    linear_dimension,
    make_aggregates,
)
from repro.core.partition import (
    _first_fit,
    partition_relation,
)
from repro.core.partition_select import (
    PartitionDecision,
    estimate_coarse_rows,
    select_partition_level,
)
from repro.core.workingset import WorkingSet
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager
from tests.support.rows import rows_of, table_of


def dense_schema() -> CubeSchema:
    """A 2-dim schema whose data is dense enough for partitioning to pay."""
    a = linear_dimension("A", [("A0", 40), ("A1", 8), ("A2", 2)])
    b = linear_dimension("B", [("B0", 6)])
    return CubeSchema((a, b), make_aggregates(("sum", 0), ("count", 0)), 1)


def dense_table(schema, n=3000, seed=5):
    import random

    rng = random.Random(seed)
    rows = [
        (rng.randrange(40), rng.randrange(6), rng.randrange(10))
        for _ in range(n)
    ]
    return table_of(schema.fact_schema, rows)


def engine_with(tmp_path, schema, table, budget):
    engine = Engine(Catalog(tmp_path / "cat"), MemoryManager(budget))
    engine.store_table("fact", table)
    return engine


# -- estimator -------------------------------------------------------------------------


def test_estimate_coarse_rows_sparse_saturates_at_total():
    schema = dense_schema()
    assert estimate_coarse_rows(schema, 0, 0, total_rows=3) == 3


def test_estimate_coarse_rows_dense_approaches_combinations():
    schema = dense_schema()
    # L = 2 (top): N projects A out entirely → K = |B0| = 6.
    estimate = estimate_coarse_rows(schema, 0, 2, total_rows=100_000)
    assert estimate == 6
    # L = 1: K = |A2| * |B0| = 12.
    estimate = estimate_coarse_rows(schema, 0, 1, total_rows=100_000)
    assert estimate == 12


def test_estimate_monotone_in_level():
    schema = dense_schema()
    estimates = [
        estimate_coarse_rows(schema, 0, level, 100_000) for level in (0, 1, 2)
    ]
    assert estimates == sorted(estimates, reverse=True)


# -- level selection -----------------------------------------------------------------------


def test_selection_picks_maximum_feasible_level(tmp_path):
    schema = dense_schema()
    table = dense_table(schema)
    # Budget generously above every constraint → top level chosen.
    engine = engine_with(tmp_path, schema, table, budget=10**9)
    decision = select_partition_level(engine, "fact", schema)
    assert decision.levels == (schema.dimensions[0].n_levels - 1,) == (2,)
    engine.close()


def test_selection_descends_when_members_too_heavy(tmp_path):
    schema = dense_schema()
    table = dense_table(schema)
    # |A2| = 2 → ~1500 rows per member at the top.  A budget that holds
    # only ~400 partition rows forces a lower level but must still hold
    # the coarse node.
    row_bytes = schema.partition_schema.row_size_bytes
    engine = engine_with(tmp_path, schema, table, budget=400 * row_bytes)
    decision = select_partition_level(engine, "fact", schema)
    assert len(decision.levels) == 1 and decision.levels[0] < 2
    assert decision.max_member_rows * row_bytes <= decision.available_bytes
    engine.close()


def test_selection_fails_below_any_level(tmp_path):
    schema = dense_schema()
    table = dense_table(schema)
    engine = engine_with(tmp_path, schema, table, budget=64)
    with pytest.raises(MemoryBudgetExceeded, match="no level"):
        select_partition_level(engine, "fact", schema)
    engine.close()


def test_selection_requires_budget(tmp_path):
    schema = dense_schema()
    table = dense_table(schema, n=50)
    engine = engine_with(tmp_path, schema, table, budget=None)
    with pytest.raises(ValueError, match="bounded memory budget"):
        select_partition_level(engine, "fact", schema)
    engine.close()


def test_uniform_strategy_skips_scan(tmp_path):
    schema = dense_schema()
    table = dense_table(schema)
    engine = engine_with(tmp_path, schema, table, budget=10**9)
    heap = engine.relation("fact")
    heap.stats.reset()
    decision = select_partition_level(engine, "fact", schema, strategy="uniform")
    assert heap.stats.sequential_passes == 0
    assert decision.strategy == "uniform"
    engine.close()


def test_unknown_strategy_rejected(tmp_path):
    schema = dense_schema()
    engine = engine_with(tmp_path, schema, dense_table(schema, n=10), 10**9)
    with pytest.raises(ValueError, match="unknown selection strategy"):
        select_partition_level(engine, "fact", schema, strategy="magic")
    engine.close()


# -- binning -------------------------------------------------------------------------------


def test_bin_members_soundness_and_capacity():
    decision = PartitionDecision(
        levels=(0,), max_member_rows=50,
        estimated_coarse_rows=(0,), available_bytes=100 * 8, strategy="exact",
        rows_by_member={0: 50, 1: 40, 2: 30, 3: 20, 4: 10},
    )
    assignment = _first_fit(
        decision.rows_by_member, decision.max_member_rows,
        decision.available_bytes, row_bytes=8,
    )
    assert set(assignment) == {0, 1, 2, 3, 4}
    loads: dict[int, int] = {}
    for code, rows in decision.rows_by_member.items():
        loads[assignment[code]] = loads.get(assignment[code], 0) + rows
    assert all(load <= 100 for load in loads.values())
    assert max(assignment.values()) + 1 <= 3  # FFD packs 150 rows into 2-3 bins


# -- partition + coarse node ------------------------------------------------------------------


def test_partition_relation_soundness(tmp_path):
    schema = dense_schema()
    table = dense_table(schema)
    engine = engine_with(tmp_path, schema, table, budget=10**9)
    decision = select_partition_level(engine, "fact", schema)
    written = partition_relation(engine, "fact", schema, decision)
    names, (coarse_name,) = written.partition_names, written.coarse_names
    assert written.levels == decision.levels and written.parent_level is None
    level_map = schema.dimensions[0].base_maps[decision.levels[0]]
    seen_in: dict[int, str] = {}
    total = 0
    for name in names:
        for row in rows_of(engine.relation(name)):
            total += 1
            member = level_map[row[0]]
            assert seen_in.setdefault(member, name) == name  # sound
    assert total == len(table)
    # The coarse node aggregates the whole table.
    with engine.load(coarse_name) as records:
        coarse = WorkingSet.from_coarse(schema, records)
    assert coarse.total_weight == len(table)
    engine.close()


def test_partitioned_build_matches_in_memory(tmp_path):
    schema = dense_schema()
    table = dense_table(schema)
    fact_bytes = len(table) * schema.fact_schema.row_size_bytes
    budget = fact_bytes // 2
    engine = engine_with(tmp_path, schema, table, budget=budget)
    result = build_cube(
        schema, engine=engine, relation="fact", pool_capacity=500
    )
    assert result.stats.partitioned
    assert result.stats.fact_read_passes == 2  # partition pass + loads
    assert result.stats.fact_write_passes == 1
    assert engine.memory.peak_bytes <= budget

    cache = FactCache(schema, heap=engine.relation("fact"), fraction=1.0)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected, node.label(schema.dimensions)
    engine.close()


def test_partitioned_build_records_partition_level(tmp_path):
    schema = dense_schema()
    table = dense_table(schema)
    budget = len(table) * schema.fact_schema.row_size_bytes // 2
    engine = engine_with(tmp_path, schema, table, budget=budget)
    result = build_cube(schema, engine=engine, relation="fact", pool_capacity=500)
    assert (result.storage.partition_level,) == result.decision.levels
    assert result.storage.partition_level2 is None
    engine.close()


def test_in_memory_path_when_fits(tmp_path):
    schema = dense_schema()
    table = dense_table(schema, n=100)
    engine = engine_with(tmp_path, schema, table, budget=10**9)
    result = build_cube(schema, engine=engine, relation="fact")
    assert not result.stats.partitioned
    assert result.decision is None
    engine.close()


def test_partitioned_rejects_holistic(tmp_path):
    from repro.relational.aggregates import AggregateSpec, MedianAgg

    base = dense_schema()
    schema = CubeSchema(base.dimensions, (AggregateSpec(MedianAgg(), 0),), 1)
    table = dense_table(base)
    table = table_of(schema.fact_schema, rows_of(table))
    budget = len(table) * schema.fact_schema.row_size_bytes // 2
    engine = engine_with(tmp_path, schema, table, budget=budget)
    with pytest.raises(ValueError, match="distributive"):
        build_cube(schema, engine=engine, relation="fact", pool_capacity=100)
    engine.close()


def test_partitioned_rejects_flat_shape(tmp_path):
    schema = dense_schema()
    table = dense_table(schema)
    budget = len(table) * schema.fact_schema.row_size_bytes // 2
    engine = engine_with(tmp_path, schema, table, budget=budget)
    with pytest.raises(ValueError, match="hierarchical"):
        build_cube(
            schema, engine=engine, relation="fact",
            pool_capacity=100, flat=True,
        )
    engine.close()
