"""Adaptive re-partitioning: survive an under-provisioning estimate.

The ``uniform`` selection strategy trusts ``|R| / |A_L|`` the way the
paper's examples do.  On a skewed dataset that estimate under-provisions:
one member owns most of the rows, its partition exceeds the budget at
load time, and a non-adaptive build would abort mid-phase-1.  The build
must instead split the oversized partition at a finer level of the first
dimension (exact counts this time), process the sound sub-partitions,
patch the gap with a local coarse node — and still answer every node
query exactly like the in-memory build, with peak (simulated) memory
inside the budget.
"""

from __future__ import annotations

import random

import pytest

from repro import CubeSchema, Engine, Table, build_cube, linear_dimension, make_aggregates
from repro.query import FactCache, answer_cure_query
from repro.query.answer import normalize_answer
from repro.query.workload import all_node_queries
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryBudgetExceeded, MemoryManager
from tests.support.rows import rows_of, table_of

pytestmark = pytest.mark.crash

POOL_CAPACITY = 200


def skewed_instance() -> tuple[CubeSchema, Table]:
    """~75% of the rows land in one member of A's middle level.

    A0 has 16 members rolling up 4:1 into A1's 4 members; A1 member 0
    (base codes 0–3) receives 900 of the 1200 rows, so the uniform
    estimate of 300 rows/member at A1 is off by 3x for that member while
    each of its base-level members holds only ~225 rows — splittable.
    """
    a = linear_dimension("A", [("A0", 16), ("A1", 4)])
    b = linear_dimension("B", [("B0", 4)])
    schema = CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    rng = random.Random(11)
    rows = [
        (rng.randrange(0, 4), rng.randrange(4), rng.randrange(50))
        for _ in range(900)
    ]
    for block in (4, 8, 12):
        rows.extend(
            (rng.randrange(block, block + 4), rng.randrange(4), rng.randrange(50))
            for _ in range(100)
        )
    return schema, table_of(schema.fact_schema, rows)


@pytest.fixture(scope="module")
def skewed():
    return skewed_instance()


def _budget(schema: CubeSchema) -> int:
    """Admits the uniform estimate (300 rows/partition) but not the
    skewed reality (900 rows in A1-member 0's partition)."""
    from repro.core.signature import SignaturePool

    partition_row_bytes = schema.partition_schema.row_size_bytes
    pool_bytes = SignaturePool.size_bytes(POOL_CAPACITY, schema.n_aggregates)
    return pool_bytes + 600 * partition_row_bytes


def test_skewed_uniform_build_completes_within_budget(tmp_path, skewed):
    schema, table = skewed
    budget = _budget(schema)
    engine = Engine(Catalog(tmp_path / "eng"), MemoryManager(budget))
    engine.store_table("fact", table)

    result = build_cube(
        schema,
        engine=engine,
        relation="fact",
        pool_capacity=POOL_CAPACITY,
        partition_strategy="uniform",
    )

    assert result.stats.partitioned
    assert result.stats.repartitioned_partitions >= 1, (
        "the skewed partition must have been adaptively split"
    )
    assert result.stats.subpartitions_created >= 2
    assert engine.memory.peak_bytes <= budget

    in_memory = build_cube(schema, table=table, pool_capacity=None)
    memory_cache = FactCache(schema, table=table)
    disk_cache = FactCache(schema, heap=engine.relation("fact"), fraction=1.0)
    for node in all_node_queries(schema):
        a = normalize_answer(
            answer_cure_query(in_memory.storage, memory_cache, node)
        )
        b = normalize_answer(
            answer_cure_query(result.storage, disk_cache, node)
        )
        assert a == b, node.label(schema.dimensions)
    engine.close()


def test_same_budget_without_adaptivity_would_abort(tmp_path, skewed):
    """The load that triggers re-partitioning genuinely exceeds the budget.

    Reconstructs phase 1's exact memory picture: the signature pool is
    reserved, and the skewed member's partition (fact rows + their
    row-ids, the partition schema) is loaded whole.
    """
    from repro.core.signature import SignaturePool

    schema, table = skewed
    budget = _budget(schema)
    engine = Engine(Catalog(tmp_path / "eng"), MemoryManager(budget))
    heavy_rows = [
        row + (rowid,)
        for rowid, row in enumerate(rows_of(table))
        if row[0] < 4
    ]
    heavy = engine.store_table(
        "heavy", table_of(schema.partition_schema, heavy_rows)
    )
    pool_bytes = SignaturePool.size_bytes(POOL_CAPACITY, schema.n_aggregates)
    engine.memory.reserve(pool_bytes, what="signature pool")
    assert heavy.size_bytes > engine.memory.free_bytes
    with pytest.raises(MemoryBudgetExceeded):
        engine.load("heavy")
    engine.close()


def test_exact_strategy_needs_no_repartitioning(tmp_path, skewed):
    """With exact per-member counts the skew is seen up front."""
    schema, table = skewed
    budget = _budget(schema)
    engine = Engine(Catalog(tmp_path / "eng"), MemoryManager(budget))
    engine.store_table("fact", table)
    result = build_cube(
        schema,
        engine=engine,
        relation="fact",
        pool_capacity=POOL_CAPACITY,
        partition_strategy="exact",
    )
    assert result.stats.partitioned
    assert result.stats.repartitioned_partitions == 0
    assert engine.memory.peak_bytes <= budget
    engine.close()
