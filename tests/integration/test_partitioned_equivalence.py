"""Partitioned vs in-memory construction must answer identically.

This is the reproduction's version of the paper's headline claim: the
external-partitioning pipeline (Section 4) is a pure execution strategy —
the resulting cube answers every node query exactly like the in-memory
build, while peak (simulated) memory stays within the budget.
"""

import pytest

from repro import Engine, build_cube
from repro.datasets import generate_apb_dataset
from repro.query import FactCache, answer_cure_query
from repro.query.answer import normalize_answer
from repro.query.workload import all_node_queries
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager

MB = 1024 * 1024


@pytest.fixture(scope="module")
def apb_dense():
    # Dense relative to the scaled member cardinalities, so the coarse
    # node genuinely shrinks (see DESIGN.md §3).
    return generate_apb_dataset(
        density=4.0, scale=1 / 2000, member_scale=1 / 20, seed=31
    )


def test_partitioned_equals_in_memory_everywhere(tmp_path, apb_dense):
    schema, table = apb_dense
    in_memory = build_cube(schema, table=table, pool_capacity=None)

    fact_bytes = len(table) * schema.fact_schema.row_size_bytes
    budget = int(fact_bytes * 0.8)
    engine = Engine(Catalog(tmp_path / "eng"), MemoryManager(budget))
    engine.store_table("fact", table)
    partitioned = build_cube(
        schema, engine=engine, relation="fact", pool_capacity=None
    )
    assert partitioned.stats.partitioned
    assert engine.memory.peak_bytes <= budget

    memory_cache = FactCache(schema, table=table)
    disk_cache = FactCache(schema, heap=engine.relation("fact"), fraction=1.0)
    for node in all_node_queries(schema):
        a = normalize_answer(
            answer_cure_query(in_memory.storage, memory_cache, node)
        )
        b = normalize_answer(
            answer_cure_query(partitioned.storage, disk_cache, node)
        )
        assert a == b, node.label(schema.dimensions)
    engine.close()


def test_partitioned_io_cost_is_2_reads_1_write(tmp_path, apb_dense):
    """Section 4's cost claim, as counted passes over R."""
    schema, table = apb_dense
    fact_bytes = len(table) * schema.fact_schema.row_size_bytes
    engine = Engine(
        Catalog(tmp_path / "eng"), MemoryManager(int(fact_bytes * 0.8))
    )
    engine.store_table("fact", table)
    result = build_cube(
        schema, engine=engine, relation="fact", pool_capacity=2000
    )
    assert result.stats.fact_read_passes == 2
    assert result.stats.fact_write_passes == 1
    engine.close()


def test_partition_count_bounded_by_member_count(tmp_path, apb_dense):
    schema, table = apb_dense
    fact_bytes = len(table) * schema.fact_schema.row_size_bytes
    engine = Engine(
        Catalog(tmp_path / "eng"), MemoryManager(int(fact_bytes * 0.8))
    )
    engine.store_table("fact", table)
    result = build_cube(
        schema, engine=engine, relation="fact", pool_capacity=2000
    )
    (level,) = result.decision.levels
    n_members = schema.dimensions[0].cardinality(level)
    assert result.stats.partitions_created <= n_members
    engine.close()
