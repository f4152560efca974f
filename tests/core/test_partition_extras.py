"""Additional partitioning coverage: uniform strategy, projections, pairs."""

import random

import pytest

from repro import (
    CubeSchema,
    Engine,
    build_cube,
    linear_dimension,
    make_aggregates,
)
from repro.core.cure import CureBuilder
from repro.core.partition import partition_relation
from repro.core.partition_select import (
    estimate_coarse_rows,
    select_partition_level,
)
from repro.core.signature import SignaturePool
from repro.core.storage import CubeStorage
from repro.core.workingset import WorkingSet
from repro.lattice.plan import HierarchicalShape
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from tests.support.rows import aggregates_rows, cat_rows, rows_of, table_of


def schema_and_table(n=1500, seed=3):
    a = linear_dimension("A", [("A0", 30), ("A1", 10), ("A2", 2)])
    b = linear_dimension("B", [("B0", 5)])
    schema = CubeSchema((a, b), make_aggregates(("sum", 0), ("count", 0)), 1)
    rng = random.Random(seed)
    rows = [
        (rng.randrange(30), rng.randrange(5), rng.randrange(9))
        for _ in range(n)
    ]
    return schema, table_of(schema.fact_schema, rows)


def engine_with(tmp_path, schema, table, budget):
    engine = Engine(Catalog(tmp_path / "cat"), MemoryManager(budget))
    engine.store_table("fact", table)
    return engine


def test_uniform_strategy_partition_roundtrip(tmp_path):
    """The metadata-only (uniform) strategy partitions one file per member
    and still yields a correct cube."""
    schema, table = schema_and_table()
    budget = int(table.size_bytes * 0.7)
    engine = engine_with(tmp_path, schema, table, budget)
    decision = select_partition_level(
        engine, "fact", schema, strategy="uniform"
    )
    assert decision.rows_by_member == {}
    (level,) = decision.levels
    written = partition_relation(engine, "fact", schema, decision)
    names, (coarse_name,) = written.partition_names, written.coarse_names
    # One file per member of the chosen level.
    assert len(names) == schema.dimensions[0].cardinality(level)

    storage = CubeStorage(schema)
    storage.fact_row_count = len(table)
    heap = engine.relation("fact")
    storage.partition_level = level
    pool = SignaturePool(
        None,
        on_flush=storage.write_flush,
        on_statistics=storage.decide_format,
        n_aggregates=schema.n_aggregates,
    )
    builder = CureBuilder(schema, HierarchicalShape(schema.lattice))
    for name in names:
        with engine.load(name) as records:
            tts, sigs = builder.run_partition(
                WorkingSet.from_records(schema, records), decision.levels
            )
        storage.write_tts(tts)
        pool.add_batch(sigs)
    base_levels = [0] * schema.n_dimensions
    base_levels[0] = level + 1
    coarse_builder = CureBuilder(
        schema, HierarchicalShape(schema.lattice, tuple(base_levels))
    )
    with engine.load(coarse_name) as records:
        tts, sigs = coarse_builder.run(WorkingSet.from_coarse(schema, records))
    storage.write_tts(tts)
    pool.add_batch(sigs)
    pool.flush()

    cache = FactCache(schema, heap=heap, fraction=1.0)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(storage, cache, node))
        assert got == expected, node.label(schema.dimensions)
    engine.close()


def test_projects_out_first_dim_at_top_level(tmp_path):
    schema, table = schema_and_table()
    engine = engine_with(tmp_path, schema, table, int(table.size_bytes * 0.9))
    decision = select_partition_level(engine, "fact", schema)
    if decision.levels[0] == schema.dimensions[0].n_levels - 1:
        # N = A_{ALL} B_0: the first dimension is gone, |B_0| = 5 groups.
        assert decision.estimated_coarse_rows == (5,)
        written = partition_relation(engine, "fact", schema, decision)
        assert len(engine.relation(written.coarse_names[0])) == 5
    engine.close()


def test_estimate_pair_coarse_rows_shapes():
    schema, _table = schema_and_table()
    # N1 at the top level of dim 0 projects it out: K = |B0| = 5.
    assert estimate_coarse_rows(schema, 0, 2, 100_000) == 5
    # N2 at the top level of dim 1 projects it out: K = |A0| = 30.
    assert estimate_coarse_rows(schema, 1, 0, 100_000) == 30
    # Sparse input saturates at the row count.
    assert estimate_coarse_rows(schema, 0, 0, 3) == 3


def test_as_nt_format_end_to_end():
    """Y = 1 with coincidental CATs: the decision rule stores CATs as NTs
    and the cube still answers correctly (Section 5.1's degenerate case)."""
    from repro import CatFormat, flat_dimension

    dims = (flat_dimension("A", 6), flat_dimension("B", 6))
    schema = CubeSchema(dims, make_aggregates(("sum", 0)), 1)
    rng = random.Random(8)
    rows = [
        (rng.randrange(6), rng.randrange(6), rng.randrange(3))
        for _ in range(200)
    ]
    table = table_of(schema.fact_schema, rows)
    result = build_cube(schema, table=table)
    if result.storage.cat_format is CatFormat.AS_NT:
        assert all(
            not cat_rows(s) for s in result.storage.nodes.values()
        )
        assert aggregates_rows(result.storage) == []
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected


def test_complex_first_dimension_rejected(tmp_path):
    """Partitioning descends a chain; a complex first dimension is refused
    with guidance rather than silently mis-partitioned."""
    from repro import complex_dimension, flat_dimension

    time = complex_dimension(
        "T",
        [("d", 8), ("w", 2), ("m", 2)],
        [list(range(8)), [i // 4 for i in range(8)], [i % 2 for i in range(8)]],
        [(1, 2), (3,), (3,)],
    )
    schema = CubeSchema(
        (time, flat_dimension("B", 3)),
        make_aggregates(("sum", 0)),
        1,
    )
    rows = [(i % 8, i % 3, 1) for i in range(500)]
    engine = engine_with(
        tmp_path, schema, table_of(schema.fact_schema, rows), budget=2_000
    )
    with pytest.raises(ValueError, match="linear"):
        select_partition_level(engine, "fact", schema)
    engine.close()
