"""Variant configurations driven through the engine (disk) path."""

import random

import pytest

from repro import CatFormat, Engine, build_cube
from repro.core.postprocess import postprocess_plus
from repro.core.variants import VARIANTS
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.heap import HeapFile
from repro.relational.memory import MemoryManager
from tests.support.rows import rows_of, table_of


@pytest.fixture
def disk_setup(tmp_path, paper_schema):
    rng = random.Random(33)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5),
         rng.randrange(25))
        for _ in range(500)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    budget = int(len(table) * paper_schema.fact_schema.row_size_bytes * 0.8)
    engine = Engine(Catalog(tmp_path / "e"), MemoryManager(budget))
    engine.store_table("fact", table)
    yield paper_schema, table, engine
    engine.close()


@pytest.mark.parametrize("variant", ["CURE", "CURE+"])
def test_variant_builds_partitioned_through_engine(disk_setup, variant):
    schema, table, engine = disk_setup
    config = VARIANTS[variant].with_pool(100)
    result, plus = config.build(schema, engine=engine, relation="fact")
    assert result.stats.partitioned
    assert (plus is not None) == config.plus
    cache = FactCache(schema, heap=engine.relation("fact"), fraction=1.0)
    for node in list(schema.lattice.nodes())[::3]:
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected


def test_dr_variant_partitioned_reads_the_fact_relation_twice(
    disk_setup, monkeypatch
):
    """Section 4's "2 reads + 1 write" holds for CURE_DR: its NTs' dimension
    values come from the signatures, never from a random fact read."""
    schema, table, engine = disk_setup

    def no_random_reads(heap, rowids, sorted_hint=False):
        raise AssertionError(f"read_batch({rowids}) during construction")

    with monkeypatch.context() as patch:
        patch.setattr(HeapFile, "read_batch", no_random_reads)
        result, _plus = VARIANTS["CURE_DR"].with_pool(100).build(
            schema, engine=engine, relation="fact"
        )
    assert result.stats.partitioned
    assert result.storage.dr_mode
    assert result.stats.fact_read_passes == 2
    assert result.stats.fact_write_passes == 1
    cache = FactCache(schema, heap=engine.relation("fact"), fraction=0.0)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected, node.label(schema.dimensions)


def test_query_through_cat_bitmap(flat_schema):
    """Format (a) CAT lists charged as bitmaps still answer right."""
    # Engineer many common-source CATs: duplicate groups across nodes.
    rows = [(a, a % 3, a % 3, 7) for a in range(3)] * 5
    table = table_of(flat_schema.fact_schema, rows)
    result = build_cube(flat_schema, table=table)
    storage = result.storage
    before = {
        node: normalize_answer(
            answer_cure_query(
                storage, FactCache(flat_schema, table=table), node
            )
        )
        for node in flat_schema.lattice.nodes()
    }
    cat_bytes = storage.size_report().cat_bytes
    postprocess_plus(storage)
    assert storage.cat_format is CatFormat.COMMON_SOURCE
    # With so few AGGREGATES rows the bitmap universe is tiny, so a
    # duplicate-free CAT list is charged as a bitmap.
    assert storage.size_report().cat_bytes < cat_bytes
    cache = FactCache(flat_schema, table=table)
    for node, expected in before.items():
        got = normalize_answer(answer_cure_query(storage, cache, node))
        assert got == expected
