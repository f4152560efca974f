"""End-to-end integration: build → persist → reload → query.

Exercises the full ROLAP story: the cube's relations are written as real
heap files through the catalog, reloaded in a fresh storage object, and
queried — results must match a naive group-by of the original data.
"""

import random

import pytest

from repro import Engine, Table, build_cube
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CubeStorage
from repro.datasets import generate_apb_dataset
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from tests.support.rows import aggregates_rows


@pytest.fixture
def apb_small():
    return generate_apb_dataset(density=0.02, scale=1 / 1000, seed=23)


def test_persist_reload_query_roundtrip(tmp_path, apb_small):
    schema, table = apb_small
    result = build_cube(schema, table=table)
    catalog = Catalog(tmp_path / "cube")
    result.storage.persist(catalog, prefix="apb")

    reloaded = CubeStorage.load(catalog, schema, prefix="apb")
    assert reloaded.cat_format == result.storage.cat_format
    assert reloaded.fact_row_count == result.storage.fact_row_count

    cache = FactCache(schema, table=table)
    rng = random.Random(1)
    sample = [
        schema.decode_node(rng.randrange(schema.enumerator.n_nodes))
        for _ in range(25)
    ]
    for node in sample:
        expected = reference_group_by(schema, table.to_rows(), node)
        got = normalize_answer(answer_cure_query(reloaded, cache, node))
        assert got == expected
    catalog.close()


def test_persisted_relation_count_matches_report(tmp_path, apb_small):
    schema, table = apb_small
    result = build_cube(schema, table=table)
    catalog = Catalog(tmp_path / "cube")
    result.storage.persist(catalog, prefix="apb")
    report = result.storage.size_report()
    names = catalog.names()
    data_relations = [n for n in names if not n.endswith("meta")]
    has_aggregates = 1 if aggregates_rows(result.storage) else 0
    assert len(data_relations) == report.n_relations + has_aggregates
    catalog.close()


def test_dr_cube_persist_roundtrip(tmp_path, apb_small):
    schema, table = apb_small
    result = build_cube(schema, table=table, dr_mode=True)
    catalog = Catalog(tmp_path / "cube")
    result.storage.persist(catalog, prefix="dr")
    reloaded = CubeStorage.load(catalog, schema, prefix="dr")
    assert reloaded.dr_mode
    cache = FactCache(schema, table=table)
    node = schema.decode_node(17)
    expected = reference_group_by(schema, table.to_rows(), node)
    assert normalize_answer(answer_cure_query(reloaded, cache, node)) == expected
    catalog.close()


def test_full_pipeline_disk_fact_and_plus(tmp_path, apb_small):
    """Fact on disk, cube built, CURE+ pass, queries through a cold cache."""
    schema, table = apb_small
    engine = Engine(Catalog(tmp_path / "eng"), MemoryManager())
    engine.store_table("fact", table)
    result = build_cube(schema, engine=engine, relation="fact")
    postprocess_plus(result.storage)
    cold = FactCache(schema, heap=engine.relation("fact"), fraction=0.0)
    rng = random.Random(2)
    for _ in range(20):
        node = schema.decode_node(rng.randrange(schema.enumerator.n_nodes))
        expected = reference_group_by(schema, table.to_rows(), node)
        got = normalize_answer(answer_cure_query(result.storage, cold, node))
        assert got == expected
    engine.close()
