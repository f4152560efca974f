"""End-to-end integration: build → persist → reload → query.

Exercises the full story: the cube's relations and the fact table are
written as one ``cube.v2`` container, reloaded into a fresh storage object
and table, and queried — results must match a naive group-by of the
original data.
"""

import random

import pytest

from repro import Engine, Table, build_cube
from repro.core.postprocess import postprocess_plus
from repro.datasets import generate_apb_dataset
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from repro.storage2 import V2File, load_v2, write_v2
from tests.support.rows import aggregates_rows


@pytest.fixture
def apb_small():
    return generate_apb_dataset(density=0.02, scale=1 / 1000, seed=23)


def test_persist_reload_query_roundtrip(tmp_path, apb_small):
    schema, table = apb_small
    result = build_cube(schema, table=table)
    path = write_v2(
        tmp_path / "apb.v2", schema, result.storage, table.as_batch(),
        cube_prefix="apb",
    )

    reloaded, fact = load_v2(path, schema)
    assert reloaded.cat_format == result.storage.cat_format
    assert reloaded.fact_row_count == result.storage.fact_row_count
    assert fact.to_rows() == table.to_rows()

    cache = FactCache(schema, table=fact)
    rng = random.Random(1)
    sample = [
        schema.decode_node(rng.randrange(schema.enumerator.n_nodes))
        for _ in range(25)
    ]
    for node in sample:
        expected = reference_group_by(schema, table.to_rows(), node)
        got = normalize_answer(answer_cure_query(reloaded, cache, node))
        assert got == expected


def test_persisted_relation_count_matches_report(tmp_path, apb_small):
    schema, table = apb_small
    result = build_cube(schema, table=table)
    path = write_v2(
        tmp_path / "apb.v2", schema, result.storage, table.as_batch()
    )
    report = result.storage.size_report()
    names = V2File.open(path).names()
    relations = [n for n in names if n.startswith("node/")]
    assert len(relations) == report.n_relations
    has_aggregates = bool(aggregates_rows(result.storage))
    assert ("aggregates" in names) == has_aggregates


def test_dr_cube_persist_roundtrip(tmp_path, apb_small):
    schema, table = apb_small
    result = build_cube(schema, table=table, dr_mode=True)
    path = write_v2(
        tmp_path / "dr.v2", schema, result.storage, table.as_batch(),
        cube_prefix="dr",
    )
    reloaded, fact = load_v2(path, schema)
    assert reloaded.dr_mode
    cache = FactCache(schema, table=fact)
    node = schema.decode_node(17)
    expected = reference_group_by(schema, table.to_rows(), node)
    assert normalize_answer(answer_cure_query(reloaded, cache, node)) == expected


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
