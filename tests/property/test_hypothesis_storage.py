"""Property tests: storage persistence and size accounting invariants."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import CubeSchema, build_cube, linear_dimension, make_aggregates
from repro.core.postprocess import postprocess_plus
from repro.query import FactCache, answer_cure_query
from repro.query.answer import normalize_answer
from repro.storage2 import open_v2, write_v2
from tests.support.rows import nt_rows, table_of, tt_rowids


def small_schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 6), ("A1", 3)])
    b = linear_dimension("B", [("B0", 4)])
    return CubeSchema(
        (a, b), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )


SCHEMA = small_schema()

rows = st.tuples(
    st.integers(0, 5), st.integers(0, 3), st.integers(-20, 20)
)


@settings(max_examples=30, deadline=None)
@given(st.lists(rows, min_size=1, max_size=30), st.booleans())
def test_persist_reload_answers_identically(
    tmp_path_factory, fact_rows, plus
):
    table = table_of(SCHEMA.fact_schema, list(fact_rows))
    result = build_cube(SCHEMA, table=table)
    if plus:
        postprocess_plus(result.storage)
    path = tmp_path_factory.mktemp("cube") / "cube.v2"
    write_v2(path, SCHEMA, result.storage, table.as_batch())
    mapped = open_v2(path, SCHEMA)
    reloaded = mapped.storage
    cache = FactCache(SCHEMA, table=mapped.fact)
    for node in SCHEMA.lattice.nodes():
        original = normalize_answer(
            answer_cure_query(result.storage, cache, node)
        )
        roundtripped = normalize_answer(
            answer_cure_query(reloaded, cache, node)
        )
        assert original == roundtripped


@settings(max_examples=40, deadline=None)
@given(st.lists(rows, max_size=40))
def test_size_report_consistency(fact_rows):
    table = table_of(SCHEMA.fact_schema, list(fact_rows))
    result = build_cube(SCHEMA, table=table)
    report = result.storage.size_report()
    assert report.total_bytes == (
        report.nt_bytes + report.tt_bytes + report.cat_bytes
        + report.aggregates_bytes
    )
    assert report.n_nt == sum(
        len(nt_rows(s)) for s in result.storage.nodes.values()
    )
    assert report.n_tt == sum(
        len(tt_rowids(s)) for s in result.storage.nodes.values()
    )
    # Every node's TT relation is duplicate-free with in-range row-ids,
    # and a tuple is stored at most once per node.
    for store in result.storage.nodes.values():
        assert len(tt_rowids(store)) == len(set(tt_rowids(store)))
        assert all(0 <= r < len(fact_rows) for r in tt_rowids(store))
    assert report.n_tt <= len(fact_rows) * SCHEMA.enumerator.n_nodes


@settings(max_examples=40, deadline=None)
@given(st.lists(rows, min_size=1, max_size=40))
def test_plus_pass_is_idempotent(fact_rows):
    table = table_of(SCHEMA.fact_schema, list(fact_rows))
    result = build_cube(SCHEMA, table=table)
    postprocess_plus(result.storage)
    once = result.storage.size_report().total_bytes
    postprocess_plus(result.storage)
    assert result.storage.size_report().total_bytes == once
