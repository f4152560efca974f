"""End-to-end cube construction over complex (branching) hierarchies.

Section 3.2 of the paper introduces complex hierarchies and the modified
rule 2; these tests prove the *executor* (not just the plan builder)
handles them: a cube over day → {week, month → year} answers every node —
including both branches — exactly like the naive reference.
"""

import random

import pytest

from repro import (
    CubeSchema,
    build_cube,
    complex_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.core.postprocess import postprocess_plus
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.support.rows import rows_of, table_of

N_DAYS = 28


def time_dimension():
    return complex_dimension(
        "Time",
        levels=[("day", N_DAYS), ("week", 4), ("month", 2), ("year", 1)],
        base_maps=[
            list(range(N_DAYS)),
            [d // 7 for d in range(N_DAYS)],
            [d // 14 for d in range(N_DAYS)],
            [0] * N_DAYS,
        ],
        parents=[(1, 2), (4,), (3,), (4,)],
    )


@pytest.fixture
def schema():
    product = linear_dimension("Product", [("item", 10), ("brand", 3)])
    return CubeSchema(
        (product, time_dimension()),
        make_aggregates(("sum", 0), ("count", 0)),
        n_measures=1,
    )


@pytest.fixture
def table(schema):
    rng = random.Random(12)
    rows = [
        (rng.randrange(10), rng.randrange(N_DAYS), rng.randrange(50))
        for _ in range(400)
    ]
    return table_of(schema.fact_schema, rows)


def test_lattice_includes_both_branches(schema):
    # Product has 2 levels (+ALL) = 3; Time has 4 levels (+ALL) = 5.
    assert schema.enumerator.n_nodes == 15


def test_every_node_matches_reference(schema, table):
    result = build_cube(schema, table=table)
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected, node.label(schema.dimensions)


def test_week_branch_answers(schema, table):
    """The week branch (reached by its own solid edge) is materialized."""
    result = build_cube(schema, table=table)
    cache = FactCache(schema, table=table)
    time = schema.dimensions[1]
    week_node = schema.lattice.all_node.with_level(1, time.level_index("week"))
    answer = answer_cure_query(result.storage, cache, week_node)
    assert len(answer) == 4  # four weeks
    total = sum(aggs[1] for _dims, aggs in answer)
    assert total == len(table)


def test_plus_pass_over_complex_hierarchy(schema, table):
    result = build_cube(schema, table=table)
    postprocess_plus(result.storage)
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(table), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected


def test_incremental_updates_over_complex_hierarchy(schema, table):
    from repro.core.incremental import apply_delta

    base = table_of(schema.fact_schema, rows_of(table)[:350])
    delta = rows_of(table)[350:]
    result = build_cube(schema, table=base)
    apply_delta(result.storage, schema, base, delta)
    cache = FactCache(schema, table=base)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows_of(base), node)
        got = normalize_answer(answer_cure_query(result.storage, cache, node))
        assert got == expected, node.label(schema.dimensions)
