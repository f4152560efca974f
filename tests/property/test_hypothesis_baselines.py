"""Differential test: BUC and BU-BST on the plan-edge kernel ≡ their
one-segment-per-frame recursions.

``paper.baselines`` runs both baselines as one flat-plan
:class:`~repro.core.cure.CureBuilder` pass plus a sink;
``tests/support/recursive_baselines.py`` keeps the recursions they
replaced.  Over random schemas (D 1–5, duplicate rows, empty and
single-row tables, ``min_count`` 1–3, both ``materialize`` values) the
two must build the same cube — every BUC node relation and the BU-BST
monolithic relation as multisets (row order is not part of the contract:
answers are normalized) — and count the same work: every ``BucStats`` /
``BuBstStats`` counter except ``elapsed_seconds``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from paper.baselines import build_bubst_cube, build_buc_cube
from repro import CubeSchema, linear_dimension, make_aggregates
from tests.support.recursive_baselines import (
    recursive_bubst_cube,
    recursive_buc_cube,
)
from tests.support.rows import table_of


def _schema(cardinalities, coarse=()):
    """Base cardinalities per dimension; dimensions listed in ``coarse``
    get a two-member level above the base (the baselines still build the
    base levels only, but node ids then span a hierarchical lattice)."""
    dimensions = []
    for d, cardinality in enumerate(cardinalities):
        levels = [("L0", cardinality)]
        if d in coarse and cardinality > 2:
            levels.append(("L1", 2))
        dimensions.append(linear_dimension(f"D{d}", levels))
    return CubeSchema(
        tuple(dimensions),
        make_aggregates(("sum", 0), ("count", 0), ("min", 0), ("max", 0)),
        n_measures=1,
    )


@st.composite
def fact_tables(draw):
    """A random schema and a fact table drawn from a small pool of
    distinct rows, so duplicates are common."""
    n_dims = draw(st.integers(1, 5))
    cardinalities = draw(
        st.lists(st.integers(1, 5), min_size=n_dims, max_size=n_dims)
    )
    coarse = draw(st.sets(st.integers(0, n_dims - 1), max_size=2))
    schema = _schema(cardinalities, coarse)
    pool = draw(
        st.lists(
            st.tuples(
                *(st.integers(0, c - 1) for c in cardinalities),
                st.integers(-20, 20),
            ),
            min_size=1,
            max_size=12,
        )
    )
    rows = draw(st.lists(st.sampled_from(pool), max_size=30))
    return schema, table_of(schema.fact_schema, rows)


def _counters(stats):
    values = dataclasses.asdict(stats)
    del values["elapsed_seconds"]
    return values


EMPTY = _schema((3, 2))
SINGLE = _schema((4, 3, 2))


@settings(max_examples=80, deadline=None)
@given(fact_tables(), st.integers(1, 3), st.booleans())
@example((EMPTY, table_of(EMPTY.fact_schema, [])), 1, True)
@example((SINGLE, table_of(SINGLE.fact_schema, [(3, 1, 0, 7)])), 1, True)
@example((SINGLE, table_of(SINGLE.fact_schema, [(3, 1, 0, 7)])), 1, False)
def test_buc_matches_recursive_oracle(instance, min_count, materialize):
    schema, table = instance
    cube, stats = build_buc_cube(schema, table, min_count, materialize)
    oracle, oracle_stats = recursive_buc_cube(
        schema, table, min_count, materialize
    )
    assert _counters(stats) == _counters(oracle_stats)
    if not materialize:
        assert cube.total_tuples == oracle.analytic_tuples
        assert cube.size_report_bytes() == oracle.analytic_bytes
        return
    assert set(cube.nodes) == set(oracle.nodes)
    for node in schema.lattice.flat_nodes():
        node_id = schema.node_id(node)
        got = Counter(map(tuple, cube.node_rows(node_id).tolist()))
        assert got == Counter(oracle.nodes.get(node_id, [])), node_id
    assert cube.total_tuples == stats.tuples_written
    assert cube.size_report_bytes() == 4 * sum(
        len(row) for rows in oracle.nodes.values() for row in rows
    )


@settings(max_examples=80, deadline=None)
@given(fact_tables())
@example((EMPTY, table_of(EMPTY.fact_schema, [])))
@example((SINGLE, table_of(SINGLE.fact_schema, [(3, 1, 0, 7)])))
def test_bubst_matches_recursive_oracle(instance):
    schema, table = instance
    cube, stats = build_bubst_cube(schema, table)
    oracle, oracle_stats = recursive_bubst_cube(schema, table)
    assert _counters(stats) == _counters(oracle_stats)
    expected = Counter(
        (row.node_id, int(row.is_bst), *row.dims, *row.aggregates)
        for row in oracle.rows
    )
    assert Counter(map(tuple, cube.rows.tolist())) == expected
