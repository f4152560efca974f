"""Property: a delta merged into a partitioned cube answers the definition.

A partitioned build stores each trivial tuple once, at the least detailed
node of its plan path, as an in-memory build does, so ``apply_delta``'s
upward-closure argument — about plan sub-trees, not construction phases
— holds for it unchanged.  The base cubes are the three partitioned
cases of ``tests/query/test_phase_cut.py``, each with a row alone in a
coarse-phase group: L below the top, a pair partitioning and an adaptive
re-partitioning.  Deltas mix copies of base rows (old groups, the lone
row's among them) with fresh codes (new groups); after each one every
node must equal :func:`reference_group_by` over R ∪ Δ.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.incremental import apply_delta
from repro.core.postprocess import postprocess_plus
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.query.test_phase_cut import (
    Case,
    level_one_case,
    pair_case,
    repartitioned_case,
)
from tests.support.rows import rows_of, table_of

CASES = {
    "level one": level_one_case(plus=False),
    "pair": pair_case(),
    "repartitioned": repartitioned_case(),
}


def delta_rows(case: Case) -> st.SearchStrategy[list[tuple]]:
    """1–40 rows: base rows' codes (the lone row's often) or fresh codes."""
    dims = st.one_of(
        st.tuples(
            *(st.integers(0, d.base_cardinality - 1) for d in case.schema.dimensions)
        ),
        st.sampled_from(case.rows).map(lambda row: row[:-1]),
        st.just(case.rows[case.lone][:-1]),
    )
    row = st.builds(lambda codes, measure: (*codes, measure), dims, st.integers(0, 50))
    return st.lists(row, min_size=1, max_size=40)


@st.composite
def instances(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    case = CASES[name]
    deltas = draw(st.lists(delta_rows(case), min_size=1, max_size=2))
    return name, draw(st.booleans()), deltas


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(instances())
def test_delta_into_partitioned_cube_answers_the_definition(instance):
    name, plus, deltas = instance
    case = CASES[name]
    with tempfile.TemporaryDirectory() as directory:
        result = case.build(Path(directory))
    storage, schema = result.storage, case.schema
    if plus:
        postprocess_plus(storage)
    table = table_of(schema.fact_schema, case.rows)
    for delta in deltas:
        apply_delta(storage, schema, table, delta)
        if plus:
            postprocess_plus(storage)
    rows = rows_of(table)
    assert len(rows) == len(case.rows) + sum(map(len, deltas))
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        assert normalize_answer(
            answer_cure_query(storage, cache, node)
        ) == reference_group_by(schema, rows, node), (name, node)
