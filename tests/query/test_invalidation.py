"""Result-cache invalidation after a delta, held to the row-loop predicate.

``CubePlanner.invalidate_results(report)`` rolls the delta up once per
(dimension, level) into member sets and drops an entry when its slices
can see a delta row.  The oracle below is the predicate it replaced: for
every cached slice tuple, loop over the delta rows and test each row's
member at every slice's level.  Over random deltas and random cached
slice tuples (one, two and three slices, levels anywhere in the
hierarchy, unsliced and tagged entries among them) both must drop
exactly the same keys.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import CubeSchema, build_cube, linear_dimension, make_aggregates
from repro.core.incremental import UpdateReport
from repro.lattice.node import CubeNode
from repro.query import CubePlanner, DimensionSlice, FactCache, QueryRequest
from repro.query.cache import ResultCache
from repro.query.column_answer import ColumnAnswer
from tests.support.rows import table_of

SCHEMA = CubeSchema(
    (
        linear_dimension("A", [("A0", 12), ("A1", 6), ("A2", 3)]),
        linear_dimension("B", [("B0", 8), ("B1", 4)]),
        linear_dimension("C", [("C0", 5)]),
    ),
    make_aggregates(("sum", 0), ("count", 0)),
    n_measures=1,
)
BASE = CubeNode((0, 0, 0))


def row_loop_stale(schema, delta_codes, slices) -> bool:
    """The row-at-a-time predicate: some delta row passes every slice."""
    return any(
        all(
            schema.dimensions[item.dim].code_at(row[item.dim], item.level)
            in item.members
            for item in slices
        )
        for row in delta_codes
    )


def delta_rows():
    return st.lists(
        st.tuples(
            *(st.integers(0, d.base_cardinality - 1) for d in SCHEMA.dimensions)
        ),
        min_size=1,
        max_size=12,
    )


@st.composite
def slice_tuples(draw):
    dims = draw(
        st.lists(st.integers(0, 2), min_size=0, max_size=3, unique=True)
    )
    slices = []
    for dim in dims:
        dimension = SCHEMA.dimensions[dim]
        level = draw(st.integers(0, dimension.n_levels - 1))
        members = draw(
            st.frozensets(
                st.integers(0, dimension.cardinality(level) - 1),
                min_size=1,
                max_size=4,
            )
        )
        slices.append(DimensionSlice(dim, level, members))
    return tuple(slices)


def planner_over(rows) -> CubePlanner:
    table = table_of(SCHEMA.fact_schema, rows)
    storage = build_cube(SCHEMA, table=table).storage
    return CubePlanner(
        storage,
        FactCache(SCHEMA, table=table),
        results=ResultCache(max_entries=10_000),
    )


PLANNER = planner_over([(a % 12, a % 8, a % 5, a) for a in range(30)])


@settings(max_examples=200, deadline=None)
@given(delta_rows(), st.lists(slice_tuples(), min_size=1, max_size=25))
def test_member_sets_drop_what_the_row_loop_drops(delta, cached):
    planner = PLANNER
    planner.results.clear()
    node_id = SCHEMA.node_id(BASE)
    expected = set()
    for slices in cached:
        key = planner.key(QueryRequest(BASE, slices))
        planner.results.put(*key[:2], ColumnAnswer.empty(3, 2), key[2])
        if row_loop_stale(SCHEMA, delta, key[1]):
            expected.add(key)
    tagged = (node_id, (), ("rollup",))
    planner.results.put(*tagged[:2], ColumnAnswer.empty(3, 2), tagged[2])
    expected.add(tagged)  # an unsliced entry drops with any delta
    keys = {planner.key(QueryRequest(BASE, slices)) for slices in cached}
    keys.add(tagged)
    report = UpdateReport(delta_rows=len(delta), delta_codes=list(delta))
    dropped = planner.invalidate_results(report)
    gone = {
        key for key in keys if planner.results.lookup(*key, record=False) is None
    }
    assert gone == expected
    assert dropped == len(expected)
