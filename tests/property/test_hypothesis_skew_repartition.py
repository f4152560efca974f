"""Property tests: local pair selection is sound or fails honestly.

The search over level pairs at or below a partition's ``parent_level``
(``search_partition_levels(…, 2, parent_level=…)``) is the last resort of
adaptive re-partitioning — ``select_partition_level`` runs it on a
partition that already overflowed the budget and that no finer level of
dimension 0 can split.  On randomized
skew profiles (hot base pairs, arbitrary hierarchies on the two leading
dimensions, arbitrary budgets) the selection must either

* return a decision that is *sound*: the largest (A_L0, B_M) member-pair
  group — recounted here independently from the raw rows — fits the
  available bytes, the levels respect ``parent_level`` and the
  dimension chains, and the N1 coarse node is waived exactly when
  ``level0 == parent_level``; or
* find nothing, and only when even the finest candidate pair ``(A_0,
  B_0)`` is genuinely blocked — its hottest pair overflows, or a required
  coarse working set cannot fit; the selection then raises
  :class:`MemoryBudgetExceeded` with the remaining knob (the memory
  budget) named in the message, unless a finer level of dimension 0
  alone does split the partition.
"""

from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro import CubeSchema, make_aggregates
from repro.core.partition_select import (
    _working_set_row_bytes,
    estimate_coarse_rows,
    search_partition_levels,
    select_partition_level,
)
from repro.hierarchy.builders import flat_dimension, linear_dimension
from repro.relational.engine import Engine
from repro.relational.memory import MemoryBudgetExceeded
from tests.support.rows import table_of


def _dimension(name: str, cardinalities: tuple[int, ...]):
    if len(cardinalities) == 1:
        return flat_dimension(name, cardinalities[0])
    return linear_dimension(
        name,
        [(f"{name}{i}", c) for i, c in enumerate(cardinalities)],
    )


@st.composite
def skew_cases(draw):
    """A partition relation with optional hot pairs, plus budget knobs."""
    c0 = draw(st.integers(2, 12))
    chain0 = draw(
        st.sampled_from([(c0,), (c0, max(2, c0 // 3))])
    )
    c1 = draw(st.integers(2, 8))
    chain1 = draw(
        st.sampled_from([(c1,), (c1, 2)])
    )
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, c0 - 1), st.integers(0, c1 - 1)),
            max_size=80,
        )
    )
    # Pile extra rows onto one pair so hot members appear far more often
    # than uniform sampling would produce.
    pairs += [(0, 0)] * draw(st.integers(0, 120))
    parent_level = draw(st.integers(0, len(chain0) - 1))
    allowance_rows = draw(st.integers(0, 80))
    slop = draw(st.integers(0, 31))
    return chain0, chain1, pairs, parent_level, allowance_rows, slop


def _schema(chain0, chain1) -> CubeSchema:
    return CubeSchema(
        (_dimension("A", chain0), _dimension("B", chain1)),
        make_aggregates(("sum", 0), ("count", 0)),
        n_measures=1,
    )


def _max_group(pairs, schema, level0: int, level1: int) -> int:
    """Independent recount of the largest (A_level0, B_level1) pair group."""
    map0 = schema.dimensions[0].base_maps[level0]
    map1 = schema.dimensions[1].base_maps[level1]
    counts = Counter((map0[a], map1[b]) for a, b in pairs)
    return max(counts.values(), default=0)


def _finest_candidate_is_blocked(
    pairs, schema, available: int, parent_level: int
) -> bool:
    """True iff the (A_0, B_0) candidate genuinely cannot be used: its
    hottest pair overflows, or a coarse working set it needs does not fit
    (N1 only when level 0 is below ``parent_level``)."""
    row_bytes = schema.partition_schema.row_size_bytes
    ws_bytes = _working_set_row_bytes(schema)
    if _max_group(pairs, schema, 0, 0) * row_bytes > available:
        return True
    n2 = estimate_coarse_rows(schema, 1, 0, len(pairs))
    if n2 * ws_bytes > available:
        return True
    if parent_level > 0:
        n1 = estimate_coarse_rows(schema, 0, 0, len(pairs))
        if n1 * ws_bytes > available:
            return True
    return False


@settings(max_examples=100, deadline=None)
@example(((4,), (4,), [], 0, 0, 0))  # empty partition, zero allowance
@example(((4,), (4,), [(0, 0)] * 50, 0, 10, 0))  # one hot pair, too big
@example(((8, 2), (6, 2), [(i % 8, i % 6) for i in range(60)], 1, 40, 0))
@given(skew_cases())
def test_local_pair_selection_sound_or_budget_error(case):
    chain0, chain1, pairs, parent_level, allowance_rows, slop = case
    schema = _schema(chain0, chain1)
    row_bytes = schema.partition_schema.row_size_bytes
    available = allowance_rows * row_bytes + slop
    rows = [(a, b, 1, rowid) for rowid, (a, b) in enumerate(pairs)]

    engine = Engine.temporary(available)
    try:
        engine.store_table(
            "fact.part0", table_of(schema.partition_schema, rows)
        )
        decision = search_partition_levels(
            engine, "fact.part0", schema, 2, parent_level=parent_level
        )
        if decision is None:
            assert _finest_candidate_is_blocked(
                pairs, schema, available, parent_level
            ), "nothing found although the finest pair candidate was feasible"
            try:
                finer = select_partition_level(
                    engine, "fact.part0", schema, parent_level=parent_level
                )
            except MemoryBudgetExceeded as error:
                assert "raise the memory budget" in str(error)
            else:
                assert len(finer.levels) == 1 and finer.levels[0] < parent_level
            return
        # Sound: the selection's own count matches an independent recount
        # of the chosen grouping, and the hottest group fits the budget.
        level0, level1 = decision.levels
        assert 0 <= level0 <= parent_level
        assert 0 <= level1 < schema.dimensions[1].n_levels
        recounted = _max_group(pairs, schema, level0, level1)
        assert decision.max_member_rows == recounted
        assert decision.max_member_rows * row_bytes <= available
        assert sum(decision.rows_by_member.values()) == len(pairs)
        assert decision.available_bytes == available
        # A decision at parent_level needs no N1 coarse node: the
        # partition is already sound on A_{parent_level}.
        if level0 == parent_level:
            assert decision.estimated_coarse_rows[0] == 0
    finally:
        engine.destroy()


def test_single_dimension_cube_has_no_pair_extension():
    schema = CubeSchema(
        (flat_dimension("A", 6),),
        make_aggregates(("sum", 0), ("count", 0)),
        n_measures=1,
    )
    engine = Engine.temporary(64)
    try:
        engine.store_table(
            "fact.part0",
            table_of(schema.partition_schema, [(0, 1, i) for i in range(40)]),
        )
        with pytest.raises(MemoryBudgetExceeded, match="single"):
            select_partition_level(engine, "fact.part0", schema, parent_level=0)
    finally:
        engine.destroy()


def test_unbounded_budget_is_a_usage_error():
    schema = _schema((4,), (4,))
    engine = Engine.temporary(None)
    try:
        engine.store_table(
            "fact.part0", table_of(schema.partition_schema, [])
        )
        with pytest.raises(ValueError, match="bounded"):
            select_partition_level(engine, "fact.part0", schema, parent_level=0)
    finally:
        engine.destroy()
