"""Differential test: plan-edge-at-a-time builder ≡ per-segment recursion.

``repro.core.cure.CureBuilder`` sorts once per *plan edge* and orders its
events by depth-first positions computed from sub-tree sizes;
:class:`tests.support.recursive_cure.RecursiveCureBuilder` is Figure 13
verbatim, one segment per Python frame.  The cube's bytes depend on the
order in which signatures reach the bounded pool, so the two must agree on
the event streams *exactly* — ``np.array_equal`` on ``tts`` and ``sigs`` —
and on every logical ``BuildStats`` counter, for every entry point, plan
shape, iceberg threshold and kind of working set.  In ``dr_mode`` the
builder's signatures carry D more columns — the node's grouping codes —
which must be what the hierarchy's ``level_maps`` make of the working row
at the emitted row-id.

The builder reads a segment's weight, minimum row-id and COUNT off the
segment layout when the working set allows it (unit weights, non-decreasing
row-ids, a sum column equal to the weights) and reduces them otherwise;
the draws and fixed cases below take both arms of each, and
:func:`shortcuts` names the arms a run took.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CubeSchema,
    complex_dimension,
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.core.cure import BuildStats, CureBuilder
from repro.core.workingset import WorkingSet
from repro.lattice.plan import (
    FlatShape,
    HierarchicalShape,
    LevelsAsDimensionsShape,
)
from tests.support.recursive_cure import RecursiveCureBuilder

COUNTERS = ("nodes_aggregated", "tt_written", "signatures_emitted")


def assert_same_events(
    schema, shape, working, min_count, entry, levels=(), dr_mode=False
):
    """Run both builders through ``entry`` and compare streams + counters."""
    new = CureBuilder(schema, shape, min_count, BuildStats(), dr_mode)
    # One production entry for both partition shapes; the oracle keeps two.
    tts, sigs = new.run_partition(working, levels) if levels else new.run(working)
    old = RecursiveCureBuilder(schema, shape, min_count, BuildStats())
    getattr(old, entry)(working, *levels)
    old_tts, old_sigs = old.event_arrays()
    assert tts.dtype == np.int64 and sigs.dtype == np.int64
    if dr_mode:
        y = schema.n_aggregates
        assert sigs.shape[1] == 2 + y + schema.n_dimensions
        assert_codes_of_emitted_rows(schema, working, sigs)
        sigs = sigs[:, : 2 + y]
    assert tts.shape == old_tts.shape and sigs.shape == old_sigs.shape
    assert np.array_equal(tts, old_tts)
    assert np.array_equal(sigs, old_sigs)
    for counter in COUNTERS:
        assert getattr(new.stats, counter) == getattr(old.stats, counter)
    assert new.stats.sort.keys_sorted == old.stats.sort.keys_sorted
    # One sort per (segment, edge) in Figure 13 = parent segments entering
    # each plan edge here.
    assert new.stats.sort.comparison_sorts == old.stats.sort.comparison_sorts
    assert new.stats.sort.counting_sorts == 0
    return tts, sigs


def shortcuts(schema, working):
    """Which per-segment numbers a build over ``working`` reads off the
    layout: ``(weight, minimum row-id, (COUNT per aggregate…))``."""
    builder = CureBuilder(schema, HierarchicalShape(schema.lattice))
    builder.run(working)
    return (
        builder._unit_weights,
        builder._ascending_rowids,
        tuple(column is None for column in builder._agg_columns),
    )


def assert_codes_of_emitted_rows(schema, working, sigs):
    """Each DR signature's codes = ``level_maps`` applied to the working
    row whose row-id it carries, one per grouping dimension in dimension
    order, then zeros."""
    row_of = {int(rowid): i for i, rowid in enumerate(working.rowids)}
    codes = sigs[:, 2 + schema.n_aggregates :]
    for node_id, rowid, row_codes in zip(
        sigs[:, 0].tolist(), sigs[:, 1].tolist(), codes.tolist()
    ):
        node = schema.decode_node(node_id)
        row = row_of[rowid]
        expected = [
            int(dimension.level_maps[level][working.dims[d][row]])
            for d, (dimension, level) in enumerate(
                zip(schema.dimensions, node.levels)
            )
            if level != dimension.all_level
        ]
        padding = [0] * (schema.n_dimensions - len(expected))
        assert row_codes == expected + padding, (node_id, rowid)


# -- hypothesis-drawn schemas --------------------------------------------------------


@st.composite
def dimensions(draw, index: int):
    """Flat, a 2–3 level chain, or a complex hierarchy whose top level
    has two dashed children (day → {week, month} → year)."""
    kind = draw(st.sampled_from(["flat", "chain", "complex"]))
    base = draw(st.integers(2, 7))
    name = f"D{index}"
    if kind == "flat":
        return flat_dimension(name, base)

    def rollup(cardinality):
        return draw(
            st.lists(
                st.integers(0, cardinality - 1), min_size=base, max_size=base
            )
        )

    if kind == "chain":
        mid = draw(st.integers(1, base))
        if draw(st.booleans()):
            return linear_dimension(name, [("l0", base), ("l1", mid)])
        # The top level must be a function of the middle one.
        middle = rollup(mid)
        top = draw(st.integers(1, mid))
        of_middle = draw(
            st.lists(st.integers(0, top - 1), min_size=mid, max_size=mid)
        )
        return complex_dimension(
            name,
            [("l0", base), ("l1", mid), ("l2", top)],
            [list(range(base)), middle, [of_middle[m] for m in middle]],
            [(1,), (2,), (3,)],
        )
    week = draw(st.integers(1, base))
    month = draw(st.integers(1, base))
    return complex_dimension(
        name,
        [("day", base), ("week", week), ("month", month), ("year", 1)],
        [list(range(base)), rollup(week), rollup(month), [0] * base],
        [(1, 2), (3,), (3,), (4,)],
    )


@st.composite
def cases(draw):
    n_dims = draw(st.integers(1, 4))
    dims = tuple(draw(dimensions(d)) for d in range(n_dims))
    functions = draw(
        st.lists(
            st.sampled_from(["sum", "count", "min", "max"]),
            min_size=1,
            max_size=3,
        )
    )
    schema = CubeSchema(
        dims, make_aggregates(*[(f, 0) for f in functions]), n_measures=1
    )
    n = draw(st.integers(1, 40))
    columns = [
        np.asarray(
            draw(
                st.lists(
                    st.integers(0, d.base_cardinality - 1),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int32,
        )
        for d in dims
    ]
    aggs = np.asarray(
        draw(
            st.lists(
                st.lists(
                    st.integers(-3, 3),
                    min_size=len(functions),
                    max_size=len(functions),
                ),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    ).reshape(n, len(functions))
    if draw(st.booleans()):
        weights = np.ones(n, dtype=np.int64)  # raw fact tuples
    else:  # a pre-aggregated (coarse) working set
        weights = np.asarray(
            draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    if draw(st.booleans()):
        # One column equal to the weights: COUNT's shortcut for sum and
        # count, an ordinary column for min and max.
        aggs[:, draw(st.integers(0, len(functions) - 1))] = weights
    if draw(st.booleans()):  # permuted: the row-id reduceat
        rowids = np.asarray(
            draw(st.permutations(list(range(0, 3 * n, 3)))), dtype=np.int64
        )
    else:  # in scan order, as every production source: the first row-id
        rowids = np.arange(0, 3 * n, 3, dtype=np.int64)
    working = WorkingSet(schema, columns, aggs, weights, rowids)

    shape_kind = draw(st.sampled_from(["p3", "p3-floor", "p1", "p2"]))
    if shape_kind == "p3":
        shape = HierarchicalShape(schema.lattice)
    elif shape_kind == "p3-floor":
        floor = tuple(draw(st.integers(0, d.n_levels)) for d in dims)
        shape = HierarchicalShape(schema.lattice, floor)
    elif shape_kind == "p1":
        shape = FlatShape(schema.lattice)
    else:
        shape = LevelsAsDimensionsShape(schema.lattice)
    level0 = draw(st.integers(0, dims[0].n_levels - 1))
    level1 = draw(st.integers(0, dims[min(1, n_dims - 1)].n_levels - 1))
    return schema, shape, working, level0, level1


@settings(max_examples=150, deadline=None)
@given(case=cases(), min_count=st.sampled_from([1, 3]))
def test_event_streams_equal_the_recursive_builder(case, min_count):
    schema, shape, working, level0, level1 = case
    assert_same_events(schema, shape, working, min_count, "run")
    assert_same_events(
        schema, shape, working, min_count, "run_partition", (level0,)
    )
    if schema.n_dimensions >= 2:
        assert_same_events(
            schema,
            shape,
            working,
            min_count,
            "run_partition_pair",
            (level0, level1),
        )


@settings(max_examples=60, deadline=None)
@given(case=cases(), min_count=st.sampled_from([1, 3]))
def test_dr_signatures_carry_the_codes_of_the_emitted_row(case, min_count):
    """``dr_mode`` adds the codes and changes nothing else of the stream."""
    schema, shape, working, level0, level1 = case
    assert_same_events(schema, shape, working, min_count, "run", (), True)
    assert_same_events(
        schema, shape, working, min_count, "run_partition", (level0,), True
    )
    if schema.n_dimensions >= 2:
        assert_same_events(
            schema,
            shape,
            working,
            min_count,
            "run_partition_pair",
            (level0, level1),
            True,
        )


# -- a mid-sized fixed case: deep recursion, many segments per edge -------------------


def retail_like(
    n_rows: int, seed: int, weighted: bool = False, ascending: bool = False
):
    store = linear_dimension("Store", [("s", 30), ("c", 6), ("r", 2)])
    time = complex_dimension(
        "Time",
        [("day", 12), ("week", 4), ("month", 3), ("year", 1)],
        [
            list(range(12)),
            [d // 3 for d in range(12)],
            [d % 3 for d in range(12)],
            [0] * 12,
        ],
        [(1, 2), (3,), (3,), (4,)],
    )
    product = linear_dimension("Product", [("p", 8), ("g", 2)])
    schema = CubeSchema(
        (store, product, time, flat_dimension("Channel", 3)),
        make_aggregates(("sum", 0), ("count", 0), ("max", 0)),
        n_measures=1,
    )
    rng = np.random.default_rng(seed)
    columns = [
        rng.integers(0, d.base_cardinality, size=n_rows).astype(np.int32)
        for d in schema.dimensions
    ]
    measure = rng.integers(0, 5, size=n_rows)
    weights = (
        rng.integers(1, 4, size=n_rows) if weighted else np.ones(n_rows)
    ).astype(np.int64)
    aggs = np.column_stack((measure * weights, weights, measure)).astype(
        np.int64
    )
    if ascending:
        rowids = np.arange(n_rows, dtype=np.int64)
    else:
        rowids = rng.permutation(n_rows).astype(np.int64)
    return schema, WorkingSet(schema, columns, aggs, weights, rowids)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("min_count", [1, 3])
def test_all_entry_points_on_a_four_dimensional_cube(weighted, min_count):
    for ascending in (False, True):
        schema, working = retail_like(
            1500, seed=4, weighted=weighted, ascending=ascending
        )
        # The count column is the weights; sum and max are reduced.
        assert shortcuts(schema, working) == (
            not weighted, ascending, (False, True, False)
        )
        time = schema.dimensions[2]
        assert time.dashed_children(time.level_index("year")) == (1, 2)
        for shape in (
            HierarchicalShape(schema.lattice),
            HierarchicalShape(schema.lattice, (2, 0, 1, 0)),
            FlatShape(schema.lattice),
            LevelsAsDimensionsShape(schema.lattice),
        ):
            tts, sigs = assert_same_events(
                schema, shape, working, min_count, "run"
            )
            assert len(sigs) > 1000
            if min_count > 1:
                assert len(tts) == 0
            assert_same_events(
                schema, shape, working, min_count, "run_partition", (1,)
            )
            assert_same_events(
                schema, shape, working, min_count, "run_partition_pair", (1, 1)
            )


@pytest.mark.parametrize("weighted", [False, True])
def test_dr_codes_on_a_four_dimensional_cube(weighted):
    for ascending in (False, True):
        schema, working = retail_like(
            600, seed=5, weighted=weighted, ascending=ascending
        )
        for shape in (
            HierarchicalShape(schema.lattice),
            HierarchicalShape(schema.lattice, (2, 0, 1, 0)),
        ):
            for entry, levels in ENTRIES:
                assert_same_events(
                    schema, shape, working, 1, entry, levels, True
                )


def test_pair_descent_emits_nothing_at_dimension_zero_only_nodes():
    schema, working = retail_like(400, seed=9)
    shape = HierarchicalShape(schema.lattice)
    tts, sigs = assert_same_events(
        schema, shape, working, 1, "run_partition_pair", (2, 1)
    )
    product_all = schema.dimensions[1].all_level
    for node_id in np.unique(np.concatenate((tts[:, 0], sigs[:, 0]))):
        node = schema.decode_node(int(node_id))
        assert node.levels[0] <= 2
        assert node.levels[1] != product_all


# -- the edges -------------------------------------------------------------------------


def tiny_schema():
    return CubeSchema(
        (
            linear_dimension("A", [("A0", 4), ("A1", 2)]),
            flat_dimension("B", 3),
        ),
        make_aggregates(("sum", 0), ("count", 0)),
        n_measures=1,
    )


ENTRIES = [("run", ()), ("run_partition", (1,)), ("run_partition_pair", (1, 0))]


@pytest.mark.parametrize("entry,levels", ENTRIES)
def test_empty_working_set_emits_nothing(entry, levels):
    schema = tiny_schema()
    tts, sigs = assert_same_events(
        schema, HierarchicalShape(schema.lattice), WorkingSet.empty(schema), 1, entry, levels
    )
    assert tts.shape == (0, 2) and sigs.shape == (0, 4)


@pytest.mark.parametrize("entry,levels", ENTRIES)
@pytest.mark.parametrize("weight", [1, 5])
def test_one_row(entry, levels, weight):
    """Weight 1 is a trivial tuple at the first node that sees it (the
    root, for ``run``); a heavier single row is aggregated all the way."""
    schema = tiny_schema()
    working = WorkingSet(
        schema,
        [np.asarray([3], dtype=np.int32), np.asarray([1], dtype=np.int32)],
        np.asarray([[7, weight]], dtype=np.int64),
        np.asarray([weight], dtype=np.int64),
        np.asarray([42], dtype=np.int64),
    )
    tts, sigs = assert_same_events(
        schema, HierarchicalShape(schema.lattice), working, 1, entry, levels
    )
    if weight == 1:
        assert len(sigs) == 0 and tts[:, 1].tolist() == [42] * len(tts)
        if entry == "run":
            all_node = schema.enumerator.node_id(schema.lattice.all_node)
            assert tts.tolist() == [[all_node, 42]]
    else:
        assert len(tts) == 0 and len(sigs) > 0


@pytest.mark.parametrize("entry,levels", ENTRIES)
@pytest.mark.parametrize("min_count", [1, 3, 50])
def test_all_rows_share_one_key(entry, levels, min_count):
    schema = tiny_schema()
    n = 20
    working = WorkingSet(
        schema,
        [np.full(n, 2, dtype=np.int32), np.full(n, 1, dtype=np.int32)],
        np.column_stack((np.arange(n), np.ones(n))).astype(np.int64),
        np.ones(n, dtype=np.int64),
        np.arange(n, dtype=np.int64)[::-1].copy(),
    )
    tts, sigs = assert_same_events(
        schema, HierarchicalShape(schema.lattice), working, min_count, entry, levels
    )
    assert len(tts) == 0
    assert (len(sigs) == 0) == (min_count == 50)


def test_segment_times_cardinality_beyond_int32():
    """40,000 surviving segments of A enter the edge of B, whose 70,000
    members put segment × cardinality at 2.8e9 — past int32."""
    n_a, n_b = 40_000, 70_000
    schema = CubeSchema(
        (flat_dimension("A", n_a), flat_dimension("B", n_b)),
        make_aggregates(("sum", 0)),
        n_measures=1,
    )
    rng = np.random.default_rng(3)
    a = np.repeat(np.arange(n_a, dtype=np.int32), 2)
    b = rng.integers(0, n_b, size=2 * n_a).astype(np.int32)
    b[-2:] = n_b - 1  # the largest composite key is really produced
    working = WorkingSet(
        schema,
        [a, b],
        rng.integers(0, 9, size=(2 * n_a, 1)).astype(np.int64),
        np.ones(2 * n_a, dtype=np.int64),
        rng.permutation(2 * n_a).astype(np.int64),
    )
    assert (n_a - 1) * n_b + (n_b - 1) > np.iinfo(np.int32).max
    new = CureBuilder(schema, FlatShape(schema.lattice))
    tts, sigs = new.run_partition(working, (0,))
    # Too many segments for the recursive oracle's patience at full size
    # is still fine here: it is 40,000 two-row sorts.
    old = RecursiveCureBuilder(schema, FlatShape(schema.lattice))
    old.run_partition(working, 0)
    old_tts, old_sigs = old.event_arrays()
    assert np.array_equal(tts, old_tts) and np.array_equal(sigs, old_sigs)
    assert new.stats.sort.comparison_sorts == 1 + n_a
    # The last A segment's two rows share B's last member: one signature
    # for (A, B), no trivial tuples below it.
    assert sigs[-1].tolist() == [
        sigs[-1, 0],
        int(working.rowids[-2:].min()),
        int(working.aggs[-2:, 0].sum()),
    ]


# -- both arms of the layout shortcuts -------------------------------------------------


def working_with_measure(schema, measure, weights, rowids, seed):
    """Random codes; every aggregate column is ``measure``."""
    rng = np.random.default_rng(seed)
    n = len(measure)
    columns = [
        rng.integers(0, d.base_cardinality, size=n).astype(np.int32)
        for d in schema.dimensions
    ]
    aggs = np.repeat(measure[:, None], schema.n_aggregates, axis=1)
    return WorkingSet(schema, columns, aggs.astype(np.int64), weights, rowids)


@pytest.mark.parametrize("entry,levels", ENTRIES)
def test_a_sum_over_all_ones_is_read_as_the_weight(entry, levels):
    """Not COUNT, but equal to the weights column: the shortcut goes by
    the values, and min over the same ones is still reduced."""
    schema, _ = retail_like(10, seed=0)
    schema = CubeSchema(
        schema.dimensions,
        make_aggregates(("sum", 0), ("min", 0)),
        n_measures=1,
    )
    n = 800
    working = working_with_measure(
        schema,
        np.ones(n, dtype=np.int64),
        np.ones(n, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        seed=6,
    )
    assert shortcuts(schema, working) == (True, True, (True, False))
    for min_count in (1, 3):
        assert_same_events(
            schema, HierarchicalShape(schema.lattice), working, min_count, entry, levels
        )


@pytest.mark.parametrize("entry,levels", ENTRIES)
@pytest.mark.parametrize("weighted", [False, True])
def test_a_count_column_unequal_to_the_weights_is_reduced(
    entry, levels, weighted
):
    """A column named COUNT whose values are not the weights (a hand-made
    working set) is reduced like any other sum."""
    schema, _ = retail_like(10, seed=0)
    schema = CubeSchema(
        schema.dimensions, make_aggregates(("count", 0)), n_measures=1
    )
    n = 800
    rng = np.random.default_rng(7)
    weights = (
        rng.integers(1, 4, size=n) if weighted else np.ones(n)
    ).astype(np.int64)
    working = working_with_measure(
        schema,
        weights + rng.integers(0, 2, size=n),
        weights,
        rng.permutation(n).astype(np.int64),
        seed=8,
    )
    assert shortcuts(schema, working) == (not weighted, False, (False,))
    for min_count in (1, 3):
        assert_same_events(
            schema, HierarchicalShape(schema.lattice), working, min_count, entry, levels
        )
