"""Differential property: the array delta merger against the record oracle.

``repro.core.incremental.apply_delta`` (array sweep over the plan) and
``tests.support.record_merger.apply_delta_by_record`` (the merger it
replaced: one stored row and one node at a time) are run over the same
base cube and the same sequence of deltas.  After every delta they must
agree on what is stored — per node the same multiset of NT rows, TT
row-ids and CAT rows; the same AGGREGATES rows, drift accounting,
``size_report()`` and ``UpdateReport`` counters — and the maintained cube
must answer node, slice, roll-up and iceberg queries exactly like a
from-scratch ``build_cube`` over base + delta rows.

Shapes covered: linear, complex (branching) and flat hierarchies; CURE and
CURE+ (re-plussed after every delta); both CAT formats;
deltas with in-delta duplicates, deltas that hit a root TT, deltas that
demote CATs, several deltas in sequence.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    CubeSchema,
    build_cube,
    complex_dimension,
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.core import incremental
from repro.core.incremental import apply_delta, group_keys
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CatFormat
from repro.query import (
    CubePlanner,
    DimensionSlice,
    FactCache,
    QueryRequest,
    answer_cure_query,
    answer_cure_sliced,
    iceberg_over_cure,
    rollup_base_answer,
)
from repro.query.answer import normalize_answer
from repro.query.rollup import base_node_of
from tests.support.record_merger import apply_delta_by_record
from tests.support.rows import (
    aggregates_rows,
    cat_rows,
    nt_rows,
    rows_of,
    table_of,
    tt_rowids,
)

AGGREGATES = make_aggregates(("sum", 0), ("count", 0), ("min", 0), ("max", 0))


def linear_schema() -> CubeSchema:
    a = linear_dimension("A", [("A0", 6), ("A1", 3), ("A2", 2)])
    b = linear_dimension("B", [("B0", 4), ("B1", 2)])
    c = linear_dimension("C", [("C0", 3)])
    return CubeSchema((a, b, c), AGGREGATES, n_measures=1)


def complex_schema() -> CubeSchema:
    days = 8
    time = complex_dimension(
        "Time",
        levels=[("day", days), ("week", 4), ("month", 2), ("year", 1)],
        base_maps=[
            list(range(days)),
            [d // 2 for d in range(days)],
            [d // 4 for d in range(days)],
            [0] * days,
        ],
        parents=[(1, 2), (4,), (3,), (4,)],
    )
    product = linear_dimension("P", [("item", 5), ("brand", 2)])
    return CubeSchema((product, time), AGGREGATES, n_measures=1)


def flat_schema() -> CubeSchema:
    dims = (flat_dimension("A", 4), flat_dimension("B", 3), flat_dimension("C", 3))
    return CubeSchema(dims, AGGREGATES, n_measures=1)


SCHEMAS = {
    "linear": (linear_schema(), False),
    "complex": (complex_schema(), False),
    "flat": (flat_schema(), False),
    # FCURE: the P1 plan over the base-level nodes of a hierarchical schema.
    "fcure": (linear_schema(), True),
}


def fact_rows(schema: CubeSchema, **sizes):
    row = st.tuples(
        *[st.integers(0, d.base_cardinality - 1) for d in schema.dimensions],
        st.integers(-5, 5),
    )
    return st.lists(row, **sizes)


def build(schema, rows, flat, cat_format, plus):
    table = table_of(schema.fact_schema, list(rows))
    with mock.patch(
        "repro.core.storage.choose_cat_format", lambda _stats, _y: cat_format
    ):
        storage = build_cube(schema, table=table, flat=flat).storage
    if plus:
        postprocess_plus(storage)
    return table, storage


def assert_rowid_order(storage):
    """Straight after a delta into a CURE+ cube, every stored row-id
    list is in order: TT lists, and NTs and CATs by their first column."""
    for node_id, store in storage.nodes.items():
        for values in (
            store.tt_array(),
            store.nt_matrix()[:, 0] if store.nt_count else store.tt_array()[:0],
            store.cat_matrix()[:, 0] if store.cat_count else store.tt_array()[:0],
        ):
            assert (values[1:] >= values[:-1]).all(), node_id


def assert_keys_kept(storage, schema, table):
    """The stacks, ids and group keys the merger keeps are those of the
    relations now stored, and equal ones computed from scratch."""
    kept = storage.keyed_relations
    assert kept is not None
    plan = schema.plan_order(storage.flat)
    stores = [storage.node_store(node_id) for _node, node_id, _parent in plan]
    arrays = incremental._relations(stores)
    assert kept.holds(arrays)
    for kept_keys, fresh in zip(kept.keys, group_keys(storage, schema, table)):
        assert np.array_equal(kept_keys, fresh)
    for stack, fresh in zip(kept.stacks, incremental._stacks(storage, arrays)):
        assert np.array_equal(stack.rows, fresh.rows) or stack.rows.size == fresh.rows.size == 0
        assert np.array_equal(stack.ids, fresh.ids)
        assert stack.offsets == fresh.offsets


def stored(storage):
    """Per node, the multisets of what each relation holds."""
    return {
        node_id: (
            sorted(nt_rows(store)),
            sorted(tt_rowids(store)),
            sorted(cat_rows(store)),
        )
        for node_id, store in storage.nodes.items()
    }


def assert_counts_match_arrays(storage):
    """The decode-free counts are the lengths of the arrays the merger
    left behind, and those arrays are read-only."""
    for store in storage.nodes.values():
        for count, array in (
            (store.nt_count, store.nt_matrix()),
            (store.tt_count, store.tt_array()),
            (store.cat_count, store.cat_matrix()),
        ):
            assert count == len(array)
            assert not array.flags.writeable


def assert_same_answers(schema, flat, maintained, rebuilt, probe_row):
    """Node / slice / roll-up / iceberg answers equal a from-scratch cube."""
    table_a, storage_a = maintained
    table_b, storage_b = rebuilt
    cache_a = FactCache(schema, table=table_a)
    cache_b = FactCache(schema, table=table_b)
    nodes = list(
        schema.lattice.flat_nodes() if flat else schema.lattice.nodes()
    )
    for node in nodes:
        label = node.label(schema.dimensions)
        assert normalize_answer(
            answer_cure_query(storage_a, cache_a, node)
        ) == normalize_answer(answer_cure_query(storage_b, cache_b, node)), label
        assert normalize_answer(
            iceberg_over_cure(storage_a, cache_a, node, 2)
        ) == normalize_answer(
            iceberg_over_cure(storage_b, cache_b, node, 2)
        ), label
        grouping = node.grouping_dims(schema.dimensions)
        if grouping:
            dim = grouping[0]
            level = node.levels[dim]
            member = schema.dimensions[dim].code_at(probe_row[dim], level)
            slices = [DimensionSlice.of(dim, level, {member})]
            assert normalize_answer(
                answer_cure_sliced(storage_a, cache_a, node, slices)
            ) == normalize_answer(
                answer_cure_sliced(storage_b, cache_b, node, slices)
            ), label
    for node in schema.lattice.nodes():
        if flat:
            request = QueryRequest(node)
            rolled_a = CubePlanner(storage_a, cache_a).execute(request)
            rolled_b = CubePlanner(storage_b, cache_b).execute(request)
        else:
            base = base_node_of(schema, node)
            rolled_a = rollup_base_answer(
                schema, answer_cure_query(storage_a, cache_a, base), node
            )
            rolled_b = answer_cure_query(storage_b, cache_b, node)
        assert normalize_answer(rolled_a) == normalize_answer(rolled_b)


def run_differential(schema, flat, base_rows, deltas, cat_format, plus):
    oracle_table, oracle = build(schema, base_rows, flat, cat_format, plus)
    table, storage = build(schema, base_rows, flat, cat_format, plus)
    for delta in deltas:
        expected = apply_delta_by_record(
            oracle, schema, oracle_table, list(delta)
        )
        report = apply_delta(storage, schema, table, list(delta))
        assert dataclasses.asdict(report) == dataclasses.asdict(expected)
        assert rows_of(table) == rows_of(oracle_table)
        assert stored(storage) == stored(oracle)
        assert list(aggregates_rows(storage)) == list(aggregates_rows(oracle))
        assert storage.update_drift_bytes == oracle.update_drift_bytes
        assert storage.size_report() == oracle.size_report()
        assert storage.fact_row_count == oracle.fact_row_count
        assert storage.plus_processed == plus
        assert_keys_kept(storage, schema, table)
        assert_counts_match_arrays(storage)
        if plus:
            assert_rowid_order(storage)
    if deltas:
        rebuilt = build(schema, rows_of(table), flat, cat_format, plus)
        assert_same_answers(
            schema, flat, (table, storage), rebuilt, deltas[-1][0]
        )
    return storage


FORMATS = st.sampled_from([CatFormat.COMMON_SOURCE, CatFormat.COINCIDENTAL])


@pytest.mark.parametrize("shape", sorted(SCHEMAS))
def test_merger_matches_record_oracle(shape):
    schema, flat = SCHEMAS[shape]

    @settings(max_examples=40, deadline=None)
    @given(
        fact_rows(schema, max_size=30),
        st.lists(fact_rows(schema, min_size=1, max_size=8), max_size=3),
        FORMATS,
        st.booleans(),
    )
    def check(base_rows, deltas, cat_format, plus):
        run_differential(schema, flat, base_rows, deltas, cat_format, plus)

    check()


@pytest.mark.parametrize("plus", [False, True])
@pytest.mark.parametrize(
    "cat_format", [CatFormat.COMMON_SOURCE, CatFormat.COINCIDENTAL]
)
def test_named_delta_shapes(cat_format, plus):
    """The shapes the issue names, pinned: a delta that repeats a row
    inside itself, one that lands on a TT stored at the plan root's
    children, one that demotes CATs, then two more on top."""
    schema, flat = SCHEMAS["linear"]
    base = [
        (0, 0, 0, 3), (0, 0, 1, 3),  # share aggregates across nodes: CATs
        (1, 1, 2, 4), (1, 1, 2, 4),
        (5, 3, 2, 1),  # alone in its region: a TT near the root
    ]
    deltas = [
        [(2, 2, 0, 7), (2, 2, 0, 7), (2, 2, 0, -7)],  # in-delta duplicates
        [(5, 3, 2, 9)],  # the root-level TT gains a twin
        [(0, 0, 0, 1), (1, 1, 2, 1)],  # groups stored as CATs
        [(3, 1, 1, 2), (4, 0, 0, 2), (3, 1, 1, 5)],
        [(0, 0, 0, 1)],
    ]
    oracle_table, oracle = build(schema, base, flat, cat_format, plus)
    total = dict(tts_devalued=0, cats_demoted=0, new_tts=0, new_nts=0)
    for delta in deltas:
        report = apply_delta_by_record(oracle, schema, oracle_table, delta)
        for name in total:
            total[name] += getattr(report, name)
        if plus:
            postprocess_plus(oracle)
    assert all(total.values()), total  # every mechanism was exercised
    run_differential(schema, flat, base, deltas, cat_format, plus)

    # Re-rooting: row 4's TT is stored at A2, a child of the plan root.
    # A delta row with its A2 (so A1) and C0 members but another B1
    # member touches that group at A2 and at the plan child A2×C0, not at
    # the sibling A2×B1 — where the TT must now be stored.
    plan = schema.plan_order(flat)
    node_id = {node.levels: node_id for node, node_id, _parent in plan}
    parent = {node.levels: plan[up][0].levels for node, _id, up in plan[1:]}
    a2, a2_b1, a2_c0 = (2, 2, 1), (2, 1, 1), (2, 2, 0)
    assert parent[a2_b1] == parent[a2_c0] == a2
    _table, before = build(schema, base, flat, cat_format, plus)
    assert 4 in tt_rowids(before.node_store(node_id[a2]))
    storage = run_differential(
        schema, flat, base, [[(4, 0, 2, 6)]], cat_format, plus
    )
    assert 4 in tt_rowids(storage.node_store(node_id[a2_b1]))
    assert 4 not in tt_rowids(storage.node_store(node_id[a2]))
    assert 4 not in tt_rowids(storage.node_store(node_id[a2_c0]))


def test_update_of_empty_cube_matches_oracle():
    schema, flat = SCHEMAS["complex"]
    run_differential(
        schema, flat, [], [[(0, 0, 1), (0, 0, 2), (4, 7, 3)], [(4, 7, 3)]],
        CatFormat.COINCIDENTAL, False,
    )


def test_wide_lattice_rerank_keeps_membership(monkeypatch):
    """A key span past 62 bits re-ranks densely instead of overflowing."""
    import repro.core.segments as segments

    monkeypatch.setattr(segments, "_KEY_SPAN_LIMIT", 8)
    schema, flat = SCHEMAS["linear"]
    base = [(a % 6, a % 4, a % 3, a) for a in range(20)]
    deltas = [[(0, 0, 0, 1), (5, 3, 2, 2), (0, 0, 0, 3)], [(2, 1, 1, 4)]]
    run_differential(schema, flat, base, deltas, CatFormat.COMMON_SOURCE, True)


def test_colliding_group_keys_still_match_exactly(monkeypatch):
    """With every group key equal — each probe pairs with every delta
    group — the checks against positions and codes still find exactly
    the oracle's groups."""
    real = incremental._KeySpace.keys
    monkeypatch.setattr(
        incremental._KeySpace,
        "keys",
        lambda self, columns, rowids, positions: real(self, columns, rowids, positions) & np.uint64(0),
    )
    schema, flat = SCHEMAS["linear"]
    base = [(a % 6, a % 4, a % 3, a) for a in range(30)]
    deltas = [[(0, 0, 0, 1), (5, 3, 2, 2), (0, 0, 0, 3)], [(2, 1, 1, 4), (1, 1, 1, 1)]]
    for cat_format in (CatFormat.COMMON_SOURCE, CatFormat.COINCIDENTAL):
        run_differential(schema, flat, base, deltas, cat_format, True)


def test_a_relation_replaced_elsewhere_is_keyed_again():
    """The CURE+ pass replacing a relation the merger keyed makes the
    kept keys stale; the next delta keys the cube again, exactly."""
    schema, flat = SCHEMAS["linear"]
    base = [(a % 6, a % 4, a % 3, a) for a in range(30)]
    table, storage = build(schema, base, flat, CatFormat.COINCIDENTAL, False)
    apply_delta(storage, schema, table, [(0, 0, 0, 1), (5, 3, 2, 2)])
    kept = storage.keyed_relations
    postprocess_plus(storage)  # a CURE cube's relations are out of order
    plan = schema.plan_order(flat)
    stores = [storage.node_store(node_id) for _node, node_id, _parent in plan]
    assert not kept.holds(incremental._relations(stores))
    apply_delta(storage, schema, table, [(2, 1, 1, 4)])
    assert storage.keyed_relations is not kept
    assert_keys_kept(storage, schema, table)
