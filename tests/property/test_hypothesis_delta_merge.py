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
import pytest
from hypothesis import given, settings

from repro import (
    CubeSchema,
    Table,
    build_cube,
    complex_dimension,
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.core.incremental import apply_delta
from repro.core.postprocess import postprocess_plus
from repro.core.storage import CatFormat
from repro.query import (
    DimensionSlice,
    FactCache,
    answer_cure_query,
    answer_cure_sliced,
    answer_rollup_from_flat,
    iceberg_over_cure,
    rollup_base_answer,
)
from repro.query.answer import normalize_answer
from repro.query.rollup import base_node_of
from tests.support.record_merger import apply_delta_by_record
from tests.support.rows import aggregates_rows, cat_rows, nt_rows, tt_rowids

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
    table = Table(schema.fact_schema, list(rows))
    with mock.patch(
        "repro.core.storage.choose_cat_format", lambda _stats, _y: cat_format
    ):
        storage = build_cube(schema, table=table, flat=flat).storage
    if plus:
        postprocess_plus(storage)
    return table, storage


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
            rolled_a = answer_rollup_from_flat(storage_a, cache_a, node)
            rolled_b = answer_rollup_from_flat(storage_b, cache_b, node)
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
        assert table.to_rows() == oracle_table.to_rows()
        assert stored(storage) == stored(oracle)
        assert list(aggregates_rows(storage)) == list(aggregates_rows(oracle))
        assert storage.update_drift_bytes == oracle.update_drift_bytes
        assert storage.size_report() == oracle.size_report()
        assert storage.fact_row_count == oracle.fact_row_count
        assert not storage.plus_processed
        assert_counts_match_arrays(storage)
        if plus:
            postprocess_plus(oracle)
            postprocess_plus(storage)
            assert stored(storage) == stored(oracle)
            assert storage.size_report() == oracle.size_report()
    if deltas:
        rebuilt = build(schema, table.to_rows(), flat, cat_format, plus)
        assert_same_answers(
            schema, flat, (table, storage), rebuilt, deltas[-1][0]
        )


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
