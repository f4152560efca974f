"""Unit tests for the BU-BST baseline."""

import pytest

from repro.baselines.bubst import ALL_MARKER, build_bubst_cube
from repro.baselines.buc import build_buc_cube
from repro.query import answer_bubst_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.support.rows import rows_of, table_of


def test_every_node_correct(flat_schema, figure9_table):
    cube, _stats = build_bubst_cube(flat_schema, figure9_table)
    for node in flat_schema.lattice.nodes():
        expected = reference_group_by(flat_schema, rows_of(figure9_table), node)
        got = normalize_answer(answer_bubst_query(cube, node))
        assert got == expected


def test_bsts_stored_once_per_plan_subtree(flat_schema, figure9_table):
    """Tuple <2,2,3,40> is a BST: within the A-rooted plan sub-tree it is
    stored exactly once, at node A (the least detailed node), and shared
    with AB/AC/ABC.  A separate copy may exist in *other* sub-trees (here
    it is also singleton at BC), which is how the sharing works."""
    cube, _stats = build_bubst_cube(flat_schema, figure9_table)
    dims = flat_schema.dimensions
    bst_rows = cube.rows[(cube.rows[:, 1] == 1) & (cube.rows[:, 2] == 1)]
    labels = sorted(
        flat_schema.decode_node(node_id).label(dims)
        for node_id in bst_rows[:, 0].tolist()
    )
    assert labels == ["A.A", "B.B×C.C"]
    # No copy anywhere in A's sub-tree below A itself.
    a_subtree = {"A.A×B.B", "A.A×C.C", "A.A×B.B×C.C"}
    assert not a_subtree & set(labels)


def test_condensed_smaller_than_buc(flat_schema, figure9_table):
    bubst, _s = build_bubst_cube(flat_schema, figure9_table)
    buc, _s = build_buc_cube(flat_schema, figure9_table)
    assert bubst.total_tuples < buc.total_tuples


def test_monolithic_rows_carry_all_markers(flat_schema, figure9_table):
    cube, _stats = build_bubst_cube(flat_schema, figure9_table)
    d_count = flat_schema.n_dimensions
    assert cube.rows.shape[1] == 2 + d_count + flat_schema.n_aggregates
    for node_id, is_bst, *row_dims in cube.rows[:, : 2 + d_count].tolist():
        if not is_bst:
            node = flat_schema.decode_node(node_id)
            grouping = set(node.grouping_dims(flat_schema.dimensions))
            for d, value in enumerate(row_dims):
                if d in grouping:
                    assert value != ALL_MARKER
                else:
                    assert value == ALL_MARKER


def test_size_model_fixed_width(flat_schema, figure9_table):
    cube, _stats = build_bubst_cube(flat_schema, figure9_table)
    width = (flat_schema.n_dimensions + flat_schema.n_aggregates) * 4
    assert cube.size_report_bytes() == cube.total_tuples * width


def test_no_duplicates_when_data_dense(flat_schema):
    rows = [(0, 0, 0, 5)] * 4 + [(1, 1, 1, 2)] * 3
    table = table_of(flat_schema.fact_schema, rows)
    cube, stats = build_bubst_cube(flat_schema, table)
    assert stats.bst_written == 0
    for node in flat_schema.lattice.nodes():
        expected = reference_group_by(flat_schema, rows_of(table), node)
        got = normalize_answer(answer_bubst_query(cube, node))
        assert got == expected


def test_empty_table(flat_schema):
    cube, _stats = build_bubst_cube(
        flat_schema, table_of(flat_schema.fact_schema, [])
    )
    assert cube.total_tuples == 0
