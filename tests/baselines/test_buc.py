"""Unit tests for the BUC baseline."""

import pytest

from repro.baselines.buc import build_buc_cube
from repro.datasets import generate_flat_dataset
from repro.lattice.node import CubeNode
from repro.query import answer_buc_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.support.rows import rows_of, table_of


def test_full_cube_every_node_correct(flat_schema, figure9_table):
    cube, _stats = build_buc_cube(flat_schema, figure9_table)
    for node in flat_schema.lattice.nodes():
        expected = reference_group_by(flat_schema, rows_of(figure9_table), node)
        got = normalize_answer(answer_buc_query(cube, node))
        assert got == expected


def test_total_tuples_is_full_cube_size(flat_schema, figure9_table):
    cube, _stats = build_buc_cube(flat_schema, figure9_table)
    expected = sum(
        len(reference_group_by(flat_schema, rows_of(figure9_table), node))
        for node in flat_schema.lattice.nodes()
    )
    assert cube.total_tuples == expected


def test_no_redundancy_elimination(flat_schema, figure9_table):
    """BUC materializes every node tuple; CURE's TT count shows how much
    of that is redundant."""
    from repro import build_cube

    buc, _stats = build_buc_cube(flat_schema, figure9_table)
    cure = build_cube(flat_schema, table=figure9_table)
    report = cure.storage.size_report()
    assert buc.total_tuples > report.n_nt + report.n_tt + report.n_cat


def test_analytic_mode_counts_match_materialized(flat_schema, figure9_table):
    for schema, table in [
        (flat_schema, figure9_table),
        generate_flat_dataset(4, 2000, zipf=0.0, seed=3),
    ]:
        materialized, stats = build_buc_cube(schema, table)
        analytic, analytic_stats = build_buc_cube(
            schema, table, materialize=False
        )
        assert analytic.total_tuples == materialized.total_tuples
        assert analytic.size_report_bytes() == materialized.size_report_bytes()
        # Both modes do, and count, the same work.
        analytic_stats.elapsed_seconds = stats.elapsed_seconds
        assert analytic_stats == stats
        assert stats.nodes_aggregated == stats.tuples_written


def test_analytic_mode_cannot_be_queried(flat_schema, figure9_table):
    cube, _stats = build_buc_cube(flat_schema, figure9_table, materialize=False)
    with pytest.raises(ValueError, match="analytically"):
        answer_buc_query(cube, CubeNode((0, 1, 1)))


def test_iceberg_min_count_prunes(flat_schema):
    rows = [(0, 0, 0, 5)] * 3 + [(1, 1, 1, 7)]
    table = table_of(flat_schema.fact_schema, rows)
    cube, _stats = build_buc_cube(flat_schema, table, min_count=2)
    # Every node survives with exactly one group: the (0,0,0) triple —
    # except ∅, whose single group covers all four tuples (sum 22).
    assert cube.total_tuples == 8
    all_node_id = flat_schema.node_id(flat_schema.lattice.all_node)
    for node_id, rows_ in cube.nodes.items():
        expected_sum = 22 if node_id == all_node_id else 15
        assert [row[-1] for row in rows_] == [expected_sum]


def test_empty_table(flat_schema):
    cube, _stats = build_buc_cube(flat_schema, table_of(flat_schema.fact_schema, []))
    assert cube.total_tuples == 0


def test_stats_reasonable(flat_schema, figure9_table):
    cube, stats = build_buc_cube(flat_schema, figure9_table)
    assert stats.tuples_written == cube.total_tuples
    assert stats.elapsed_seconds > 0
    assert stats.sort.keys_sorted > 0
