"""Unit tests for CubeSchema."""

import pytest

from repro import CubeSchema, flat_dimension, linear_dimension, make_aggregates
from repro.lattice.node import CubeNode
from repro.relational.schema import ColumnType


def test_fact_schema_layout(paper_schema):
    fact = paper_schema.fact_schema
    assert fact.names == ("d_A", "d_B", "d_C", "m_0")
    assert fact.column("d_A").type is ColumnType.INT32
    assert fact.column("m_0").type is ColumnType.INT64


def test_partition_schema_appends_rowid(paper_schema):
    assert paper_schema.partition_schema.names[-1] == "r_rowid"


def test_dim_values_and_measures(paper_schema):
    row = (1, 2, 3, 99)
    assert paper_schema.dim_values(row) == (1, 2, 3)
    assert paper_schema.measures(row) == (99,)


def test_validation_rejects_bad_measure_index():
    dims = (flat_dimension("A", 2),)
    with pytest.raises(ValueError, match="references measure"):
        CubeSchema(dims, make_aggregates(("sum", 1)), n_measures=1)


def test_validation_rejects_empty():
    dims = (flat_dimension("A", 2),)
    aggs = make_aggregates(("sum", 0))
    with pytest.raises(ValueError):
        CubeSchema((), aggs)
    with pytest.raises(ValueError):
        CubeSchema(dims, ())
    with pytest.raises(ValueError):
        CubeSchema(dims, aggs, n_measures=0)


def test_project_to_node(paper_schema):
    # Base codes: A=7, B=5, C=2.  Node A1 × B.ALL × C0.
    node = CubeNode((1, 2, 0))
    a = paper_schema.dimensions[0]
    projected = paper_schema.project_to_node((7, 5, 2), node)
    assert projected == (a.code_at(7, 1), 2)


def test_count_aggregate_index(paper_schema):
    assert paper_schema.count_aggregate_index() == 1
    dims = (flat_dimension("A", 2),)
    no_count = CubeSchema(dims, make_aggregates(("sum", 0)))
    assert no_count.count_aggregate_index() is None


def test_all_distributive(paper_schema):
    assert paper_schema.all_distributive
    from repro.relational.aggregates import AggregateSpec, MedianAgg

    dims = (flat_dimension("A", 2),)
    schema = CubeSchema(dims, (AggregateSpec(MedianAgg(), 0),))
    assert not schema.all_distributive


def test_node_id_roundtrip(paper_schema):
    node = CubeNode((2, 1, 0))
    assert paper_schema.decode_node(paper_schema.node_id(node)) == node
