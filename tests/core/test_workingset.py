"""Unit tests for the columnar WorkingSet."""

import numpy as np
import pytest

from repro.core.workingset import WorkingSet
from tests.support.recursive_baselines import (
    aggregate,
    level_keys,
    min_rowid,
    weight_of,
)
from tests.support.rows import table_of


@pytest.fixture
def working(paper_schema) -> WorkingSet:
    table = table_of(
        paper_schema.fact_schema,
        [(0, 0, 0, 10), (3, 1, 2, 20), (7, 5, 4, 30)],
    )
    return WorkingSet.from_fact_table(paper_schema, table)


def test_from_fact_table_shapes(paper_schema, working):
    assert len(working) == 3
    assert len(working.dims) == 3
    assert working.aggs.shape == (3, 2)
    assert working.weights.tolist() == [1, 1, 1]
    assert working.rowids.tolist() == [0, 1, 2]


def test_singleton_aggregates(working):
    # Aggregates are (sum, count): count partials start at 1.
    assert working.aggs[:, 0].tolist() == [10, 20, 30]
    assert working.aggs[:, 1].tolist() == [1, 1, 1]


def test_total_weight_and_empty(paper_schema, working):
    assert working.total_weight == 3
    empty = WorkingSet.empty(paper_schema)
    assert len(empty) == 0
    assert empty.total_weight == 0


def test_level_keys_roll_up(paper_schema, working):
    positions = np.arange(3)
    base = level_keys(working, 0, 0, positions)
    assert base.tolist() == [0, 3, 7]
    a = paper_schema.dimensions[0]
    level1 = level_keys(working, 0, 1, positions)
    assert level1.tolist() == [a.code_at(0, 1), a.code_at(3, 1), a.code_at(7, 1)]


def test_aggregate_and_min_rowid(working):
    positions = np.array([0, 2])
    assert aggregate(working, positions) == (40, 2)
    assert min_rowid(working, positions) == 0
    assert weight_of(working, positions) == 2


def test_from_partition_table_keeps_original_rowids(paper_schema):
    """A mapped partition's trailing ``r_rowid`` field is the row-ids."""
    rows = [(0, 0, 0, 10, 42), (1, 1, 1, 20, 7)]
    records = np.array(rows, dtype=paper_schema.partition_schema.numpy_dtype)
    working = WorkingSet.from_records(paper_schema, records)
    assert working.rowids.tolist() == [42, 7]
    assert working.aggs[:, 0].tolist() == [10, 20]


def test_from_records_numbers_fact_rows_by_position(paper_schema):
    rows = [(0, 0, 0, 10), (3, 1, 2, 20), (7, 5, 4, 30)]
    records = np.array(rows, dtype=paper_schema.fact_schema.numpy_dtype)
    working = WorkingSet.from_records(paper_schema, records)
    expected = WorkingSet.from_fact_table(
        paper_schema, table_of(paper_schema.fact_schema, rows)
    )
    assert working.rowids.tolist() == [0, 1, 2]
    assert [c.tolist() for c in working.dims] == [
        c.tolist() for c in expected.dims
    ]
    assert working.aggs.tolist() == expected.aggs.tolist()


def test_from_coarse_columns_weights_and_partials(paper_schema):
    columns = [
        np.array([0, 1], dtype=np.int32),
        np.array([0, 1], dtype=np.int32),
        np.array([0, 1], dtype=np.int32),
        np.array([100, 50], dtype=np.int64),
        np.array([5, 2], dtype=np.int64),
        np.array([5, 2], dtype=np.int64),
        np.array([10, 20], dtype=np.int64),
    ]
    records = np.rec.fromarrays(columns)
    working = WorkingSet.from_coarse(paper_schema, records)
    assert working.total_weight == 7
    assert working.rowids.tolist() == [10, 20]
    positions = np.arange(2)
    assert aggregate(working, positions) == (150, 7)


def test_validation_errors(paper_schema):
    with pytest.raises(ValueError):
        WorkingSet(
            paper_schema,
            [np.zeros(1, dtype=np.int32)] * 2,  # wrong dim count
            np.zeros((1, 2), dtype=np.int64),
            np.ones(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )
    with pytest.raises(ValueError):
        WorkingSet(
            paper_schema,
            [np.zeros(1, dtype=np.int32)] * 3,
            np.zeros((1, 3), dtype=np.int64),  # wrong agg arity
            np.ones(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )


def test_size_bytes_positive(working):
    assert working.size_bytes == 3 * (4 * 3 + 8 * 4)
