"""Unit tests for the segmented-reduction kernels: ``aggregate_ufuncs``
and the per-segment oracle ``reduce_segments``."""

import numpy as np
import pytest

from repro.core.segments import aggregate_ufuncs
from repro.core.workingset import WorkingSet
from repro.relational.aggregates import AggregateSpec, MedianAgg
from tests.support.recursive_baselines import level_keys, reduce_segments
from tests.support.rows import table_of


@pytest.fixture
def working(paper_schema):
    table = table_of(
        paper_schema.fact_schema,
        [
            (0, 0, 0, 10),
            (1, 0, 0, 20),
            (0, 1, 0, 30),
            (1, 1, 0, 40),
            (0, 0, 0, 50),
        ],
    )
    return WorkingSet.from_fact_table(paper_schema, table)


def test_reduce_segments_matches_manual(paper_schema, working):
    positions = np.arange(5, dtype=np.intp)
    keys = level_keys(working, 0, 0, positions)  # A base codes: 0,1,0,1,0
    ufuncs = aggregate_ufuncs(paper_schema)
    batch = reduce_segments(working, positions, keys, ufuncs)
    assert batch.keys == [0, 1]
    assert batch.weights == [3, 2]
    assert batch.rowids == [0, 1]
    assert batch.aggregates == [(90, 3), (60, 2)]
    assert sorted(batch.positions_of(0).tolist()) == [0, 2, 4]
    assert sorted(batch.positions_of(1).tolist()) == [1, 3]


def test_reduce_segments_respects_position_subset(paper_schema, working):
    positions = np.array([2, 3], dtype=np.intp)
    keys = level_keys(working, 1, 0, positions)  # B codes: 1, 1
    ufuncs = aggregate_ufuncs(paper_schema)
    batch = reduce_segments(working, positions, keys, ufuncs)
    assert len(batch) == 1
    assert batch.aggregates == [(70, 2)]


def test_reduce_segments_singleton_and_empty(paper_schema, working):
    ufuncs = aggregate_ufuncs(paper_schema)
    single = reduce_segments(
        working,
        np.array([4], dtype=np.intp),
        np.array([7]),
        ufuncs,
    )
    assert single.keys == [7]
    assert single.aggregates == [(50, 1)]
    empty = reduce_segments(
        working,
        np.array([], dtype=np.intp),
        np.array([], dtype=np.int64),
        ufuncs,
    )
    assert len(empty) == 0


def test_aggregate_ufuncs_rejects_holistic(paper_schema):
    from repro import CubeSchema

    schema = CubeSchema(
        paper_schema.dimensions, (AggregateSpec(MedianAgg(), 0),), 1
    )
    with pytest.raises(ValueError, match="distributive"):
        aggregate_ufuncs(schema)
