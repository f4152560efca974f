"""Unit tests for the CSR-backed fact-table inverted index."""

import numpy as np
import pytest

from repro.relational.index import InvertedIndex

CODES = [2, 0, 1, 2, 0, 2]


@pytest.fixture
def index() -> InvertedIndex:
    return InvertedIndex.build(CODES, cardinality=3)


def test_postings_sorted_and_complete(index):
    assert index.rowids_for(0).tolist() == [1, 4]
    assert index.rowids_for(1).tolist() == [2]
    assert index.rowids_for(2).tolist() == [0, 3, 5]


def test_csr_layout(index):
    assert index.offsets.tolist() == [0, 2, 3, 6]
    assert index.row_count == len(CODES)
    # rowids are grouped by code, ascending within each group.
    assert index.rowids.tolist() == [1, 4, 2, 0, 3, 5]


def test_out_of_range_member_clamps_to_empty(index):
    # Satellite: rowids_for used to raise IndexError while rowids_in_range
    # clamped; lookups now uniformly treat out-of-range codes as empty.
    assert index.rowids_for(3).tolist() == []
    assert index.rowids_for(-1).tolist() == []
    assert index.count(3) == 0
    assert index.count(-1) == 0
    assert not index.contains(3, 0)
    assert index.rowids_for_members([-2, 7]).tolist() == []


def test_build_rejects_out_of_range_codes():
    # Build stays strict: a row that cannot be posted anywhere would
    # silently vanish from every index-assisted answer.
    with pytest.raises(ValueError):
        InvertedIndex.build([0, 3], cardinality=3)
    with pytest.raises(ValueError):
        InvertedIndex.build([-1], cardinality=3)


def test_rowids_for_members_merges_sorted(index):
    assert index.rowids_for_members([0, 2]).tolist() == [0, 1, 3, 4, 5]
    assert index.rowids_for_members([]).tolist() == []
    assert index.rowids_for_members([1, 1, 7]).tolist() == [2]


def test_contains(index):
    assert index.contains(0, 4)
    assert not index.contains(0, 3)


def test_count(index):
    assert index.count(2) == 3


def test_rowids_in_range(index):
    assert index.rowids_in_range(1, 2).tolist() == [0, 2, 3, 5]
    assert index.rowids_in_range(2, 1).tolist() == []
    assert index.rowids_in_range(-5, 99).tolist() == sorted(range(6))


def test_rowids_in_range_empty_postings():
    index = InvertedIndex.build([0, 0, 3], cardinality=5)
    assert index.rowids_in_range(1, 2).tolist() == []
    assert index.rowids_in_range(4, 4).tolist() == []
    assert index.rowids_in_range(2, 3).tolist() == [2]


def test_empty_build():
    index = InvertedIndex.build([], cardinality=2)
    assert index.rowids_for(0).tolist() == []
    assert index.rowids_in_range(0, 1).tolist() == []
    assert index.size_bytes == 0


def test_size_bytes(index):
    assert index.size_bytes == 4 * len(CODES)


def test_cardinality_validation():
    with pytest.raises(ValueError):
        InvertedIndex(0)


def test_offsets_validation():
    with pytest.raises(ValueError):
        InvertedIndex(2, offsets=np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        InvertedIndex(
            1,
            offsets=np.array([0, 3], dtype=np.int64),
            rowids=np.array([1], dtype=np.int64),
        )

