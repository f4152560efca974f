"""Shared conformance contract for both `InvertedIndex` implementations.

Satellite 1 of the v2 work: the mapped index (CSR arrays reconstructed
from ``index/<d>/*`` sections) must reproduce the *exact* edge semantics
of the in-memory build — ``rowids_in_range`` clamps its bounds into
``[0, cardinality)`` while member lookups treat out-of-range codes as
empty postings.  Every test below runs over both implementations via the
``indexes`` fixture, so any future drift between the two fails here
before it can skew an indexed query plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational.index import InvertedIndex


@pytest.fixture(params=["in-memory", "v2-mapped"])
def indexes(request, dual_bundles):
    """Dimension → index, built both ways over the *same* fact column."""
    built, v2 = dual_bundles["CURE"]
    schema = built.schema
    if request.param == "in-memory":
        batch = built.fact.as_batch()
        return {
            d: InvertedIndex.build(
                batch.arrays[d], schema.dimensions[d].base_cardinality
            )
            for d in range(len(schema.dimensions))
        }
    return {d: v2.v2.indices[d] for d in range(len(schema.dimensions))}


def test_mapped_index_is_a_real_inverted_index(indexes):
    for index in indexes.values():
        assert isinstance(index, InvertedIndex)


def test_postings_cover_every_row_exactly_once(indexes, dual_bundles):
    built, _ = dual_bundles["CURE"]
    n = built.fact_row_count
    for index in indexes.values():
        assert index.row_count == n
        full = index.rowids_in_range(0, index.cardinality - 1)
        assert full.tolist() == list(range(n))


def test_range_clamping(indexes):
    for index in indexes.values():
        card = index.cardinality
        everything = index.rowids_in_range(0, card - 1).tolist()
        # Out-of-range bounds clamp rather than error or over-read.
        assert index.rowids_in_range(-5, card + 5).tolist() == everything
        assert index.rowids_in_range(-100, card - 1).tolist() == everything
        assert (
            index.rowids_in_range(1, 10**9).tolist()
            == index.rowids_in_range(1, card - 1).tolist()
        )
        # Inverted and fully-out-of-range windows are empty.
        assert len(index.rowids_in_range(2, 1)) == 0
        assert len(index.rowids_in_range(card, card + 3)) == 0
        assert len(index.rowids_in_range(-7, -1)) == 0


def test_out_of_range_members_are_empty_postings(indexes):
    for index in indexes.values():
        card = index.cardinality
        for code in (-1, card, card + 17):
            assert len(index.rowids_for(code)) == 0
            assert index.count(code) == 0
            assert not index.contains(code, 0)
        # Mixed member sets silently drop the invalid codes.
        assert (
            index.rowids_for_members([-1, 0, card]).tolist()
            == index.rowids_for(0).tolist()
        )
        assert len(index.rowids_for_members([-2, card + 1])) == 0


def test_both_implementations_post_identical_rowids(dual_bundles):
    built, v2 = dual_bundles["CURE"]
    schema = built.schema
    batch = built.fact.as_batch()
    for d in range(len(schema.dimensions)):
        built = InvertedIndex.build(
            batch.arrays[d], schema.dimensions[d].base_cardinality
        )
        mapped = v2.v2.indices[d]
        assert mapped.cardinality == built.cardinality
        assert np.array_equal(mapped.offsets, built.offsets)
        assert np.array_equal(mapped.rowids, built.rowids)
        for code in range(built.cardinality):
            assert (
                mapped.rowids_for(code).tolist()
                == built.rowids_for(code).tolist()
            )
