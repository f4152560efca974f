"""Property tests: the CSR inverted index vs a naive reference.

The array-backed :class:`~repro.relational.index.InvertedIndex` must be
observationally equivalent to a dict-of-lists reference on randomized
columns — postings, member-set unions, range scans and membership
tests — including the degenerate columns the CSR
layout could plausibly get wrong: cardinality 1, the empty table, and
every row carrying the same member.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.relational.index import InvertedIndex


class NaiveIndex:
    """Dict-of-lists reference with the same clamping semantics."""

    def __init__(self, codes: list[int], cardinality: int) -> None:
        self.cardinality = cardinality
        self.postings: dict[int, list[int]] = {}
        for rowid, code in enumerate(codes):
            self.postings.setdefault(code, []).append(rowid)

    def rowids_for(self, code: int) -> list[int]:
        if not 0 <= code < self.cardinality:
            return []
        return self.postings.get(code, [])

    def rowids_for_members(self, codes) -> list[int]:
        merged: set[int] = set()
        for code in codes:
            merged.update(self.rowids_for(code))
        return sorted(merged)

    def rowids_in_range(self, lo: int, hi: int) -> list[int]:
        lo, hi = max(lo, 0), min(hi, self.cardinality - 1)
        return self.rowids_for_members(range(lo, hi + 1))

    def contains(self, code: int, rowid: int) -> bool:
        return rowid in self.rowids_for(code)

    def count(self, code: int) -> int:
        return len(self.rowids_for(code))


@st.composite
def columns(draw):
    cardinality = draw(st.integers(1, 8))
    codes = draw(
        st.lists(st.integers(0, cardinality - 1), min_size=0, max_size=60)
    )
    return codes, cardinality


@settings(max_examples=100, deadline=None)
@example(([], 1))  # empty table
@example(([0, 0, 0, 0], 1))  # cardinality 1
@example(([3, 3, 3], 5))  # all rows on one member, others empty
@given(columns())
def test_postings_match_reference(case):
    codes, cardinality = case
    index = InvertedIndex.build(codes, cardinality)
    naive = NaiveIndex(codes, cardinality)
    assert index.row_count == len(codes)
    for code in range(-2, cardinality + 2):
        assert index.rowids_for(code).tolist() == naive.rowids_for(code)
        assert index.count(code) == naive.count(code)


@settings(max_examples=100, deadline=None)
@example(([], 1), [0], (-1, 2))
@example(([0, 0], 1), [0, 0, 5], (0, 0))
@given(
    columns(),
    st.lists(st.integers(-2, 9), max_size=10),
    st.tuples(st.integers(-3, 10), st.integers(-3, 10)),
)
def test_member_sets_and_ranges_match_reference(case, members, bounds):
    codes, cardinality = case
    index = InvertedIndex.build(codes, cardinality)
    naive = NaiveIndex(codes, cardinality)
    assert (
        index.rowids_for_members(members).tolist()
        == naive.rowids_for_members(members)
    )
    lo, hi = bounds
    assert index.rowids_in_range(lo, hi).tolist() == naive.rowids_in_range(
        lo, hi
    )


@settings(max_examples=100, deadline=None)
@given(columns(), st.integers(-2, 9), st.integers(-1, 70))
def test_contains_matches_reference(case, code, rowid):
    codes, cardinality = case
    index = InvertedIndex.build(codes, cardinality)
    naive = NaiveIndex(codes, cardinality)
    assert index.contains(code, rowid) == naive.contains(code, rowid)

