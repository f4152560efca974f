"""Unit tests for signatures and the bounded pool (Section 5.2).

The pool keeps its window as an int64 array and classifies a flush with
one stable lexsort; :class:`tests.support.list_pool.ListSignaturePool` —
the tuple-at-a-time implementation it replaced — is the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_cube
from repro.core.cure import CureBuilder
from repro.core.signature import (
    FormatStatistics,
    Signature,
    SignaturePool,
)
from repro.core.storage import choose_cat_format
from repro.core.workingset import WorkingSet
from repro.lattice.plan import HierarchicalShape
from tests.support.list_pool import ListSignaturePool
from tests.support.rows import table_of


class Collector:
    """Records flushes, and unrolls them the way the list pool emits."""

    def __init__(self):
        self.flushes: list[tuple[np.ndarray, np.ndarray]] = []
        self.statistics: list[FormatStatistics] = []

    def pool(self, capacity):
        return SignaturePool(
            capacity,
            on_flush=lambda rows, lengths: self.flushes.append((rows, lengths)),
            on_statistics=self.statistics.append,
        )

    @property
    def emitted(self) -> list[tuple]:
        out = []
        for rows, lengths in self.flushes:
            signatures = [
                Signature(tuple(row[2:]), row[1], row[0])
                for row in rows.tolist()
            ]
            start = 0
            for length in lengths.tolist():
                run = signatures[start : start + length]
                out.append(("nt", run[0]) if length == 1 else ("cats", run))
                start += length
        return out

    @property
    def nts(self) -> list[Signature]:
        return [item for kind, item in self.emitted if kind == "nt"]

    @property
    def runs(self) -> list[list[Signature]]:
        return [item for kind, item in self.emitted if kind == "cats"]


def sig(aggs, rowid=0, node=0) -> Signature:
    return Signature(tuple(aggs), rowid, node)


def as_rows(signatures) -> np.ndarray:
    width = 2 + len(signatures[0].aggregates)
    return np.asarray(
        [(s.node_id, s.rowid, *s.aggregates) for s in signatures],
        dtype=np.int64,
    ).reshape(-1, width)


def test_flush_classifies_singleton_runs_as_nts():
    collector = Collector()
    pool = collector.pool(None)
    pool.add(sig([1], rowid=0, node=3))
    pool.add(sig([2], rowid=1, node=4))
    pool.flush()
    assert len(collector.nts) == 2
    assert collector.runs == []
    assert pool.stats.nt_runs == 2


def test_flush_groups_equal_aggregates_into_cat_runs():
    collector = Collector()
    pool = collector.pool(None)
    pool.add(sig([5, 5], rowid=0, node=1))
    pool.add(sig([5, 5], rowid=0, node=2))
    pool.add(sig([5, 5], rowid=9, node=3))
    pool.add(sig([7, 7], rowid=4, node=4))
    pool.flush()
    assert collector.nts == [sig([7, 7], rowid=4, node=4)]
    (run,) = collector.runs
    assert [s.node_id for s in run] == [1, 2, 3]
    assert pool.stats.cat_runs == 1
    assert pool.stats.cat_signatures == 3
    statistics = pool.first_flush_statistics
    assert (statistics.m, statistics.total_cats) == (1, 3)
    assert statistics.total_sources == 2  # rowids {0, 9}


def test_sort_is_by_aggregates_then_rowid_not_arrival():
    collector = Collector()
    pool = collector.pool(None)
    pool.add_batch(
        as_rows(
            [
                sig([2, 1], rowid=0, node=0),
                sig([1, 9], rowid=5, node=1),
                sig([1, 9], rowid=2, node=2),
                sig([1, 3], rowid=8, node=3),
                sig([-4, 0], rowid=1, node=4),
            ]
        )
    )
    pool.flush()
    (rows, lengths) = collector.flushes[0]
    assert rows[:, 0].tolist() == [4, 3, 2, 1, 0]
    assert lengths.tolist() == [1, 1, 2, 1]


def test_ties_on_aggregates_and_rowid_keep_arrival_order():
    collector = Collector()
    pool = collector.pool(None)
    # Same aggregates, same source, from nodes 7, 3, 5, 1 in that order:
    # the sort must not reorder them (format (a) shares one AGGREGATES row
    # and appends the CATs node by node in arrival order).
    pool.add_batch(as_rows([sig([4], 6, node) for node in (7, 3)]))
    pool.add(sig([4], 6, 5))
    pool.add_batch(as_rows([sig([4], 6, 1), sig([4], 2, 9)]))
    pool.flush()
    (run,) = collector.runs
    assert [s.node_id for s in run] == [9, 7, 3, 5, 1]


def test_statistics_reported_before_first_flush_is_handed_over():
    order: list[str] = []
    pool = SignaturePool(
        None,
        on_flush=lambda rows, lengths: order.append("flush"),
        on_statistics=lambda st: order.append("stats"),
    )
    pool.add(sig([1], rowid=0, node=0))
    pool.add(sig([1], rowid=0, node=1))
    pool.flush()
    assert order == ["stats", "flush"]


def test_statistics_computed_once():
    collector = Collector()
    pool = collector.pool(2)
    for i in range(6):
        pool.add(sig([i], rowid=i, node=0))
    pool.flush()
    assert len(collector.statistics) == 1
    assert pool.stats.flushes == 3


def test_bounded_pool_flushes_before_overflow():
    collector = Collector()
    pool = collector.pool(3)
    for i in range(10):
        pool.add(sig([i], rowid=i, node=0))
        assert len(pool) <= 3
    pool.flush()
    assert len(collector.nts) == 10
    assert [len(rows) for rows, _ in collector.flushes] == [3, 3, 3, 1]


def test_full_pool_waits_for_the_next_signature():
    """Lines 6–7 of ExecutePlan: the fullness check precedes the insert,
    so ending a batch exactly at capacity does not flush."""
    collector = Collector()
    pool = collector.pool(4)
    pool.add_batch(as_rows([sig([i], i) for i in range(4)]))
    assert pool.full and collector.flushes == []
    pool.add_batch(np.empty((0, 3), dtype=np.int64))
    assert collector.flushes == []
    pool.add(sig([9], 9))
    assert [len(rows) for rows, _ in collector.flushes] == [4]
    assert len(pool) == 1


def test_window_boundary_inside_a_would_be_cat_run_yields_two_nts():
    """The Figure 18 effect: a tiny pool stores repeated aggregates as NTs."""
    collector = Collector()
    pool = collector.pool(2)
    # Two pairs with equal aggregates, interleaved so no flush sees a pair.
    stream = [sig([1], 0, 0), sig([2], 1, 0), sig([1], 0, 1), sig([2], 1, 1)]
    pool.add_batch(as_rows(stream))
    pool.flush()
    assert len(collector.nts) == 4
    assert collector.runs == []

    unbounded = Collector()
    pool = unbounded.pool(None)
    pool.add_batch(as_rows(stream))
    pool.flush()
    assert len(unbounded.runs) == 2


def test_single_and_batch_adds_interleave_around_a_capacity_boundary():
    stream = [sig([i % 3, i % 2], rowid=i % 4, node=i) for i in range(23)]
    reference = ListSignaturePool(5)
    for signature in stream:
        reference.add(signature)
    reference.flush()

    collector = Collector()
    pool = collector.pool(5)
    pool.add(stream[0])
    pool.add_batch(as_rows(stream[1:4]))  # 4 resident
    pool.add_batch(as_rows(stream[4:12]))  # crosses the boundary twice
    pool.add(stream[12])
    pool.add(stream[13])
    pool.add_batch(as_rows(stream[14:15]))  # lands exactly on capacity
    pool.add_batch(as_rows(stream[15:]))
    pool.flush()
    assert collector.emitted == reference.emitted
    assert [len(rows) for rows, _ in collector.flushes] == reference.windows
    assert pool.stats.signatures_added == len(stream)
    assert pool.stats.flushes == len(reference.windows)


def test_flush_empty_pool_is_noop():
    collector = Collector()
    pool = collector.pool(None)
    pool.flush()
    assert pool.stats.flushes == 0
    assert collector.flushes == []


def any_boundary_flush(rows: np.ndarray, n_aggregates):
    """A flush by definition: rows stably sorted by (aggregates…, rowid),
    a run wherever any aggregate column changes."""
    stop = None if n_aggregates is None else 2 + n_aggregates
    aggregates = rows[:, 2:stop]
    rows = rows[np.lexsort((rows[:, 1], *aggregates.T[::-1]))]
    aggregates = rows[:, 2:stop]
    new_run = np.ones(len(rows), dtype=np.bool_)
    new_run[1:] = (aggregates[1:] != aggregates[:-1]).any(axis=1)
    return rows, np.diff(np.flatnonzero(new_run), append=len(rows))


BOUNDARY_CASES = {
    # (node, rowid, aggregates…[, codes…]) rows, n_aggregates
    "one aggregate": (
        [(0, 3, 5), (1, 1, 5), (2, 0, 4), (3, 2, 5), (4, 9, -1)],
        1,
    ),
    "ties in a prefix only": (
        [(0, 0, 1, 1, 7), (1, 1, 1, 1, 8), (2, 2, 1, 2, 7), (3, 3, 1, 1, 7),
         (4, 4, 2, 1, 7), (5, 5, 1, 1, 8)],
        3,
    ),
    "DR codes differ inside a run": (
        [(0, 4, 6, 2, 11, 0), (1, 4, 6, 2, 12, 3), (2, 1, 6, 2, 13, 1),
         (3, 0, 5, 2, 11, 0), (4, 7, 6, 3, 11, 0)],
        2,
    ),
    "every column a key": (
        [(0, 4, 6, 2, 11), (1, 4, 6, 2, 12), (2, 1, 6, 2, 11), (3, 0, 6, 2, 11)],
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_run_boundaries_are_a_change_in_any_aggregate_column(case):
    data, n_aggregates = BOUNDARY_CASES[case]
    rows = np.asarray(data, dtype=np.int64)
    flushes = []
    pool = SignaturePool(
        None,
        on_flush=lambda rows, lengths: flushes.append((rows, lengths)),
        n_aggregates=n_aggregates,
    )
    pool.add_batch(rows)
    pool.flush()
    ((got_rows, got_lengths),) = flushes
    want_rows, want_lengths = any_boundary_flush(rows, n_aggregates)
    assert np.array_equal(got_rows, want_rows)
    assert np.array_equal(got_lengths, want_lengths)
    assert got_lengths.dtype == want_lengths.dtype
    # An empty flush hands nothing over.
    pool.add_batch(rows[:0])
    pool.flush()
    assert len(flushes) == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        SignaturePool(0, on_flush=lambda rows, lengths: None)


# -- against the list implementation ---------------------------------------------


def assert_same_as_list_pool(rows: np.ndarray, capacity, n_aggregates: int):
    reference = ListSignaturePool(capacity)
    for row in rows.tolist():
        reference.add(Signature(tuple(row[2:]), row[1], row[0]))
    reference.flush()

    collector = Collector()
    pool = collector.pool(capacity)
    pool.add_batch(rows)
    pool.flush()
    assert collector.emitted == reference.emitted
    assert [len(window) for window, _ in collector.flushes] == reference.windows
    assert pool.first_flush_statistics == reference.first_flush_statistics
    if reference.first_flush_statistics is not None:
        assert choose_cat_format(
            pool.first_flush_statistics, n_aggregates
        ) is choose_cat_format(reference.first_flush_statistics, n_aggregates)
    emitted_nts = sum(1 for kind, _ in reference.emitted if kind == "nt")
    assert pool.stats.nt_runs == emitted_nts
    assert pool.stats.cat_runs == len(reference.emitted) - emitted_nts


@pytest.mark.parametrize("capacity", [None, 1, 2, 7, 64])
def test_first_flush_statistics_and_format_on_fixture_builds(
    capacity, flat_schema, figure9_table, paper_schema
):
    """The event streams of the suite's fixture cubes, through both pools."""
    import random

    rng = random.Random(5)
    paper_table = table_of(
        paper_schema.fact_schema,
        [
            (rng.randrange(12), rng.randrange(8), rng.randrange(5), rng.randrange(4))
            for _ in range(300)
        ],
    )
    for schema, table in (
        (flat_schema, figure9_table),
        (paper_schema, paper_table),
    ):
        working = WorkingSet.from_fact_table(schema, table)
        _tts, sigs = CureBuilder(schema, HierarchicalShape(schema.lattice)).run(working)
        assert_same_as_list_pool(sigs, capacity, schema.n_aggregates)
        built = build_cube(schema, table=table, pool_capacity=capacity)
        reference = ListSignaturePool(capacity)
        for row in sigs.tolist():
            reference.add(Signature(tuple(row[2:]), row[1], row[0]))
        reference.flush()
        assert built.storage.cat_format is choose_cat_format(
            reference.first_flush_statistics, schema.n_aggregates
        )


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 5),  # node
            st.integers(0, 3),  # rowid
            st.integers(-2, 2),  # aggregate 0
            st.integers(0, 1),  # aggregate 1
        ),
        max_size=60,
    ),
    capacity=st.one_of(st.none(), st.integers(1, 12)),
)
def test_array_pool_matches_list_pool(data, capacity):
    rows = np.asarray(data, dtype=np.int64).reshape(-1, 4)
    assert_same_as_list_pool(rows, capacity, 2)


def test_format_statistics_criterion():
    """The k/n > Y+1 rule from Section 5.1."""
    # One combination shared by 6 CATs from 2 sources: k=6, n=2, k/n=3.
    collector = Collector()
    pool = collector.pool(None)
    pool.add_batch(as_rows([sig([1], rowid=r % 2, node=r) for r in range(6)]))
    pool.flush()
    stats = pool.first_flush_statistics
    assert stats.mean_k == 6
    assert stats.mean_n == 2
    assert stats.common_source_prevails(n_aggregates=1)  # 3 > 2
    assert not stats.common_source_prevails(n_aggregates=2)  # 3 <= 3


def test_format_statistics_empty_is_not_common_source():
    assert not FormatStatistics().common_source_prevails(1)


def test_pool_size_bytes_model():
    """The paper: ~(Y+2)*4 MB for 1,000,000 signatures with Y aggregates."""
    assert SignaturePool.size_bytes(1_000_000, 2) == 16_000_000
