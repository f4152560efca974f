"""Unit tests for CURE's cube storage: formats, decision rule, sizes.

Includes the paper's Figure 9 worked example end-to-end: the exact NT, TT
and CAT placement the paper describes for the 5-tuple fact table.
"""

import random

import numpy as np
import pytest

from repro import CatFormat, Table, build_cube
from repro.core.signature import FormatStatistics, Signature, SignaturePool
from repro.core.storage import (
    VALUE_BYTES,
    ArrayRelation,
    CubeStorage,
    choose_cat_format,
)
from repro.lattice.node import CubeNode
from tests.support.list_pool import ListSignaturePool
from tests.support.rows import (
    aggregates_rows,
    cat_rows,
    nt_rows,
    set_aggregates_rows,
    tt_rowids,
)


def stats_with(k: int, n: int) -> FormatStatistics:
    return FormatStatistics(m=1, total_cats=k, total_sources=n)


def write_runs(storage: CubeStorage, *runs: list[tuple]) -> None:
    """One classified flush: each run lists ``(node_id, rowid, aggr…)``
    signatures sharing an aggregate vector, as the pool hands them over."""
    rows = np.asarray([row for run in runs for row in run], dtype=np.int64)
    lengths = np.asarray([len(run) for run in runs], dtype=np.int64)
    storage.write_flush(rows, lengths)


# -- decision rule (Section 5.1) -------------------------------------------------------


def test_choose_format_a_when_common_source_prevails():
    assert choose_cat_format(stats_with(k=10, n=2), 2) is CatFormat.COMMON_SOURCE


def test_choose_nt_when_single_aggregate_and_coincidental():
    assert choose_cat_format(stats_with(k=4, n=4), 1) is CatFormat.AS_NT


def test_choose_format_b_otherwise():
    assert choose_cat_format(stats_with(k=4, n=4), 2) is CatFormat.COINCIDENTAL


def test_boundary_exactly_y_plus_one_is_not_common_source():
    # k/n == Y+1 must not choose (a): the inequality is strict.
    assert choose_cat_format(stats_with(k=3, n=1), 2) is CatFormat.COINCIDENTAL


# -- Figure 9, end to end -------------------------------------------------------------


@pytest.fixture
def figure9(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    return flat_schema, result.storage


def node_id(schema, levels):
    return schema.node_id(CubeNode(levels))


def test_figure9_chooses_format_a(figure9):
    """Common-source CATs prevail in the example (k̄/n̄ = 2.5 > Y+1 = 2)."""
    _schema, storage = figure9
    assert storage.cat_format is CatFormat.COMMON_SOURCE


def test_figure9_tt_for_a2_stored_once_at_node_a(figure9):
    """All cube tuples with A = 2 are TTs, stored once in node A."""
    schema, storage = figure9
    all_level = 1
    a_node = storage.get_node_store(node_id(schema, (0, all_level, all_level)))
    assert 2 in tt_rowids(a_node)  # rowid 2 = the tuple <2,2,3,40>
    # ...and in no more detailed node containing A.
    for levels in ((0, 0, all_level), (0, all_level, 0), (0, 0, 0)):
        store = storage.get_node_store(node_id(schema, levels))
        if store is not None:
            assert 2 not in tt_rowids(store)


def test_figure9_nt_for_a3(figure9):
    """Tuple <3, 90> in node A is an NT (unique aggregate 90)."""
    schema, storage = figure9
    a_node = storage.get_node_store(node_id(schema, (0, 1, 1)))
    assert (3, 90) in nt_rows(a_node)  # R-rowid 3 (first A=3 tuple), sum 90


def test_figure9_common_source_cat_shared(figure9):
    """<1,1,30> in AB, <1,30> in A and B share one AGGREGATES entry."""
    schema, storage = figure9
    assert (0, 30) in aggregates_rows(storage)
    arowid = aggregates_rows(storage).index((0, 30))
    for levels in ((0, 0, 1), (0, 1, 1), (1, 0, 1)):  # AB, A, B
        store = storage.get_node_store(node_id(schema, levels))
        assert (arowid,) in cat_rows(store)


def test_figure9_all_node_aggregate(figure9):
    schema, storage = figure9
    store = storage.get_node_store(node_id(schema, (1, 1, 1)))
    assert nt_rows(store) == [(0, 160)]


# -- write paths ------------------------------------------------------------------------


def test_cat_run_requires_decided_format(flat_schema):
    storage = CubeStorage(flat_schema)
    with pytest.raises(RuntimeError, match="format not decided"):
        write_runs(storage, [(0, 0, 1), (1, 0, 1)])


def test_singleton_runs_need_no_format(flat_schema):
    storage = CubeStorage(flat_schema)
    write_runs(storage, [(0, 3, 1)], [(1, 4, 2)])
    assert nt_rows(storage.node_store(0)) == [(3, 1)]
    assert nt_rows(storage.node_store(1)) == [(4, 2)]


def test_cat_run_as_nt_interleaves_in_sorted_order(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.cat_format = CatFormat.AS_NT
    write_runs(storage, [(0, 7, 8)], [(0, 0, 9), (1, 1, 9)], [(0, 2, 10)])
    assert nt_rows(storage.node_store(0)) == [(7, 8), (0, 9), (2, 10)]
    assert nt_rows(storage.node_store(1)) == [(1, 9)]
    assert aggregates_rows(storage) == []


def test_cat_run_format_a_groups_by_source(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.cat_format = CatFormat.COMMON_SOURCE
    write_runs(
        storage,
        [
            (0, 0, 9),
            (1, 0, 9),  # same source as above → shared row
            (2, 5, 9),  # different source → second row
        ],
        # The next run restarts source detection even on an equal rowid.
        [(0, 5, 11), (2, 5, 11)],
    )
    assert aggregates_rows(storage) == [(0, 9), (5, 9), (5, 11)]
    assert cat_rows(storage.node_store(0)) == [(0,), (2,)]
    assert cat_rows(storage.node_store(1)) == [(0,)]
    assert cat_rows(storage.node_store(2)) == [(1,), (2,)]


def test_cat_run_format_b_one_row_per_run(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.cat_format = CatFormat.COINCIDENTAL
    set_aggregates_rows(storage, [(1,)])  # a-rowids continue, not restart
    write_runs(
        storage, [(0, 0, 9), (1, 5, 9)], [(3, 2, 10)], [(1, 1, 12), (0, 4, 12)]
    )
    assert aggregates_rows(storage) == [(1,), (9,), (12,)]
    assert cat_rows(storage.node_store(0)) == [(0, 1), (4, 2)]
    assert cat_rows(storage.node_store(1)) == [(5, 1), (1, 2)]
    assert nt_rows(storage.node_store(3)) == [(2, 10)]


def test_write_tts_keeps_per_node_order(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.write_tts(
        np.asarray([(4, 9), (2, 7), (4, 1), (2, 8)], dtype=np.int64)
    )
    assert tt_rowids(storage.node_store(4)) == [9, 1]
    assert tt_rowids(storage.node_store(2)) == [7, 8]
    storage.write_tts(np.empty((0, 2), dtype=np.int64))
    assert set(storage.nodes) == {2, 4}


def test_interleaved_chunks_read_mid_build_keep_arrival_order(flat_schema):
    """Chunks of TT events and pool flushes for several nodes, interleaved;
    the relations are read mid-build and again after more appends.  Both
    reads equal the list pool's emissions replayed into per-node Python
    lists, and the array handed out mid-build is not disturbed by what
    is appended after it."""
    rng = random.Random(5)
    storage = CubeStorage(flat_schema)
    storage.cat_format = CatFormat.COINCIDENTAL
    pool = SignaturePool(7, on_flush=storage.write_flush)
    oracle_pool = ListSignaturePool(7)
    expected_tts: dict[int, list[int]] = {}

    def feed(n_signatures: int, n_tts: int) -> None:
        for _ in range(n_signatures):
            signature = Signature(
                (rng.randrange(4),), rng.randrange(50), rng.randrange(5)
            )
            pool.add(signature)
            oracle_pool.add(signature)
        events = [(rng.randrange(5), rng.randrange(50)) for _ in range(n_tts)]
        storage.write_tts(np.asarray(events, dtype=np.int64).reshape(-1, 2))
        for node, rowid in events:
            expected_tts.setdefault(node, []).append(rowid)

    def expected_relations():
        """Replay everything the list pool emitted so far, format (b)."""
        nts: dict[int, list[tuple]] = {}
        cats: dict[int, list[tuple]] = {}
        aggregates: list[tuple] = []
        for kind, item in oracle_pool.emitted:
            if kind == "nt":
                nts.setdefault(item.node_id, []).append(
                    (item.rowid, *item.aggregates)
                )
                continue
            aggregates.append(item[0].aggregates)
            for signature in item:
                cats.setdefault(signature.node_id, []).append(
                    (signature.rowid, len(aggregates) - 1)
                )
        return nts, cats, aggregates

    def check() -> None:
        nts, cats, aggregates = expected_relations()
        assert aggregates_rows(storage) == aggregates
        assert set(storage.nodes) == set(nts) | set(cats) | set(expected_tts)
        for node, store in storage.nodes.items():
            assert nt_rows(store) == nts.get(node, [])
            assert cat_rows(store) == cats.get(node, [])
            assert tt_rowids(store) == expected_tts.get(node, [])
            assert store.nt_count == len(nts.get(node, []))
            assert store.cat_count == len(cats.get(node, []))

    for _ in range(4):
        feed(rng.randrange(3, 12), rng.randrange(0, 6))
    pool.flush()
    oracle_pool.flush()
    check()
    mid_build = {
        node: (store.nt_matrix(), store.tt_array(), store.cat_matrix())
        for node, store in storage.nodes.items()
    }
    snapshot = {
        node: [array.copy() for array in arrays]
        for node, arrays in mid_build.items()
    }
    for _ in range(4):
        feed(rng.randrange(3, 12), rng.randrange(1, 6))
    pool.flush()
    oracle_pool.flush()
    check()
    for node, arrays in mid_build.items():
        for array, before in zip(arrays, snapshot[node]):
            assert np.array_equal(array, before)


def test_append_to_a_fetched_relation_keeps_the_fetched_rows():
    """A resumed writer appends to relations a mapped container serves:
    the fetched rows stay first, whether or not a read came before."""
    fetches = []

    def fetch():
        fetches.append(1)
        return np.arange(3, dtype=np.int64)

    unread = ArrayRelation(3, fetch)
    unread.append(np.array([9], dtype=np.int64))
    assert unread.array().tolist() == [0, 1, 2, 9] and unread.count == 4
    read = ArrayRelation(3, fetch)
    before = read.array()
    read.append(np.array([9], dtype=np.int64))
    assert read.array().tolist() == [0, 1, 2, 9] and read.count == 4
    assert before.tolist() == [0, 1, 2] and len(fetches) == 2


def test_dr_mode_stores_dimension_values(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table, dr_mode=True)
    storage = result.storage
    a_store = storage.get_node_store(flat_schema.node_id(CubeNode((0, 1, 1))))
    # NT <3, 90> now stores the A value (code 2) instead of the row-id.
    assert (2, 90) in nt_rows(a_store)


# -- size accounting -----------------------------------------------------------------------


def test_size_report_widths(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.cat_format = CatFormat.COINCIDENTAL
    storage.write_tts(np.asarray([(0, 1)], dtype=np.int64))
    write_runs(storage, [(0, 2, 7)], [(0, 0, 9), (1, 5, 9)])
    report = storage.size_report()
    assert report.tt_bytes == VALUE_BYTES
    assert report.nt_bytes == 2 * VALUE_BYTES  # rowid + 1 aggregate
    assert report.cat_bytes == 2 * 2 * VALUE_BYTES  # ⟨rowid, arowid⟩ × 2
    assert report.aggregates_bytes == VALUE_BYTES  # bare aggregate row
    assert report.total_bytes == (1 + 2 + 4 + 1) * VALUE_BYTES


def test_size_report_relation_count(flat_schema):
    storage = CubeStorage(flat_schema)
    storage.cat_format = CatFormat.COINCIDENTAL
    storage.write_tts(np.asarray([(0, 1)], dtype=np.int64))
    write_runs(storage, [(0, 2, 7)], [(0, 0, 9), (1, 5, 9)])
    report = storage.size_report()
    # Node 0 has TT + NT + CAT relations, node 1 has CAT only.
    assert report.n_relations == 4


def test_describe_mentions_counts(flat_schema, figure9_table):
    result = build_cube(flat_schema, table=figure9_table)
    text = result.storage.describe()
    assert "NTs: 3" in text
    assert "TTs: 15" in text
