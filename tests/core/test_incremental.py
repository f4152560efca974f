"""Unit and integration tests for incremental cube maintenance (§8)."""

import random

import pytest

from repro import CubeSchema, Table, build_cube, flat_dimension, make_aggregates
from repro.core.incremental import apply_delta, drift_report
from repro.core.variants import VARIANTS
from repro.query import FactCache, answer_cure_query, reference_group_by
from repro.query.answer import normalize_answer
from tests.support.rows import aggregates_rows, cat_rows, nt_rows, tt_rowids


def make_instance(paper_schema, n_base, n_delta, seed):
    rng = random.Random(seed)

    def row():
        return (
            rng.randrange(12), rng.randrange(8), rng.randrange(5),
            rng.randrange(30),
        )

    base = Table(paper_schema.fact_schema, [row() for _ in range(n_base)])
    delta = [row() for _ in range(n_delta)]
    return base, delta


def assert_equals_reference(schema, table, storage):
    cache = FactCache(schema, table=table)
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, table.to_rows(), node)
        got = normalize_answer(answer_cure_query(storage, cache, node))
        assert got == expected, node.label(schema.dimensions)


def test_single_update_matches_rebuild(paper_schema):
    base, delta = make_instance(paper_schema, 150, 30, seed=1)
    result = build_cube(paper_schema, table=base)
    report = apply_delta(result.storage, paper_schema, base, delta)
    assert report.delta_rows == 30
    assert len(base) == 180  # delta appended to the fact table
    assert_equals_reference(paper_schema, base, result.storage)


def test_multiple_update_rounds(paper_schema):
    base, _unused = make_instance(paper_schema, 80, 0, seed=2)
    result = build_cube(paper_schema, table=base)
    rng = random.Random(3)
    for round_index in range(4):
        delta = [
            (rng.randrange(12), rng.randrange(8), rng.randrange(5),
             rng.randrange(30))
            for _ in range(15)
        ]
        apply_delta(result.storage, paper_schema, base, delta)
    assert len(base) == 80 + 4 * 15
    assert_equals_reference(paper_schema, base, result.storage)


def test_update_of_empty_cube(paper_schema):
    base = Table(paper_schema.fact_schema, [])
    result = build_cube(paper_schema, table=base)
    _b, delta = make_instance(paper_schema, 0, 20, seed=4)
    apply_delta(result.storage, paper_schema, base, delta)
    assert_equals_reference(paper_schema, base, result.storage)


def test_empty_delta_is_noop(paper_schema):
    base, _d = make_instance(paper_schema, 50, 0, seed=5)
    result = build_cube(paper_schema, table=base)
    before = result.storage.size_report().total_bytes
    report = apply_delta(result.storage, paper_schema, base, [])
    assert report.delta_rows == 0
    assert result.storage.size_report().total_bytes == before


def test_duplicate_of_existing_tt_devalues_it(flat_schema):
    rows = [(0, 0, 0, 5), (1, 1, 1, 7)]
    base = Table(flat_schema.fact_schema, rows)
    result = build_cube(flat_schema, table=base)
    report = apply_delta(
        result.storage, flat_schema, base, [(0, 0, 0, 3)]
    )
    assert report.tts_devalued >= 1
    assert_equals_reference(flat_schema, base, result.storage)


def test_new_region_gets_shared_tts(flat_schema):
    """A delta row in untouched space becomes shared TTs, not 2^D NTs.

    A from-scratch build stores such a row as one TT per first-level plan
    sub-tree (A, B and C — the root ∅ is non-trivial); the incremental
    path must produce exactly the same sharing.
    """
    rows = [(0, 0, 0, 5)] * 3
    base = Table(flat_schema.fact_schema, rows)
    result = build_cube(flat_schema, table=base)
    report = apply_delta(
        result.storage, flat_schema, base, [(2, 2, 2, 9)]
    )
    rebuilt = build_cube(flat_schema, table=base)
    rebuilt_tts = sum(
        len(tt_rowids(s)) for s in rebuilt.storage.nodes.values()
    )
    updated_tts = sum(
        len(tt_rowids(s)) for s in result.storage.nodes.values()
    )
    assert report.new_tts == 3  # one per sub-tree, never 2^D copies
    assert report.new_nts == 0
    assert updated_tts == rebuilt_tts
    assert_equals_reference(flat_schema, base, result.storage)


def test_cat_demotion(flat_schema, figure9_table):
    """Updating a group stored as a CAT demotes it to an NT."""
    base = Table(flat_schema.fact_schema, figure9_table.to_rows())
    result = build_cube(flat_schema, table=base)
    # Group (A=0) is part of the common-source CAT <1,30>; touch it.
    report = apply_delta(result.storage, flat_schema, base, [(0, 2, 1, 4)])
    assert report.cats_demoted >= 1
    assert_equals_reference(flat_schema, base, result.storage)


def test_updates_on_flat_fcure_cube(paper_schema):
    base, delta = make_instance(paper_schema, 100, 20, seed=6)
    result, _plus = VARIANTS["FCURE"].build(paper_schema, table=base)
    apply_delta(result.storage, paper_schema, base, delta)
    cache = FactCache(paper_schema, table=base)
    for node in paper_schema.lattice.flat_nodes():
        expected = reference_group_by(paper_schema, base.to_rows(), node)
        got = normalize_answer(
            answer_cure_query(result.storage, cache, node)
        )
        assert got == expected


def test_rejects_dr_and_partitioned_cubes(paper_schema):
    base, delta = make_instance(paper_schema, 40, 5, seed=7)
    dr = build_cube(paper_schema, table=base, dr_mode=True)
    with pytest.raises(ValueError, match="row-id based"):
        apply_delta(dr.storage, paper_schema, base, delta)
    plain = build_cube(paper_schema, table=base)
    plain.storage.partition_level = 2
    with pytest.raises(ValueError, match="partitioned"):
        apply_delta(plain.storage, paper_schema, base, delta)


def test_rejects_holistic(flat_schema, figure9_table):
    from repro.relational.aggregates import AggregateSpec, MedianAgg

    schema = CubeSchema(
        flat_schema.dimensions, (AggregateSpec(MedianAgg(), 0),), 1
    )
    storage = build_cube(flat_schema, table=figure9_table).storage
    base = Table(schema.fact_schema, figure9_table.to_rows())
    with pytest.raises(ValueError, match="distributive"):
        apply_delta(storage, schema, base, [(0, 0, 0, 1)])


def test_validates_delta_rows(paper_schema):
    base, _d = make_instance(paper_schema, 20, 0, seed=8)
    result = build_cube(paper_schema, table=base)
    with pytest.raises(ValueError, match="arity"):
        apply_delta(result.storage, paper_schema, base, [(0, 0, 0)])


def test_drift_is_bounded(paper_schema):
    base, delta = make_instance(paper_schema, 200, 40, seed=9)
    result = build_cube(paper_schema, table=base)
    apply_delta(result.storage, paper_schema, base, delta)
    drift = drift_report(result.storage, paper_schema, base)
    assert drift.overhead_ratio >= 1.0  # never smaller than optimal
    assert drift.overhead_ratio < 1.6  # ...and not wildly larger


def test_min_rowid_maintained(flat_schema):
    """Merged NTs keep the minimum source row-id (CURE's invariant)."""
    base = Table(flat_schema.fact_schema, [(0, 0, 0, 5), (0, 0, 1, 6)])
    result = build_cube(flat_schema, table=base)
    apply_delta(result.storage, flat_schema, base, [(0, 0, 2, 7)])
    # Node AB group (0,0) existed from rows {0,1}; min rowid must stay 0.
    node_id = flat_schema.node_id(
        flat_schema.lattice.base_node.with_level(2, 1)
    )
    store = result.storage.get_node_store(node_id)
    assert any(row[0] == 0 for row in nt_rows(store))


def test_update_of_plus_cube_devalues_bitmap_tts(paper_schema):
    """A CURE+ cube (sorted lists, the long ones charged as bitmaps) is
    de-plussed, updated correctly, and can be re-plussed afterwards."""
    from repro.core.postprocess import postprocess_plus

    base, delta = make_instance(paper_schema, 150, 25, seed=10)
    result = build_cube(paper_schema, table=base)
    postprocess_plus(result.storage)
    assert result.storage.plus_processed
    report = result.storage.size_report()
    assert report.tt_bytes < 4 * report.n_tt  # some TT list is a bitmap
    apply_delta(result.storage, paper_schema, base, delta)
    assert not result.storage.plus_processed  # sortedness no longer holds
    assert_equals_reference(paper_schema, base, result.storage)
    postprocess_plus(result.storage)
    assert_equals_reference(paper_schema, base, result.storage)


def test_partitioned_iceberg_matches_in_memory(paper_schema, tmp_path):
    """Iceberg construction composes with external partitioning."""
    from repro import Engine
    from repro.relational.catalog import Catalog
    from repro.relational.memory import MemoryManager

    base, _d = make_instance(paper_schema, 400, 0, seed=11)
    in_memory = build_cube(paper_schema, table=base, min_count=3)
    budget = int(len(base) * paper_schema.fact_schema.row_size_bytes * 0.8)
    engine = Engine(Catalog(tmp_path / "e"), MemoryManager(budget))
    engine.store_table("fact", base)
    partitioned = build_cube(
        paper_schema, engine=engine, relation="fact",
        pool_capacity=50, min_count=3,
    )
    assert partitioned.stats.partitioned
    cache_a = FactCache(paper_schema, table=base)
    cache_b = FactCache(
        paper_schema, heap=engine.relation("fact"), fraction=1.0
    )
    for node in paper_schema.lattice.nodes():
        a = normalize_answer(
            answer_cure_query(in_memory.storage, cache_a, node)
        )
        b = normalize_answer(
            answer_cure_query(partitioned.storage, cache_b, node)
        )
        assert a == b, node.label(paper_schema.dimensions)
    engine.close()

def _cube_snapshot(storage):
    """Everything a rejected delta must leave untouched."""
    nodes = {}
    for node_id, store in sorted(storage.nodes.items()):
        nodes[node_id] = (
            tuple(nt_rows(store)),
            tuple(tt_rowids(store)),
            tuple(cat_rows(store)),
        )
    return (
        nodes,
        tuple(aggregates_rows(storage)),
        storage.plus_processed,
        storage.update_drift_bytes,
    )


def test_rejected_delta_is_a_noop(paper_schema):
    """A delta with one bad row must not mutate the cube or the fact table,
    even when the bad row comes after valid ones (the historical bug:
    validation ran inside the append loop, so a mid-delta rejection left
    the fact table partially extended)."""
    from repro.core.postprocess import postprocess_plus

    base, delta = make_instance(paper_schema, 100, 6, seed=12)
    result = build_cube(paper_schema, table=base)
    postprocess_plus(result.storage)
    poisoned = delta[:4] + [(0, 0, 0)] + delta[4:]  # bad arity at index 4
    fact_rows_before = len(base)
    snapshot = _cube_snapshot(result.storage)
    with pytest.raises(ValueError, match="arity"):
        apply_delta(result.storage, paper_schema, base, poisoned)
    assert len(base) == fact_rows_before
    assert _cube_snapshot(result.storage) == snapshot
    assert result.storage.plus_processed  # still a valid CURE+ cube
    # The cube is fully usable: the same delta minus the bad row applies.
    apply_delta(result.storage, paper_schema, base, delta)
    assert_equals_reference(paper_schema, base, result.storage)


def test_drift_estimate_tracks_exact_report(paper_schema):
    """The accounting-based estimate needs no rebuild, carries the
    ``estimated`` flag, and stays a lower bound on the exact overhead."""
    base, _d = make_instance(paper_schema, 150, 0, seed=13)
    result = build_cube(paper_schema, table=base)

    fresh = drift_report(result.storage, paper_schema, base, exact=False)
    assert fresh.estimated
    assert fresh.overhead_ratio == 1.0  # zero recorded drift after a build

    rng = random.Random(14)
    for _ in range(5):
        delta = [
            (rng.randrange(12), rng.randrange(8), rng.randrange(5),
             rng.randrange(30))
            for _ in range(20)
        ]
        apply_delta(result.storage, paper_schema, base, delta)
    estimate = drift_report(result.storage, paper_schema, base, exact=False)
    exact = drift_report(result.storage, paper_schema, base)
    assert estimate.estimated and not exact.estimated
    assert estimate.updated_bytes == exact.updated_bytes
    assert result.storage.update_drift_bytes > 0
    assert estimate.overhead_ratio > 1.0
    # The estimate only accounts CAT demotions, so it can under- but
    # never over-shoot the exact ratio.
    assert estimate.overhead_ratio <= exact.overhead_ratio + 1e-9


def test_delta_validated_once_as_a_matrix(paper_schema):
    """Arity, integrality and code range are checked on one int64 matrix
    before anything mutates; what passes may arrive as tuples or as the
    matrix itself."""
    import numpy as np

    from repro.core.incremental import validate_delta

    good = [(0, 0, 0, 5), (11, 7, 4, -3)]
    matrix = validate_delta(paper_schema, good)
    assert matrix.dtype == np.int64 and matrix.tolist() == [list(r) for r in good]
    assert validate_delta(paper_schema, matrix) is matrix
    assert validate_delta(paper_schema, []).shape == (0, 4)
    with pytest.raises(ValueError, match="row arity 3 does not match schema arity 4"):
        validate_delta(paper_schema, good + [(0, 0, 0)])
    with pytest.raises(ValueError, match="integers"):
        validate_delta(paper_schema, [(0, 0, 0, 1.5)])
    with pytest.raises(ValueError, match=r"dimension 'A' code 12 is outside \[0, 12\)"):
        validate_delta(paper_schema, [(12, 0, 0, 1)])
    with pytest.raises(ValueError, match="code -1"):
        validate_delta(paper_schema, [(0, -1, 0, 1)])


def test_out_of_range_code_is_rejected_as_a_noop(paper_schema):
    """A member code the roll-up maps cannot index is refused up front —
    it must never reach the merge, where failing is no longer a no-op."""
    base, delta = make_instance(paper_schema, 60, 4, seed=15)
    result = build_cube(paper_schema, table=base)
    snapshot = _cube_snapshot(result.storage)
    with pytest.raises(ValueError, match="outside"):
        apply_delta(result.storage, paper_schema, base, delta + [(0, 8, 0, 1)])
    assert len(base) == 60
    assert _cube_snapshot(result.storage) == snapshot


def test_matrix_delta_and_warm_views(paper_schema):
    """An int64 matrix is a delta too, and the update leaves every node's
    counts equal to the lengths of the arrays it now holds."""
    import numpy as np

    base, delta = make_instance(paper_schema, 120, 20, seed=16)
    result = build_cube(paper_schema, table=base)
    report = apply_delta(
        result.storage, paper_schema, base, np.asarray(delta, dtype=np.int64)
    )
    assert report.delta_rows == 20 and report.delta_codes[0] == delta[0][:3]
    assert base.to_rows()[-1] == delta[-1]
    assert base.as_batch().length == 140
    for store in result.storage.nodes.values():
        assert store.nt_count == len(store.nt_matrix())
        assert store.tt_count == len(store.tt_array())
    assert_equals_reference(paper_schema, base, result.storage)


def test_relation_arrays_are_read_only_and_old_answers_keep_their_values(
    paper_schema,
):
    """What a reader was handed is never edited under it: the relation
    arrays reject in-place writes, and an answer computed before a
    maintenance cycle (``apply_delta`` + ``postprocess_plus``) — whose
    aggregate columns may be views of the stored NT matrix — still reads
    what it read then."""
    from repro.core.postprocess import postprocess_plus

    base, delta = make_instance(paper_schema, 150, 40, seed=21)
    storage = build_cube(paper_schema, table=base).storage
    arrays = [storage.aggregates_matrix()]
    for store in storage.nodes.values():
        arrays += [store.nt_matrix(), store.tt_array(), store.cat_matrix()]
    assert sum(len(array) for array in arrays) > 0
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0

    cache = FactCache(paper_schema, table=base)
    nodes = list(paper_schema.lattice.nodes())
    before = [answer_cure_query(storage, cache, node) for node in nodes]
    expected = [
        reference_group_by(paper_schema, base.to_rows(), node) for node in nodes
    ]
    report = apply_delta(storage, paper_schema, base, delta)
    postprocess_plus(storage)
    assert report.nts_merged > 0
    for answer, old in zip(before, expected):
        assert normalize_answer(answer) == old
    assert_equals_reference(paper_schema, base, storage)
