"""Skew-stress differential suite: local pair re-partitioning vs reference.

Intra-member skew is the case adaptive re-partitioning alone cannot fix:
when one *base-level* member of dimension 0 owns more rows than the
memory budget admits, no finer level of that dimension exists to split
on, and the build must apply the paper's pair extension *locally* —
re-partition just the oversized partition on (A_L0, B_M) member pairs
plus two local coarse working sets.  This suite builds cubes on
single-hot-member and Zipf-skewed datasets under budgets tight enough to
force that path, then checks them against an unconstrained in-memory
reference build:

* the stored cubes hold the same content per node — the same TT
  row-ids, and the same multiset of ``(R-rowid, aggregates…)`` rows with
  NT rows and dereferenced CAT rows merged, which is what the CUBE
  operator defines.  Neither the row order nor the NT/CAT split is
  compared: a partitioned build emits rows in partition order, and its
  pool closes a flush window at every partition barrier, so a CAT run
  of the unbounded reference pool that straddles partitions is stored
  as NTs.  The split is pinned instead by the plain == durable
  assertion of ``tests/property/test_local_pair_crash_resume.py``, on
  the hot-member instance below;
* every node query normalizes to the reference answer;
* ``pair_repartitioned_partitions`` proves the new path actually ran;
* peak (simulated) memory stays inside the budget.
"""

from __future__ import annotations

import pytest

from repro import CubeSchema, Engine, Table, build_cube
from repro.core.cure import CubeResult
from repro.core.signature import SignaturePool
from repro.core.storage import CatFormat, CubeStorage
from repro.datasets.synthetic import generate_flat_dataset
from repro.query import FactCache, answer_cure_query
from repro.query.answer import normalize_answer
from repro.query.workload import all_node_queries
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from tests.support.rows import (
    aggregates_rows,
    cat_rows,
    nt_rows,
    rows_of,
    tt_rowids,
)

pytestmark = pytest.mark.crash

POOL_CAPACITY = 200
PARTITION_ALLOWANCE_ROWS = 300


def _budget(schema: CubeSchema) -> int:
    """Signature pool plus room for ~300 partition rows — well under the
    hot member's row count in both instances."""
    pool_bytes = SignaturePool.size_bytes(POOL_CAPACITY, schema.n_aggregates)
    row_bytes = schema.partition_schema.row_size_bytes
    return pool_bytes + PARTITION_ALLOWANCE_ROWS * row_bytes


def _canonical_cube(storage: CubeStorage):
    """Per node, the sorted TT row-ids and the sorted ``(R-rowid,
    aggregates…)`` rows of NTs and CATs together.

    CAT rows are dereferenced through AGGREGATES (A-rowids are
    insertion-ordered and build-specific) into the values they denote;
    merged with the NT rows, they no longer depend on the flush windows
    that classified them.
    """
    aggregates = aggregates_rows(storage)
    nodes = {}
    for node_id, store in storage.nodes.items():
        rows = nt_rows(store)
        for row in cat_rows(store):
            if storage.cat_format is CatFormat.COMMON_SOURCE:
                rows.append(aggregates[row[0]])
            else:
                rows.append((row[0], *aggregates[row[1]]))
        nodes[node_id] = (tuple(sorted(tt_rowids(store))), tuple(sorted(rows)))
    return nodes


def _raw_cube(storage: CubeStorage):
    """Stored cube content in emission order — for determinism checks."""
    nodes = {
        node_id: (
            tuple(nt_rows(store)),
            tuple(tt_rowids(store)),
            tuple(cat_rows(store)),
        )
        for node_id, store in sorted(storage.nodes.items())
    }
    return nodes, tuple(aggregates_rows(storage)), storage.cat_format


def _build_budgeted(
    root, schema, table, workers: int = 1
) -> tuple[Engine, CubeResult, int]:
    budget = _budget(schema)
    engine = Engine(Catalog(root), MemoryManager(budget))
    engine.store_table("fact", table)
    result = build_cube(
        schema,
        engine=engine,
        relation="fact",
        pool_capacity=POOL_CAPACITY,
        partition_strategy="uniform",
        workers=workers,
    )
    return engine, result, budget


def _assert_matches_reference(engine, schema, table, result) -> None:
    reference = build_cube(schema, table=table, pool_capacity=None)
    assert _canonical_cube(result.storage) == _canonical_cube(
        reference.storage
    ), "stored cube differs from the unconstrained in-memory build"
    memory_cache = FactCache(schema, table=table)
    disk_cache = FactCache(schema, heap=engine.relation("fact"), fraction=1.0)
    for node in all_node_queries(schema):
        expected = normalize_answer(
            answer_cure_query(reference.storage, memory_cache, node)
        )
        got = normalize_answer(
            answer_cure_query(result.storage, disk_cache, node)
        )
        assert got == expected, node.label(schema.dimensions)


def hot_member_instance() -> tuple[CubeSchema, Table]:
    """~70% of 1200 rows land on one base member of the flat dimension 0."""
    return generate_flat_dataset(
        2,
        1_200,
        zipf=0.0,
        seed=7,
        cardinalities=(12, 8),
        aggregates=(("sum", 0), ("count", 0)),
        hot_member_fraction=0.7,
    )


def zipf_instance() -> tuple[CubeSchema, Table]:
    """Zipf(1.2) skew: the top member of dimension 0 holds ~480 rows,
    past the 300-row allowance, while the hottest (A0, B0) pair fits."""
    return generate_flat_dataset(
        2,
        1_200,
        zipf=1.2,
        seed=11,
        cardinalities=(12, 8),
        aggregates=(("sum", 0), ("count", 0)),
    )


@pytest.fixture(scope="module")
def hot_member():
    return hot_member_instance()


@pytest.fixture(scope="module")
def hot_build(hot_member, tmp_path_factory):
    schema, table = hot_member
    engine, result, budget = _build_budgeted(
        tmp_path_factory.mktemp("hot") / "eng", schema, table
    )
    yield engine, result, budget
    engine.close()


def test_hot_member_forces_local_pair_split(hot_build):
    engine, result, budget = hot_build
    assert result.stats.partitioned
    assert result.stats.pair_repartitioned_partitions >= 1, (
        "the hot member's partition must have gone through the local "
        "pair extension"
    )
    assert result.stats.subpartitions_created >= 2
    assert engine.memory.peak_bytes <= budget


def test_hot_member_cannot_be_split_on_dimension_zero(hot_member):
    """The scenario is genuine: dimension 0 is flat (no finer level) and
    the hot base member alone overflows the budget's partition room."""
    schema, table = hot_member
    assert schema.dimensions[0].n_levels == 1
    hot_rows = sum(1 for row in rows_of(table) if row[0] == 0)
    assert hot_rows > PARTITION_ALLOWANCE_ROWS


def test_hot_member_cube_matches_in_memory_reference(hot_build, hot_member):
    schema, table = hot_member
    engine, result, _budget_bytes = hot_build
    _assert_matches_reference(engine, schema, table, result)


def test_zipf_skew_cube_matches_in_memory_reference(tmp_path):
    schema, table = zipf_instance()
    engine, result, budget = _build_budgeted(tmp_path / "eng", schema, table)
    assert result.stats.pair_repartitioned_partitions >= 1
    assert engine.memory.peak_bytes <= budget
    _assert_matches_reference(engine, schema, table, result)
    engine.close()


def test_skewed_budgeted_build_is_deterministic(tmp_path, hot_member):
    """Two budgeted builds of the same skewed input are byte-identical —
    the local pair split recomputes the same decision from exact counts,
    which is what lets the durable path resume through it."""
    schema, table = hot_member
    engine_a, result_a, _ = _build_budgeted(tmp_path / "a", schema, table)
    engine_b, result_b, _ = _build_budgeted(tmp_path / "b", schema, table)
    assert _raw_cube(result_a.storage) == _raw_cube(result_b.storage)
    engine_a.close()
    engine_b.close()


@pytest.mark.parametrize("instance", [hot_member_instance, zipf_instance])
def test_parallel_build_matches_sequential_bytes(tmp_path, instance):
    """The work-stealing executor reproduces the sequential build byte for
    byte on skewed inputs — including through worker-side adaptive
    re-partitioning (hot member → local pair split inside a worker)."""
    schema, table = instance()
    engine_seq, seq, budget = _build_budgeted(tmp_path / "seq", schema, table)
    engine_par, par, _ = _build_budgeted(
        tmp_path / "par", schema, table, workers=2
    )
    assert par.stats.pair_repartitioned_partitions >= 1
    assert _raw_cube(par.storage) == _raw_cube(seq.storage)
    assert par.stats.tasks_run == seq.stats.tasks_run
    assert par.stats.workers == 2
    assert par.stats.peak_worker_bytes <= budget
    engine_seq.close()
    engine_par.close()


def test_parallel_build_answers_queries(tmp_path):
    schema, table = zipf_instance()
    engine, result, _ = _build_budgeted(
        tmp_path / "eng", schema, table, workers=2
    )
    _assert_matches_reference(engine, schema, table, result)
    engine.close()
