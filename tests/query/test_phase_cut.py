"""A partitioned build stores each trivial tuple once, as in memory.

Section 5.1 stores a TT at the least detailed node where its group is a
single fact row, and that node's whole plan sub-tree shares it.  Each
construction phase of a partitioned build re-finds the TTs of its own
region, so a row alone in a coarse-phase group is stored by that phase
and again by the phase below; the build then keeps only the coarse copy,
and the reader walks the plain plan-ancestor chain for every cube.  The
retail and serving cubes never have such a row; these cases do:

* ``CURE`` / ``CURE+`` — A(48/12/3) × B(8/4) × C(5), 600 rows over the
  first two A2 members and one row in the third, partitioned on A1
  (L = 1); the coarse phase stores the lone row at A2.
* ``pair`` — A(4) × B(30/6) × C(5), 2,400 rows over three A members and
  one in the fourth, partitioned on the pair (A, B1); the second coarse
  node stores the lone row at A.
* ``repartitioned`` — A(32/8/2) × B(4), 1,201 rows, ``uniform`` weights:
  the heavy A2 partition is split again on A0, and its local coarse task
  stores row 900, alone in its A1 member, at A1.

Per node, the TT lists equal the in-memory build's, and every node,
slice and iceberg answer equals the definition (:func:`reference_group_by`)
— before the build kept one copy, the re-partitioned cube answered row
900's group twice at A0 and A0×B0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro import (
    CubeSchema,
    Engine,
    build_cube,
    flat_dimension,
    linear_dimension,
    make_aggregates,
)
from repro.core.cure import CubeResult
from repro.core.postprocess import postprocess_plus
from repro.core.signature import SignaturePool
from repro.core.storage import CubeStorage
from repro.lattice.node import CubeNode
from repro.query import (
    DimensionSlice,
    FactCache,
    answer_cure_query,
    answer_cure_sliced,
    iceberg_over_cure,
    reference_group_by,
)
from repro.query.answer import normalize_answer
from repro.relational.catalog import Catalog
from repro.relational.memory import MemoryManager
from tests.query.test_slice import sliced_reference
from tests.support.rows import table_of

COUNT = 1  # aggregates: (sum, count)
ALL = None  # a dimension absent from a node


@dataclass
class Case:
    """One partitioned build with a row alone in a coarse-phase group."""

    schema: CubeSchema
    rows: list[tuple]
    lone: int  # the lone row's row-id
    holder: tuple[int | None, ...]  # the node that stores its TT
    levels: tuple[int, ...]  # the partitioning's levels
    pool: int
    budget_beyond_pool: int
    strategy: str = "exact"
    plus: bool = False
    repartitioned: bool = False  # a partition is split again at load time

    def build(self, directory) -> CubeResult:
        table = table_of(self.schema.fact_schema, self.rows)
        budget = (
            SignaturePool.size_bytes(self.pool, self.schema.n_aggregates)
            + self.budget_beyond_pool
        )
        engine = Engine(Catalog(directory), MemoryManager(budget))
        try:
            engine.store_table("fact", table)
            result = build_cube(
                self.schema,
                engine=engine,
                relation="fact",
                pool_capacity=self.pool,
                partition_strategy=self.strategy,
            )
        finally:
            engine.destroy()
        if self.plus:
            postprocess_plus(result.storage)
        assert result.decision.levels == self.levels
        assert bool(result.stats.repartitioned_partitions) == self.repartitioned
        return result

    def holder_node_id(self) -> int:
        dimensions = self.schema.dimensions
        levels = tuple(
            dimension.all_level if level is ALL else level
            for dimension, level in zip(dimensions, self.holder)
        )
        return self.schema.node_id(CubeNode(levels))


def level_one_case(plus: bool) -> Case:
    a = linear_dimension("A", [("A0", 48), ("A1", 12), ("A2", 3)])
    b = linear_dimension("B", [("B0", 8), ("B1", 4)])
    c = linear_dimension("C", [("C0", 5)])
    schema = CubeSchema(
        (a, b, c), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    rng = random.Random(601)
    rows = [
        (rng.randrange(32), rng.randrange(8), rng.randrange(5), rng.randrange(100))
        for _ in range(600)
    ]
    rows.append((40, 3, 2, 7))  # the only row of A2 member 2
    return Case(schema, rows, 600, (2, ALL, ALL), (1,), 1_000, 7_000, plus=plus)


def pair_case() -> Case:
    a = flat_dimension("A", 4)
    b = linear_dimension("B", [("B0", 30), ("B1", 6)])
    c = flat_dimension("C", 5)
    schema = CubeSchema((a, b, c), make_aggregates(("sum", 0), ("count", 0)), 1)
    rng = random.Random(13)
    rows = [
        (rng.randrange(3), rng.randrange(30), rng.randrange(5), rng.randrange(20))
        for _ in range(2_400)
    ]
    rows.append((3, 0, 0, 7))  # the only row of A member 3
    # No single A member fits 16,000 B, so the pair (A, B1) partitions.
    budget_beyond_pool = 16_000 - SignaturePool.size_bytes(200, 2)
    return Case(schema, rows, 2_400, (0, ALL, ALL), (0, 1), 200, budget_beyond_pool)


def repartitioned_case() -> Case:
    a = linear_dimension("A", [("A0", 32), ("A1", 8), ("A2", 2)])
    b = linear_dimension("B", [("B0", 4)])
    schema = CubeSchema((a, b), make_aggregates(("sum", 0), ("count", 0)), 1)
    rng = random.Random(1)
    rows = []
    for rowid in range(1_201):
        if rowid == 900:
            rows.append((13, 1, 7))  # the only row of A1 member 3
            continue
        heavy = rng.random() < 0.8  # A1 member 0 outweighs the budget
        a0 = rng.randrange(4) if heavy else rng.randrange(4, 12)
        rows.append((a0, rng.randrange(4), rng.randrange(100)))
    # Uniform weights put 600 rows in each A2 partition, and 800 fit:
    # the heavy one (~1,200 rows) is split again, on A0.
    budget_beyond_pool = 800 * schema.partition_schema.row_size_bytes
    return Case(
        schema, rows, 900, (1, ALL), (2,), 200, budget_beyond_pool, "uniform",
        repartitioned=True,
    )


CASES = {
    "CURE": lambda: level_one_case(plus=False),
    "CURE+": lambda: level_one_case(plus=True),
    "pair": pair_case,
    "repartitioned": repartitioned_case,
}


@pytest.fixture(scope="module", params=list(CASES))
def partitioned(request, tmp_path_factory):
    case = CASES[request.param]()
    result = case.build(tmp_path_factory.mktemp("phase"))
    table = table_of(case.schema.fact_schema, case.rows)
    return case, result, FactCache(case.schema, table=table)


def tt_lists(storage: CubeStorage) -> dict[int, list[int]]:
    return {
        node_id: sorted(store.tt_array().tolist())
        for node_id, store in storage.nodes.items()
        if store.tt_count
    }


def test_a_coarse_ancestor_stores_the_lone_row(partitioned):
    case, result, _cache = partitioned
    lists = tt_lists(result.storage)
    # Two phases wrote the lone row's TT; the build kept one, and says
    # how many copies it dropped.
    stored = sum(map(len, lists.values()))
    assert result.stats.tts_dropped > 0
    assert result.stats.tt_written - result.stats.tts_dropped == stored
    holders = [node_id for node_id, rowids in lists.items() if case.lone in rowids]
    assert holders == [case.holder_node_id()]


def test_pair_case_written_less_dropped_is_stored(tmp_path):
    """On the pair case two phases write the lone row's TT: 12 written,
    1 dropped, 11 stored."""
    case = pair_case()
    result = case.build(tmp_path)
    stored = sum(map(len, tt_lists(result.storage).values()))
    assert (result.stats.tt_written, result.stats.tts_dropped, stored) == (12, 1, 11)


def test_tt_lists_equal_the_in_memory_builds(partitioned):
    case, result, _cache = partitioned
    table = table_of(case.schema.fact_schema, case.rows)
    in_memory = build_cube(case.schema, table=table, pool_capacity=case.pool)
    assert tt_lists(result.storage) == tt_lists(in_memory.storage)


def test_every_answer_is_the_definition(partitioned):
    case, result, cache = partitioned
    schema, rows, storage = case.schema, case.rows, result.storage
    for node in schema.lattice.nodes():
        expected = reference_group_by(schema, rows, node)
        assert normalize_answer(answer_cure_query(storage, cache, node)) == (
            expected
        ), node
        for min_count in (2, 3):
            iceberg = [pair for pair in expected if pair[1][COUNT] >= min_count]
            assert normalize_answer(
                iceberg_over_cure(storage, cache, node, min_count)
            ) == iceberg, (node, min_count)
        for dim in node.grouping_dims(schema.dimensions):
            dimension = schema.dimensions[dim]
            for level in range(node.levels[dim], dimension.n_levels):
                members = {dimension.cardinality(level) - 1, 0}
                slices = [DimensionSlice.of(dim, level, members)]
                assert normalize_answer(
                    answer_cure_sliced(storage, cache, node, slices)
                ) == sliced_reference(schema, rows, node, slices), (node, slices)

