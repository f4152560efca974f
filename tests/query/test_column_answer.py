"""Differential harness for :class:`ColumnAnswer` and the columnar query layer.

Two layers of locking-in:

* **Value-type laws** — construction bridges (`from_pairs`/`to_pairs`
  round-trips, `of_rows`), normalized
  equality, and the container protocol the legacy call sites rely on.
* **Differential equivalence** — every query entry point (node, slice,
  iceberg, rollup) over every format (CURE, CURE+, BUC, BU-BST) must
  produce the same answer through ``ColumnAnswer.to_pairs()`` as the
  tuple-at-a-time oracle (``tests/support/row_engine.py``) produces
  directly, with *identical* :class:`QueryStats` and
  fact-:class:`CacheStats` counters — the columnar engine changes how
  fast the work runs, never how much work the benchmarks see.

The :class:`ResultCache` storing ``ColumnAnswer`` directly is covered at
the bottom: hit/miss keying on ``(node, slices)``, a cleared cache after
incremental maintenance, and empty-answer caching.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from paper.baselines import build_bubst_cube, build_buc_cube
from paper.baselines.query import (
    answer_bubst_query,
    answer_buc_query,
    answer_rollup_from_bubst,
    answer_rollup_from_buc,
    iceberg_over_bubst,
    iceberg_over_buc,
)
from repro import build_cube
from repro.core.incremental import apply_delta
from repro.core.postprocess import postprocess_plus
from repro.lattice.node import CubeNode
from repro.query import (
    ColumnAnswer,
    DimensionSlice,
    FactCache,
    ResultCache,
    answer_cure_query,
    answer_cure_sliced,
    iceberg_over_cure,
    normalize_answer,
)
from repro.core.variants import VARIANTS
from repro.query.planner import CubePlanner, QueryRequest
from tests.support import row_engine
from tests.support.rows import table_of


# -- value-type laws ----------------------------------------------------------


PAIRS = [((3, 1), (10, 2)), ((0, 5), (7, 1)), ((3, 1), (4, 4))]


def test_from_pairs_to_pairs_roundtrip_preserves_order():
    answer = ColumnAnswer.from_pairs(PAIRS)
    assert answer.arity == 2
    assert answer.n_aggregates == 2
    assert answer.to_pairs() == PAIRS
    assert ColumnAnswer.from_pairs(answer.to_pairs()) == answer


def test_empty_roundtrip():
    empty = ColumnAnswer.empty(3, 2)
    assert empty.to_pairs() == []
    assert ColumnAnswer.from_pairs(empty.to_pairs(), 3, 2) == empty
    # Shape survives explicitly; without it, empties still compare equal.
    assert ColumnAnswer.from_pairs([]) == empty
    assert empty == []


def test_container_protocol_matches_pairs():
    answer = ColumnAnswer.from_pairs(PAIRS)
    assert len(answer) == 3
    assert list(answer) == PAIRS
    assert sorted(answer) == sorted(PAIRS)


def test_normalized_matches_sorted_pairs():
    answer = ColumnAnswer.from_pairs(PAIRS)
    assert answer.normalized().to_pairs() == sorted(PAIRS)
    assert normalize_answer(answer) == sorted(PAIRS)


def test_equality_is_order_insensitive():
    forward = ColumnAnswer.from_pairs(PAIRS)
    backward = ColumnAnswer.from_pairs(list(reversed(PAIRS)))
    assert forward == backward
    assert forward == list(reversed(PAIRS))
    assert forward != PAIRS[:2]
    assert forward != ColumnAnswer.from_pairs([((3, 1), (10, 2))] * 3)


def test_equality_rejects_shape_mismatch():
    answer = ColumnAnswer.from_pairs(PAIRS)
    other = ColumnAnswer.from_pairs([(d + (0,), a) for d, a in PAIRS])
    assert answer != other


def test_of_rows_views_one_matrix():
    rows = np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=np.int64)
    answer = ColumnAnswer.of_rows(2, rows)
    assert answer.to_pairs() == [((1, 2), (3, 4)), ((5, 6), (7, 8))]
    assert answer.matrix() is rows
    assert np.shares_memory(answer.dims, rows)
    assert np.shares_memory(answer.aggregates, rows)
    # a transformation keeps one matrix; an answer built from two
    # matrices stacks them
    assert answer.take(np.array([1])).matrix().tolist() == [[5, 6, 7, 8]]
    assert ColumnAnswer.from_pairs(PAIRS).matrix().tolist() == [
        list(d + a) for d, a in PAIRS
    ]
    assert ColumnAnswer.of_rows(0, np.empty((0, 2), dtype=np.int64)) == (
        ColumnAnswer.empty(0, 2)
    )


def test_misaligned_matrices_rejected():
    with pytest.raises(ValueError):
        ColumnAnswer(2, 1, np.zeros((2, 2)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        ColumnAnswer(2, 1, np.zeros((2, 3)), np.zeros((2, 1)))


def test_filter_and_take():
    answer = ColumnAnswer.from_pairs(PAIRS)
    kept = answer.filter(np.array([True, False, True]))
    assert kept.to_pairs() == [PAIRS[0], PAIRS[2]]
    assert answer.take(np.array([2, 0])).to_pairs() == [PAIRS[2], PAIRS[0]]
    with pytest.raises(ValueError):
        answer.filter(np.array([True]))


# -- differential equivalence across formats and workloads --------------------


@pytest.fixture(scope="module")
def world():
    """One fact table, every cube format built over it."""
    from repro import CubeSchema, linear_dimension, make_aggregates

    a = linear_dimension("A", [("A0", 12), ("A1", 6), ("A2", 3)])
    b = linear_dimension("B", [("B0", 8), ("B1", 4)])
    c = linear_dimension("C", [("C0", 5)])
    schema = CubeSchema(
        (a, b, c), make_aggregates(("sum", 0), ("count", 0)), n_measures=1
    )
    rng = random.Random(41)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5),
         rng.randrange(20))
        for _ in range(300)
    ]
    table = table_of(schema.fact_schema, rows)
    cure = build_cube(schema, table=table).storage
    plus = build_cube(schema, table=table).storage
    postprocess_plus(plus)
    flat = VARIANTS["FCURE"].build(schema=schema, table=table)[0].storage
    buc, _stats = build_buc_cube(schema, table)
    bubst, _stats = build_bubst_cube(schema, table)
    cache = FactCache(schema, table=table)
    return schema, table, cache, {
        "cure": cure, "cure+": plus, "fcure": flat,
        "buc": buc, "bubst": bubst,
    }


run_differential = row_engine.assert_engine_matches


NODES = [CubeNode((0, 0, 0)), CubeNode((1, 1, 0)), CubeNode((2, 2, 1)),
         CubeNode((0, 2, 0))]


@pytest.mark.parametrize("fmt", ["cure", "cure+"])
def test_node_queries_differential_cure(world, fmt):
    schema, _table, cache, cubes = world
    for node in NODES:
        answer = run_differential(
            cache,
            lambda stats: answer_cure_query(cubes[fmt], cache, node, stats),
            lambda stats: row_engine.answer_cure_query(
                cubes[fmt], cache, node, stats
            ),
        )
        assert ColumnAnswer.from_pairs(answer.to_pairs()) == answer


def test_node_queries_differential_baselines(world):
    schema, _table, cache, cubes = world
    for node in NODES:
        run_differential(
            cache,
            lambda stats: answer_buc_query(cubes["buc"], node, stats),
            lambda stats: row_engine.answer_buc_query(
                cubes["buc"], node, stats
            ),
        )
        run_differential(
            cache,
            lambda stats: answer_bubst_query(cubes["bubst"], node, stats),
            lambda stats: row_engine.answer_bubst_query(
                cubes["bubst"], node, stats
            ),
        )


SLICES = [DimensionSlice.of(0, 1, frozenset({0, 2})),
          DimensionSlice.of(2, 0, frozenset({1, 3}))]


@pytest.mark.parametrize("fmt", ["cure", "cure+"])
def test_sliced_queries_differential(world, fmt):
    _schema, _table, cache, cubes = world
    node = CubeNode((0, 1, 0))
    run_differential(
        cache,
        lambda stats: answer_cure_sliced(
            cubes[fmt], cache, node, SLICES, stats
        ),
        lambda stats: row_engine.answer_cure_sliced(
            cubes[fmt], cache, node, SLICES, stats
        ),
    )


@pytest.mark.parametrize("min_count", [2, 4])
def test_iceberg_differential(world, min_count):
    schema, _table, cache, cubes = world
    node = CubeNode((0, 0, 0))
    for fmt in ("cure", "cure+"):
        run_differential(
            cache,
            lambda stats: iceberg_over_cure(
                cubes[fmt], cache, node, min_count, stats
            ),
            lambda stats: row_engine.iceberg_over_cure(
                cubes[fmt], cache, node, min_count, stats
            ),
        )
    run_differential(
        cache,
        lambda stats: iceberg_over_buc(cubes["buc"], node, min_count, stats),
        lambda stats: row_engine.iceberg_over_buc(
            cubes["buc"], node, min_count, stats
        ),
    )
    run_differential(
        cache,
        lambda stats: iceberg_over_bubst(
            cubes["bubst"], node, min_count, stats
        ),
        lambda stats: row_engine.iceberg_over_bubst(
            cubes["bubst"], node, min_count, stats
        ),
    )


def test_rollup_differential(world):
    schema, _table, cache, cubes = world
    for levels in [(1, 0, 0), (2, 1, 0), (1, 2, 1)]:
        node = CubeNode(levels)
        run_differential(
            cache,
            lambda stats: CubePlanner(cubes["fcure"], cache).execute(
                QueryRequest(node), stats
            ),
            lambda stats: row_engine.answer_rollup_from_flat(
                cubes["fcure"], cache, node, stats
            ),
        )
        run_differential(
            cache,
            lambda stats: answer_rollup_from_buc(cubes["buc"], node, stats),
            lambda stats: row_engine.answer_rollup_from_buc(
                cubes["buc"], node, stats
            ),
        )
        run_differential(
            cache,
            lambda stats: answer_rollup_from_bubst(
                cubes["bubst"], node, stats
            ),
            lambda stats: row_engine.answer_rollup_from_bubst(
                cubes["bubst"], node, stats
            ),
        )


def test_planner_differential(world):
    _schema, _table, cache, cubes = world
    planner = CubePlanner(cubes["cure"], cache, results=None)
    for request in [
        QueryRequest.of(CubeNode((0, 1, 0))),
        QueryRequest.of(CubeNode((0, 1, 0)), *SLICES),
    ]:
        run_differential(
            cache,
            lambda stats: planner.execute(request, stats),
            lambda stats: row_engine.answer_request(planner, request, stats),
        )


def test_batch_answers_never_materialize_python_tuples(world, monkeypatch):
    """The columnar invariant, enforced: the CURE node path must not
    call ``ColumnAnswer.to_pairs`` anywhere."""
    schema, _table, cache, cubes = world

    def boom(self):  # pragma: no cover - only fires on regression
        raise AssertionError("batch path materialized Python tuples")

    monkeypatch.setattr(ColumnAnswer, "to_pairs", boom)
    answer = answer_cure_query(cubes["cure"], cache, CubeNode((0, 1, 0)))
    assert isinstance(answer, ColumnAnswer)
    assert len(answer) > 0


# -- ResultCache storing ColumnAnswer ----------------------------------------


def test_result_cache_stores_column_answers_directly():
    cache = ResultCache()
    answer = ColumnAnswer.from_pairs(PAIRS)
    cache.put(4, (), answer)
    hit = cache.lookup(4, ()).answer
    assert hit is answer  # no re-encoding on either side
    assert cache.stats.hits == 1


def test_result_cache_bridges_legacy_pairs():
    # Pairs come in through ``from_pairs``; ``put`` takes nothing else.
    cache = ResultCache()
    cache.put(4, (), ColumnAnswer.from_pairs(PAIRS))
    hit = cache.lookup(4, ()).answer
    assert isinstance(hit, ColumnAnswer)
    assert hit == PAIRS
    with pytest.raises(TypeError):
        cache.put(4, (), PAIRS)


def test_result_cache_keying_on_node_and_slices():
    cache = ResultCache()
    sliced = (DimensionSlice.of(0, 1, frozenset({0})),)
    cache.put(1, (), ColumnAnswer.from_pairs([((0,), (1,))]))
    cache.put(1, sliced, ColumnAnswer.from_pairs([((2,), (3,))]))
    cache.put(2, (), ColumnAnswer.from_pairs([((4,), (5,))]))
    assert cache.lookup(1, ()).answer == [((0,), (1,))]
    assert cache.lookup(1, sliced).answer == [((2,), (3,))]
    assert cache.lookup(2, ()).answer == [((4,), (5,))]
    assert cache.lookup(2, sliced) is None  # miss: same node, other predicate
    assert cache.stats.misses == 1


def test_result_cache_caches_empty_column_answers():
    cache = ResultCache()
    cache.put(3, (), ColumnAnswer.empty(2, 2))
    hit = cache.lookup(3, ()).answer
    assert hit is not None  # a cached empty answer is a hit, not a miss
    assert len(hit) == 0
    assert cache.stats.hits == 1 and cache.stats.misses == 0


def test_planner_invalidate_results_after_incremental_maintenance(
    paper_schema,
):
    rng = random.Random(17)
    rows = [
        (rng.randrange(12), rng.randrange(8), rng.randrange(5),
         rng.randrange(20))
        for _ in range(120)
    ]
    table = table_of(paper_schema.fact_schema, rows)
    result = build_cube(paper_schema, table=table)
    cache = FactCache(paper_schema, table=table)
    planner = CubePlanner(result.storage, cache)
    node = CubeNode((0, 0, 0))
    stale = planner.answer(QueryRequest.of(node))
    assert len(planner.results) == 1

    delta = [(0, 0, 0, 99), (11, 7, 4, 1)]
    apply_delta(result.storage, paper_schema, table, delta)
    assert planner.results.clear() == 1

    fresh = planner.answer(QueryRequest.of(node))
    reference = build_cube(paper_schema, table=table)
    expected = answer_cure_query(
        reference.storage, FactCache(paper_schema, table=table), node
    )
    assert normalize_answer(fresh) == normalize_answer(expected)
    assert normalize_answer(stale) != normalize_answer(fresh)
