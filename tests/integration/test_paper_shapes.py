"""Shape tests: the paper's qualitative claims at small scale.

Each test pins one claim from Section 7 (who wins, in which direction)
using deliberately small datasets so the suite stays fast.  The full-size
counterparts live in ``benchmarks/paper/``.
"""

import pytest

from paper.baselines import build_bubst_cube, build_buc_cube
from paper.baselines.query import answer_bubst_query, answer_buc_query
from repro.core.variants import VARIANTS
from repro.datasets import (
    generate_covtype_like,
    generate_flat_dataset,
    generate_sep85l_like,
)
from repro.query import (
    FactCache,
    QueryStats,
    answer_cure_query,
    random_node_queries,
)

SCALE = 1 / 600  # ~1-1.7k tuples per real dataset


@pytest.fixture(scope="module")
def covtype():
    return generate_covtype_like(SCALE)


@pytest.fixture(scope="module")
def sep85l():
    return generate_sep85l_like(SCALE)


def build_all(schema, table):
    buc, _s = build_buc_cube(schema, table)
    bubst, _s = build_bubst_cube(schema, table)
    cure, _p = VARIANTS["CURE"].with_pool(100_000).build(schema, table=table)
    plus, _p = VARIANTS["CURE+"].with_pool(100_000).build(schema, table=table)
    return buc, bubst, cure.storage, plus.storage


@pytest.mark.parametrize("dataset_fixture", ["covtype", "sep85l"])
def test_fig15_storage_order(dataset_fixture, request):
    """Figure 15: CURE ≪ BU-BST and BUC; CURE+ <= CURE.

    (On the sparser CovType, BUC is also clearly bigger than BU-BST; on
    Sep85L the paper's own bars put them close, so only CURE's win is
    asserted there.)
    """
    schema, table = request.getfixturevalue(dataset_fixture)
    buc, bubst, cure, plus = build_all(schema, table)
    cure_bytes = cure.size_report().total_bytes
    plus_bytes = plus.size_report().total_bytes
    assert plus_bytes <= cure_bytes
    assert cure_bytes < bubst.size_report_bytes()
    assert cure_bytes < buc.size_report_bytes()
    if dataset_fixture == "covtype":
        assert bubst.size_report_bytes() < buc.size_report_bytes()
    # "an order of magnitude smaller" — allow ≥ 3x at this tiny scale.
    assert bubst.size_report_bytes() / cure_bytes > 3


def test_fig16_bubst_queries_much_slower(covtype):
    """Figure 16: BU-BST's monolithic scan loses by orders of magnitude.

    Measured in rows scanned (machine-independent), not wall time.
    """
    schema, table = covtype
    buc, bubst, cure, _plus = build_all(schema, table)
    queries = random_node_queries(schema, 15, seed=41, flat=True)
    cache = FactCache(schema, table=table)
    buc_stats, bubst_stats, cure_stats = QueryStats(), QueryStats(), QueryStats()
    for query in queries:
        answer_buc_query(buc, query, buc_stats)
        answer_bubst_query(bubst, query, bubst_stats)
        answer_cure_query(cure, cache, query, cure_stats)
    assert bubst_stats.rows_scanned > 20 * buc_stats.rows_scanned
    assert bubst_stats.rows_scanned > 20 * cure_stats.rows_scanned


def test_fig18_pool_size_monotone(sep85l):
    """Figure 18: cube size is monotonically non-increasing in pool size."""
    schema, table = sep85l
    sizes = []
    for capacity in (64, 1024, 16384, None):
        result, _p = VARIANTS["CURE"].with_pool(capacity).build(
            schema, table=table
        )
        sizes.append(result.storage.size_report().total_bytes)
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < sizes[0]


def test_fig20_cure_smallest_across_dimensionalities():
    """Figure 20: CURE(+) storage is smallest at every D."""
    for d in (4, 6):
        schema, table = generate_flat_dataset(
            d, 1200, zipf=0.8, seed=7,
            aggregates=(("sum", 0), ("count", 0)),
        )
        buc, bubst, cure, plus = build_all(schema, table)
        assert plus.size_report().total_bytes <= cure.size_report().total_bytes
        assert cure.size_report().total_bytes < bubst.size_report_bytes()
        assert cure.size_report().total_bytes < buc.size_report_bytes()


def test_fig22_skew_kills_tts():
    """Figure 22: high skew densifies the cube — far fewer TTs than at
    Z = 0, and BU-BST's size approaches BUC's."""
    def bst_share(zipf):
        schema, table = generate_flat_dataset(
            4, 2000, zipf=zipf, seed=3, aggregates=(("sum", 0), ("count", 0))
        )
        buc, _s = build_buc_cube(schema, table)
        bubst, stats = build_bubst_cube(schema, table)
        return (
            stats.bst_written / bubst.total_tuples,
            bubst.size_report_bytes() / buc.size_report_bytes(),
        )

    share_uniform, _ratio_uniform = bst_share(0.0)
    share_skewed, ratio_skewed = bst_share(2.0)
    assert share_skewed < 0.75 * share_uniform
    assert 0.6 < ratio_skewed < 1.7  # "approximately equal" at Z = 2


def test_fig22_low_skew_many_tts():
    """Low Z → sparse cube → many TTs shrink CURE and BU-BST."""
    schema, table = generate_flat_dataset(
        6, 1500, zipf=0.0, seed=3, aggregates=(("sum", 0), ("count", 0))
    )
    _buc, stats = build_bubst_cube(schema, table)
    assert stats.bst_written > stats.nodes_aggregated


def test_fig17_cache_improves_cure_qrt(covtype, tmp_path):
    """Figure 17: more cache → fewer heap reads for CURE queries."""
    from repro import Engine
    from repro.relational.catalog import Catalog
    from repro.relational.memory import MemoryManager

    schema, table = covtype
    _buc, _bubst, cure, _plus = build_all(schema, table)
    engine = Engine(Catalog(tmp_path / "c"), MemoryManager())
    heap = engine.store_table("fact", table)
    queries = random_node_queries(schema, 10, seed=43, flat=True)
    misses = []
    for fraction in (0.0, 0.5, 1.0):
        cache = FactCache(schema, heap=heap, fraction=fraction)
        for query in queries:
            answer_cure_query(cure, cache, query)
        misses.append(cache.stats.misses)
    assert misses[0] > misses[1] > misses[2] == 0
    engine.close()
