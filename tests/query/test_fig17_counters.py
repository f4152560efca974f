"""Figure 17's fact-cache counters, pinned.

Section 5.3's claim is a counter: a node query dereferences its row-ids
through a fact cache, and a CURE+ cube's sorted row-id lists turn the
misses into one forward pass.  This replays Figure 16/17's query loop
(``repro.bench.experiments.run_fig16_17``: random flat node queries,
seed 13, over a heap-backed cache at every fraction) at a small scale
and holds the fact cache to numbers pinned when it still kept tuples in
a dict and fetched misses one ``read_row`` or ``read_rows_sequential``
at a time: hits, misses and answer rows are unchanged by the columnar
cache.  ``runs`` — positioned heap reads — was pinned when it was added:
one per miss on unsorted CURE lists, and on CURE+ one per run of
consecutive missed row-ids.  Both cubes here store CATs in format (b),
whose rows CURE+ left in build order until it sorted every stored
row-id list: until then a node with CATs read its misses one at a time,
and the CURE+ ``runs`` were re-pinned (about halved) when that changed.
"""

from __future__ import annotations

import pytest

from repro.core.variants import VARIANTS
from repro.datasets import generate_covtype_like, generate_sep85l_like
from repro.query import FactCache, answer_cure_query, random_node_queries
from repro.relational.engine import Engine

SCALE = 0.0005
N_QUERIES = 12
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: (dataset, variant) -> per fraction: (hits, misses, runs); answer rows
#: are hits + misses (every answer row is one dereference here).
PINNED = {
    ("CovType", "CURE"): [
        (0, 567, 567), (136, 431, 431), (265, 302, 302),
        (448, 119, 119), (567, 0, 0),
    ],
    ("CovType", "CURE+"): [
        (0, 567, 268), (136, 431, 235), (265, 302, 190),
        (448, 119, 111), (567, 0, 0),
    ],
    ("Sep85L", "CURE"): [
        (0, 1413, 1413), (376, 1037, 1037), (744, 669, 669),
        (1070, 343, 343), (1413, 0, 0),
    ],
    ("Sep85L", "CURE+"): [
        (0, 1413, 701), (376, 1037, 637), (744, 669, 504),
        (1070, 343, 275), (1413, 0, 0),
    ],
}

DATASETS = {"CovType": generate_covtype_like, "Sep85L": generate_sep85l_like}


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_fig17_cache_counters_are_pinned(dataset):
    schema, table = DATASETS[dataset](SCALE)
    queries = random_node_queries(schema, N_QUERIES, seed=13, flat=True)
    engine = Engine.temporary()
    try:
        heap = engine.store_table("fact", table)
        for variant in ("CURE", "CURE+"):
            result, _plus = VARIANTS[variant].with_pool(200_000).build(
                schema, table=table
            )
            counters = []
            for fraction in FRACTIONS:
                cache = FactCache(schema, heap=heap, fraction=fraction)
                rows = sum(
                    len(answer_cure_query(result.storage, cache, query))
                    for query in queries
                )
                stats = cache.stats
                assert rows == stats.hits + stats.misses
                counters.append((stats.hits, stats.misses, stats.runs))
            assert counters == PINNED[dataset, variant], variant
    finally:
        engine.destroy()
