"""Count-iceberg queries: ``… HAVING count(*) >= min_count``.

The paper notes (end of Section 7) that answering count-iceberg queries
over a CURE cube is "orders of magnitude more efficient than doing so over
any other format, since in this case TTs can be ignored (recall that the
count for TTs is always 1)".  Over a CURE cube, an iceberg query with
``min_count >= 2`` therefore touches only the NT and CAT relations —
usually a small fraction of the node's tuples in sparse data — while BUC
and BU-BST must filter every stored tuple.

Every function here requires the schema to carry a COUNT aggregate.
"""

from __future__ import annotations

from repro.baselines.bubst import BuBstCube
from repro.baselines.buc import BucCube
from repro.core.storage import CubeStorage
from repro.lattice.node import CubeNode
from repro.query.answer import (
    QueryStats,
    answer_bubst_query,
    answer_buc_query,
    answer_cure_query,
    read_node_relations,
)
from repro.query.cache import FactCache
from repro.query.column_answer import ColumnAnswer


def _require_count_index(schema) -> int:
    index = schema.count_aggregate_index()
    if index is None:
        raise ValueError(
            "iceberg count queries need a COUNT aggregate in the schema"
        )
    return index


def count_filter(schema, answer: ColumnAnswer, min_count: int) -> ColumnAnswer:
    """The rows of ``answer`` whose COUNT reaches ``min_count``."""
    count_index = _require_count_index(schema)
    return answer.filter(answer.aggregates[:, count_index] >= min_count)


def iceberg_over_cure(
    storage: CubeStorage,
    cache: FactCache,
    node: CubeNode,
    min_count: int,
    stats: QueryStats | None = None,
) -> ColumnAnswer:
    """Iceberg query over CURE: TT relations are skipped entirely.

    NTs carry their count and a CAT's aggregate vector lives in
    AGGREGATES, so both filter on the stored count before paying any
    fact fetch.
    """
    count_index = _require_count_index(storage.schema)
    if min_count <= 1:
        return answer_cure_query(storage, cache, node, stats)
    return read_node_relations(
        storage,
        cache,
        node,
        stats,
        having=lambda aggregates: aggregates[:, count_index] >= min_count,
    )


def iceberg_over_buc(
    cube: BucCube,
    node: CubeNode,
    min_count: int,
    stats: QueryStats | None = None,
) -> ColumnAnswer:
    """Iceberg query over BUC: read the node, then filter every tuple."""
    return count_filter(cube.schema, answer_buc_query(cube, node, stats), min_count)


def iceberg_over_bubst(
    cube: BuBstCube,
    node: CubeNode,
    min_count: int,
    stats: QueryStats | None = None,
) -> ColumnAnswer:
    """Iceberg query over BU-BST: full monolithic scan, then filter."""
    full = answer_bubst_query(cube, node, stats)
    return count_filter(cube.schema, full, min_count)
